"""Shared fixtures."""

import pytest

from gridcp.scores import MeanAbsDistance, NegPredictiveDensity, PrototypeEmbedding


@pytest.fixture
def kernel_calls(monkeypatch) -> list[str]:
    """Spy on the leave-one-out kernel, `loo_tables` of each shipped score:
    the returned list gets the score's kind once per call."""
    calls: list[str] = []
    for cls in (MeanAbsDistance, PrototypeEmbedding, NegPredictiveDensity):

        def spy(self, points, candidates, _kernel=cls.loo_tables):
            calls.append(self.kind)
            return _kernel(self, points, candidates)

        monkeypatch.setattr(cls, "loo_tables", spy)
    return calls
