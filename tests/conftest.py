"""Shared fixtures."""

import pytest

from gridcp.scores import MeanAbsDistance, NegPredictiveDensity, PrototypeEmbedding


class KernelCalls(list):
    """The score's kind once per kernel call; `shapes` has each call's
    result shape."""

    def __init__(self):
        super().__init__()
        self.shapes: list[tuple[int, ...]] = []


@pytest.fixture
def kernel_calls(monkeypatch) -> KernelCalls:
    """Spy on the leave-one-out kernel, `loo_tables` of each shipped score,
    passing its `rows` through."""
    calls = KernelCalls()
    for cls in (MeanAbsDistance, PrototypeEmbedding, NegPredictiveDensity):

        def spy(self, points, candidates, rows=None, _kernel=cls.loo_tables):
            calls.append(self.kind)
            out = _kernel(self, points, candidates, rows)
            calls.shapes.append(out.shape)
            return out

        monkeypatch.setattr(cls, "loo_tables", spy)
    return calls
