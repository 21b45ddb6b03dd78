"""The README's examples run: every python block executes, and every json
block is a config `ExperimentConfig.from_json_obj` accepts."""

import json
import re
from pathlib import Path

from gridcp.harness import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    assert blocks, f"README has no {language} block"
    return blocks


def test_python_blocks_run():
    for k, block in enumerate(_blocks("python")):
        exec(compile(block, f"README.md python block {k}", "exec"), {})


def test_json_blocks_are_configs():
    for block in _blocks("json"):
        ExperimentConfig.from_json_obj(json.loads(block))
