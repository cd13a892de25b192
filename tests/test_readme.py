"""The README's Python examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # Every ```python block, in order and in one namespace, from a directory
    # holding the two score files the quick start loads.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "calib_scores.csv", rng.normal(size=200), fmt="%.17g")
    np.savetxt(tmp_path / "test_scores.csv", rng.normal(size=150), fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
