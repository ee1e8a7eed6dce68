"""Every script under demos/ runs to completion against the package source,
and the README quick start gives the results its comments state."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _quick_start_blocks():
    """The python blocks of the README's "Quick start" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0].split("\n### ", 1)[0]
    return [block.split("\n```", 1)[0] for block in section.split("```python\n")[1:]]


def test_readme_quick_start_gives_its_commented_results():
    blocks = _quick_start_blocks()
    names = {}
    for block in blocks:
        exec(block, names)
    # the comment after each assignment, by the name assigned
    comments = {
        line.split("=", 1)[0].strip(): line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if "=" in line and "#" in line
    }
    assert comments == {
        "disk": "four rational quadratic arcs",
        "rule": "1024 interior points",
        "area": "3.141592653589793",
        "val": "3.99523706774803",
        "rule3": "104 points, exact through degree 3",
        "vol": "pi",
    }
    assert len(names["disk"].curves) == 4
    assert all(c.degree == 2 for c in names["disk"].curves)
    assert len(names["rule"]) == 1024 and len(names["rule3"]) == 104
    assert repr(names["area"]) == comments["area"]
    assert repr(names["val"]) == comments["val"]
    assert abs(names["vol"] - math.pi) <= 1e-14
