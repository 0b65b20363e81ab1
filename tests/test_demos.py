"""Every demo script, and README's library quick start, runs to completion."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import package_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=package_env(),
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the documented API cannot drift from the package's public names
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    proc = _run(["-c", block[1]])
    assert proc.returncode == 0, proc.stderr
