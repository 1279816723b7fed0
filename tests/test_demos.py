"""Every demo runs to completion, so the demos follow API changes."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, child_env):
    # the child imports the package from this checkout's src/, installed or not
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, env=child_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
