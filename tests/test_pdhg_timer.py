import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_timer_runs_against_the_package():
    # the tool calls pdhg_tv_prox and PdhgConfig by name; a change to their
    # signatures shows here first
    cmd = [sys.executable, str(ROOT / "tools" / "pdhg_timer.py"), str(ROOT / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digests equal on every call" in proc.stdout
