"""The demo scripts the README documents run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/transduction_demo.py"],
    ["scripts/count_prime_graphs.py", "--max-n", "4"],
], ids=["transduction_demo", "count_prime_graphs"])
def test_demo_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
