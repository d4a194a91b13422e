import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "growlat.cli", "--out", str(tmp_path), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_non_converging_simulation_exits_2_without_traceback(tmp_path):
    # sim2 on its defaults: the branch solve at lambda = 1/1.5 runs out of Newton steps
    result = run_cli(tmp_path, "simulate", "sim2")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Newton steps" in lines[0]
