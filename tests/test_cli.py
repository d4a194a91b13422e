import json
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


def test_simulate_sim1_reaches_the_shear_optimum(tmp_path):
    result = run_cli(tmp_path, "simulate", "sim1", "--no-convergence")
    assert result.returncode == 0, result.stderr
    fits = json.loads((tmp_path / "sim1_summary.json").read_text())["fits"]
    assert fits["shear"]["relative_mse_sum"] <= 6.2e-7
    assert all(isinstance(fit["jacobian_rank"], int) for fit in fits.values())


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, growlat, growlat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
