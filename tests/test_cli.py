import csv
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growlat import apply_growth, fractional_error_map, square_lattice
from growlat.experiments import EXAMPLE_GROWTH

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "growlat.cli", "--out", str(tmp_path), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def assert_stops_where_the_stable_branch_ends(result):
    # on the defaults, the branch solve of the first dilational datum,
    # lambda = 1/1.5, meets an indefinite Hessian
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "sample 0, F = [[0.6666666666666666, 0.0], [0.0, 0.6666666666666666]]" in lines[0]
    assert lines[0].endswith(": Hessian not positive definite on the affine branch")


def test_non_converging_simulation_exits_2_without_traceback(tmp_path):
    assert_stops_where_the_stable_branch_ends(run_cli(tmp_path, "simulate", "sim2"))


@pytest.mark.parametrize("simulation", ["sim2-sweep", "sim3", "sim4"])
def test_every_branch_simulation_names_its_failing_datum(tmp_path, simulation):
    assert_stops_where_the_stable_branch_ends(run_cli(tmp_path, "simulate", simulation))


def test_simulate_sim1_reaches_the_shear_optimum(tmp_path):
    result = run_cli(tmp_path, "simulate", "sim1")
    assert result.returncode == 0, result.stderr
    fits = json.loads((tmp_path / "sim1_summary.json").read_text())["fits"]
    assert fits["shear"]["relative_mse_sum"] <= 6.2e-7
    assert all(isinstance(fit["jacobian_rank"], int) for fit in fits.values())


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", SRC.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_the_benchmark_sim1_command_writes_what_plain_sim1_writes(tmp_path):
    # the benchmark still passes --no-convergence, which must keep parsing and change nothing
    [argv] = benchmark_workloads()["sim1-fit"].commands
    assert "--no-convergence" in argv
    for out, args in ((tmp_path / "bench", argv), (tmp_path / "plain", ["simulate", "sim1"])):
        result = run_cli(out, *args)
        assert result.returncode == 0, result.stderr
    files = ["sim1_dilational_curves.csv", "sim1_shear_curves.csv", "sim1_summary.json"]
    for out in ("bench", "plain"):
        assert sorted(path.name for path in (tmp_path / out).iterdir()) == files
    for name in files:
        assert (tmp_path / "bench" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert "convergence" not in json.loads((tmp_path / "plain" / "sim1_summary.json").read_text())


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_error_map_ex7_writes_every_grid_point(tmp_path):
    result = run_cli(tmp_path, "error-map", "ex7")
    assert result.returncode == 0, result.stderr
    header, *rows = read_csv(tmp_path / "ex7_error_map.csv")
    assert header == ["lam1", "lam2", "lam3", "error", "mask_10", "mask_20"]
    assert len(rows) == 86_756  # 46 x 46 x 41, lam3 fastest
    initial = square_lattice()
    emap = fractional_error_map(initial, apply_growth(initial, EXAMPLE_GROWTH["ex7"]), thresholds=(0.10, 0.20))
    points = itertools.product(emap.lam1.tolist(), emap.lam2.tolist(), emap.lam3.tolist())
    expected = [[*map(repr, point), repr(error)] for point, error in zip(points, emap.values.ravel().tolist())]
    assert [row[:4] for row in rows] == expected
    masks = np.array([row[4:] for row in rows])
    assert set(masks.ravel()) <= {"0", "1"}
    assert np.array_equal(masks == "1", np.stack([emap.masks[0.10].ravel(), emap.masks[0.20].ravel()], axis=1))


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_oned_on_one_size_writes_a_null_rate(tmp_path):
    # one size gives no observed rate; it used to be written as the invalid JSON "Infinity"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ns": [16]}))
    result = run_cli(tmp_path, "--config", str(config), "oned")
    assert result.returncode == 0, result.stderr
    assert "observed rate~inf" in result.stdout
    summary = json.loads((tmp_path / "oned_summary.json").read_text(), parse_constant=reject_constant)
    assert summary["results"][0]["rate"] is None


def test_oned_writes_n_as_integers(tmp_path):
    result = run_cli(tmp_path, "oned")
    assert result.returncode == 0, result.stderr
    header, *rows = read_csv(tmp_path / "oned_convergence.csv")
    assert header == ["f", "n", "chain_energy", "continuum_energy", "abs_error"]
    assert [row[1] for row in rows] == ["16", "32", "64", "128", "256", "512"]
    assert all(row[0] == "2.0" for row in rows)


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, growlat, growlat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


PINNED_VERDICTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "fingerprints.json").read_text())[
    "continuum-cli"]["check_verdicts"]


def test_check_passes_every_suite(tmp_path):
    # the perturbed run is the negative control: it must fail the exactness suite and only that one;
    # both runs report exactly the verdicts that the benchmark pins
    for perturb, failing in (([], set()), (["--perturb-g2", "1e-3"], {"decomposition_exactness"})):
        result = run_cli(tmp_path, "check", *perturb)
        assert result.returncode == (1 if failing else 0), result.stderr
        report = json.loads((tmp_path / "checks_summary.json").read_text())
        assert report["ok"] == (not failing)
        assert {name: check["ok"] for name, check in report["checks"].items()} == {
            name: name not in failing for name in PINNED_VERDICTS}
        assert sorted(line.split()[:2] for line in result.stdout.splitlines()) == sorted(
            ["FAIL" if name in failing else "PASS", name] for name in PINNED_VERDICTS)


@pytest.mark.parametrize("perturb", ["nan", "inf"])
def test_check_fails_on_a_non_finite_perturbation(tmp_path, perturb):
    # max(worst, nan) used to drop the NaN residuals, so this negative control passed
    result = run_cli(tmp_path, "check", "--perturb-g2", perturb)
    assert result.returncode == 1, result.stderr
    assert "FAIL decomposition_exactness (worst residual nan)" in result.stdout.splitlines()
    report = json.loads((tmp_path / "checks_summary.json").read_text(), parse_constant=reject_constant)
    assert report["checks"]["decomposition_exactness"] == {"ok": False, "worst_residual": None}
    assert not report["ok"]


def test_order_of_the_square_lattice_is_two(tmp_path):
    result = run_cli(tmp_path, "order")
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "order.json").read_text())
    assert payload["order"] == 2
    assert payload["classes"] == [[[1, 0], [0, 1]], [[1, 1], [1, -1]]]


def write_config(tmp_path, growth):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lattice": {"growth": growth}}))
    return str(path)


def test_ground_state_of_dilational_growth_is_the_dilation(tmp_path):
    result = run_cli(tmp_path, "--config", write_config(tmp_path, [1.2] * 4), "ground-state")
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "ground_state.json").read_text())
    assert payload["config"]["growth"] == [1.2] * 4
    assert np.allclose(payload["growth_tensor"], 1.2 * np.eye(2), rtol=0.0, atol=1e-8)
    assert abs(payload["energy"]) <= 1e-14


def test_decompose_axis_growth_into_diagonal_tensors(tmp_path):
    result = run_cli(tmp_path, "--config", write_config(tmp_path, [1.1, 0.9, 1.0, 1.0]), "decompose")
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["partition"] == [[0, 1], [2, 3]]
    assert np.allclose(payload["growth_tensors"], [[1.1, 0.0, 0.0, 0.9], [1.0, 0.0, 0.0, 1.0]], rtol=0.0, atol=1e-12)


def test_decompose_rejects_choices_outside_0_to_2(tmp_path):
    for choice in ("3", "-1"):
        result = run_cli(tmp_path, "decompose", "--choice", choice)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "invalid choice" in result.stderr
    assert not (tmp_path / "decomposition.json").exists()


def write_box_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"count": 2, **extra}))
    return str(path)


def test_box_grid_curves_write_one_column_per_parameter(tmp_path):
    result = run_cli(tmp_path, "--config", write_box_config(tmp_path), "simulate", "sim1",
                     "--family", "box", "--n", "4")
    assert result.returncode == 0, result.stderr
    header, *rows = read_csv(tmp_path / "sim1_box-grid_curves.csv")
    assert header == ["lam1", "lam2", "lam3", "true_energy", "homogenized_energy", "fractional_error"]
    assert len(rows) == 8  # 2 x 2 x 2 box corners
    values = np.array([[float(cell) for cell in row] for row in rows])
    assert set(values[:, 0]) == set(values[:, 1]) == {0.8, 1.25}
    assert set(values[:, 2]) == {-0.25, 0.25}


def test_sim4_box_grid_rest_curves_write_one_column_per_parameter(tmp_path):
    # on sim4's default lam_max of 1.5 the branch solve stops at sample 0
    config = write_box_config(tmp_path, family_overrides={"lam_max": 1.2})
    result = run_cli(tmp_path, "--config", config, "simulate", "sim4", "--family", "box", "--n", "4")
    assert result.returncode == 0, result.stderr
    header, *rows = read_csv(tmp_path / "sim4_box-grid_rest_curves.csv")
    assert header == ["lam1", "lam2", "lam3", "true_energy", "fractional_error"]
    assert len(rows) == 8
    assert all(np.isfinite(float(cell)) for row in rows for cell in row)


def test_error_map_rejects_grids_that_are_not_three_positive_integers(tmp_path):
    # [10, 10] used to die with an IndexError; [0, 10, 10] exited 0 with "nan of the sampled domain"
    for counts in ([10, 10], [0, 10, 10]):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_counts": counts}))
        result = run_cli(tmp_path, "--config", str(config), "error-map", "ex7")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "three positive integers" in lines[0]
        assert result.stdout == ""
    assert not (tmp_path / "ex7_error_map.csv").exists()


def test_unknown_solver_settings_exit_2(tmp_path):
    # a solver setting that does not exist is rejected, not silently ignored
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {"max_iter": 5}}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "max_iter" in lines[0]
    assert not (tmp_path / "sim1_summary.json").exists()


def test_top_level_family_block_exits_2(tmp_path):
    # a "family" block used to be ignored silently: {"count": 3} still wrote 60 rows
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": {"count": 3}}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "family_overrides" in lines[0]
    assert not (tmp_path / "sim1_summary.json").exists()


@pytest.mark.parametrize(
    "simulation, unread",
    [
        ("sim1", {"ns": [8], "convergence": True, "nonsense_key": 1}),
        ("sim2", {"high": 1.3}),
        ("sim2-sweep", {"growth_interval": [0.9, 1.1], "family_overrides": {"count": 3}}),
        ("sim3", {"deltas_hv": [0.1]}),
        ("sim4", {"nonsense_key": 1}),
    ],
)
def test_simulations_reject_top_level_keys_they_do_not_read(tmp_path, simulation, unread):
    # sim1 used to ignore such keys and write its default outputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "count": 2, **unread}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", simulation)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: unknown config keys {sorted(unread)} for {simulation};")
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


def test_keys_that_flags_set_count_as_read(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "n": 8, "q": 3, "families": ["dilational"], "count": 2}))
    result = run_cli(tmp_path, "--config", str(config), "--seed", "0", "simulate", "sim1",
                     "--n", "4", "--q", "2", "--family", "s")
    assert result.returncode == 0, result.stderr
    resolved = json.loads((tmp_path / "sim1_summary.json").read_text())["config"]
    assert (resolved["seed"], resolved["n"], resolved["q"], resolved["families"]) == (0, 4, 2, ["shear"])


@pytest.mark.parametrize(
    "command, unread",
    [
        (["error-map", "ex7"], {"grid_count": [4, 4, 4]}),
        (["oned"], {"fvalues": [1.5]}),
        (["check"], {"n": 4}),
        (["order"], {"nonsense_key": 1}),
        (["ground-state"], {"growth": [1.1, 1.1, 1.1, 1.1]}),
        (["decompose"], {"nonsense_key": 1}),
        (["simulate", "sim4", "--n", "4"], {"relaxation": "minimize"}),
    ],
    ids=["error-map", "oned", "check", "order", "ground-state", "decompose", "simulate-relaxation"],
)
def test_commands_reject_top_level_keys_they_do_not_read(tmp_path, command, unread):
    # oned and error-map used to ignore such keys and run on their defaults;
    # seed counts as read, as the global --seed flag sets it for every command
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, **unread}))
    result = run_cli(tmp_path, "--config", str(config), *command)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    name = command[1] if command[0] == "simulate" else command[0]
    assert len(lines) == 1 and lines[0].startswith(f"error: unknown config keys {sorted(unread)} for {name};")
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"ns": [16, 16]}, "ns must be a non-empty, strictly increasing list"),
        ({"ns": [32, 16]}, "ns must be a non-empty, strictly increasing list"),
        ({"profile": {"kind": "constnat", "value": 2.0}}, "unknown profile"),
        ({"profile": {"kind": "linear", "a": 1.0, "value": 2.0}}, "unknown profile"),
    ],
    ids=["repeated-size", "decreasing-sizes", "unknown-kind", "key-of-another-kind"],
)
def test_oned_rejects_sizes_out_of_order_and_unknown_profiles(tmp_path, config, message):
    # [16, 16] used to die with a ZeroDivisionError, [32, 16] reported a rate
    # from a halving, and an unknown kind ran linear_growth(1, 0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli(tmp_path, "--config", str(path), "oned")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert result.stdout == ""
    assert not list(tmp_path.glob("oned_*"))


@pytest.mark.parametrize("gtol_rel", [-1, 0])
def test_a_solver_tolerance_that_is_not_positive_exits_2(tmp_path, gtol_rel):
    # such a tolerance used to run every solve to its step limit before it failed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "count": 2, "solver": {"gtol_rel": gtol_rel}}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "gtol_rel" in lines[0]
    assert not list(tmp_path.glob("sim1_*"))


@pytest.mark.parametrize("override", [{"kind": "box-grid"}, {"lam": 1.2}])
def test_family_overrides_other_than_count_and_ranges_exit_2(tmp_path, override):
    # "kind" used to turn every family into box-grid under the families' own output names,
    # and other unknown keys were ignored silently
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 2, "n": 4, "family_overrides": override}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for name in (*override, "count", "lam_max", "lam_shear"):
        assert repr(name) in lines[0]
    assert not list(tmp_path.glob("sim1_*"))


def test_family_overrides_set_count_and_ranges_of_every_family(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "family_overrides": {"count": 3, "lam_max": 1.1, "lam_shear": 0.1}}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 0, result.stderr
    for family, lams in (("dilational", [1 / 1.1, (1 / 1.1 + 1.1) / 2, 1.1]), ("shear", [-0.1, 0.0, 0.1])):
        header, *rows = read_csv(tmp_path / f"sim1_{family}_curves.csv")
        assert header[0] == "lambda"
        assert np.allclose([float(row[0]) for row in rows], lams, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("case", ["malformed", "missing", "array", "out-is-a-file"])
def test_unreadable_config_or_output_directory_exits_2(tmp_path, case):
    # each of these used to stop with a traceback before the run's error handling started
    config = tmp_path / "config.json"
    config.write_text({"malformed": "{", "array": "[1, 2]"}.get(case, "{}"))
    if case == "missing":
        config = tmp_path / "absent.json"
    out = config if case == "out-is-a-file" else tmp_path / "runs"
    result = run_cli(tmp_path, "--config", str(config), "--out", str(out), "order")  # the last --out wins
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert result.stdout == ""
    assert not (tmp_path / "runs").exists()
