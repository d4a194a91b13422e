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


def oned_rate(tmp_path, values):
    """The rate that oned prints and writes for a config; it must exit 0."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    result = run_cli(tmp_path, "--config", str(config), "oned")
    assert result.returncode == 0, result.stderr
    summary = json.loads((tmp_path / "oned_summary.json").read_text(), parse_constant=reject_constant)
    return result.stdout, summary["results"][0]["rate"]


def test_oned_on_one_size_writes_a_null_rate(tmp_path):
    # one size gives no observed rate; it used to be written as the invalid JSON "Infinity"
    stdout, rate = oned_rate(tmp_path, {"ns": [16]})
    assert "observed rate~inf" in stdout
    assert rate is None


def test_oned_on_an_exact_chain_writes_a_null_rate(tmp_path):
    # the chain is exact at N = 8 (error 0) and off by 1.4e-17 at N = 16; log(0) used to stop the run
    exact = {"profile": {"kind": "constant", "value": 1.0}, "f_values": [0.7], "ns": [8, 16]}
    stdout, rate = oned_rate(tmp_path, exact)
    assert "observed rate~inf" in stdout
    assert rate is None


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
        # no simulation reads p: every one decomposes, which needs p = 0
        ("sim1", {"p": 1}),
        # sim2-sweep's one dilational family is fixed; it used to run it whatever families said
        ("sim2-sweep", {"families": ["shear"]}),
        # the solver block is gone; SolverOptions keeps its default tolerance
        ("sim1", {"solver": {"gtol_rel": 1e-6}}),
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


@pytest.mark.parametrize(
    "command, config",
    [
        (["simulate", "sim2"], {"growth_interval": 0.8}),
        (["simulate", "sim2-sweep"], {"deltas_hv": 0.2}),
        (["simulate", "sim1"], {"family_overrides": 5}),
        (["simulate", "sim1"], {"count": [2]}),
        (["oned"], {"f_values": 2.0}),
        (["oned"], {"ns": 16}),
        (["order"], {"lattice": 5}),
        (["check"], {"seed": "x"}),
        # each of these used to be coerced: to N = 4, count 2, ["d", "s"], F = 2.0 and seed 1
        (["simulate", "sim1"], {"n": 4.9}),
        (["simulate", "sim1"], {"count": "2"}),
        (["simulate", "sim1"], {"families": "ds"}),
        (["oned"], {"f_values": "2"}),
        (["simulate", "sim1"], {"seed": True}),
    ],
    ids=["growth_interval", "deltas_hv", "family_overrides", "count", "f_values", "ns", "lattice", "seed",
         "n-float", "count-string", "families-string", "f_values-string", "seed-bool"],
)
def test_a_config_value_of_the_wrong_type_exits_2_naming_its_key(tmp_path, command, config):
    # each of these used to stop with a traceback and exit 1, the code of a failed check
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli(tmp_path, "--config", str(path), *command)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    [key] = config
    assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r} must be ")
    assert result.stdout == ""
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize(
    "command, config, message",
    [
        (["simulate", "sim1"], {"families": []}, "config key 'families' must be non-empty list of str"),
        (["oned"], {"f_values": []}, "config key 'f_values' must be non-empty list of float"),
        (["simulate", "sim2-sweep"], {"deltas_hv": []}, "config key 'deltas_hv' must be non-empty list of float"),
        (["simulate", "sim2-sweep"], {"deltas_d": []}, "config key 'deltas_d' must be non-empty list of float"),
        (["simulate", "sim1"], {"families": ["dilational", "dilational"]},
         "config key 'families' names a family twice"),
        (["simulate", "sim2"], {"growth_interval": [0.8, 1.2, 1.5]},
         "config key 'growth_interval' must be [low, high]"),
        (["simulate", "sim2"], {"growth_interval": []}, "config key 'growth_interval' must be non-empty list"),
        (["oned"], {"rest": 0}, "config key 'rest' must be positive"),
        (["oned"], {"rest": -1.0}, "config key 'rest' must be positive"),
        (["simulate", "sim2"], {"growth_interval": [1.2, 0.8]},
         "config key 'growth_interval': invalid growth interval (1.2, 0.8)"),
        (["simulate", "sim2"], {"families": ["dilatational"]},
         "config key 'families': unknown family kind 'dilatational'"),
        (["simulate", "sim2"], {"count": 1}, "config key 'count': sample count must be at least 2"),
        (["simulate", "sim2"], {"q": 1}, "config key 'q': power-law exponent must be an integer >= 2"),
        (["simulate", "sim2"], {"family_overrides": {"lam_max": 0.9}},
         "config key 'lam_max' in family_overrides: lam_max must exceed 1"),
        (["simulate", "sim1"], {"high": 1.5}, "config key 'high': checkerboard high value h must satisfy"),
        (["simulate", "sim2-sweep"], {"deltas_hv": [1.5]},
         "config key 'deltas_hv': invalid growth interval (-0.5, 2.5)"),
        (["simulate", "sim2-sweep"], {"deltas_d": [0.2, -0.1]},
         "config key 'deltas_d': invalid growth interval (1.1, 0.9)"),
        (["oned"], {"profile": {"kind": "linear", "a": 1.0, "b": -2.0}},
         "config key 'profile': growth profile must be increasing (positive rate)"),
        (["oned"], {"q": 1}, "config key 'q': power-law exponent must be an integer >= 2"),
        (["order"], {"lattice": {"rest": [1.0, 1.0, 1.0]}}, "config key 'lattice': expected 4 rest lengths, got 3"),
        (["decompose"], {"lattice": {"directions": [[1, 0], [-1, 0]]}},
         "config key 'lattice': directions (-1, 0) and (1, 0) are opposite"),
        (["simulate", "sim2"], {"n": 1}, "config key 'n': side count N must be at least 2, got 1"),
        (["oned"], {"ns": [1, 2]}, "config key 'ns': ns must be a non-empty, strictly increasing list"),
        (["oned"], {"ns": [16, 8]}, "config key 'ns': ns must be a non-empty, strictly increasing list"),
        (["oned"], {"profile": {"kind": "quadratic"}},
         "config key 'kind' in profile: unknown profile kind 'quadratic'"),
    ],
    ids=["families-empty", "f_values-empty", "deltas_hv-empty", "deltas_d-empty", "families-repeated",
         "growth_interval-three", "growth_interval-empty", "rest-zero", "rest-negative", "growth_interval-reversed",
         "families-unknown", "count-one", "q-one", "lam_max-below-one", "high", "deltas_hv-above-one",
         "deltas_d-negative", "profile-decreasing", "oned-q-one", "lattice-rest-count", "lattice-opposite",
         "n-one", "ns-below-two", "ns-decreasing", "profile-kind-unknown"],
)
def test_an_empty_list_a_repeated_family_or_a_bad_value_exits_2_naming_its_key(tmp_path, command, config, message):
    # the empty lists and the repeated family used to run and exit 0, the second fit of a repeated
    # family overwriting the first; the intervals stopped on an unpack error naming no key, and a
    # rest length that is not positive on "failed to bracket the stress"; a value that a domain
    # object rejects (a growth scenario, a family, the spring law, the growth rate) used to name no key,
    # and so did a side count below 2, a list of chain sizes that does not rise and an unknown profile kind
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4, "count": 3, **config} if command[0] == "simulate" else config))
    result = run_cli(tmp_path, "--config", str(path), *command)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert result.stdout == ""
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize(
    "lattice, key",
    [({"rest": [[1]]}, "rest"), ({"rest": "x"}, "rest"), ({"directions": [[1.5, 0], [0, 1]]}, "directions")],
    ids=["rest-nested-list", "rest-string", "directions-float"],
)
def test_a_lattice_value_of_the_wrong_type_exits_2_naming_its_key(tmp_path, lattice, key):
    # [[1]] used to stop with a TypeError traceback, "x" with a message naming no key,
    # and [1.5, 0] became the direction (1, 0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lattice": lattice}))
    result = run_cli(tmp_path, "--config", str(path), "order")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r} in lattice must be ")
    assert result.stdout == ""
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize("command", ["order", "ground-state", "decompose"])
@pytest.mark.parametrize("lattice", [{"rset": [1, 1, 1, 1]}, {"growth": [1, 1, 1, 1], "law": 3}],
                         ids=["misspelt-rest", "law"])
def test_the_lattice_block_rejects_keys_it_does_not_read(tmp_path, command, lattice):
    # these keys used to be ignored, and the command ran on the default lattice
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lattice": lattice}))
    result = run_cli(tmp_path, "--config", str(path), command)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    unknown = sorted(set(lattice) - {"growth"})
    assert len(lines) == 1 and lines[0].startswith(f"error: unknown lattice keys {unknown}; it reads ")
    assert result.stdout == ""
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize(
    "simulation, config, message",
    [
        ("sim4", {"n": 8, "count": 7, "family_overrides": {"lam_max": 1.2}},
         "sample 0, F = [[0.8333333333333334, 0.0], [0.0, 0.8333333333333334]]"),
        ("sim1", {"n": 4, "count": 3, "family_overrides": {"lam_shear": -0.1}}, "lam_shear must be positive"),
    ],
    ids=["failed-grown-solve", "invalid-shear-family"],
)
def test_a_simulation_that_exits_2_writes_nothing(tmp_path, simulation, config, message):
    # sim4 used to write its dilational rest curves before its grown solve failed,
    # and sim1 its dilational curves before the shear family was rejected
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_cli(tmp_path, "--config", str(path), "simulate", simulation)
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not [path for path in tmp_path.iterdir() if path.name != "config.json"]


@pytest.mark.parametrize("simulation", ["sim2", "sim3", "sim4"])
def test_branch_simulations_finish_on_a_stable_range(tmp_path, simulation):
    # lam_max = 1.2 keeps every datum on the stable branch at N = 4
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4, "count": 3, "family_overrides": {"lam_max": 1.2}}))
    result = run_cli(tmp_path, "--config", str(path), "simulate", simulation)
    assert result.returncode == 0, result.stderr
    families = ("dilational", "shear")
    rest = simulation == "sim4"
    curves = {f"{simulation}_{family}_curves.csv" for family in families}
    rest_curves = {f"{simulation}_{family}_rest_curves.csv" for family in families} if rest else set()
    assert {path.name for path in tmp_path.iterdir()} == {"config.json", f"{simulation}_summary.json",
                                                          *curves, *rest_curves}
    for name in curves | rest_curves:
        header, *rows = read_csv(tmp_path / name)
        assert header == ["lambda", "true_energy", *(() if name in rest_curves else ("homogenized_energy",)),
                          "fractional_error"]
        assert len(rows) == 3
    fits = json.loads((tmp_path / f"{simulation}_summary.json").read_text())["fits"]
    assert set(fits) == {*families, *(f"{family}_rest" for family in families if rest)}
    assert all(fit["n_used"] == 3 for fit in fits.values())
    assert all((fit["growth_tensors"] is None) == label.endswith("_rest") for label, fit in fits.items())
    assert len(result.stdout.splitlines()) == len(fits)


@pytest.mark.parametrize("deltas_hv", [[0.0], [0.0, 0.0]], ids=["one-pair", "repeated-pair"])
def test_sim2_sweep_without_growth_fits_unit_factors(tmp_path, deltas_hv):
    # a repeated pair of half-widths writes a repeated row
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4, "count": 3, "deltas_hv": deltas_hv, "deltas_d": [0.0]}))
    result = run_cli(tmp_path, "--config", str(path), "simulate", "sim2-sweep")
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"sweep over {len(deltas_hv)} interval combinations written\n"
    assert {path.name for path in tmp_path.iterdir()} == {"config.json", "sim2-sweep_summary.json", "sim2_sweep.csv"}
    header, *rows = read_csv(tmp_path / "sim2_sweep.csv")
    assert header == ["delta_hv", "delta_d", "gamma_1", "gamma_2", "mse_mean", "max_fractional_error"]
    assert len(rows) == len(deltas_hv)
    summary = json.loads((tmp_path / "sim2-sweep_summary.json").read_text())
    assert len(summary["surface"]) == len(deltas_hv)
    for row, entry in zip(rows, summary["surface"]):
        assert float(row[2]) == entry["parameters"]["gamma_1"] == pytest.approx(1.0, abs=1e-6)
        assert float(row[3]) == entry["parameters"]["gamma_2"] == pytest.approx(1.0, abs=1e-6)
        assert entry["n_used"] == 3


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
        (["oned"], {"solver": {"gtol_rel": 1e-6}}),
    ],
    ids=["error-map", "oned", "check", "order", "ground-state", "decompose", "simulate-relaxation", "oned-solver"],
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


@pytest.mark.parametrize("override", [{"kind": "box-grid"}, {"lam": 1.2}, {"count": 3}])
def test_family_overrides_other_than_count_and_ranges_exit_2(tmp_path, override):
    # "kind" used to turn every family into box-grid under the families' own output names,
    # and other unknown keys were ignored silently; "count" is a top-level key only
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"count": 2, "n": 4, "family_overrides": override}))
    result = run_cli(tmp_path, "--config", str(config), "simulate", "sim1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: unknown family_overrides keys {sorted(override)}; ")
    assert lines[0].endswith("it reads ['lam_max', 'lam_shear']")
    assert not list(tmp_path.glob("sim1_*"))


def test_family_overrides_set_count_and_ranges_of_every_family(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "count": 3, "family_overrides": {"lam_max": 1.1, "lam_shear": 0.1}}))
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
