import json
import math
from pathlib import Path

import numpy as np
import pytest

from growlat import continuum, experiments, homogenize, lattice


def worst_residuals_by_draw(seed, n_random, perturb_g2):
    """The exactness and shear suites of `run_checks`, one lattice, one
    decomposition and one F at a time: the reference for its stacks."""
    rng = np.random.default_rng(seed)
    law = lattice.SpringLaw(2, 0.0)
    worst = 0.0
    for _ in range(n_random):
        growth = tuple(rng.uniform(0.7, 1.4, 4))
        lat = lattice.apply_growth(lattice.square_lattice(law=law), growth)
        f = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        w_g = continuum.cauchy_born_energy(lat, f)
        for choice in continuum.square_partition_choices():
            dec = continuum.decompose(lat, choice)
            inverses = [part.growth_inv for part in dec.parts]
            if perturb_g2:
                g2 = dec.parts[1].growth.copy()
                g2[0, 1] += perturb_g2
                inverses[1] = np.linalg.inv(g2)
            recon = sum(dec.part_energy(k, f @ g_inv) for k, g_inv in enumerate(inverses))
            worst = max(worst, abs(recon - w_g) / (1.0 + abs(w_g)))

    worst_shear = 0.0
    lat0 = lattice.square_lattice(law=law)
    for choice in continuum.square_partition_choices():
        dec = continuum.decompose(lat0, choice)
        for k, part in enumerate(dec.parts):
            for theta in np.linspace(0.05, 2 * math.pi - 0.05, 50):
                f = continuum.length_preserving_shears(part.basis, theta)
                worst_shear = max(worst_shear, abs(dec.part_energy(k, f)))
    return worst, worst_shear


@pytest.mark.parametrize("perturb_g2", [0.0, 1e-3])
@pytest.mark.parametrize("seed", [0, 1])
def test_run_checks_matches_the_per_draw_reference(seed, perturb_g2):
    report = experiments.run_checks(seed=seed, n_random=20, perturb_g2=perturb_g2)
    worst, worst_shear = worst_residuals_by_draw(seed, 20, perturb_g2)
    assert report["checks"]["decomposition_exactness"]["worst_residual"] == worst
    assert report["checks"]["shear_family_vanishing"]["worst_residual"] == worst_shear
    assert report["checks"]["decomposition_exactness"]["ok"] == (not perturb_g2)


def test_run_checks_fails_exactness_on_a_nan_perturbation():
    report = experiments.run_checks(n_random=20, perturb_g2=float("nan"))
    exactness = report["checks"]["decomposition_exactness"]
    assert math.isnan(exactness["worst_residual"]) and not exactness["ok"]
    assert not report["ok"]


def test_run_checks_decomposes_once_per_partition(monkeypatch):
    calls = []
    decompose = continuum.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(continuum, "decompose", counted)
    assert experiments.run_checks(n_random=20)["ok"]
    assert 0 < len(calls) <= 3


def test_run_checks_asks_admissibility_once_for_every_draw(monkeypatch):
    # 20 equal and 20 mixed factor draws, stacked into one call
    calls = []
    record_calls(monkeypatch, calls, continuum, "multiplicative_admissible", lambda parts, factors: factors)
    assert experiments.run_checks(n_random=20)["ok"]
    [factors] = calls
    assert np.shape(factors) == (40, 4)
    assert np.all(factors[:20] == factors[:20, :1])


def record_calls(monkeypatch, events, module, name, event):
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        events.append(event(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


SIM4_EVENTS = [
    ("measure", "ungrown", "dilational"), ("measure", "grown", "dilational"),
    ("measure", "ungrown", "shear"), ("measure", "grown", "shear"),
    ("fit_rest_lengths",), ("fit_growth",), ("fit_rest_lengths",), ("fit_growth",),
    ("write", "sim4_dilational_rest_curves.csv"), ("write", "sim4_dilational_curves.csv"),
    ("write", "sim4_shear_rest_curves.csv"), ("write", "sim4_shear_curves.csv"), ("write", "sim4_summary.json"),
]
SWEEP_EVENTS = [
    ("measure", "ungrown", "dilational"), ("measure", "ungrown", "dilational"), ("fit_growth",), ("fit_growth",),
    ("write", "sim2_sweep.csv"), ("write", "sim2-sweep_summary.json"),
]


@pytest.mark.parametrize(
    "name, config, expected",
    [
        ("sim4", {"n": 4, "count": 3, "family_overrides": {"lam_max": 1.2}}, SIM4_EVENTS),
        ("sim2-sweep", {"n": 4, "count": 3, "deltas_hv": [0.0, 0.0], "deltas_d": [0.0]}, SWEEP_EVENTS),
    ],
    ids=["sim4", "sim2-sweep"],
)
def test_a_simulation_solves_everything_before_it_fits_and_fits_before_it_writes(
        tmp_path, monkeypatch, name, config, expected):
    # solves run family by family, and within a family sim4's ungrown sample comes first
    events = []
    record_calls(monkeypatch, events, homogenize, "measured_energies", lambda sample, fs, opts=None: (
        "measure", "ungrown" if np.all(sample.growth == 1.0) else "grown",
        "shear" if np.any(fs[:, 0, 1]) else "dilational"))
    for fit in ("fit_rest_lengths", "fit_growth"):
        record_calls(monkeypatch, events, homogenize, fit, lambda *args, fit=fit: (fit,))
    for write in ("write_csv", "write_json"):
        record_calls(monkeypatch, events, experiments, write, lambda path, *args: ("write", Path(path).name))
    experiments.run_simulation(name, tmp_path, config)
    assert events == expected


@pytest.mark.parametrize(
    "name, config",
    [
        ("sim1", {"n": 4, "count": 2, "high": 1.1, "families": ["dilational"],
                  "family_overrides": {"lam_max": 1.2, "lam_shear": 0.2}}),
        ("sim2", {"n": 4, "count": 3, "growth_interval": [0.9, 1.1], "families": ["shear"],
                  "family_overrides": {"lam_max": 1.2, "lam_shear": 0.3}}),
    ],
)
def test_a_simulation_summary_records_every_setting_it_read(tmp_path, name, config):
    # count, lam_max, lam_shear, high and growth_interval used to be left out, so a run on
    # these values wrote the same config block as a run on the defaults
    experiments.run_simulation(name, tmp_path, config)
    written = json.loads((tmp_path / f"{name}_summary.json").read_text())["config"]
    expected = {key: value for key, value in config.items() if key != "family_overrides"}
    expected.update(config["family_overrides"])
    assert {key: written[key] for key in expected} == expected
