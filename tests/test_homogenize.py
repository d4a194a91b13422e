import json
import math
from pathlib import Path

import numpy as np
import pytest

from growlat import continuum, homogenize, lattice
from growlat.homogenize import (
    DeformationFamily,
    GrowthAnsatz,
    _relative_residuals,
    fit_growth,
    fit_rest_lengths,
    sample_family,
)
from growlat.solver import ConvergenceError

SQRT2 = math.sqrt(2.0)
SIM1_ANSATZ = GrowthAnsatz("isotropic", "per-direction")


# ---------------------------------------------------------------------------
# Fits against targets made by the model at known parameters


def sim1_decomposition(law):
    return continuum.decompose(lattice.square_lattice(law=law), continuum.square_partition_choices()[0])


def grown_targets(law, gammas, fs):
    """Cauchy-Born energies of the square lattice grown by (g1, g1, g+, g-):
    the sim1 ansatz's model at (g1, g+, g-)."""
    g1, gp, gm = gammas
    grown = lattice.apply_growth(lattice.square_lattice(law=law), (g1, g1, gp, gm))
    return continuum.cauchy_born_energy_many(grown, fs)


def one_sided_shears(count=25):
    # shears of one sign only: the symmetric family maps gamma+ <-> gamma- onto
    # an equally good fit
    fs = np.tile(np.eye(2), (count, 1, 1))
    fs[:, 0, 1] = np.linspace(0.02, 0.5, count)
    return fs


@pytest.mark.parametrize("q", [2, 3])
def test_jacobian_matches_central_differences(q):
    law = lattice.SpringLaw(q=q)
    co = lattice.square_connectivity()
    fs = one_sided_shears(7)
    lengths = continuum.mapped_lengths(co.matrix, fs)
    targets = np.linspace(0.1, 0.3, len(fs))
    residuals, jacobian = _relative_residuals(lengths, targets, np.asarray(co.norms()), np.array([0, 0, 1, 2]), 3, law)
    x, h = np.array([1.1, 0.9, 1.2]), 1e-6
    numeric = np.stack([(residuals(x + h * e) - residuals(x - h * e)) / (2 * h) for e in np.eye(3)], axis=1)
    assert np.allclose(jacobian(x), numeric, rtol=1e-7, atol=1e-9)


def test_fit_growth_recovers_full_rank_parameters():
    law = lattice.SpringLaw(q=3)
    truth = (1.1, 0.9, 1.2)
    fs = one_sided_shears()
    result = fit_growth(sim1_decomposition(law), fs, grown_targets(law, truth, fs), SIM1_ANSATZ)
    got = [result.parameters[k] for k in ("gamma_1", "gamma_2_1_1", "gamma_2_1_-1")]
    assert np.allclose(got, truth, rtol=0.0, atol=1e-8)
    # the reported tensors are gamma_1 I and R diag(gamma+, gamma-) R^T, for the factors gamma+ and
    # gamma- of the diagonals (1, 1) and (1, -1)
    g1, gp, gm = got
    r = continuum.rotation(math.pi / 4)
    assert np.allclose(result.growth_tensors["G_1"], g1 * np.eye(2), rtol=0.0, atol=1e-15)
    assert np.allclose(result.growth_tensors["G_2"], r @ np.diag([gp, gm]) @ r.T, rtol=0.0, atol=1e-15)
    assert result.relative_mse <= 1e-20
    assert result.rank == 3
    assert result.n_used == len(fs) and result.excluded == ()


def test_diagonal_ansatz_recovers_planted_axis_factors():
    # the per-direction form on the axis class gives G_1 = diag(a, b); G_2 = gamma_2 I on the diagonals
    law = lattice.SpringLaw(q=3)
    _, fs = sample_family(DeformationFamily("box-grid", lam_max=1.25, lam_shear=0.25, count=3))
    grown = lattice.apply_growth(lattice.square_lattice(law=law), (1.1, 0.9, 1.05, 1.05))
    result = fit_growth(sim1_decomposition(law), fs, continuum.cauchy_born_energy_many(grown, fs),
                        GrowthAnsatz("per-direction", "isotropic"))
    assert list(result.parameters) == ["gamma_1_1_0", "gamma_1_0_1", "gamma_2"]
    got = list(result.parameters.values())
    assert np.allclose(got, (1.1, 0.9, 1.05), rtol=0.0, atol=1e-8)
    assert np.allclose(result.growth_tensors["G_1"], np.diag(got[:2]), rtol=0.0, atol=1e-15)
    assert np.allclose(result.growth_tensors["G_2"], got[2] * np.eye(2), rtol=0.0, atol=1e-15)
    assert result.rank == 3
    assert result.relative_mse <= 1e-20


def test_diagonal_form_on_the_diagonal_class_is_rejected():
    # no form is tied to the square's axis or diagonal class; "per-direction" fits every class
    for form in ("diagonal", "rotated-diagonal"):
        with pytest.raises(ValueError, match=f"unknown ansatz form '{form}'"):
            GrowthAnsatz("isotropic", form)


BOX_GRID = sample_family(DeformationFamily("box-grid", lam_max=1.3, lam_shear=0.3, count=4))[1]


@pytest.mark.parametrize("choice", [0, 1, 2])
def test_per_direction_forms_recover_every_factor_on_every_square_partition(choice):
    # choices 1 and 2 put an axis and a diagonal in each class
    law, planted = lattice.SpringLaw(q=3), (1.1, 0.9, 1.05, 0.95)
    square = lattice.square_lattice(law=law)
    partition = continuum.square_partition_choices()[choice]
    targets = continuum.cauchy_born_energy_many(lattice.apply_growth(square, planted), BOX_GRID)
    result = fit_growth(continuum.decompose(square, partition), BOX_GRID, targets,
                        GrowthAnsatz("per-direction", "per-direction"))
    truth = dict(zip(square.connectivity.directions, planted))
    want = {f"gamma_{k + 1}_{v[0]}_{v[1]}": truth[v] for k, cls in enumerate(partition) for v in cls}
    assert list(result.parameters) == list(want)
    assert np.allclose(list(result.parameters.values()), list(want.values()), rtol=0.0, atol=1e-8)
    assert result.rank == 4
    grown = continuum.decompose(lattice.apply_growth(square, planted), partition)
    for k, part in enumerate(grown.parts):
        assert np.allclose(result.growth_tensors[f"G_{k + 1}"], part.growth, rtol=0.0, atol=1e-8)


def test_per_direction_form_fits_a_lattice_of_three_directions():
    # directions (1, 0), (0, 1), (1, -1): the witness partition is the axis pair and the lone diagonal
    law = lattice.SpringLaw(q=3)
    initial = lattice.HomogeneousLattice(lattice.Connectivity(2, ((1, 0), (0, 1), (1, -1))), (1.0, 1.0, SQRT2), (), law)
    targets = continuum.cauchy_born_energy_many(lattice.apply_growth(initial, (1.1, 0.9, 1.2)), BOX_GRID)
    result = fit_growth(continuum.decompose(initial), BOX_GRID, targets, GrowthAnsatz("per-direction", "isotropic"))
    assert list(result.parameters) == ["gamma_1_1_0", "gamma_1_0_1", "gamma_2"]
    assert np.allclose(list(result.parameters.values()), (1.1, 0.9, 1.2), rtol=0.0, atol=1e-8)
    assert result.rank == 3
    assert result.relative_mse <= 1e-20


def test_zero_targets_are_excluded_with_nan_errors():
    law = lattice.SpringLaw(q=3)
    truth = (1.1, 0.9, 1.2)
    fs = one_sided_shears()
    targets = grown_targets(law, truth, fs)
    targets[[3, 7]] = 0.0
    result = fit_growth(sim1_decomposition(law), fs, targets, SIM1_ANSATZ)
    assert result.excluded == (3, 7)
    assert np.isnan(result.errors[[3, 7]]).all()
    assert np.isfinite(np.delete(result.errors, [3, 7])).all()
    assert result.n_used == len(fs) - 2
    assert result.relative_mse <= 1e-20


def test_all_zero_targets_raise():
    law = lattice.SpringLaw(q=3)
    fs = one_sided_shears()
    with pytest.raises(ValueError, match="all target energies are zero"):
        fit_growth(sim1_decomposition(law), fs, np.zeros(len(fs)), SIM1_ANSATZ)


def test_quadratic_dilational_fit_reports_rank_two():
    # under lambda I with q = 2 the energy is a quadratic in lambda with two
    # free coefficients, so three parameters cannot all be determined
    law = lattice.SpringLaw(q=2)
    _, fs = sample_family(DeformationFamily("dilational", lam_max=1.25, count=30))
    result = fit_growth(sim1_decomposition(law), fs, grown_targets(law, (1.1, 0.9, 1.2), fs), SIM1_ANSATZ)
    assert result.relative_mse <= 1e-20
    assert result.rank == 2


def test_fit_rest_lengths_recovers_rest_lengths():
    rest, want = (1.05, 1.05, 1.1 * SQRT2, 1.1 * SQRT2), {"ell0": 1.05, "ell1": 1.1}
    law = lattice.SpringLaw(q=3)
    co = lattice.square_connectivity()
    _, fs = sample_family(DeformationFamily("box-grid", lam_max=1.25, lam_shear=0.25, count=3))
    targets = continuum.cauchy_born_energy_many(lattice.HomogeneousLattice(co, rest, (), law), fs)
    result = fit_rest_lengths(fs, targets, law, co)
    for name, value in want.items():
        assert result.parameters[name] == pytest.approx(value, abs=1e-8)
    for v, length in zip(co.directions, rest):
        assert result.parameters[f"L_{'_'.join(str(c) for c in v)}"] == pytest.approx(length, abs=1e-8)
    assert result.rank == len(want)
    assert result.relative_mse <= 1e-20


# ---------------------------------------------------------------------------
# Measured energies against an exact identity


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [4, 16])
def test_sim1_targets_are_the_mean_of_two_cauchy_born_densities(monkeypatch, n, q):
    # every cell of sim1's checkerboard keeps a zero-energy shape, so the affine state is the
    # equilibrium under each family's F: no Newton step, and the per-cell energy is
    # (W_A + W_B) / 2 for the lattices grown by (1, 1, h, sqrt(2 - h^2)) and its swap
    high, law, rest = 1.2, lattice.SpringLaw(q=q), (1.0, 1.0, SQRT2, SQRT2)
    sample = lattice.build_sample(lattice.square_connectivity(), n, rest, lattice.checkerboard_growth(high), law)
    fs = np.concatenate([sample_family(DeformationFamily(kind, lam_max=1.25, lam_shear=0.25))[1]
                         for kind in ("dilational", "shear")])
    reports = []
    relax_branch = homogenize.relax_branch
    monkeypatch.setattr(homogenize, "relax_branch", lambda *args: reports.append(relax_branch(*args)) or reports[-1])
    measured = homogenize.measured_energies(sample, fs)
    low = math.sqrt(2.0 - high**2)
    square = lattice.square_lattice(rest=rest, law=law)
    w_a, w_b = (continuum.cauchy_born_energy_many(lattice.apply_growth(square, (1.0, 1.0, a, b)), fs)
                for a, b in ((high, low), (low, high)))
    assert len(reports) == len(fs) and all(report.iterations == 0 for report in reports)
    assert np.all(np.abs(measured - (w_a + w_b) / 2) <= 1e-14 * np.abs(measured))


# ---------------------------------------------------------------------------
# Branch solves against the benchmark's recorded fingerprints


def test_relax_n16_seed_0_matches_its_recorded_fingerprint():
    # the benchmark's relax-n16 data at input seed 0: sim2's growth field at
    # N = 16 under sim2's dilational and shear families of 60, one
    # measured_energies call per datum; the file is only read
    path = Path(__file__).resolve().parents[1] / "bench" / "fingerprints.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    tol, want = recorded["tolerances"], recorded["relax-n16"]["0"]
    law = lattice.SpringLaw(q=2, p=0.0)
    scenario = lattice.uniform_growth(((0.8, 1.2),) * 4, seed=0)
    sample = lattice.build_sample(lattice.square_connectivity(), 16, (1.0, 1.0, SQRT2, SQRT2), scenario, law)
    families = (DeformationFamily("dilational", lam_max=1.5, count=60),
                DeformationFamily("shear", lam_shear=0.5, count=60))
    fs = np.concatenate([sample_family(family)[1] for family in families])
    energies, unconverged = [], []
    for i, f in enumerate(fs):
        try:
            energies.append(float(homogenize.measured_energies(sample, f[None])[0]))
        except ConvergenceError:
            energies.append(None)
            unconverged.append(i)
    assert unconverged == want["unconverged"]
    assert len(energies) == len(want["energies"])
    for got, expected in zip(energies, want["energies"]):
        assert (got is None) == (expected is None)
        if got is not None:
            assert abs(got - expected) <= tol["energy_atol"] + tol["energy_rtol"] * abs(expected)
