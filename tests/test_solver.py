import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from growlat import solver
from growlat.lattice import (
    Connectivity,
    HomogeneousLattice,
    SpringLaw,
    apply_growth,
    build_sample,
    chain_connectivity,
    checkerboard_growth,
    homogeneous_growth,
    no_growth,
    square_connectivity,
    square_lattice,
    uniform_growth,
)
from growlat.continuum import cauchy_born_energy
from growlat.homogenize import DeformationFamily, sample_family
from growlat.springs import spring_terms
from growlat.solver import (
    AffineBoundary,
    SolverOptions,
    _Iterate,
    _affine_start,
    constant_growth,
    linear_growth,
    one_d_chain,
    one_d_chain_energy,
    one_d_continuum_energy,
    relax_branch,
    total_energy,
)

REST = (1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0))
LAW = SpringLaw(2, 0.0)


class Quartic:
    """Custom stretch profile (x - 1)**4, outside the power-law family."""

    def value(self, x):
        return (np.asarray(x) - 1.0) ** 4

    def deriv(self, x):
        return 4.0 * (np.asarray(x) - 1.0) ** 3

    def second(self, x):
        return 12.0 * (np.asarray(x) - 1.0) ** 2


def owned_energy(sample, positions):
    """Energy of the cell-owned springs (the per-cell numerator)."""
    return float(np.sum(_Iterate(sample, positions).edge_energies[sample.owned]))


def interior_band(sample, positions):
    """The interior Hessian on and below the diagonal, in `direction_plan` layout."""
    it = _Iterate(sample, positions)
    return it.band(np.empty((it.x.size, sample.direction_plan.band[-1])))


def dense_from_band(band):
    """The symmetric matrix whose lower band is `band`: row j of the band
    holds column j from the diagonal down."""
    m, width = band.shape
    column, below = np.divmod(np.arange(band.size), width)
    inside = column + below < m
    lower = np.zeros((m, m))
    lower[column[inside] + below[inside], column[inside]] = band.ravel()[inside]
    return lower + np.tril(lower, -1).T


def interior_hessian(sample, positions):
    return dense_from_band(interior_band(sample, positions))


def folded_datum(n=6):
    """sim2-type growth under dilation by 1/1.5: the affine branch is
    unstable there and the energy has folded minima."""
    s = build_sample(square_connectivity(), n, REST, uniform_growth(((0.8, 1.2),) * 4, seed=0), LAW)
    return s, AffineBoundary(np.eye(2) / 1.5)


def stable_datum():
    """sim2-type growth under a stretch and shear: a stable branch state that
    `relax_branch` reaches in 4 Newton steps."""
    s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=5), LAW)
    return s, AffineBoundary(np.array([[1.1, 0.1], [0.0, 1.05]]))


class Linear:
    """Custom stretch profile x - 1: W'' = 0, so every Hessian block vanishes."""

    def value(self, x):
        return np.asarray(x, dtype=float) - 1.0

    def deriv(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def second(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


def oracle_total_energy(sample, positions):
    """Plain-loop re-summation of every edge term."""
    total = 0.0
    for e in range(sample.n_edges):
        i, j = sample.edges[e]
        d = positions[j] - positions[i]
        stretch = np.linalg.norm(d) / (sample.rest[e] * sample.growth[e])
        total += sample.growth[e] ** sample.law.p * abs(stretch - 1.0) ** sample.law.q
    return total


class TestTotalEnergy:
    def test_one_d_chain_example(self):
        s = build_sample(chain_connectivity(), 2, 1.0, law=LAW)
        u = np.array([[0.0], [1.1], [2.2]])
        assert total_energy(s, u) == pytest.approx(0.02, rel=1e-12)

    def test_affine_rest_state_is_zero(self):
        s = build_sample(square_connectivity(), 4, REST, law=LAW)
        assert total_energy(s, s.affine_positions(np.eye(2))) == 0.0

    def test_checkerboard_affine_is_stressed(self):
        s = build_sample(square_connectivity(), 4, REST, checkerboard_growth(1.2), LAW)
        pos = s.affine_positions(np.eye(2))
        value = total_energy(s, pos)
        assert value > 0.01
        assert value == pytest.approx(oracle_total_energy(s, pos), rel=1e-12)

    def test_matches_oracle_on_random_fields(self):
        rng = np.random.default_rng(1)
        s = build_sample(square_connectivity(), 3, REST, uniform_growth(((0.8, 1.2),) * 4, seed=2), LAW)
        for _ in range(5):
            pos = s.nodes + 0.3 * rng.standard_normal(s.nodes.shape)
            assert total_energy(s, pos) == pytest.approx(oracle_total_energy(s, pos), rel=1e-12)

    def test_translation_invariance_all_nodes_free(self):
        s = build_sample(square_connectivity(), 3, REST, law=LAW)
        rng = np.random.default_rng(2)
        pos = s.nodes + 0.2 * rng.standard_normal(s.nodes.shape)
        shifted = pos + np.array([3.7, -1.2])
        assert total_energy(s, shifted) == pytest.approx(total_energy(s, pos), rel=1e-12)

    def test_shape_validation(self):
        s = build_sample(square_connectivity(), 2, REST, law=LAW)
        with pytest.raises(ValueError):
            total_energy(s, np.zeros((3, 2)))


class TestGradient:
    @pytest.mark.parametrize("q,p", [(2, 0.0), (3, 0.0), (2, 1.0)])
    def test_matches_central_differences(self, q, p):
        law = SpringLaw(q, p)
        s = build_sample(square_connectivity(), 3, REST, uniform_growth(((0.9, 1.1),) * 4, seed=3), law)
        rng = np.random.default_rng(4)
        pos = s.affine_positions(np.eye(2)) + 0.1 * rng.standard_normal((s.n_nodes, 2))
        grad = _Iterate(s, pos).gradient
        h = 1e-6
        for node in rng.integers(0, s.n_nodes, 6):
            for axis in range(2):
                pp, pm = pos.copy(), pos.copy()
                pp[node, axis] += h
                pm[node, axis] -= h
                fd = (total_energy(s, pp) - total_energy(s, pm)) / (2 * h)
                assert grad[node, axis] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestMinimize:
    """`relax_branch` as an energy minimiser, on data whose branch is stable."""

    def test_single_interior_node_chain(self):
        s = build_sample(chain_connectivity(), 2, 1.0, law=LAW)
        report = relax_branch(s, AffineBoundary(np.array([[1.1]])))
        assert report.converged
        assert report.positions[1, 0] == pytest.approx(1.1, abs=1e-9)
        assert report.total_energy == pytest.approx(0.02, rel=1e-8)

    def test_homogeneous_rest_state(self):
        s = build_sample(square_connectivity(), 4, REST, law=LAW)
        report = relax_branch(s, AffineBoundary(np.eye(2)))
        assert report.converged
        assert report.per_cell_energy <= 1e-14
        assert np.allclose(report.positions, s.affine_positions(np.eye(2)), atol=1e-7)

    def test_boundary_rows_pinned_bitwise(self):
        s = build_sample(square_connectivity(), 4, REST, checkerboard_growth(1.2), LAW)
        f = np.array([[1.05, 0.1], [0.0, 0.95]])
        report = relax_branch(s, AffineBoundary(f))
        boundary = s.boundary_mask()
        assert np.array_equal(report.positions[boundary], s.affine_positions(f)[boundary])

    @pytest.mark.parametrize("n", [4, 8])
    def test_homogeneous_grown_matches_cauchy_born(self, n):
        growth = (1, 1, 0.9, 0.9)
        lat = apply_growth(square_lattice(law=LAW), growth)
        s = build_sample(square_connectivity(), n, REST, homogeneous_growth(growth), LAW)
        f = (1.71 / 1.81) * np.eye(2)
        report = relax_branch(s, AffineBoundary(f))
        cb = cauchy_born_energy(lat, f)
        assert report.converged
        assert report.per_cell_energy <= cb + 1e-12
        assert report.per_cell_energy == pytest.approx(cb, abs=1e-6)

    def test_never_exceeds_affine_trial(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=5), LAW)
        for f in (np.eye(2), 1.2 * np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]])):
            report = relax_branch(s, AffineBoundary(f))
            affine = owned_energy(s, s.affine_positions(f)) / s.n**2
            assert report.per_cell_energy <= affine + 1e-12

    def test_relaxation_strictly_below_affine_for_random_growth(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=6), LAW)
        report = relax_branch(s, AffineBoundary(np.eye(2)))
        affine = owned_energy(s, s.affine_positions(np.eye(2))) / 36
        assert report.converged
        assert report.per_cell_energy < affine - 1e-4

    def test_radius_grows_on_a_long_chain(self):
        # oned's default chain at its largest n: a node of the relaxed state
        # lies 105 units from the affine one, beyond the 15 that 60 steps
        # capped at 0.25 can reach, so the radius has to grow
        s = one_d_chain(linear_growth(1.0, 1.0), 512, 1.0, SpringLaw(2, 0.0))
        report = relax_branch(s, AffineBoundary(np.array([[2.0]])))
        assert report.converged and report.iterations <= 10
        assert report.per_cell_energy == pytest.approx(0.10714287174782938, rel=1e-9)

    def test_deterministic(self):
        s = build_sample(square_connectivity(), 5, REST, uniform_growth(((0.8, 1.2),) * 4, seed=8), LAW)
        a = relax_branch(s, AffineBoundary(np.eye(2)))
        b = relax_branch(s, AffineBoundary(np.eye(2)))
        assert np.array_equal(a.positions, b.positions)
        assert a.per_cell_energy == b.per_cell_energy

    def test_three_dimensions_unsupported(self):
        co = Connectivity(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        s = build_sample(co, 2, 1.0, law=LAW)
        with pytest.raises(ValueError):
            relax_branch(s, AffineBoundary(np.eye(3)))

    def test_inhomogeneous_cauchy_in_n(self):
        energies = []
        for n in (8, 16):
            s = build_sample(square_connectivity(), n, REST, checkerboard_growth(1.2), LAW)
            energies.append(relax_branch(s, AffineBoundary(1.1 * np.eye(2))).per_cell_energy)
        assert abs(energies[1] - energies[0]) < 5e-3


class TestOneDimensional:
    def test_constant_profile_rest_state(self):
        prof = constant_growth(2.0)
        law = SpringLaw(2, 0.0)
        assert one_d_continuum_energy(prof, law, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_constant_profile_closed_form(self):
        prof = constant_growth(2.0)
        law = SpringLaw(2, 0.0)
        # W(F / (L G)) with constant rate
        val = one_d_continuum_energy(prof, law, 1.0, 2.5)
        assert val == pytest.approx((2.5 / 2.0 - 1.0) ** 2, rel=1e-9)

    def test_linear_profile_closed_form(self):
        # rate 1 + x, mean stretch 2: energy (F - int G)^2 / int G^2 = 3/28
        val = one_d_continuum_energy(linear_growth(1.0, 1.0), SpringLaw(2, 0.0), 1.0, 2.0)
        assert val == pytest.approx(3.0 / 28.0, rel=1e-10)

    def test_replication_rest_state(self):
        prof = constant_growth(2.0)
        law = SpringLaw(2, 1.0)
        assert one_d_continuum_energy(prof, law, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert one_d_chain_energy(prof, 16, 1.0, law, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_replication_per_cell_value(self):
        # constant growth g: per-cell energy g * W(F / (L g))
        g, f = 2.0, 2.5
        law = SpringLaw(2, 1.0)
        exact = g * (f / g - 1.0) ** 2
        assert one_d_continuum_energy(constant_growth(g), law, 1.0, f) == pytest.approx(exact, rel=1e-9)
        assert one_d_chain_energy(constant_growth(g), 32, 1.0, law, f) == pytest.approx(exact, rel=1e-7)

    def test_chain_converges_to_continuum(self):
        prof = linear_growth(1.0, 1.0)
        law = SpringLaw(2, 0.0)
        target = 3.0 / 28.0
        errors = []
        for n in (64, 128, 256, 512):
            errors.append(abs(one_d_chain_energy(prof, n, 1.0, law, 2.0) - target))
        assert errors[-1] <= 1e-3
        # at least first-order decay per grid doubling
        assert errors[0] / errors[-1] >= (512 / 64) * 0.9

    def test_chain_growth_factors_are_interval_means(self):
        s = one_d_chain(linear_growth(1.0, 1.0), 4, 1.0, LAW)
        j = np.arange(1, 5)
        expected = 1.0 + (2 * j - 1) / 8.0  # midpoint of 1 + x on each subinterval
        assert np.allclose(s.growth, expected, atol=1e-12)

    def test_decreasing_profile_rejected(self):
        with pytest.raises(ValueError):
            one_d_chain(linear_growth(1.0, -2.0), 8, 1.0, LAW)
        with pytest.raises(ValueError):
            one_d_continuum_energy(linear_growth(1.0, -2.0), LAW, 1.0, 1.0)

    def test_general_exponent_against_chain(self):
        prof = linear_growth(1.0, 0.5)
        law = SpringLaw(3, 0.0)
        cont = one_d_continuum_energy(prof, law, 1.0, 1.8)
        chain = one_d_chain_energy(prof, 256, 1.0, law, 1.8)
        assert chain == pytest.approx(cont, rel=5e-3)


class TestHessian:
    @pytest.mark.parametrize(
        "law", [SpringLaw(2, 0.0), SpringLaw(3, 0.0), SpringLaw(2, 1.0), SpringLaw(profile=Quartic())],
        ids=["q2p0", "q3p0", "q2p1", "quartic"],
    )
    def test_matches_central_differences_of_gradient(self, law):
        # N = 4: a 3x3 interior, so each column has a node on every side
        s = build_sample(square_connectivity(), 4, REST, uniform_growth(((0.9, 1.1),) * 4, seed=3), law)
        rng = np.random.default_rng(5)
        pos = s.affine_positions(np.eye(2)) + 0.1 * rng.standard_normal((s.n_nodes, 2))
        h = interior_hessian(s, pos)
        step = 1e-6
        fd = np.empty_like(h)
        for col, (node, axis) in enumerate((i, a) for i in s.interior_nodes for a in range(2)):
            pp, pm = pos.copy(), pos.copy()
            pp[node, axis] += step
            pm[node, axis] -= step
            fd[:, col] = (_Iterate(s, pp).grad - _Iterate(s, pm).grad) / (2 * step)
        assert np.allclose(h, h.T, rtol=0.0, atol=1e-12)
        assert np.allclose(h, fd, rtol=1e-6, atol=1e-7)

    def test_scatter_assembly_matches_coo_assembly(self):
        s, _ = folded_datum(16)
        pos = s.affine_positions(np.eye(2)) + 0.05 * np.random.default_rng(1).standard_normal((s.n_nodes, 2))
        interior = ~s.boundary_mask()
        index = np.empty(s.n_nodes, dtype=int)
        index[s.interior_nodes] = np.arange(s.interior_nodes.size)  # rank of each node among the interior
        d = pos[s.edges[:, 1]] - pos[s.edges[:, 0]]
        r = np.linalg.norm(d, axis=1)
        _, slope, curvature = spring_terms(s.law, r, s.rest * s.growth, s.growth**s.law.p, 2)
        rows, cols, vals = [], [], []
        for e, (tail, head) in enumerate(s.edges):
            u = d[e] / r[e]
            block = curvature[e] * np.outer(u, u) + slope[e] / r[e] * (np.eye(2) - np.outer(u, u))
            for a, b, sign in ((tail, tail, 1), (head, head, 1), (tail, head, -1), (head, tail, -1)):
                if interior[a] and interior[b]:
                    for k in range(2):
                        for m in range(2):
                            rows.append(2 * index[a] + k)
                            cols.append(2 * index[b] + m)
                            vals.append(sign * block[k, m])
        size = 2 * int(interior.sum())
        want = np.tril(sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).toarray())
        band = interior_band(s, pos)
        assert band.shape == (size, s.direction_plan.band[-1])
        got = np.tril(dense_from_band(band))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_iterates_of_one_sample_share_one_plan(self, monkeypatch):
        fill, plans = _Iterate.band, []

        def recording_band(it, out):
            plans.append(it.sample.direction_plan)
            return fill(it, out)

        monkeypatch.setattr(_Iterate, "band", recording_band)
        s, boundary = folded_datum()
        for f in (boundary.f, 1.1 * np.eye(2), stable_datum()[1].f):
            relax_branch(s, AffineBoundary(f))
        assert len(plans) > 4
        assert all(plan is plans[0] for plan in plans)

    def test_the_band_is_allocated_before_the_first_iterate(self, monkeypatch):
        # allocated after the first iterate, the band did not reuse the memory
        # that the previous solve's band freed, and the peak RSS of repeated
        # N = 64 branch solves crept from 75 to 82 MB
        empty, start, events = np.empty, solver._affine_start, []

        def recording_empty(shape, *args, **kwargs):
            events.append(("empty", shape))
            return empty(shape, *args, **kwargs)

        def recording_start(*args):
            events.append(("affine start", None))
            return start(*args)

        s, boundary = stable_datum()
        monkeypatch.setattr(solver.np, "empty", recording_empty)
        monkeypatch.setattr(solver, "_affine_start", recording_start)
        assert relax_branch(s, boundary).converged
        assert events.count(("affine start", None)) == 1
        assert events.index(("empty", s.direction_plan.band)) < events.index(("affine start", None))

    def test_a_branch_solve_needs_little_memory_beyond_its_band(self):
        # sim2's sample at N = 48 under F = 1.1 I, a solve of a few Newton
        # steps whose first use builds the sample's plan: beyond the band,
        # the solve may hold 16 arrays of one float per edge and axis, where
        # assembly by direction needs about 10 and a per-edge scatter 36
        n = 48
        s = build_sample(square_connectivity(), n, REST, uniform_growth(((0.8, 1.2),) * 4, seed=0), LAW)
        band_bytes = 8 * 2 * s.interior_nodes.size * (2 * n + 2)
        tracemalloc.start()
        try:
            report = relax_branch(s, AffineBoundary(1.1 * np.eye(2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged and report.iterations >= 3
        assert peak < band_bytes + 16 * s.n_edges * 2 * 8


@pytest.fixture(scope="module")
def sim2_dilations_n8():
    """sim2's sample at N = 8, seed 0, and its branch solves over sim2's
    dilational family, whose first datum is folded_datum(8)."""
    s, _ = folded_datum(8)
    _, fs = sample_family(DeformationFamily("dilational"))
    return s, [relax_branch(s, AffineBoundary(f)) for f in fs]


@pytest.mark.parametrize("gtol_rel", [float("nan"), float("inf"), 0.0, -1.0])
def test_solver_options_reject_a_tolerance_that_is_not_finite_and_positive(gtol_rel):
    with pytest.raises(ValueError, match="gtol_rel"):
        SolverOptions(gtol_rel=gtol_rel)


class TestRelaxBranch:
    def test_boundary_rows_pinned_bitwise(self):
        s = build_sample(square_connectivity(), 4, REST, checkerboard_growth(1.2), LAW)
        f = np.array([[1.05, 0.1], [0.0, 0.95]])
        report = relax_branch(s, AffineBoundary(f))
        boundary = s.boundary_mask()
        assert report.converged
        assert np.array_equal(report.positions[boundary], s.affine_positions(f)[boundary])

    def test_custom_profile(self):
        # Quartic is the power law of exponent 4, evaluated through the profile hooks
        scenario, f = uniform_growth(((0.8, 1.2),) * 4, seed=2), AffineBoundary(1.1 * np.eye(2))
        branch = relax_branch(build_sample(square_connectivity(), 4, REST, scenario, SpringLaw(profile=Quartic())), f)
        power = relax_branch(build_sample(square_connectivity(), 4, REST, scenario, SpringLaw(4, 0.0)), f)
        assert branch.converged and power.converged
        assert branch.per_cell_energy == pytest.approx(power.per_cell_energy, rel=1e-8)

    def test_running_out_of_steps_is_reported(self, monkeypatch):
        s, boundary = stable_datum()
        assert relax_branch(s, boundary).iterations == 4
        monkeypatch.setattr(solver, "_BRANCH_MAX_STEPS", 2)
        report = relax_branch(s, boundary)
        assert not report.converged
        assert report.iterations == 2
        assert "no convergence in 2 Newton steps" in report.message

    def test_no_saddle_is_reported_converged_on_sim2_dilations(self, sim2_dilations_n8):
        # Newton without the positive-definiteness test converges to saddles
        # on 4 of these data (smallest eigenvalue down to -21)
        s, reports = sim2_dilations_n8
        converged = [r for r in reports if r.converged]
        assert 0 < len(converged) < len(reports)
        for report in converged:
            assert np.linalg.eigvalsh(interior_hessian(s, report.positions))[0] > 0.0

    def test_stops_only_where_the_hessian_is_indefinite(self, sim2_dilations_n8):
        # the Cholesky test is sound: where it stops a solve, the interior
        # Hessian of the reported iterate has a negative eigenvalue
        s, reports = sim2_dilations_n8
        stopped = [r for r in reports if not r.converged]
        # some affine starts are already past the stable branch: no step is taken
        assert any(r.iterations == 0 for r in stopped)
        for report in stopped:
            assert "Hessian not positive definite on the affine branch" in report.message
            assert np.linalg.eigvalsh(interior_hessian(s, report.positions))[0] < 0.0

    def test_singular_hessian_is_reported(self):
        s = one_d_chain(linear_growth(1.0, 0.5), 4, 1.0, SpringLaw(profile=Linear()))
        report = relax_branch(s, AffineBoundary(np.array([[1.2]])))
        assert not report.converged
        assert report.iterations == 0
        assert "singular Hessian" in report.message

    def test_band_cholesky_fills_only_the_band(self):
        # in node order the Cholesky factor of the interior Hessian has no
        # fill outside the band, so the band factor is the whole factor
        s, boundary = stable_datum()
        pos = s.affine_positions(boundary.f)
        band = interior_band(s, pos)
        m, width = band.shape
        factor, info = lapack.dpbtrf(band.T, lower=1)
        assert info == 0
        dense = np.linalg.cholesky(interior_hessian(s, pos))
        below = np.subtract.outer(np.arange(m), np.arange(m))
        assert np.all(dense[below >= width] == 0.0)
        column, offset = np.divmod(np.arange(band.size), width)
        inside = column + offset < m
        banded = np.zeros_like(dense)
        banded[column[inside] + offset[inside], column[inside]] = factor.T.ravel()[inside]
        assert np.allclose(banded, dense, rtol=0.0, atol=1e-12 * np.max(np.abs(dense)))

    def test_every_step_of_a_failing_solve_is_accurate(self, monkeypatch):
        factorise, solve = lapack.dpbtrf, lapack.dpbtrs
        pivots, steps = [], []

        def recording_dpbtrf(ab, **kwargs):
            factor, info = factorise(ab, **kwargs)
            pivots.append((info, factor[0, info - 1] if info > 0 else None))
            return factor, info

        def recording_dpbtrs(factor, rhs, **kwargs):
            delta, info = solve(factor, rhs, **kwargs)
            steps.append(delta.copy())  # relax_branch caps its step in place
            return delta, info

        monkeypatch.setattr(lapack, "dpbtrf", recording_dpbtrf)
        monkeypatch.setattr(lapack, "dpbtrs", recording_dpbtrs)
        s, boundary = folded_datum(16)
        report = relax_branch(s, boundary)
        # the last factorisation finds H not positive definite, and the
        # solve stops without a step from that iterate
        assert not report.converged and len(steps) == report.iterations
        assert len(pivots) == report.iterations + 1
        assert all(info == 0 for info, _ in pivots[:-1])
        info, pivot = pivots[-1]
        assert info > 0 and pivot < 0.0
        assert "Hessian not positive definite on the affine branch" in report.message
        # replay the iterates: each step solves H delta = -g with the exact
        # Hessian and gradient of its iterate
        it = _affine_start(s, boundary)
        for delta in steps:
            h = interior_hessian(s, it.positions)
            assert np.max(np.abs(h @ delta + it.grad)) <= 1e-8 * np.max(np.abs(it.grad))
            it = it.moved(it.x + delta * min(1.0, 0.25 / np.max(np.abs(delta))))
        assert np.array_equal(it.positions, report.positions)

    def test_every_iterate_stepped_from_is_stable_on_sim2_dilations(self, monkeypatch):
        move, stepped_from = _Iterate.moved, []

        def recording_moved(it, x):
            stepped_from.append(it)
            return move(it, x)

        monkeypatch.setattr(_Iterate, "moved", recording_moved)
        s, _ = folded_datum(8)
        for f in sample_family(DeformationFamily("dilational"))[1]:
            relax_branch(s, AffineBoundary(f))
        assert stepped_from
        for it in stepped_from:
            assert np.linalg.eigvalsh(interior_hessian(s, it.positions))[0] > 0.0

    def test_an_indefinite_affine_start_stops_at_step_zero(self):
        # sim4's ungrown sample (random rest lengths, no growth) at N = 4,
        # seed 2, under F = I/1.5: Newton steps from its indefinite affine
        # start would still converge, in 5 steps
        rest = ((0.8, 1.2), (0.8, 1.2), (0.8 * math.sqrt(2.0), 1.2 * math.sqrt(2.0)),
                (0.8 * math.sqrt(2.0), 1.2 * math.sqrt(2.0)))
        s = build_sample(square_connectivity(), 4, rest, no_growth(square_connectivity(), seed=2), LAW)
        boundary = AffineBoundary(np.eye(2) / 1.5)
        report = relax_branch(s, boundary)
        assert not report.converged and report.iterations == 0
        assert report.message.endswith(": Hessian not positive definite on the affine branch")
        assert np.linalg.eigvalsh(interior_hessian(s, s.affine_positions(boundary.f)))[0] < 0.0
