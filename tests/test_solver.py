import math

import numpy as np
import pytest

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
    square_connectivity,
    square_lattice,
    uniform_growth,
)
from growlat.continuum import cauchy_born_energy
from growlat.solver import (
    AffineBoundary,
    SolverOptions,
    _Iterate,
    constant_growth,
    energy_and_gradient,
    linear_growth,
    minimize,
    one_d_chain,
    one_d_chain_energy,
    one_d_continuum_energy,
    owned_energy,
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


def interior_hessian(sample, positions):
    return _Iterate(sample, positions, ~sample.boundary_mask()).hessian.toarray()


def folded_datum():
    """sim2-type growth at N = 6 under dilation by 1/1.5: the affine branch is
    unstable there and the energy has folded minima."""
    s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=0), LAW)
    return s, AffineBoundary(np.eye(2) / 1.5)


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
        _, grad = energy_and_gradient(s, pos)
        h = 1e-6
        for node in rng.integers(0, s.n_nodes, 6):
            for axis in range(2):
                pp, pm = pos.copy(), pos.copy()
                pp[node, axis] += h
                pm[node, axis] -= h
                fd = (total_energy(s, pp) - total_energy(s, pm)) / (2 * h)
                assert grad[node, axis] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestMinimize:
    def test_single_interior_node_chain(self):
        s = build_sample(chain_connectivity(), 2, 1.0, law=LAW)
        report = minimize(s, AffineBoundary(np.array([[1.1]])))
        assert report.converged
        assert report.positions[1, 0] == pytest.approx(1.1, abs=1e-9)
        assert report.total_energy == pytest.approx(0.02, rel=1e-8)

    def test_homogeneous_rest_state(self):
        s = build_sample(square_connectivity(), 4, REST, law=LAW)
        report = minimize(s, AffineBoundary(np.eye(2)))
        assert report.converged
        assert report.per_cell_energy <= 1e-14
        assert np.allclose(report.positions, s.affine_positions(np.eye(2)), atol=1e-7)

    def test_boundary_rows_pinned_bitwise(self):
        s = build_sample(square_connectivity(), 4, REST, checkerboard_growth(1.2), LAW)
        f = np.array([[1.05, 0.1], [0.0, 0.95]])
        report = minimize(s, AffineBoundary(f))
        boundary = s.boundary_mask()
        assert np.array_equal(report.positions[boundary], s.affine_positions(f)[boundary])

    @pytest.mark.parametrize("n", [4, 8])
    def test_homogeneous_grown_matches_cauchy_born(self, n):
        growth = (1, 1, 0.9, 0.9)
        lat = apply_growth(square_lattice(law=LAW), growth)
        s = build_sample(square_connectivity(), n, REST, homogeneous_growth(growth), LAW)
        f = (1.71 / 1.81) * np.eye(2)
        report = minimize(s, AffineBoundary(f))
        cb = cauchy_born_energy(lat, f)
        assert report.converged
        assert report.per_cell_energy <= cb + 1e-12
        assert report.per_cell_energy == pytest.approx(cb, abs=1e-6)

    def test_never_exceeds_affine_trial(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=5), LAW)
        for f in (np.eye(2), 1.2 * np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]])):
            report = minimize(s, AffineBoundary(f))
            affine = owned_energy(s, s.affine_positions(f)) / s.n**2
            assert report.per_cell_energy <= affine + 1e-12

    def test_relaxation_strictly_below_affine_for_random_growth(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=6), LAW)
        report = minimize(s, AffineBoundary(np.eye(2)))
        affine = owned_energy(s, s.affine_positions(np.eye(2))) / 36
        assert report.converged
        assert report.per_cell_energy < affine - 1e-4

    def test_non_convergence_is_reported(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=7), LAW)
        report = minimize(s, AffineBoundary(1.2 * np.eye(2)), SolverOptions(gtol_rel=1e-16, max_iter=3))
        assert not report.converged
        assert report.message

    def test_deterministic(self):
        s = build_sample(square_connectivity(), 5, REST, uniform_growth(((0.8, 1.2),) * 4, seed=8), LAW)
        a = minimize(s, AffineBoundary(np.eye(2)))
        b = minimize(s, AffineBoundary(np.eye(2)))
        assert np.array_equal(a.positions, b.positions)
        assert a.per_cell_energy == b.per_cell_energy

    def test_three_dimensions_unsupported(self):
        co = Connectivity(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        s = build_sample(co, 2, 1.0, law=LAW)
        with pytest.raises(ValueError):
            minimize(s, AffineBoundary(np.eye(3)))

    def test_inhomogeneous_cauchy_in_n(self):
        energies = []
        for n in (8, 16):
            s = build_sample(square_connectivity(), n, REST, checkerboard_growth(1.2), LAW)
            energies.append(minimize(s, AffineBoundary(1.1 * np.eye(2))).per_cell_energy)
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
        s = build_sample(square_connectivity(), 3, REST, uniform_growth(((0.9, 1.1),) * 4, seed=3), law)
        rng = np.random.default_rng(5)
        pos = s.affine_positions(np.eye(2)) + 0.1 * rng.standard_normal((s.n_nodes, 2))
        interior = ~s.boundary_mask()
        h = interior_hessian(s, pos)
        step = 1e-6
        fd = np.empty_like(h)
        for col, (node, axis) in enumerate((i, a) for i in np.nonzero(interior)[0] for a in range(2)):
            pp, pm = pos.copy(), pos.copy()
            pp[node, axis] += step
            pm[node, axis] -= step
            fd[:, col] = (energy_and_gradient(s, pp)[1][interior].ravel()
                          - energy_and_gradient(s, pm)[1][interior].ravel()) / (2 * step)
        assert np.allclose(h, h.T, rtol=0.0, atol=1e-12)
        assert np.allclose(h, fd, rtol=1e-6, atol=1e-7)


class TestRelaxBranch:
    def test_matches_minimize_on_a_stable_datum(self):
        s = build_sample(square_connectivity(), 6, REST, uniform_growth(((0.8, 1.2),) * 4, seed=5), LAW)
        f = np.array([[1.1, 0.1], [0.0, 1.05]])
        branch = relax_branch(s, AffineBoundary(f))
        descent = minimize(s, AffineBoundary(f))
        assert branch.converged and descent.converged
        assert branch.per_cell_energy == pytest.approx(descent.per_cell_energy, rel=1e-9)
        assert np.allclose(branch.positions, descent.positions, atol=1e-6)

    def test_boundary_rows_pinned_bitwise(self):
        s = build_sample(square_connectivity(), 4, REST, checkerboard_growth(1.2), LAW)
        f = np.array([[1.05, 0.1], [0.0, 0.95]])
        report = relax_branch(s, AffineBoundary(f))
        boundary = s.boundary_mask()
        assert report.converged
        assert np.array_equal(report.positions[boundary], s.affine_positions(f)[boundary])

    def test_custom_profile(self):
        law = SpringLaw(profile=Quartic())
        s = build_sample(square_connectivity(), 4, REST, uniform_growth(((0.8, 1.2),) * 4, seed=2), law)
        f = 1.1 * np.eye(2)
        branch = relax_branch(s, AffineBoundary(f))
        assert branch.converged
        assert branch.per_cell_energy == pytest.approx(minimize(s, AffineBoundary(f)).per_cell_energy, rel=1e-8)

    def test_running_out_of_steps_is_reported(self):
        s, boundary = folded_datum()
        report = relax_branch(s, boundary)
        assert not report.converged
        assert report.iterations == 60
        assert "Newton steps" in report.message


class TestFoldedMinimize:
    def test_reaches_a_stable_folded_minimum(self):
        s, boundary = folded_datum()
        report = minimize(s, boundary)
        assert report.converged
        affine = owned_energy(s, s.affine_positions(boundary.f)) / s.n**2
        assert report.per_cell_energy <= affine
        h = interior_hessian(s, report.positions)
        assert np.linalg.eigvalsh(h)[0] >= -1e-8 * np.max(np.abs(np.diag(h)))
