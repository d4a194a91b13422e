import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growlat import continuum, lattice
from growlat.continuum import (
    cauchy_born_energy,
    cauchy_born_energy_many,
    cauchy_born_gradient,
    cauchy_born_hessian,
    decompose,
    extend_to_basis,
    fractional_error_map,
    ground_state,
    growth_tensors,
    is_shear,
    length_preserving_shears,
    mapped_directions,
    mapped_lengths,
    multiplicative_admissible,
    rotation,
    square_partition_choices,
    upper_triangular,
)
from growlat.lattice import Connectivity, HomogeneousLattice, SpringLaw, apply_growth, square_lattice
from growlat.serialize import _format_cell

REST = (1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0))


def random_invertible(rng, scale=0.4):
    while True:
        f = np.eye(2) + scale * rng.standard_normal((2, 2))
        if abs(np.linalg.det(f)) > 0.1:
            return f


class TestMappedDirections:
    @pytest.mark.parametrize("shape", [(7, 5, 2, 2), (2, 2)])
    def test_matches_einsum_to_the_bit(self, shape):
        directions = square_lattice().connectivity.matrix
        fs = np.random.default_rng(4).standard_normal(shape)
        expected = np.einsum("...ij,aj->...ai", fs, np.asarray(directions, dtype=float))
        got = mapped_directions(directions, fs)
        assert got.shape == shape[:-2] + (4, 2)
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("grid", ["ex7", "random"])
    def test_one_gemm_matches_the_batched_matmul_to_the_bit(self, grid):
        directions = square_lattice().connectivity.matrix
        if grid == "ex7":  # the F's of `error-map ex7`, from its default grid
            a, b, c = np.meshgrid(np.linspace(0.8, 1.25, 46), np.linspace(0.8, 1.25, 46), np.linspace(-0.5, 0.5, 41),
                                  indexing="ij")
            fs = np.zeros(a.shape + (2, 2))
            fs[..., 0, 0], fs[..., 1, 1], fs[..., 0, 1] = a, b, c
        else:
            fs = np.random.default_rng(11).standard_normal((3, 7, 5, 2, 2))
        batched = np.swapaxes(fs @ directions.T, -1, -2)
        assert mapped_directions(directions, fs).tobytes() == np.ascontiguousarray(batched).tobytes()
        assert mapped_lengths(directions, fs).tobytes() == np.linalg.norm(batched, axis=-1).tobytes()
        for f in fs.reshape(-1, 2, 2)[:: max(1, fs[..., 0, 0].size // 50)]:
            assert mapped_lengths(directions, f).tobytes() == np.linalg.norm(f @ directions.T, axis=0).tobytes()

    def test_three_dimensional_connectivity_matches_to_rounding(self):
        directions = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1], [0, 1, -1]], dtype=float)
        fs = np.random.default_rng(12).standard_normal((9, 4, 3, 3))
        batched = np.swapaxes(fs @ directions.T, -1, -2)
        got = mapped_directions(directions, fs)
        assert got.shape == (9, 4, 6, 3)
        assert np.all(np.abs(got - batched) <= 1e-15 * np.abs(batched))
        lengths = np.linalg.norm(batched, axis=-1)
        assert np.all(np.abs(mapped_lengths(directions, fs) - lengths) <= 1e-15 * lengths)


class TestCauchyBorn:
    def test_rest_state(self):
        assert cauchy_born_energy(square_lattice(), np.eye(2)) == 0.0

    def test_uniform_stretch(self):
        assert cauchy_born_energy(square_lattice(), 1.1 * np.eye(2)) == pytest.approx(0.04, rel=1e-12)

    def test_grown_at_identity(self):
        lat = apply_growth(square_lattice(), (1, 1, 0.9, 0.9))
        assert cauchy_born_energy(lat, np.eye(2)) == pytest.approx(2 * (1 / 0.9 - 1) ** 2, rel=1e-12)
        assert cauchy_born_energy(lat, np.eye(2)) == pytest.approx(0.024691, abs=1e-6)

    def test_frame_indifference(self):
        rng = np.random.default_rng(2)
        lat = apply_growth(square_lattice(), (1.05, 0.9, 1.2, 0.85))
        for _ in range(25):
            f = random_invertible(rng)
            r = rotation(rng.uniform(0, 2 * math.pi))
            assert cauchy_born_energy(lat, r @ f) == pytest.approx(
                cauchy_born_energy(lat, f), rel=1e-12
            )

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        lat = apply_growth(square_lattice(), (1.1, 0.95, 1.05, 0.9))
        fs = np.stack([random_invertible(rng) for _ in range(10)])
        many = cauchy_born_energy_many(lat, fs)
        for i in range(10):
            assert many[i] == pytest.approx(cauchy_born_energy(lat, fs[i]), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        lat = apply_growth(square_lattice(), (1.1, 0.95, 1.05, 0.9))
        for _ in range(10):
            f = random_invertible(rng)
            g = cauchy_born_gradient(lat, f)
            h = 1e-6
            for i in range(2):
                for j in range(2):
                    fp, fm = f.copy(), f.copy()
                    fp[i, j] += h
                    fm[i, j] -= h
                    fd = (cauchy_born_energy(lat, fp) - cauchy_born_energy(lat, fm)) / (2 * h)
                    assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestCauchyBornHessian:
    @pytest.mark.parametrize(
        "law", [SpringLaw(2, 0.0), SpringLaw(3, 0.0), SpringLaw(2, 1.0), SpringLaw(4, 0.0)],
        ids=["q2p0", "q3p0", "q2p1", "quartic"],
    )
    def test_matches_central_differences_of_gradient(self, law):
        rng = np.random.default_rng(6)
        lat = apply_growth(square_lattice(law=law), (1.1, 0.95, 1.05, 0.9))
        step = 1e-6
        for _ in range(5):
            f = random_invertible(rng)
            h = cauchy_born_hessian(lat, f)
            assert h.shape == (2, 2, 2, 2)
            fd = np.empty_like(h)
            for k in range(2):
                for l in range(2):
                    fp, fm = f.copy(), f.copy()
                    fp[k, l] += step
                    fm[k, l] -= step
                    fd[:, :, k, l] = (cauchy_born_gradient(lat, fp) - cauchy_born_gradient(lat, fm)) / (2 * step)
            assert np.allclose(h, fd, rtol=1e-6, atol=1e-8)
            assert np.allclose(h, h.transpose(2, 3, 0, 1), rtol=0.0, atol=1e-14)


class TestShears:
    def test_identity_is_not_a_shear(self):
        assert not is_shear(np.eye(2), np.eye(2))

    def test_rotation_is_not_a_shear(self):
        assert not is_shear(rotation(0.7), np.eye(2))

    def test_reflection_is_a_shear(self):
        assert is_shear(np.diag([1.0, -1.0]), np.eye(2))

    def test_unit_norm_preserving_example(self):
        f = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
        assert is_shear(f, np.eye(2))

    def test_norm_change_is_not_a_shear(self):
        assert not is_shear(np.diag([1.0, 0.9]), np.eye(2))

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError):
            is_shear(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]]))

    @staticmethod
    def order1_witness(connectivity):
        """The length-preserving shear at 3 pi / 4 of the connectivity's extended basis."""
        basis = extend_to_basis(connectivity.matrix, connectivity.dimension)
        return length_preserving_shears(basis.T, 3 * math.pi / 4), basis

    def test_witness_for_single_direction(self):
        f, _ = self.order1_witness(Connectivity(2, ((1, 0),)))
        expected = np.array([[1.0, -math.sqrt(2) / 2], [0.0, math.sqrt(2) / 2]])
        assert np.allclose(f, expected, atol=1e-12)

    def test_witness_for_order_one_pair(self):
        co = Connectivity(2, ((1, 0), (0, 1)))
        f, basis = self.order1_witness(co)
        assert is_shear(f, basis)
        lat = HomogeneousLattice(co, (1.0, 1.3), (0.9, 1.2), SpringLaw())
        assert cauchy_born_energy(lat, f) == pytest.approx(cauchy_born_energy(lat, np.eye(2)), abs=1e-12)

    def test_witness_rejects_one_dimension(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            self.order1_witness(Connectivity(1, ((1,),)))

    def test_witness_rejects_higher_order(self):
        # four directions in the plane are no basis to extend
        with pytest.raises(ValueError, match="cannot be extended"):
            self.order1_witness(lattice.square_connectivity())

    def test_shear_families_vanish_and_are_shears(self):
        lat = square_lattice()
        decs = [decompose(lat, choice) for choice in square_partition_choices()]
        rng = np.random.default_rng(5)
        thetas = np.linspace(0.07, 2 * math.pi - 0.07, 25)  # none turns c_2 back to its own angle
        for dec in decs:
            for k, part in enumerate(dec.parts):
                for f in length_preserving_shears(part.basis, thetas):
                    assert is_shear(f, part.basis.T)
                    assert abs(dec.part_energy(k, f)) <= 1e-12
                    # rotations leave the part energy unchanged
                    r = rotation(rng.uniform(0, 2 * math.pi))
                    assert abs(dec.part_energy(k, r @ f)) <= 1e-12

    def test_stacked_shears_equal_the_shears_of_one_angle_to_the_bit(self):
        thetas = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        decs = [decompose(square_lattice(), choice) for choice in square_partition_choices()]
        bases = [part.basis for dec in decs for part in dec.parts]
        bases.append(extend_to_basis([(1, -1, 1), (0, 1, 2)], 3).T)
        for basis in bases:
            stacked = length_preserving_shears(basis, thetas)
            assert stacked.shape == (3, 4) + basis.shape
            for index in np.ndindex(3, 4):
                assert stacked[index].tobytes() == length_preserving_shears(basis, thetas[index]).tobytes()

    def test_shears_keep_every_basis_length_and_turn_only_the_second_vector(self):
        basis = extend_to_basis([(1, -1, 1), (0, 1, 2)], 3).T
        for theta in (0.3, 2.0, -1.1):
            f = length_preserving_shears(basis, theta)
            mapped = f @ basis
            assert np.allclose(np.linalg.norm(mapped, axis=0), np.linalg.norm(basis, axis=0), rtol=0.0, atol=1e-14)
            norms = np.linalg.norm(basis, axis=0)
            assert np.allclose(mapped[:, 0], [norms[0], 0, 0], rtol=0.0, atol=1e-14)
            assert np.allclose(mapped[:, 1], norms[1] * np.array([math.cos(theta), math.sin(theta), 0]),
                               rtol=0.0, atol=1e-14)
            assert np.allclose(mapped[:, 2], [0, 0, norms[2]], rtol=0.0, atol=1e-14)


class TestDecomposition:
    def test_no_growth_gives_identity_tensors(self):
        dec = decompose(square_lattice())
        for part in dec.parts:
            assert np.allclose(part.growth, np.eye(2), atol=1e-14)

    def test_isotropic_growth_gives_equal_tensors(self):
        # then G_2 G_1^{-1} = I: the single tensor 1.2 I reconstructs the grown energy
        for choice in square_partition_choices():
            dec = decompose(apply_growth(square_lattice(), (1.2,) * 4), choice)
            for part in dec.parts:
                assert np.allclose(part.growth, 1.2 * np.eye(2), rtol=0.0, atol=1e-14)
                assert np.allclose(part.growth_inv, np.eye(2) / 1.2, rtol=0.0, atol=1e-14)

    def test_axis_diagonal_tensors(self):
        lat = apply_growth(square_lattice(), (1.3, 0.7, 0.9, 1.1))
        dec = decompose(lat, square_partition_choices()[0])
        assert np.allclose(dec.parts[0].growth, np.diag([1.3, 0.7]), atol=1e-14)
        r = rotation(math.pi / 4)
        expected = r @ np.diag([0.9, 1.1]) @ r.T
        assert np.allclose(dec.parts[1].growth, expected, atol=1e-14)

    def test_sheared_growth_tensor_value(self):
        lat = apply_growth(square_lattice(), (1, 1, 0.9, 1.1))
        dec = decompose(lat, square_partition_choices()[0])
        assert np.allclose(dec.parts[1].growth, np.array([[1.0, -0.1], [-0.1, 1.0]]), atol=1e-14)

    def test_triangular_tensors_of_mixed_partitions(self):
        g1, g2, gp, gm = 1.3, 0.7, 0.9, 1.1
        lat = apply_growth(square_lattice(), (g1, g2, gp, gm))
        dec2 = decompose(lat, square_partition_choices()[1])
        assert np.allclose(dec2.parts[0].growth, np.array([[g1, gp - g1], [0, gp]]), atol=1e-12)
        assert np.allclose(dec2.parts[1].growth, np.array([[gm, 0], [g2 - gm, g2]]), atol=1e-12)
        dec3 = decompose(lat, square_partition_choices()[2])
        assert np.allclose(dec3.parts[0].growth, np.array([[g1, g1 - gm], [0, gm]]), atol=1e-12)
        assert np.allclose(dec3.parts[1].growth, np.array([[gp, 0], [gp - g2, g2]]), atol=1e-12)

    def test_exactness_all_partitions(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            growth = tuple(rng.uniform(0.6, 1.5, 4))
            lat = apply_growth(square_lattice(), growth)
            f = random_invertible(rng)
            w_g = cauchy_born_energy(lat, f)
            w_i = cauchy_born_energy(square_lattice(), f)
            for choice in square_partition_choices():
                dec = decompose(lat, choice)
                assert abs(dec.grown_energy(f) - w_g) <= 1e-12 * (1 + abs(w_g))
                assert abs(dec.initial_energy(f) - w_i) <= 1e-12 * (1 + abs(w_i))

    def test_exactness_random_3d_connectivity(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            dirs, seen = [], set()
            while len(dirs) < 5:
                v = tuple(int(c) for c in rng.integers(-1, 2, 3))
                if v == (0, 0, 0) or v in seen or tuple(-c for c in v) in seen:
                    continue
                seen.add(v)
                dirs.append(v)
            co = Connectivity(3, tuple(dirs))
            rest = tuple(rng.uniform(0.7, 1.6, 5))
            growth = tuple(rng.uniform(0.7, 1.4, 5))
            lat = HomogeneousLattice(co, rest, growth, SpringLaw())
            dec = decompose(lat)
            f = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            w_g = cauchy_born_energy(lat, f)
            assert abs(dec.grown_energy(f) - w_g) <= 1e-12 * (1 + abs(w_g))
            for part in dec.parts:
                assert np.allclose(part.growth @ part.growth_inv, np.eye(3), rtol=0.0, atol=1e-12)

    def test_stacked_energies_equal_the_per_f_values_to_the_bit(self):
        rng = np.random.default_rng(13)
        fs = np.eye(2) + 0.4 * rng.standard_normal((4, 5, 2, 2))
        for choice in square_partition_choices():
            dec = decompose(apply_growth(square_lattice(), (1.3, 0.7, 0.9, 1.1)), choice)
            stacked = {
                "part 0": dec.part_energy(0, fs),
                "part 1": dec.part_energy(1, fs),
                "initial": dec.initial_energy(fs),
                "grown": dec.grown_energy(fs),
            }
            for name, energies in stacked.items():
                assert energies.shape == (4, 5), name
            for index in np.ndindex(4, 5):
                single = {
                    "part 0": dec.part_energy(0, fs[index]),
                    "part 1": dec.part_energy(1, fs[index]),
                    "initial": dec.initial_energy(fs[index]),
                    "grown": dec.grown_energy(fs[index]),
                }
                for name, energy in single.items():
                    assert type(energy) is np.float64 and energy.shape == (), name
                    assert energy.tobytes() == stacked[name][index].tobytes(), (name, index)

    def test_stacked_growth_tensors_equal_per_lattice_decompose_to_the_bit(self):
        growths = np.random.default_rng(14).uniform(0.7, 1.4, (12, 4))
        for choice in square_partition_choices():
            parts = decompose(square_lattice(), choice).parts
            tensors = growth_tensors(parts, growths.reshape(3, 4, 4))
            for i, growth in enumerate(growths):
                dec = decompose(apply_growth(square_lattice(), growth), choice)
                for (g, g_inv), part in zip(tensors, dec.parts):
                    assert g.shape == g_inv.shape == (3, 4, 2, 2)
                    assert g[divmod(i, 4)].tobytes() == part.growth.tobytes()
                    assert g_inv[divmod(i, 4)].tobytes() == part.growth_inv.tobytes()

    def test_partition_validation(self):
        lat = square_lattice()
        with pytest.raises(ValueError):
            decompose(lat, (((1, 0), (0, 1)),))  # does not cover
        with pytest.raises(ValueError):
            decompose(lat, (((1, 0), (0, 1), (1, 1)), ((1, -1),)))  # dependent class

    def test_requires_recombination(self):
        lat = HomogeneousLattice(lattice.square_connectivity(), REST, (), SpringLaw(p=1.0))
        with pytest.raises(ValueError):
            decompose(lat)

    def test_json_round_trip_shape(self):
        dec = decompose(apply_growth(square_lattice(), (1, 1, 0.9, 1.1)))
        payload = dec.to_json_dict()
        assert payload["partition"] == [[0, 1], [2, 3]]
        assert len(payload["growth_tensors"]) == 2
        assert len(payload["growth_tensors"][0]) == 4


SQUARE_PARTS = [decompose(square_lattice(), choice).parts for choice in square_partition_choices()]


class TestAdmissibility:
    def test_equal_growth_is_admissible(self):
        for parts in SQUARE_PARTS:
            assert multiplicative_admissible(parts, (1.3, 1.3, 1.3, 1.3))
            for g, _ in growth_tensors(parts, (1.3, 1.3, 1.3, 1.3)):
                assert np.allclose(g, 1.3 * np.eye(2))

    def test_identity_growth(self):
        for parts in SQUARE_PARTS:
            assert multiplicative_admissible(parts, (1.0, 1.0, 1.0, 1.0))

    def test_diagonal_shrink_is_not_admissible(self):
        for parts in SQUARE_PARTS:
            assert not multiplicative_admissible(parts, (1, 1, 0.9, 0.9))

    @settings(max_examples=200, deadline=None)
    @given(g=st.floats(0.1, 5.0))
    def test_equal_line_property(self, g):
        for parts in SQUARE_PARTS:
            assert multiplicative_admissible(parts, (g, g, g, g))

    def test_single_factor_perturbation_breaks_admissibility(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = float(rng.uniform(0.5, 1.5))
            idx = int(rng.integers(0, 4))
            factors = [g] * 4
            factors[idx] += 1e-6 * (1 if rng.random() < 0.5 else -1)
            for parts in SQUARE_PARTS:
                assert not multiplicative_admissible(parts, factors)

    def test_rejects_nonpositive(self):
        for factors in ((1.0, -1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (1.0, float("nan"), 1.0, 1.0)):
            with pytest.raises(ValueError, match="positive"):
                multiplicative_admissible(SQUARE_PARTS[0], factors)

    def test_a_class_that_does_not_span_the_space_is_rejected(self):
        # a single direction leaves G_k on the rest of the plane to the standard vectors
        # that extend it, so coinciding tensors would prove nothing
        parts = decompose(square_lattice(), (((1, 0),), ((0, 1),), ((1, 1), (1, -1)))).parts
        with pytest.raises(ValueError, match="span"):
            multiplicative_admissible(parts, (1.0, 1.0, 1.0, 1.0))

    def test_a_stack_of_factors_gives_the_verdict_of_each_row(self):
        rng = np.random.default_rng(9)
        factors = np.repeat(rng.uniform(0.6, 1.5, (6, 1)), 4, axis=1)
        factors[::2] = rng.uniform(0.6, 1.5, (3, 4))
        for parts in SQUARE_PARTS:
            verdicts = multiplicative_admissible(parts, factors.reshape(2, 3, 4))
            assert verdicts.shape == (2, 3)
            assert verdicts.ravel().tolist() == [bool(multiplicative_admissible(parts, row)) for row in factors]
            assert verdicts.ravel().tolist() == [False, True] * 3


class TestGroundState:
    def test_rest_lattice(self):
        gs = ground_state(square_lattice())
        assert np.allclose(gs.f, np.eye(2), atol=1e-8)
        assert gs.energy <= 1e-15

    def test_diagonal_shrink_closed_form(self):
        gs = ground_state(apply_growth(square_lattice(), (1, 1, 0.9, 0.9)))
        gamma = 1.71 / 1.81  # stationarity of 2(g-1)^2 + 2(g/0.9-1)^2
        assert np.allclose(gs.f, gamma * np.eye(2), atol=1e-8)

    def test_compatible_sheared_state(self):
        gs = ground_state(apply_growth(square_lattice(), (1, 1, 0.9, math.sqrt(2 - 0.81))))
        b = math.sqrt(1 - 0.19**2)
        assert np.allclose(gs.f, np.array([[1.0, -0.19], [0.0, b]]), atol=1e-6)
        assert gs.energy <= 1e-15

    @pytest.mark.parametrize("q", [3, 4])
    def test_flat_compatible_minimum_is_pinned(self, q):
        # ex6 at q >= 3: zero energy and a zero Hessian at G, so |grad| <= 1e-12 alone stops ~1e-4 short
        gs = ground_state(apply_growth(square_lattice(law=SpringLaw(q=q)), (1, 1, 0.9, math.sqrt(2 - 0.81))))
        exact = np.array([[1.0, -0.19], [0.0, math.sqrt(1 - 0.19**2)]])
        assert np.max(np.abs(gs.f - exact)) <= 1e-10
        assert gs.iterations < 200

    def test_ex7_ground_state_is_unchanged_to_the_bit(self):
        gs = ground_state(apply_growth(square_lattice(), (1, 1, 0.9, 1.1)))
        assert gs.f.tolist() == [[1.0024335930305215, -0.19756854349294026], [0.0, 0.9827714785534628]]

    def test_optimality_against_random_perturbations(self):
        rng = np.random.default_rng(9)
        lat = apply_growth(square_lattice(), (1, 1, 0.9, 1.1))
        gs = ground_state(lat)
        for _ in range(200):
            trial = gs.f + rng.uniform(-0.05, 0.05, (2, 2)) * np.array([[1, 1], [0, 1]])
            if trial[0, 0] <= 0 or trial[1, 1] <= 0:
                continue
            assert cauchy_born_energy(lat, trial) >= gs.energy - 1e-12

    def test_gradient_norm_bound(self):
        gs = ground_state(apply_growth(square_lattice(), (1, 1, 0.9, 1.1)))
        g = cauchy_born_gradient(apply_growth(square_lattice(), (1, 1, 0.9, 1.1)), gs.f)
        assert max(abs(g[0, 0]), abs(g[1, 1]), abs(g[0, 1])) <= 1e-12

    def test_collapsed_ground_state(self):
        # the ground state has F11 near 0, where a search bounded at F11 >= 1e-8 stalls
        growth = (1.9447659867840599, 0.3317377231271011, 0.511433662510538, 1.874584074149185)
        lat = apply_growth(square_lattice(), growth)
        gs = ground_state(lat)
        assert gs.grad_norm <= 1e-12
        assert 0 < gs.f[1, 1] <= 1e-12
        g = cauchy_born_gradient(lat, gs.f)
        assert max(abs(g[0, 0]), abs(g[1, 1]), abs(g[0, 1])) <= 1e-12

    def test_random_lattices_converge_with_positive_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            law = SpringLaw(q=int(rng.choice([2, 3, 4])))
            lat = apply_growth(square_lattice(law=law), rng.uniform(0.3, 3.0, 4))
            gs = ground_state(lat)
            assert gs.f[0, 0] > 0 and gs.f[1, 1] > 0 and gs.f[1, 0] == 0
            assert gs.grad_norm <= 1e-12
            assert gs.energy == cauchy_born_energy(lat, gs.f)

    def test_rejects_one_dimensional(self):
        lat = HomogeneousLattice(Connectivity(1, ((1,),)), (1.0,), (), SpringLaw())
        with pytest.raises(ValueError):
            ground_state(lat)

    def test_upper_triangular_validation(self):
        with pytest.raises(ValueError):
            upper_triangular(-1.0, 1.0, 0.0)


class TestErrorMap:
    def test_dilational_growth_has_zero_error(self):
        initial = square_lattice()
        grown = apply_growth(initial, (1.2, 1.2, 1.2, 1.2))
        emap = fractional_error_map(initial, grown, counts=(12, 12, 9))
        vals = emap.values[emap.defined]
        assert np.nanmax(np.abs(vals)) <= 1e-12
        assert emap.exceed_fraction(0.10) == 0.0

    def test_known_pointwise_values(self):
        initial = square_lattice()
        grown = apply_growth(initial, (1, 1, 0.9, 0.9))
        gs = ground_state(grown)
        gamma = 1.71 / 1.81
        # at F = G the initial reconstruction is exact zero over positive truth
        f = gs.f
        w_i = cauchy_born_energy(initial, f @ np.linalg.inv(gs.f))
        w_g = cauchy_born_energy(grown, f)
        assert w_i / w_g - 1 == pytest.approx(-1.0, abs=1e-9)
        # at F = I
        w_i2 = cauchy_born_energy(initial, np.linalg.inv(gs.f))
        w_g2 = cauchy_born_energy(grown, np.eye(2))
        assert w_i2 == pytest.approx(4 * (1 / gamma - 1) ** 2, rel=1e-9)
        assert w_i2 / w_g2 - 1 == pytest.approx(-0.44599, abs=1e-4)

    def test_undefined_points_are_excluded(self):
        initial = square_lattice()
        grown = apply_growth(initial, (1.2,) * 4)
        emap = fractional_error_map(initial, grown, lam1_range=(1.2, 1.3), lam2_range=(1.2, 1.3),
                                    lam3_range=(0.0, 0.0), counts=(2, 2, 1), growth_tensor=1.2 * np.eye(2))
        assert not emap.defined[0, 0, 0]  # F = 1.2 I relaxes every spring
        assert np.isnan(emap.values[0, 0, 0])

    def test_requires_matching_rest(self):
        with pytest.raises(ValueError):
            fractional_error_map(square_lattice(), square_lattice(rest=(1, 1, 1.4, 1.4)))

    @pytest.mark.parametrize("counts", [(10, 10), (0, 10, 10), (2, -1, 3), (2.0, 3, 4), (True, 3, 4), 10])
    def test_rejects_grids_that_are_not_three_positive_integers(self, counts):
        initial = square_lattice()
        with pytest.raises(ValueError, match="three positive integers"):
            fractional_error_map(initial, initial, counts=counts, growth_tensor=np.eye(2))

    @pytest.mark.parametrize("growth,ranges,counts,undefined", [
        ((1, 1, 0.9, 1.1), {}, (3, 4, 5), 0),
        # an ungrown lattice on a grid through F = I, where W_g = 0 and the error is undefined
        ((1, 1, 1, 1), {"lam1_range": (0.5, 1.5), "lam2_range": (0.5, 1.5)}, (3, 3, 5), 1),
    ])
    def test_csv_matches_cell_by_cell_reference(self, tmp_path, growth, ranges, counts, undefined):
        initial = square_lattice()
        emap = fractional_error_map(initial, apply_growth(initial, growth), counts=counts,
                                    thresholds=(0.10, 0.20), **ranges)
        emap.to_csv(tmp_path / "map.csv")
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["lam1", "lam2", "lam3", "error", "mask_10", "mask_20"])
        for (i, j, k), error in np.ndenumerate(emap.values):
            cells = [emap.lam1[i], emap.lam2[j], emap.lam3[k], error, *(emap.masks[t][i, j, k] for t in (0.10, 0.20))]
            writer.writerow([_format_cell(x) for x in cells])
        assert (tmp_path / "map.csv").read_bytes() == buffer.getvalue().encode("utf-8")
        assert int((~emap.defined).sum()) == undefined

    def test_csv_export(self, tmp_path):
        initial = square_lattice()
        grown = apply_growth(initial, (1, 1, 0.9, 0.9))
        emap = fractional_error_map(initial, grown, counts=(4, 4, 3))
        path = tmp_path / "map.csv"
        emap.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "lam1,lam2,lam3,error,mask_10,mask_20"
        assert len(path.read_text().splitlines()) == 1 + 4 * 4 * 3
