import itertools

import numpy as np
import pytest

from growlat import lattice
from growlat.lattice import (
    Connectivity,
    GrowthScenario,
    SpringLaw,
    apply_growth,
    build_sample,
    chain_connectivity,
    checkerboard_growth,
    homogeneous_growth,
    lattice_order,
    square_connectivity,
    square_lattice,
    uniform_growth,
)
from growlat.springs import spring_hessian_block, spring_terms
from test_solver import dense_from_band, interior_band


def brute_force_order(connectivity):
    """Independent oracle: enumerate every set partition, rank-test classes."""
    dirs = list(connectivity.directions)

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    best = len(dirs)
    for part in partitions(dirs):
        if all(np.linalg.matrix_rank(np.asarray(cls, dtype=float)) == len(cls) for cls in part):
            best = min(best, len(part))
    return best


def edge_at(sample, x, v):
    """Index of the edge of `sample` with tail node x along direction v."""
    along = sample.edge_dirs == sample.connectivity.directions.index(v)
    (hit,) = np.nonzero(along & np.all(sample.nodes[sample.edges[:, 0]] == x, axis=1))[0]
    return hit


def brute_force_edges(connectivity, n):
    """Independent oracle: double loop over node pairs."""
    nodes = list(itertools.product(range(n + 1), repeat=connectivity.dimension))
    count = 0
    for x in nodes:
        for y in nodes:
            if tuple(a - b for a, b in zip(x, y)) in connectivity.directions:
                count += 1
    return count


class TestConnectivity:
    def test_square(self):
        co = square_connectivity()
        assert co.dimension == 2
        assert len(co.directions) == 4

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Connectivity(2, ((0, 0),))

    def test_rejects_opposite_pair(self):
        with pytest.raises(ValueError):
            Connectivity(2, ((1, 0), (-1, 0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Connectivity(2, ((1, 0), (1, 0)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Connectivity(2, ((1, 0, 0),))


class TestLatticeOrder:
    def test_independent_pair(self):
        result = lattice_order(Connectivity(2, ((1, 0), (0, 1))))
        assert result.order == 1

    def test_square_lattice_order_two(self):
        result = lattice_order(square_connectivity())
        assert result.order == 2
        assert result.classes == (((1, 0), (0, 1)), ((1, 1), (1, -1)))

    def test_three_dimensional_seven_directions(self):
        co = Connectivity(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
        result = lattice_order(co)
        assert result.order == brute_force_order(co)
        # witness classes are linearly independent and cover the set
        flat = [v for cls in result.classes for v in cls]
        assert sorted(flat) == sorted(co.directions)
        for cls in result.classes:
            assert np.linalg.matrix_rank(np.asarray(cls, dtype=float)) == len(cls)

    def test_lower_bound_on_random_connectivities(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dirs = []
            seen = set()
            while len(dirs) < rng.integers(2, 7):
                v = tuple(int(c) for c in rng.integers(-2, 3, 2))
                if v == (0, 0) or v in seen or tuple(-c for c in v) in seen:
                    continue
                seen.add(v)
                dirs.append(v)
            co = Connectivity(2, tuple(dirs))
            result = lattice_order(co)
            assert result.order >= -(-len(dirs) // 2)
            assert result.order == brute_force_order(co)

    def test_invariance_under_permutation_and_negation(self):
        co = square_connectivity()
        base = lattice_order(co).order
        perm = Connectivity(2, ((1, 1), (1, 0), (1, -1), (0, 1)))
        neg = Connectivity(2, tuple(tuple(-c for c in v) for v in co.directions))
        assert lattice_order(perm).order == base
        assert lattice_order(neg).order == base


class TestApplyGrowth:
    def test_identity(self):
        lat = square_lattice()
        assert apply_growth(lat, (1, 1, 1, 1)) == lat

    def test_inverse_composition(self):
        lat = square_lattice()
        grown = apply_growth(lat, (1, 1, 0.9, 0.9))
        back = apply_growth(grown, (1, 1, 10 / 9, 10 / 9))
        assert np.allclose(back.growth, 1.0)

    def test_sheared_growth_case(self):
        grown = apply_growth(square_lattice(), (1, 1, 0.9, 1.1))
        assert grown.growth == (1.0, 1.0, 0.9, 1.1)
        assert grown.rest == square_lattice().rest

    def test_rejects_nonpositive(self):
        for factor in (0, -0.5):
            with pytest.raises(ValueError, match="growth factors must be positive"):
                apply_growth(square_lattice(), (1, 1, factor, 1))


class TestBuildSample:
    def test_edge_count_formula(self):
        co = square_connectivity()
        for n in (2, 3, 4, 6):
            s = build_sample(co, n, 1.0)
            assert s.n_edges == 2 * n * (n + 1) + 2 * n * n
            assert s.n_edges == brute_force_edges(co, n)

    def test_owned_edge_count(self):
        co = square_connectivity()
        for n in (2, 4):
            s = build_sample(co, n, 1.0)
            assert int(s.owned.sum()) == 4 * n * n

    def test_edges_inside_box(self):
        s = build_sample(square_connectivity(), 3, 1.0)
        assert np.all(s.nodes[s.edges].min(axis=(1, 2)) >= 0)
        assert np.all(s.nodes[s.edges].max(axis=(1, 2)) <= 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_sample(square_connectivity(), 1, 1.0)

    def test_checkerboard_zero_energy_cells(self):
        co = square_connectivity()
        s = build_sample(co, 4, (1.0, 1.0, 2**0.5, 2**0.5), checkerboard_growth(1.2))
        plus, minus = co.directions.index((1, 1)), co.directions.index((1, -1))
        for i in range(4):
            for j in range(4):
                gp = s.growth[edge_at(s, (i, j), (1, 1))]
                gm = s.growth[edge_at(s, (i, j + 1), (1, -1))]
                assert gp**2 + gm**2 == pytest.approx(2.0, rel=1e-12)
                expected_high = (i + j) % 2 == 0
                assert (gp == 1.2) == expected_high
        # axis springs do not grow
        axis = np.isin(s.edge_dirs, [co.directions.index((1, 0)), co.directions.index((0, 1))])
        assert np.all(s.growth[axis] == 1.0)

    def test_checkerboard_high_value_validation(self):
        with pytest.raises(ValueError):
            checkerboard_growth(1.5)  # 1.5**2 > 2

    def test_uniform_degenerate_interval(self):
        s = build_sample(square_connectivity(), 3, 1.0, uniform_growth(((1, 1),) * 4, seed=5))
        assert np.all(s.growth == 1.0)

    def test_uniform_respects_interval(self):
        s = build_sample(square_connectivity(), 5, 1.0, uniform_growth(((0.8, 1.2),) * 4, seed=5))
        assert s.growth.min() >= 0.8
        assert s.growth.max() <= 1.2
        assert s.growth.std() > 0

    def test_seed_determinism(self):
        co = square_connectivity()
        a = build_sample(co, 4, 1.0, uniform_growth(((0.8, 1.2),) * 4, seed=9))
        b = build_sample(co, 4, 1.0, uniform_growth(((0.8, 1.2),) * 4, seed=9))
        c = build_sample(co, 4, 1.0, uniform_growth(((0.8, 1.2),) * 4, seed=10))
        assert np.array_equal(a.growth, b.growth)
        assert not np.array_equal(a.growth, c.growth)

    def test_rest_field_independent_of_growth_kind(self):
        # the initial (no-growth) and grown builds share the same rest draw
        co = square_connectivity()
        rest_spec = ((0.8, 1.2), (0.8, 1.2), (1.1, 1.7), (1.1, 1.7))
        a = build_sample(co, 4, rest_spec, homogeneous_growth((1, 1, 1, 1), seed=3))
        b = build_sample(co, 4, rest_spec, uniform_growth(((0.8, 1.2),) * 4, seed=3))
        assert np.array_equal(a.rest, b.rest)

    def test_random_rest_bounds(self):
        s = build_sample(square_connectivity(), 4, ((0.9, 1.1),) * 4, None)
        assert s.rest.min() >= 0.9 and s.rest.max() <= 1.1

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            GrowthScenario("nope")
        with pytest.raises(ValueError):
            uniform_growth(((0.0, 1.0),) * 4)
        with pytest.raises(ValueError):
            build_sample(Connectivity(2, ((1, 0),)), 3, 1.0, checkerboard_growth(1.2))

    def test_boundary_mask(self):
        s = build_sample(square_connectivity(), 3, 1.0)
        mask = s.boundary_mask()
        assert int((~mask).sum()) == 4  # (3+1)^2 nodes, 2x2 interior

    def test_affine_positions(self):
        s = build_sample(square_connectivity(), 2, 1.0)
        f = np.array([[2.0, 0.5], [0.0, 1.0]])
        pos = s.affine_positions(f)
        assert np.allclose(pos, s.nodes @ f.T)


def assembled_hessian(sample, positions):
    """Dense interior Hessian, added up block by block in edge order, the
    order in which the band's scatter operator sums each entry."""
    d = positions[sample.edges[:, 1]] - positions[sample.edges[:, 0]]
    r = np.linalg.norm(d, axis=1)
    _, slope, curvature = spring_terms(sample.law, r, sample.rest * sample.growth, sample.growth**sample.law.p, 2)
    block = spring_hessian_block(d, r, slope, curvature)
    dim = sample.dimension
    interior = np.flatnonzero(~sample.boundary_mask())
    rank = np.full(sample.n_nodes, -1)
    rank[interior] = np.arange(interior.size)
    h = np.zeros((dim * interior.size,) * 2)
    for e, (tail, head) in enumerate(rank[sample.edges]):
        for a, b, sign in ((tail, tail, 1.0), (head, head, 1.0), (tail, head, -1.0), (head, tail, -1.0)):
            if a >= 0 and b >= 0:
                h[dim * a:dim * (a + 1), dim * b:dim * (b + 1)] += sign * block[e]
    return h


class TestInteriorNodes:
    @pytest.mark.parametrize(
        "connectivity, n",
        [(chain_connectivity(), n) for n in (2, 5, 64)] + [(square_connectivity(), n) for n in (2, 3, 16, 33)],
    )
    def test_deterministic_permutation_of_the_interior(self, connectivity, n):
        # the plan ranks the interior in node order, whatever the growth
        for s in (build_sample(connectivity, n, 1.0),
                  build_sample(connectivity, n, 1.0, uniform_growth(((0.8, 1.2),) * len(connectivity.directions)))):
            plan = s.direction_plan
            index = np.arange(s.n_nodes).reshape(plan.nodes[:-1])
            assert np.array_equal(index[plan.interior].ravel(), np.flatnonzero(~s.boundary_mask()))

    @pytest.mark.parametrize(
        "connectivity, half_width",
        [
            (square_connectivity(), 2 * 12 + 1),
            (Connectivity(2, ((1, 0), (0, 1), (2, 1))), 4 * 12 - 1),
            (Connectivity(2, ((1, 0), (0, 1), (-1, 2))), 2 * 12 - 1),
            (chain_connectivity(), 1),
        ],
        ids=["square", "knight", "backward", "chain"],
    )
    def test_node_order_gives_a_band_that_holds_the_hessian_exactly(self, connectivity, half_width):
        # N = 12: step (1, 1) joins interior ranks N apart, so the square
        # lattice's band reaches 2N + 1 degrees of freedom below the
        # diagonal; the knight's step (2, 1) joins ranks 2N - 1 apart; the
        # step (-1, 2) joins ranks N - 3 apart with the head ranked first,
        # and (1, 0) sets that band at N - 1; the chain's band is tridiagonal
        s = build_sample(connectivity, 12, 1.0, uniform_growth(((0.8, 1.2),) * len(connectivity.directions), seed=1))
        width = s.direction_plan.band[-1]
        assert width == half_width + 1
        dim = s.dimension
        pos = s.affine_positions(np.eye(dim)) + 0.05 * np.random.default_rng(2).standard_normal((s.n_nodes, dim))
        band = interior_band(s, pos)
        want = assembled_hessian(s, pos)
        column, below = np.divmod(np.arange(band.size), width)
        inside = column + below < want.shape[0]
        assert np.all(band.ravel()[~inside] == 0.0)
        assert np.array_equal(np.tril(dense_from_band(band)), np.tril(want))
        assert np.array_equal(want, want.T)
        assert np.any(np.diag(want, -half_width) != 0.0)


class TestDirectionPlan:
    @pytest.mark.parametrize(
        "connectivity, n",
        [
            (square_connectivity(), 5),
            (Connectivity(2, ((1, 0), (0, 1), (-1, 2), (2, 1))), 6),
            (chain_connectivity(), 4),
            (Connectivity(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1))), 3),
        ],
        ids=["square", "backward-knight", "chain", "cubic"],
    )
    def test_each_direction_slices_its_run_of_edges_out_of_the_node_grid(self, connectivity, n):
        s = build_sample(connectivity, n, 1.0)
        plan = s.direction_plan
        index = np.arange(s.n_nodes).reshape(plan.nodes[:-1])
        assert np.array_equal(s.nodes, np.stack(np.unravel_index(index.ravel(), index.shape), axis=1))
        assert np.array_equal(index[plan.interior].ravel(), np.flatnonzero(~s.boundary_mask()))
        start = 0
        for k, (run, box, tail, head, _) in enumerate(plan.runs):
            assert run == slice(start, start + int(np.prod(box)))
            start = run.stop
            assert np.array_equal(index[tail].ravel(), s.edges[run, 0])
            assert np.array_equal(index[head].ravel(), s.edges[run, 1])
            assert np.all(s.edge_dirs[run] == k)
        assert start == s.n_edges

    def test_is_built_on_first_use_only(self):
        s = build_sample(square_connectivity(), 4, 1.0)
        assert "direction_plan" not in vars(s)
        assert s.direction_plan is s.direction_plan


class TestHomogeneousLattice:
    def test_defaults_to_unit_growth(self):
        lat = square_lattice()
        assert lat.growth == (1.0, 1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lattice.HomogeneousLattice(square_connectivity(), (1.0, 1.0), (), SpringLaw())
        with pytest.raises(ValueError):
            lattice.HomogeneousLattice(square_connectivity(), (1.0, 1.0, -1.0, 1.0), (), SpringLaw())
