"""Lattice data model.

Node-spring lattices on Z^D with a finite connectivity set of direction
vectors, per-direction (homogeneous) or per-edge (finite sample) rest
lengths and growth factors, and generators for inhomogeneous growth
scenarios.  All randomness runs through numpy's seedable PCG64 generator
with one spawned child stream per direction and per field (rest, growth),
so samples are bit-reproducible given the scenario seed.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .springs import SpringLaw

Direction = tuple[int, ...]


@dataclass(frozen=True)
class Connectivity:
    """Finite set of spring directions on Z^D.

    No direction may be zero and no two directions may be opposite: a
    direction and its negative describe the same set of springs.
    """

    dimension: int
    directions: tuple[Direction, ...]

    def __post_init__(self):
        d = self.dimension
        if d < 1 or d > 3:
            raise ValueError("dimension must be 1, 2 or 3")
        dirs = tuple(tuple(int(c) for c in v) for v in self.directions)
        object.__setattr__(self, "directions", dirs)
        if not dirs:
            raise ValueError("connectivity must contain at least one direction")
        seen = set()
        for v in dirs:
            if len(v) != d:
                raise ValueError(f"direction {v} does not have {d} components")
            if all(c == 0 for c in v):
                raise ValueError("zero vector is not a valid direction")
            if v in seen:
                raise ValueError(f"duplicate direction {v}")
            neg = tuple(-c for c in v)
            if neg in seen:
                raise ValueError(f"directions {v} and {neg} are opposite")
            seen.add(v)

    @property
    def matrix(self) -> np.ndarray:
        """Directions stacked as rows, shape (len(directions), dimension)."""
        return np.asarray(self.directions, dtype=float)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=1)


def square_connectivity() -> Connectivity:
    """The planar square lattice with nearest and next-nearest neighbours."""
    return Connectivity(2, ((1, 0), (0, 1), (1, 1), (1, -1)))


def chain_connectivity() -> Connectivity:
    """The one-dimensional chain."""
    return Connectivity(1, ((1,),))


@dataclass(frozen=True)
class HomogeneousLattice:
    """Translation-invariant lattice: one rest length and one growth factor
    per direction, aligned with connectivity.directions."""

    connectivity: Connectivity
    rest: tuple[float, ...]
    growth: tuple[float, ...] = ()
    law: SpringLaw = field(default_factory=SpringLaw)

    def __post_init__(self):
        n = len(self.connectivity.directions)
        rest = tuple(float(x) for x in self.rest)
        if len(rest) != n:
            raise ValueError(f"expected {n} rest lengths, got {len(rest)}")
        if any(x <= 0 for x in rest):
            raise ValueError("rest lengths must be positive")
        growth = tuple(float(x) for x in self.growth) if self.growth else (1.0,) * n
        if len(growth) != n:
            raise ValueError(f"expected {n} growth factors, got {len(growth)}")
        if any(x <= 0 for x in growth):
            raise ValueError("growth factors must be positive")
        object.__setattr__(self, "rest", rest)
        object.__setattr__(self, "growth", growth)


def square_lattice(rest=(1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)), growth=(), law=SpringLaw()) -> HomogeneousLattice:
    return HomogeneousLattice(square_connectivity(), tuple(rest), tuple(growth), law)


def apply_growth(lattice: HomogeneousLattice, factors) -> HomogeneousLattice:
    """Compose a further growth event: growth factors multiply componentwise.

    Rest lengths are untouched, so the initial and grown systems coexist
    as two lattice values sharing the same rest data.  A factor that is not
    positive is rejected by the new lattice's own validation.
    """
    factors = tuple(float(x) for x in factors)
    if len(factors) != len(lattice.connectivity.directions):
        raise ValueError("one factor per direction required")
    new = tuple(g * f for g, f in zip(lattice.growth, factors))
    return replace(lattice, growth=new)


# ---------------------------------------------------------------------------
# Lattice order


@dataclass(frozen=True)
class OrderResult:
    order: int
    classes: tuple[tuple[Direction, ...], ...]


def lattice_order(connectivity: Connectivity) -> OrderResult:
    """Smallest number K of linearly-independent classes partitioning the
    direction set, together with one witness partition.

    The search enumerates class assignments in lexicographic order of the
    restricted-growth encoding, so the witness returned is deterministic.
    K is always at least ceil(|directions| / dimension).
    """
    dirs = connectivity.directions
    vectors = [np.asarray(v, dtype=float) for v in dirs]
    n = len(dirs)
    lower = -(-n // connectivity.dimension)  # ceil division

    def independent(members: list[int], candidate: int) -> bool:
        if len(members) >= connectivity.dimension:
            return False
        stack = np.stack([vectors[i] for i in members] + [vectors[candidate]])
        return np.linalg.matrix_rank(stack) == len(members) + 1

    def search(k: int):
        classes: list[list[int]] = []

        def place(i: int):
            if i == n:
                return len(classes) == k
            for c in range(len(classes)):
                if independent(classes[c], i):
                    classes[c].append(i)
                    if place(i + 1):
                        return True
                    classes[c].pop()
            if len(classes) < k:
                classes.append([i])
                if place(i + 1):
                    return True
                classes.pop()
            return False

        if place(0):
            return [list(c) for c in classes]
        return None

    for k in range(lower, n + 1):
        found = search(k)
        if found is not None:
            classes = tuple(tuple(dirs[i] for i in cls) for cls in found)
            return OrderResult(k, classes)
    raise RuntimeError("unreachable: singleton partition is always valid")


# ---------------------------------------------------------------------------
# Growth scenarios and finite samples

_SCENARIO_KINDS = ("homogeneous", "checkerboard-diagonal", "uniform-random")


@dataclass(frozen=True)
class GrowthScenario:
    """Recipe for assigning per-edge growth to a finite sample.

    kind "homogeneous": `factors` aligned with the connectivity directions.
    kind "checkerboard-diagonal": square lattice only; the right-diagonal
        spring of cell (i, j) grows by `high` when i + j is even and by
        sqrt(2 - high**2) otherwise, and the left-diagonal spring of the
        same cell receives the partner value, so every cell keeps a
        zero-energy shape.  Axis springs do not grow.
    kind "uniform-random": per-edge factors drawn uniformly from the
        per-direction `intervals`.
    """

    kind: str
    factors: tuple[float, ...] | None = None
    high: float | None = None
    intervals: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "homogeneous":
            if self.factors is None or any(f <= 0 for f in self.factors):
                raise ValueError("homogeneous scenario needs positive per-direction factors")
        elif self.kind == "checkerboard-diagonal":
            if self.high is None:
                raise ValueError("checkerboard scenario needs a high value")
            if self.high <= 0 or self.high**2 >= 2.0:
                raise ValueError("checkerboard high value h must satisfy 0 < h and h**2 < 2")
        else:
            if self.intervals is None:
                raise ValueError("uniform-random scenario needs per-direction intervals")
            for lo, hi in self.intervals:
                if lo <= 0 or hi < lo:
                    raise ValueError(f"invalid growth interval ({lo}, {hi})")


def homogeneous_growth(factors, seed: int = 0) -> GrowthScenario:
    return GrowthScenario("homogeneous", factors=tuple(float(f) for f in factors), seed=seed)


def no_growth(connectivity: Connectivity, seed: int = 0) -> GrowthScenario:
    return homogeneous_growth((1.0,) * len(connectivity.directions), seed=seed)


def checkerboard_growth(high: float, seed: int = 0) -> GrowthScenario:
    return GrowthScenario("checkerboard-diagonal", high=float(high), seed=seed)


def uniform_growth(intervals, seed: int = 0) -> GrowthScenario:
    ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
    return GrowthScenario("uniform-random", intervals=ivs, seed=seed)


@dataclass(frozen=True)
class FiniteLatticeSample:
    """Finite node-spring system on Z^D intersected with [0, N]^D.

    An edge (x, v) exists iff both x and x + v lie inside the box.  Edges
    are stored as index pairs into the node table, direction by direction
    and, within a direction, by tail in node order; `owned` marks the edges
    counted by the per-cell normalisation (one spring of each direction
    per unit cell; the excluded springs connect boundary nodes only).
    """

    connectivity: Connectivity
    n: int
    nodes: np.ndarray       # (M, D) int
    edges: np.ndarray       # (E, 2) int node indices (tail, head)
    edge_dirs: np.ndarray   # (E,) int index into connectivity.directions
    rest: np.ndarray        # (E,) float
    growth: np.ndarray      # (E,) float
    owned: np.ndarray       # (E,) bool
    law: SpringLaw = field(default_factory=SpringLaw)

    @property
    def dimension(self) -> int:
        return self.connectivity.dimension

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def boundary_mask(self) -> np.ndarray:
        """True for nodes on the boundary of the box."""
        return np.any((self.nodes == 0) | (self.nodes == self.n), axis=1)

    def affine_positions(self, f: np.ndarray) -> np.ndarray:
        """Node positions of the affine field x -> F x."""
        f = np.asarray(f, dtype=float)
        return self.nodes.astype(float) @ f.T

    @cached_property
    def grown_rest(self) -> np.ndarray:
        """Per edge, rest * growth: the spring kernel's scale, formed on first use."""
        return self.rest * self.growth

    @cached_property
    def growth_weight(self) -> np.ndarray:
        """Per edge, growth**p: the spring kernel's weight, formed on first use."""
        return self.growth**self.law.p

    @cached_property
    def direction_plan(self) -> "DirectionPlan":
        """This sample's `DirectionPlan`, built on first use."""
        n, dim, zero = self.n, self.dimension, (0,) * self.dimension
        pairs = tuple((b + j, b) for j in range(dim) for b in range(dim - j))  # by offset j = a - b
        parts = [slice(pairs.index((j, 0)), pairs.index((j, 0)) + dim - j) for j in range(dim)]
        width, start, runs = dim, 0, []
        for v in self.connectivity.directions:
            tail, head = _run_boxes(v, n)
            box = tuple(t.stop - t.start for t in tail)
            run = slice(start, start + int(np.prod(box)))
            start = run.stop

            def inside(*ends):  # box slices of the edges whose ends tail + e are interior, and the ends' slices
                a = [max(t.start, *(1 - e[i] for e in ends)) for i, t in enumerate(tail)]
                b = [min(t.stop, *(n - e[i] for e in ends)) for i, t in enumerate(tail)]
                if all(x < y for x, y in zip(a, b)):
                    return (tuple(slice(x - t.start, y - t.start) for x, y, t in zip(a, b, tail)),
                            [tuple(slice(x + c - 1, y + c - 1) for x, y, c in zip(a, b, e)) for e in ends])

            ops = []
            for end in (v, zero) if v > zero else (zero, v):  # where v > 0, x's edge as head comes first
                if sel := inside(end):
                    ops += [(sel[1][0] + (slice(0, dim - j), j), sel[0] + (parts[j],), False) for j in range(dim)]
            step = sum(c * (n - 1) ** (dim - 1 - i) for i, c in enumerate(v))
            if sel := inside(zero, v):
                width = max(width, dim * abs(step) + dim)
                ops += [(sel[1][step < 0] + (slice(max(0, -j), dim - max(0, j)), dim * abs(step) + j),
                         sel[0] + (parts[abs(j)],), True) for j in range(1 - dim, dim)]
            runs.append((run, box, tail, head, tuple(ops)))
        return DirectionPlan((n + 1,) * dim + (dim,), (slice(1, n),) * dim, (n - 1,) * dim + (dim, width),
                             pairs, tuple(runs))


class DirectionPlan(NamedTuple):
    """Slices that assemble per-edge quantities one direction at a time.

    `build_sample` stores the edges of each direction v as one run whose
    tails fill a box of the node grid (shape `nodes`) in C order.  `runs`
    holds per direction (run, box, tail, head, ops): the run's slice of the
    edge arrays, the box shape and the grid slices of its tails and heads.
    `interior` slices the interior nodes out of the grid.  The interior
    Hessian's entries on and below the diagonal fill an (m, width) array
    whose row j holds column j from the diagonal down (LAPACK's lower band
    storage, transposed), viewed as `band`: interior grid, then (D, width).
    Each (dest, src, subtract) of `ops` adds or subtracts the components
    `pairs` of the edges' DxD blocks, box slice src, at band slice dest:
    the diagonal blocks of interior ends in edge order, so each entry sums
    as edge by edge does, and minus the block joining two interior ends at
    band offset D |step| in the row of the lower-ranked end, step being the
    interior-rank difference across v."""

    nodes: tuple[int, ...]
    interior: tuple[slice, ...]
    band: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    runs: tuple


def _run_boxes(v, n):
    """Node-grid slices of the tails and of the heads of the springs of step v in [0, n]^D."""
    tail = tuple(slice(max(0, -c), n + 1 - max(0, c)) for c in v)
    return tail, tuple(slice(t.start + c, t.stop + c) for t, c in zip(tail, v))


def build_sample(
    connectivity: Connectivity,
    n: int,
    rest,
    scenario: GrowthScenario | None = None,
    law: SpringLaw = SpringLaw(),
) -> FiniteLatticeSample:
    """Enumerate all edges of the box and assign rest lengths and growth.

    `rest` is a scalar, a per-direction sequence of scalars, or a
    per-direction sequence where an entry may be an (lo, hi) interval for
    uniformly random per-edge rest lengths.  Randomness (rest and growth)
    is drawn from independent child streams of the scenario seed, so the
    rest field does not change when only the growth scenario kind changes.
    """
    if n < 2:
        raise ValueError("side count N must be at least 2")
    d, dirs = connectivity.dimension, connectivity.directions
    if scenario is None:
        scenario = no_growth(connectivity)
    if scenario.kind == "homogeneous" and len(scenario.factors) != len(dirs):
        raise ValueError("homogeneous scenario needs one factor per direction")
    if scenario.kind == "uniform-random" and len(scenario.intervals) != len(dirs):
        raise ValueError("uniform-random scenario needs one interval per direction")
    if scenario.kind == "checkerboard-diagonal" and connectivity != square_connectivity():
        raise ValueError("checkerboard scenario is defined for the square connectivity only")

    shape = (n + 1,) * d
    nodes = np.indices(shape).reshape(d, -1).T.copy()  # in node order, the grid's C order
    index = np.arange(len(nodes)).reshape(shape)
    boxes = [_run_boxes(v, n) for v in dirs]
    edges = np.stack([np.concatenate([index[box].ravel() for box in ends]) for ends in zip(*boxes)], axis=1)
    per_dir_tails = [nodes[index[tail].ravel()] for tail, _ in boxes]
    edge_dirs = np.concatenate([np.full(len(xs), k) for k, xs in enumerate(per_dir_tails)])
    # one spring of each direction per unit cell: springs lying in the
    # face at coordinate N have no owning cell and are not counted
    owned = np.concatenate([np.all(xs[:, [c == 0 for c in v]] < n, axis=1)
                            for xs, v in zip(per_dir_tails, dirs)])

    rest_streams, growth_streams = (seq.spawn(len(dirs)) for seq in np.random.SeedSequence(scenario.seed).spawn(2))

    # rest lengths
    rest_spec = [float(rest)] * len(dirs) if np.isscalar(rest) else list(rest)
    if len(rest_spec) != len(dirs):
        raise ValueError("rest specification must be a scalar or one entry per direction")
    rest_arr = np.empty(len(edges))
    for k, entry in enumerate(rest_spec):
        sel = edge_dirs == k
        if np.isscalar(entry):
            if entry <= 0:
                raise ValueError("rest lengths must be positive")
            rest_arr[sel] = float(entry)
        else:
            lo, hi = (float(entry[0]), float(entry[1]))
            if lo <= 0 or hi < lo:
                raise ValueError(f"invalid rest interval ({lo}, {hi})")
            rest_arr[sel] = np.random.default_rng(rest_streams[k]).uniform(lo, hi, sel.sum())

    # growth factors
    growth_arr = np.ones(len(edges))
    for k, v in enumerate(dirs):
        sel = edge_dirs == k
        if scenario.kind == "homogeneous":
            growth_arr[sel] = scenario.factors[k]
        elif scenario.kind == "uniform-random":
            growth_arr[sel] = np.random.default_rng(growth_streams[k]).uniform(*scenario.intervals[k], sel.sum())
        elif v not in ((1, 0), (0, 1)):  # checkerboard-diagonal: axis springs do not grow
            high, partner = scenario.high, float(np.sqrt(2.0 - scenario.high**2))
            cell = per_dir_tails[k] + np.minimum(np.asarray(v), 0)  # owning cell of each diagonal spring
            even = (cell.sum(axis=1) % 2) == 0
            growth_arr[sel] = np.where(even, high, partner) if v == (1, 1) else np.where(even, partner, high)

    return FiniteLatticeSample(
        connectivity=connectivity,
        n=n,
        nodes=nodes,
        edges=edges,
        edge_dirs=edge_dirs,
        rest=rest_arr,
        growth=growth_arr,
        owned=owned,
        law=law,
    )
