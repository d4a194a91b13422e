"""Cauchy-Born continuum energies and the energy-deformation decomposition.

Under the Cauchy-Born rule the continuum energy density of a homogeneous
lattice is a sum over spring directions,

    W(F) = sum_v  g_v**p * W( ||F v|| / (L_v g_v) ),

so growth enters only through the per-direction factors g_v.  Because a
single linear map cannot rescale more than D independent directions, the
grown density generally cannot be written as W_i(F G^{-1}); it can always
be split additively into K parts (K = lattice order), each carrying its
own growth tensor G_k with G_k^{-1} v = v / g_v on its direction class.

The witnesses of that incompatibility are built from the class bases C
that `decompose` keeps: each part energy W_k vanishes on the
`length_preserving_shears` of its class basis, and growth admits a single
tensor iff the G_k that `growth_tensors` builds from C coincide
(`multiplicative_admissible`), which on the square lattice means dilation.

The density's gradient and Hessian in F share the spring kernel and Hessian
block with the discrete solver; the ground state of a grown density is one
Newton solve on that exact Hessian over upper-triangular F.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import HomogeneousLattice, lattice_order
from .springs import per_length, root_sum_squares, spring_hessian_block, spring_terms, sum_slices

GEOMETRIC_TOL = 1e-10


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def upper_triangular(lam1, lam2, lam3) -> np.ndarray:
    """Deformation gradients [[lam1, lam3], [0, lam2]] with lam1, lam2 > 0,
    broadcast over arrays of the three entries; shape (..., 2, 2)."""
    lam1, lam2, lam3 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (lam1, lam2, lam3)))
    if np.any(lam1 <= 0) or np.any(lam2 <= 0):
        raise ValueError("diagonal entries must be positive")
    fs = np.zeros(lam1.shape + (2, 2))
    fs[..., 0, 0], fs[..., 1, 1], fs[..., 0, 1] = lam1, lam2, lam3
    return fs


def mapped_directions(directions, fs: np.ndarray) -> np.ndarray:
    """Images F v of the directions v under a stack of deformation gradients;
    shape (..., n_dirs, D).

    One GEMM, (rows of every F) @ V^T with V the direction matrix, gives
    (F v)_i for the whole stack; its (..., D, n_dirs) reshape is swapped to
    the returned view.  For directions whose entries are 0 or +- a power of
    two, such as the square lattice's, each entry in two dimensions is a sum
    of two exact products and so is correctly rounded: it is the same to the
    bit as a per-F product or an einsum, whatever kernel BLAS picks for the
    shape.  Elsewhere it agrees to rounding."""
    fs = np.asarray(fs, dtype=float)
    d = fs.shape[-1]
    mapped = (fs.reshape(-1, d) @ np.asarray(directions, dtype=float).T).reshape(fs.shape[:-1] + (-1,))
    return np.swapaxes(mapped, -1, -2)


def mapped_lengths(directions, fs: np.ndarray) -> np.ndarray:
    """Lengths ||F v|| of the mapped directions; shape (..., n_dirs): the
    squares of `mapped_directions`' one GEMM, taken in place in its
    (..., D, n_dirs) layout, summed and rooted by `springs.root_sum_squares`,
    so the lengths are `np.linalg.norm`'s to the bit."""
    squares = np.swapaxes(mapped_directions(directions, fs), -1, -2)
    squares *= squares
    return root_sum_squares(squares, -2)


def _cauchy_born_terms(lattice: HomogeneousLattice, lengths: np.ndarray, order: int):
    rest = np.asarray(lattice.rest)
    growth = np.asarray(lattice.growth)
    return spring_terms(lattice.law, lengths, rest * growth, growth**lattice.law.p, order)


def cauchy_born_energy(lattice: HomogeneousLattice, f: np.ndarray) -> float:
    """Continuum energy density sum_v g**p W(||Fv|| / (L g))."""
    return float(cauchy_born_energy_many(lattice, f))


def cauchy_born_energy_many(lattice: HomogeneousLattice, fs: np.ndarray) -> np.ndarray:
    """Vectorised Cauchy-Born energy over a stack of deformation gradients."""
    (terms,) = _cauchy_born_terms(lattice, mapped_lengths(lattice.connectivity.matrix, fs), 0)
    return sum_slices(terms, -1)[()]  # a numpy scalar, as from np.sum, for one F


def cauchy_born_gradient(lattice: HomogeneousLattice, f: np.ndarray) -> np.ndarray:
    """d/dF of the Cauchy-Born energy; same shape as F."""
    mapped = mapped_directions(lattice.connectivity.matrix, f)
    norms = root_sum_squares(mapped * mapped, -1)
    _, slope = _cauchy_born_terms(lattice, norms, 1)
    return np.einsum("a,ai,aj->ij", per_length(slope, norms), mapped, lattice.connectivity.matrix)


def cauchy_born_hessian(lattice: HomogeneousLattice, f: np.ndarray) -> np.ndarray:
    """d2W / dF_ij dF_kl = sum_v B(F v)[i, k] v_j v_l as an array [i, j, k, l],
    with B the discrete solver's `springs.spring_hessian_block`."""
    directions = lattice.connectivity.matrix
    mapped = mapped_directions(directions, f)
    norms = root_sum_squares(mapped * mapped, -1)
    _, slope, curvature = _cauchy_born_terms(lattice, norms, 2)
    block = spring_hessian_block(mapped, norms, slope, curvature)
    return np.einsum("aik,aj,al->ijkl", block, directions, directions)


# ---------------------------------------------------------------------------
# Shears


def is_shear(f: np.ndarray, basis) -> bool:
    """True iff F preserves the norms of all basis vectors but is not a
    rotation (F'F != I within GEOMETRIC_TOL, or det F < 0)."""
    f = np.asarray(f, dtype=float)
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be D vectors in R^D")
    if np.linalg.matrix_rank(b) < b.shape[0]:
        raise ValueError("basis vectors are linearly dependent")
    norms_before = np.linalg.norm(b, axis=1)
    norms_after = np.linalg.norm(b @ f.T, axis=1)
    if np.any(np.abs(norms_after - norms_before) > GEOMETRIC_TOL):
        return False
    gram_defect = np.max(np.abs(f.T @ f - np.eye(f.shape[0])))
    return gram_defect > GEOMETRIC_TOL or np.linalg.det(f) < 0


def extend_to_basis(vectors, dim: int) -> np.ndarray:
    """Extend linearly independent vectors to a basis of R^dim by greedily
    appending standard basis vectors in index order.  The vectors must be
    linearly independent; callers test that."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    for k in range(dim):
        if len(rows) == dim:
            break
        e = np.zeros(dim)
        e[k] = 1.0
        if np.linalg.matrix_rank(np.stack(rows + [e])) == len(rows) + 1:
            rows.append(e)
    if len(rows) != dim:
        raise ValueError("vectors cannot be extended to a basis")
    return np.stack(rows)


def length_preserving_shears(basis, thetas) -> np.ndarray:
    """F(theta) = U(theta) C^{-1} for the basis columns c_i of C, stacked over
    `thetas`; shape thetas.shape + (D, D).  U sends c_1 to |c_1| e_1, c_2 to
    |c_2| (cos theta, sin theta, 0, ...) and every other c_i to |c_i| e_i, so
    F keeps every |c_i| and is a shear wherever it changes the angle between
    c_1 and c_2: springs along the c_i with rest lengths |c_i| stay unstretched.
    """
    c = np.asarray(basis, dtype=float)
    if c.shape[0] < 2:
        raise ValueError("shears require dimension >= 2")
    thetas = np.asarray(thetas, dtype=float)
    norms = np.linalg.norm(c, axis=0)
    u = np.tile(np.diag(norms), thetas.shape + (1, 1))
    u[..., 0, 1] = norms[1] * np.cos(thetas)
    u[..., 1, 1] = norms[1] * np.sin(thetas)
    return u @ np.linalg.inv(c)


def square_partition_choices() -> tuple:
    """The three independent pairings of the square-lattice directions."""
    e1, e2, ep, em = (1, 0), (0, 1), (1, 1), (1, -1)
    return (
        ((e1, e2), (ep, em)),
        ((e1, ep), (e2, em)),
        ((e1, em), (e2, ep)),
    )


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class DecompositionPart:
    """One class of directions with its part energy and growth tensor, and
    the basis that `growth_tensors` builds the tensor of any growth from."""

    directions: tuple
    index: tuple              # positions of `directions` in the connectivity
    rest: np.ndarray          # their rest lengths
    basis: np.ndarray         # C: the directions, then standard vectors, as columns
    basis_inv: np.ndarray     # C^{-1}
    growth: np.ndarray = None      # G_k of the lattice's growth; `decompose` fills it from `growth_tensors`
    growth_inv: np.ndarray = None  # G_k^{-1}, from the same inverse of C as G_k


def growth_tensors(parts, factors) -> list:
    """Per part, (G_k, G_k^{-1}) for per-direction growth factors of shape
    (..., n_dirs), each tensor of shape (..., D, D).

    With C a part's basis columns and s the factors of its directions,
    padded with 1 on the standard vectors that extend the class,
    G_k = C diag(s) C^{-1} and G_k^{-1} = C diag(1/s) C^{-1}.  This is the
    only place growth tensors are built from per-direction factors.  A stack
    of factors gives the tensors of each of its rows alone; for the square
    lattice's partitions the tests pin this to the bit.
    """
    factors = np.asarray(factors, dtype=float)
    tensors = []
    for p in parts:
        pad = np.ones(factors.shape[:-1] + (len(p.basis) - len(p.index),))
        scale = np.concatenate([factors[..., list(p.index)], pad], axis=-1)[..., None, :]
        tensors.append(((p.basis * scale) @ p.basis_inv, (p.basis / scale) @ p.basis_inv))
    return tensors


@dataclass(frozen=True)
class Decomposition:
    """Additive split of a lattice energy into parts W_k, each with a growth
    tensor G_k, such that

        W_i(F) = sum_k W_k(F)          (no growth)
        W_g(F) = sum_k W_k(F G_k^{-1}) (with growth)

    W_k depends only on the rest lengths; G_k only on the growth factors.
    The energies take a stack of deformation gradients F of shape
    (..., D, D) and return shape (...), a float64 scalar for one F.
    """

    lattice: HomogeneousLattice
    parts: tuple[DecompositionPart, ...]

    def part_energy(self, k: int, f: np.ndarray) -> np.ndarray:
        """W_k(F): the ungrown springs of class k under F."""
        part = self.parts[k]
        (terms,) = spring_terms(self.lattice.law, mapped_lengths(part.directions, f), part.rest, 1.0)
        return np.sum(terms, axis=-1)

    def initial_energy(self, f: np.ndarray) -> np.ndarray:
        return sum(self.part_energy(k, f) for k in range(len(self.parts)))

    def grown_energy(self, f: np.ndarray) -> np.ndarray:
        """sum_k W_k(F G_k^{-1}); equals the Cauchy-Born energy of the grown
        lattice."""
        f = np.asarray(f, dtype=float)
        return sum(self.part_energy(k, f @ p.growth_inv) for k, p in enumerate(self.parts))

    def to_json_dict(self) -> dict:
        return {
            "partition": [list(p.index) for p in self.parts],
            "growth_tensors": [p.growth.ravel().tolist() for p in self.parts],
            "growth_tensor_inverses": [p.growth_inv.ravel().tolist() for p in self.parts],
        }


def decompose(lattice: HomogeneousLattice, partition=None) -> Decomposition:
    """Build the energy-deformation decomposition for a recombining lattice.

    `partition` is a sequence of direction classes (each linearly
    independent, jointly covering the connectivity); when omitted, the
    witness partition of the lattice order is used.  Each class is extended
    to a basis by standard vectors; G_k maps v -> g_v v on its class and
    fixes the extension, so the split is exact for every F.  Per class the
    rank test, the basis and its inverse are computed once and kept, so
    `growth_tensors(dec.parts, factors)` gives the tensors of any other
    growth of the same lattice without decomposing again.
    """
    if lattice.law.p != 0:
        raise ValueError("the additive decomposition requires a recombination law (p = 0)")
    co = lattice.connectivity
    d = co.dimension
    if partition is None:
        partition = lattice_order(co).classes
    classes = [tuple(tuple(int(c) for c in v) for v in cls) for cls in partition]
    flat = [v for cls in classes for v in cls]
    if sorted(flat) != sorted(co.directions):
        raise ValueError("partition must cover the connectivity exactly")

    parts = []
    for cls in classes:
        vecs = np.asarray(cls, dtype=float)
        if np.linalg.matrix_rank(vecs) < len(cls):
            raise ValueError(f"class {cls} is not linearly independent")
        cols = extend_to_basis(vecs, d).T
        index = tuple(co.directions.index(v) for v in cls)
        parts.append(DecompositionPart(cls, index, np.asarray(lattice.rest)[list(index)], cols, np.linalg.inv(cols)))
    tensors = growth_tensors(parts, lattice.growth)
    parts = [replace(p, growth=g, growth_inv=g_inv) for p, (g, g_inv) in zip(parts, tensors)]
    return Decomposition(lattice, tuple(parts))


# ---------------------------------------------------------------------------
# Dilation-only multiplicative decomposition


def multiplicative_admissible(parts, factors) -> np.ndarray:
    """Whether per-direction growth factors of shape (..., n_dirs) admit a
    single growth tensor G with W_g(F) = W_i(F G^{-1}) for all F; shape (...).

    They do iff the tensors `growth_tensors(parts, factors)` coincide, to
    GEOMETRIC_TOL relative to the largest entry of G_1; on the square
    lattice that makes G a dilation g I.  The tensors are fixed by the
    factors only if every class spans R^D, so any other class raises
    ValueError, as does a factor that is not positive.
    """
    if any(len(p.index) != len(p.basis) for p in parts):
        raise ValueError("admissibility needs every class to span R^D")
    factors = np.asarray(factors, dtype=float)
    if not np.all(factors > 0):
        raise ValueError("growth factors must be positive")
    tensors = np.stack([g for g, _ in growth_tensors(parts, factors)])  # (K, ..., D, D)
    spread = np.max(np.abs(tensors - tensors[0]), axis=(0, -2, -1))
    return spread <= GEOMETRIC_TOL * np.max(np.abs(tensors[0]), axis=(-2, -1))


# ---------------------------------------------------------------------------
# Ground states


@dataclass(frozen=True)
class GroundState:
    f: np.ndarray          # upper-triangular with positive diagonal
    energy: float
    grad_norm: float       # infinity norm of the chart gradient
    iterations: int        # Newton steps on the chart


class GroundStateError(RuntimeError):
    pass


# the chart (F00, F11, F01) of upper-triangular F; the Newton solve on it stops when
# max|chart gradient| and max|Newton step| are both <= 1e-12, after 200 steps, or
# when 60 halvings find no step
_CHART = (np.array([0, 1, 0]), np.array([0, 1, 1]))
_GROUND_GTOL, _GROUND_MAX_STEPS, _GROUND_MAX_HALVINGS = 1e-12, 200, 60


def ground_state(lattice: HomogeneousLattice) -> GroundState:
    """Minimise the Cauchy-Born energy over upper-triangular deformation
    gradients with positive diagonal (the rotation gauge is fixed by that
    chart).

    One Newton solve from the identity on the chart (F00, F11, F01) with the
    exact Hessian from `cauchy_born_hessian`.  Negative curvature is flipped:
    the step divides by |lambda| in the Hessian's eigenbasis (Nocedal &
    Wright, sec. 3.4).  A step is taken if the energy falls, or if the
    Hessian is positive definite and max|grad| falls (an energy-only test
    stalls at rounding short of 1e-12); otherwise it is halved.  The solve
    stops, without taking the step, once max|grad| and the max-norm of the
    Newton step are both at most 1e-12: at a flat minimum the gradient
    vanishes faster than the distance to it, so a small gradient alone
    does not pin G.  A negative diagonal is mapped back by the reflections
    W(QF) = W(F): (F00, F01) -> -(F00, F01) and F11 -> -F11.  Raises
    GroundStateError if max|grad| ends above 1e-8.
    """
    if lattice.connectivity.dimension != 2:
        raise ValueError("ground states are computed for two-dimensional lattices")

    def chart_point(x):
        f = np.array([[x[0], x[2]], [0.0, x[1]]])
        return f, cauchy_born_energy(lattice, f), cauchy_born_gradient(lattice, f)[_CHART]

    x = np.array([1.0, 1.0, 0.0])
    f, e, g = chart_point(x)
    steps = 0
    while steps < _GROUND_MAX_STEPS:
        lam, vec = np.linalg.eigh(cauchy_born_hessian(lattice, f)[_CHART][:, _CHART[0], _CHART[1]])
        step = -vec @ ((vec.T @ g) / np.maximum(np.abs(lam), np.finfo(float).tiny))
        if max(np.max(np.abs(g)), np.max(np.abs(step))) <= _GROUND_GTOL:
            break
        for _ in range(_GROUND_MAX_HALVINGS):
            trial = chart_point(x + step)
            if trial[1] < e or (lam[0] > 0 and np.max(np.abs(trial[2])) < np.max(np.abs(g))):
                break
            step = step / 2
        else:
            break  # no halving lowers the energy or the gradient: stalled at rounding
        x, (f, e, g) = x + step, trial
        steps += 1

    grad_norm = float(np.max(np.abs(g)))
    if grad_norm > 1e-8:
        raise GroundStateError(
            f"ground-state search did not converge: |grad| = {grad_norm:.3e} "
            f"after {steps} Newton steps (energy {e:.6e}, chart {x})"
        )
    if x[0] < 0:
        x[[0, 2]] *= -1.0
    return GroundState(upper_triangular(x[0], abs(x[1]), x[2]), float(e), grad_norm, steps)


# ---------------------------------------------------------------------------
# Fractional-error maps


@dataclass(frozen=True)
class ErrorMap:
    """Fractional error W_i(F G^{-1}) / W_g(F) - 1 of the single-tensor
    (multiplicative) reconstruction, sampled over an upper-triangular grid."""

    lam1: np.ndarray
    lam2: np.ndarray
    lam3: np.ndarray
    values: np.ndarray              # (n1, n2, n3); nan where undefined
    defined: np.ndarray             # grid points with W_g > 0
    masks: dict                     # threshold -> boolean array |error| > threshold
    growth_tensor: np.ndarray       # the G used (ground state of the grown lattice)

    def exceed_fraction(self, threshold: float) -> float:
        """Fraction of defined grid points with |error| above the threshold."""
        mask = self.masks[threshold]
        n_def = int(self.defined.sum())
        return float(mask.sum() / n_def) if n_def else float("nan")

    def to_csv(self, path):
        """One row (lam1, lam2, lam3, error, mask flags...) per grid point, lam3
        fastest; the grid, the errors and the masks go to `write_csv` as numpy
        columns, so floats are written with `repr` and flags as 0 or 1."""
        from .serialize import write_csv

        thresholds = sorted(self.masks)
        header = ["lam1", "lam2", "lam3", "error"] + [f"mask_{int(round(t * 100))}" for t in thresholds]
        grid = [axis.ravel() for axis in np.meshgrid(self.lam1, self.lam2, self.lam3, indexing="ij")]
        write_csv(path, header, [*grid, self.values.ravel(), *(self.masks[t].ravel() for t in thresholds)])


def fractional_error_map(
    initial: HomogeneousLattice,
    grown: HomogeneousLattice,
    *,
    lam1_range=(0.8, 1.25),
    lam2_range=(0.8, 1.25),
    lam3_range=(-0.5, 0.5),
    counts=(46, 46, 41),
    thresholds=(0.10, 0.20),
    growth_tensor: np.ndarray | None = None,
) -> ErrorMap:
    """Sample the fractional error of the best single-tensor reconstruction.

    The growth tensor defaults to the ground state of the grown lattice.
    Grid points where the grown energy vanishes are flagged undefined and
    excluded from the threshold masks.  Raises ValueError unless `counts` is
    three positive integers and the lam1 and lam2 ranges are positive.
    """
    if np.shape(counts) != (3,) or not all(
        isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0 for n in counts
    ):
        raise ValueError(f"grid counts must be three positive integers, got {counts!r}")
    if initial.connectivity != grown.connectivity:
        raise ValueError("initial and grown lattices must share a connectivity")
    if initial.rest != grown.rest or initial.law != grown.law:
        raise ValueError("grown lattice may differ from the initial only in growth")
    g = ground_state(grown).f if growth_tensor is None else np.asarray(growth_tensor, float)
    g_inv = np.linalg.inv(g)

    lam1 = np.linspace(*lam1_range, counts[0])
    lam2 = np.linspace(*lam2_range, counts[1])
    lam3 = np.linspace(*lam3_range, counts[2])
    fs = upper_triangular(*np.meshgrid(lam1, lam2, lam3, indexing="ij"))

    w_g = cauchy_born_energy_many(grown, fs)
    # F G^{-1} for the whole grid as one GEMM over the rows of every F
    w_i = cauchy_born_energy_many(initial, (fs.reshape(-1, 2) @ g_inv).reshape(fs.shape))
    defined = w_g > 0.0
    values = np.full(fs.shape[:-2], np.nan)
    values[defined] = w_i[defined] / w_g[defined] - 1.0
    masks = {t: defined & (np.abs(np.where(defined, values, 0.0)) > t) for t in thresholds}
    return ErrorMap(lam1, lam2, lam3, values, defined, masks, g)
