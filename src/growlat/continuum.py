"""Cauchy-Born continuum energies and the energy-deformation decomposition.

Under the Cauchy-Born rule the continuum energy density of a homogeneous
lattice is a sum over spring directions,

    W(F) = sum_v  g_v**p * W( ||F v|| / (L_v g_v) ),

so growth enters only through the per-direction factors g_v.  Because a
single linear map cannot rescale more than D independent directions, the
grown density generally cannot be written as W_i(F G^{-1}); it can always
be split additively into K parts (K = lattice order), each carrying its
own growth tensor G_k with G_k^{-1} v = v / g_v on its direction class.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Connectivity, HomogeneousLattice, OrderResult, lattice_order, square_connectivity
from .springs import per_length, spring_terms

GEOMETRIC_TOL = 1e-10


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def upper_triangular(lam1: float, lam2: float, lam3: float) -> np.ndarray:
    """Deformation gradient [[lam1, lam3], [0, lam2]] with lam1, lam2 > 0."""
    if lam1 <= 0 or lam2 <= 0:
        raise ValueError("diagonal entries must be positive")
    return np.array([[lam1, lam3], [0.0, lam2]])


def mapped_directions(directions, fs: np.ndarray) -> np.ndarray:
    """Images F v of the directions v under a stack of deformation gradients;
    shape (..., n_dirs, D)."""
    return np.einsum("...ij,aj->...ai", np.asarray(fs, dtype=float), np.asarray(directions, dtype=float))


def _cauchy_born_terms(lattice: HomogeneousLattice, fs: np.ndarray, order: int):
    rest = np.asarray(lattice.rest)
    growth = np.asarray(lattice.growth)
    mapped = mapped_directions(lattice.connectivity.matrix, fs)
    return mapped, *spring_terms(lattice.law, mapped, rest * growth, growth**lattice.law.p, order)


def cauchy_born_energy(lattice: HomogeneousLattice, f: np.ndarray) -> float:
    """Continuum energy density sum_v g**p W(||Fv|| / (L g))."""
    return float(cauchy_born_energy_many(lattice, f))


def cauchy_born_energy_many(lattice: HomogeneousLattice, fs: np.ndarray) -> np.ndarray:
    """Vectorised Cauchy-Born energy over a stack of deformation gradients."""
    _, _, (terms,) = _cauchy_born_terms(lattice, fs, 0)
    return np.sum(terms, axis=-1)


def cauchy_born_gradient(lattice: HomogeneousLattice, f: np.ndarray) -> np.ndarray:
    """d/dF of the Cauchy-Born energy; same shape as F."""
    mapped, norms, (_, slope) = _cauchy_born_terms(lattice, f, 1)
    return np.einsum("a,ai,aj->ij", per_length(slope, norms), mapped, lattice.connectivity.matrix)


# ---------------------------------------------------------------------------
# Shears


def is_shear(f: np.ndarray, basis, tol: float = GEOMETRIC_TOL) -> bool:
    """True iff F preserves the norms of all basis vectors but is not a
    rotation (F'F != I within tol, or det F < 0)."""
    f = np.asarray(f, dtype=float)
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be D vectors in R^D")
    if np.linalg.matrix_rank(b) < b.shape[0]:
        raise ValueError("basis vectors are linearly dependent")
    norms_before = np.linalg.norm(b, axis=1)
    norms_after = np.linalg.norm(b @ f.T, axis=1)
    if np.any(np.abs(norms_after - norms_before) > tol):
        return False
    gram_defect = np.max(np.abs(f.T @ f - np.eye(f.shape[0])))
    return gram_defect > tol or np.linalg.det(f) < 0


def extend_to_basis(vectors, dim: int) -> np.ndarray:
    """Extend linearly-independent vectors to a basis of R^dim by greedily
    appending standard basis vectors in index order."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    for k in range(dim):
        if len(rows) == dim:
            break
        e = np.zeros(dim)
        e[k] = 1.0
        if np.linalg.matrix_rank(np.stack(rows + [e])) == len(rows) + 1:
            rows.append(e)
    basis = np.stack(rows)
    if np.linalg.matrix_rank(basis) < dim:
        raise ValueError("vectors cannot be extended to a basis")
    return basis


def shear_witness_order1(connectivity: Connectivity, angle: float = math.pi / 4) -> np.ndarray:
    """A shear F with F v = v on the first direction and F v = R v on the
    rest of an extended basis; the Cauchy-Born energy of any lattice on an
    order-1 connectivity takes the same value at F as at the identity."""
    d = connectivity.dimension
    if d < 2:
        raise ValueError("shears require dimension >= 2")
    order = lattice_order(connectivity)
    if order.order != 1:
        raise ValueError(f"connectivity has order {order.order}, expected 1")
    basis = extend_to_basis([np.asarray(v, float) for v in connectivity.directions], d)

    def witness(r: np.ndarray) -> np.ndarray | None:
        targets = np.vstack([basis[0], (basis[1:] @ r.T)])
        f = np.linalg.solve(basis, targets).T  # F basis_i = targets_i
        if abs(basis[0] @ (r @ basis[1]) - basis[0] @ basis[1]) <= GEOMETRIC_TOL:
            return None
        return f

    # plane rotations in coordinate planes; the first that changes the
    # inner product <v1, R v2> yields a norm-preserving non-rotation
    for i in range(d):
        for j in range(i + 1, d):
            for theta in (angle, -angle, angle / 2):
                r = np.eye(d)
                r[i, i] = math.cos(theta)
                r[j, j] = math.cos(theta)
                r[i, j] = -math.sin(theta)
                r[j, i] = math.sin(theta)
                f = witness(r)
                if f is not None and is_shear(f, basis):
                    return f
    raise RuntimeError("no shear witness found; connectivity may be degenerate")


def square_partition_choices() -> tuple:
    """The three independent pairings of the square-lattice directions."""
    e1, e2, ep, em = (1, 0), (0, 1), (1, 1), (1, -1)
    return (
        ((e1, e2), (ep, em)),
        ((e1, ep), (e2, em)),
        ((e1, em), (e2, ep)),
    )


def shear_family(choice: int, part: int, theta: float) -> np.ndarray:
    """One-parameter family of shears on which the given part energy of the
    square-lattice decomposition vanishes (rest lengths (1, 1, sqrt2, sqrt2),
    no growth).  choice in {0, 1, 2} selects the pairing from
    square_partition_choices(); part in {0, 1}."""
    c, s = math.cos(theta), math.sin(theta)
    r2 = math.sqrt(2.0)
    families = {
        (0, 0): [[1.0, c], [0.0, s]],
        (0, 1): [[(1 - c) / r2, (1 + c) / r2], [-s / r2, s / r2]],
        (1, 0): [[1.0, r2 * c - 1.0], [0.0, r2 * s]],
        (1, 1): [[r2 * c + 1.0, 1.0], [r2 * s, 0.0]],
        (2, 0): [[1.0, r2 * c + 1.0], [0.0, r2 * s]],
        (2, 1): [[r2 * c - 1.0, 1.0], [r2 * s, 0.0]],
    }
    try:
        return np.array(families[(choice, part)])
    except KeyError:
        raise ValueError("choice must be in {0,1,2} and part in {0,1}") from None


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class DecompositionPart:
    """One class of directions with its part energy and growth tensor."""

    directions: tuple
    growth: np.ndarray      # G_k
    growth_inv: np.ndarray  # G_k^{-1}, solved directly from the defining data


@dataclass(frozen=True)
class Decomposition:
    """Additive split of a lattice energy into parts W_k, each with a growth
    tensor G_k, such that

        W_i(F) = sum_k W_k(F)          (no growth)
        W_g(F) = sum_k W_k(F G_k^{-1}) (with growth)

    W_k depends only on the rest lengths; G_k only on the growth factors.
    """

    lattice: HomogeneousLattice
    parts: tuple[DecompositionPart, ...]

    def part_energy(self, k: int, f: np.ndarray) -> float:
        return float(self.part_energy_many(k, np.asarray(f, dtype=float)))

    def part_energy_many(self, k: int, fs: np.ndarray) -> np.ndarray:
        lat = self.lattice
        dirs = lat.connectivity.directions
        part = self.parts[k].directions
        rest = np.asarray([lat.rest[dirs.index(v)] for v in part])
        _, (terms,) = spring_terms(lat.law, mapped_directions(part, fs), rest, 1.0)
        return np.sum(terms, axis=-1)

    def initial_energy(self, f: np.ndarray) -> float:
        return float(sum(self.part_energy(k, f) for k in range(len(self.parts))))

    def grown_energy(self, f: np.ndarray) -> float:
        """sum_k W_k(F G_k^{-1}); equals the Cauchy-Born energy of the grown
        lattice."""
        f = np.asarray(f, dtype=float)
        return float(
            sum(self.part_energy(k, f @ p.growth_inv) for k, p in enumerate(self.parts))
        )

    def to_json_dict(self) -> dict:
        dirs = self.lattice.connectivity.directions
        return {
            "partition": [[dirs.index(v) for v in p.directions] for p in self.parts],
            "growth_tensors": [p.growth.ravel().tolist() for p in self.parts],
            "growth_tensor_inverses": [p.growth_inv.ravel().tolist() for p in self.parts],
        }


def decompose(lattice: HomogeneousLattice, partition=None) -> Decomposition:
    """Build the energy-deformation decomposition for a recombining lattice.

    `partition` is a sequence of direction classes (each linearly
    independent, jointly covering the connectivity); when omitted, the
    witness partition of the lattice order is used.  Each class is extended
    to a basis by standard vectors; G_k maps v -> g_v v on its class and
    fixes the extension, so the split is exact for every F.
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
    growth_of = dict(zip(co.directions, lattice.growth))

    parts = []
    for cls in classes:
        vecs = np.asarray(cls, dtype=float)
        if np.linalg.matrix_rank(vecs) < len(cls):
            raise ValueError(f"class {cls} is not linearly independent")
        basis = extend_to_basis(list(vecs), d)
        n_class = len(cls)
        scale = np.array([growth_of[v] for v in cls] + [1.0] * (d - n_class))
        # columns: G maps v/g_v -> v on the class and fixes the extension
        b_cols = basis.T
        shrunk_cols = (basis / scale[:, None]).T
        growth = b_cols @ np.linalg.inv(shrunk_cols)
        growth_inv = shrunk_cols @ np.linalg.inv(b_cols)
        parts.append(DecompositionPart(tuple(cls), growth, growth_inv))
    return Decomposition(lattice, tuple(parts))


# ---------------------------------------------------------------------------
# Dilation-only multiplicative decomposition


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    growth: np.ndarray | None       # g * I when admissible
    violated: str | None            # description of the first failed constraint
    residuals: tuple[float, float, float]


def multiplicative_admissible(factors, tol: float = GEOMETRIC_TOL) -> AdmissibilityResult:
    """Check whether square-lattice growth (g1, g2, g+, g-) admits a single
    growth tensor G with W_g(F) = W_i(F G^{-1}) for all F.

    Three necessary constraints are tested; together they force all four
    factors equal, in which case G = g I works (the lattice has dilated).
    """
    g1, g2, gp, gm = (float(g) for g in factors)
    if min(g1, g2, gp, gm) <= 0:
        raise ValueError("growth factors must be positive")
    lhs1 = 1 / g1**2 + 1 / g2**2
    rhs1 = 1 / gp**2 + 1 / gm**2
    lhs2 = g1**2 + g2**2
    rhs2 = gp**2 + gm**2
    lhs3 = (g1**2 + g2**2) * (1 / gp**2 + 1 / gm**2)
    r1 = abs(lhs1 - rhs1) / max(abs(lhs1), abs(rhs1))
    r2 = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2))
    r3 = abs(lhs3 - 4.0) / 4.0
    residuals = (r1, r2, r3)
    checks = (
        (r1, f"reciprocal-square sums differ: {lhs1:.12g} vs {rhs1:.12g}"),
        (r2, f"square sums differ: {lhs2:.12g} vs {rhs2:.12g}"),
        (r3, f"product of sums is {lhs3:.12g}, not 4"),
    )
    for resid, message in checks:
        if resid > tol:
            return AdmissibilityResult(False, None, message, residuals)
    g = (g1 + g2 + gp + gm) / 4.0
    return AdmissibilityResult(True, g * np.eye(2), None, residuals)


# ---------------------------------------------------------------------------
# Ground states


@dataclass(frozen=True)
class GroundState:
    f: np.ndarray          # upper-triangular with positive diagonal
    energy: float
    grad_norm: float       # infinity norm of the chart gradient
    iterations: int


class GroundStateError(RuntimeError):
    pass


def _chart_value_grad(lattice: HomogeneousLattice, x: np.ndarray):
    f = np.array([[x[0], x[2]], [0.0, x[1]]])
    e = cauchy_born_energy(lattice, f)
    g = cauchy_born_gradient(lattice, f)
    return e, np.array([g[0, 0], g[1, 1], g[0, 1]])


def ground_state(
    lattice: HomogeneousLattice,
    *,
    gtol: float = 1e-10,
    max_iter: int = 10_000,
    n_starts: int = 5,
    seed: int = 0,
) -> GroundState:
    """Minimise the Cauchy-Born energy over upper-triangular deformation
    gradients with positive diagonal (the rotation gauge is fixed by that
    chart).  Quasi-Newton descent from the identity plus jittered restarts,
    finished by Newton polishing on the 3-parameter chart.
    """
    from scipy.optimize import minimize as scipy_minimize

    if lattice.connectivity.dimension != 2:
        raise ValueError("ground states are computed for two-dimensional lattices")

    rng = np.random.default_rng(seed)
    starts = [np.array([1.0, 1.0, 0.0])]
    for _ in range(n_starts):
        starts.append(starts[0] + rng.uniform(-0.2, 0.2, 3))

    best = None
    total_iters = 0
    for x0 in starts:
        x0 = np.array([max(x0[0], 0.05), max(x0[1], 0.05), x0[2]])
        res = scipy_minimize(
            lambda x: _chart_value_grad(lattice, x),
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(1e-8, None), (1e-8, None), (None, None)],
            options={"maxiter": max_iter, "ftol": 1e-18, "gtol": gtol},
        )
        total_iters += res.nit
        if best is None or res.fun < best.fun:
            best = res

    # Newton polish on the chart; the Hessian is finite-differenced from the
    # analytic gradient
    x = np.asarray(best.x, dtype=float)
    e, g = _chart_value_grad(lattice, x)
    for _ in range(20):
        if np.max(np.abs(g)) <= 1e-12:
            break
        h = np.empty((3, 3))
        step = 1e-6
        for j in range(3):
            xp = x.copy()
            xp[j] += step
            xm = x.copy()
            xm[j] -= step
            h[:, j] = (_chart_value_grad(lattice, xp)[1] - _chart_value_grad(lattice, xm)[1]) / (2 * step)
        try:
            delta = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        xn = x + delta
        if xn[0] <= 0 or xn[1] <= 0:
            break
        en, gn = _chart_value_grad(lattice, xn)
        if np.max(np.abs(gn)) >= np.max(np.abs(g)):
            break
        x, e, g = xn, en, gn
        total_iters += 1

    grad_norm = float(np.max(np.abs(g)))
    if grad_norm > 1e-8:
        raise GroundStateError(
            f"ground-state search did not converge: |grad| = {grad_norm:.3e} "
            f"after {total_iters} iterations (energy {e:.6e}, chart {x})"
        )
    return GroundState(upper_triangular(x[0], x[1], x[2]), float(e), grad_norm, total_iters)


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

    def rows(self):
        """Iterate CSV rows (lam1, lam2, lam3, error, mask flags...)."""
        thresholds = sorted(self.masks)
        for i, a in enumerate(self.lam1):
            for j, b in enumerate(self.lam2):
                for k, c in enumerate(self.lam3):
                    row = [a, b, c, self.values[i, j, k]]
                    row += [int(self.masks[t][i, j, k]) for t in thresholds]
                    yield row

    def to_csv(self, path):
        from .serialize import write_csv

        thresholds = sorted(self.masks)
        header = ["lam1", "lam2", "lam3", "error"] + [
            f"mask_{int(round(t * 100))}" for t in thresholds
        ]
        write_csv(path, header, self.rows())


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
    excluded from the threshold masks.
    """
    if initial.connectivity != grown.connectivity:
        raise ValueError("initial and grown lattices must share a connectivity")
    if initial.rest != grown.rest or initial.law != grown.law:
        raise ValueError("grown lattice may differ from the initial only in growth")
    g = ground_state(grown).f if growth_tensor is None else np.asarray(growth_tensor, float)
    g_inv = np.linalg.inv(g)

    lam1 = np.linspace(*lam1_range, counts[0])
    lam2 = np.linspace(*lam2_range, counts[1])
    lam3 = np.linspace(*lam3_range, counts[2])
    a, b, c = np.meshgrid(lam1, lam2, lam3, indexing="ij")
    fs = np.zeros(a.shape + (2, 2))
    fs[..., 0, 0] = a
    fs[..., 1, 1] = b
    fs[..., 0, 1] = c

    w_g = cauchy_born_energy_many(grown, fs)
    w_i = cauchy_born_energy_many(initial, fs @ g_inv)
    defined = w_g > 0.0
    values = np.full(a.shape, np.nan)
    values[defined] = w_i[defined] / w_g[defined] - 1.0
    masks = {t: defined & (np.abs(np.where(defined, values, 0.0)) > t) for t in thresholds}
    return ErrorMap(lam1, lam2, lam3, values, defined, masks, g)


# ---------------------------------------------------------------------------
# Correction energy


@dataclass(frozen=True)
class CorrectionResult:
    h: np.ndarray        # overall growth measure
    h_prime: np.ndarray  # anisotropy measure; identity for isotropic growth
    value: float         # correction added to W_i(F H)


def correction_energy(dec: Decomposition, f: np.ndarray, swap: bool = False, tol: float = 1e-12) -> CorrectionResult:
    """Rewrite the two-part decomposition as a corrected multiplicative form:

        W_g(F) = W_i(F H) + W'(F H, H')

    where H = G_2^{-1}, H' = G_2 G_1^{-1} and W'(F, M) = W_1(F M) - W_1(F).
    With swap=True the roles of the two parts are exchanged.  The identity
    is verified to the given relative tolerance.
    """
    if len(dec.parts) != 2:
        raise ValueError("correction form needs a decomposition with exactly 2 parts")
    f = np.asarray(f, dtype=float)
    g1, g2 = dec.parts[0].growth, dec.parts[1].growth
    g1_inv, g2_inv = dec.parts[0].growth_inv, dec.parts[1].growth_inv
    if swap:
        h = g1_inv
        h_prime = g1 @ g2_inv
        corr_part = 1
    else:
        h = g2_inv
        h_prime = g2 @ g1_inv
        corr_part = 0
    fh = f @ h
    value = dec.part_energy(corr_part, fh @ h_prime) - dec.part_energy(corr_part, fh)
    w_g = dec.grown_energy(f)
    recon = dec.initial_energy(fh) + value
    if abs(recon - w_g) > tol * (1.0 + abs(w_g)):
        raise RuntimeError(
            f"correction identity violated: {recon!r} vs {w_g!r} (|diff| = {abs(recon - w_g):.3e})"
        )
    return CorrectionResult(h, h_prime, float(value))
