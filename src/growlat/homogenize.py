"""Least-squares homogenisation of rest lengths and growth tensors.

Targets are per-cell relaxed energies of a finite sample over a family of
boundary deformations.  Fits minimise the relative mean square error

    mean over samples of ((E_target - E_model) / E_target)**2,

with zero-energy targets excluded.  The search is a deterministic
coarse-to-fine grid scan (reported values carry 3-4 decimals, and grid
search is derivative-free and bit-reproducible), refined so that each
finer grid contains the previous best point.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .continuum import Decomposition, mapped_directions, rotation
from .lattice import Connectivity, FiniteLatticeSample, HomogeneousLattice
from .solver import AffineBoundary, ConvergenceError, SolverOptions, minimize, relax_branch
from .springs import SpringLaw, profile_energy

_FAMILY_KINDS = ("horizontal", "vertical", "dilational", "shear", "box-grid")


@dataclass(frozen=True)
class DeformationFamily:
    """Family of boundary deformation gradients, sampled uniformly.

    horizontal/vertical/dilational: diag stretches with lam in
    [1/lam_max, lam_max]; shear: off-diagonal lam in [-lam_shear, lam_shear];
    box-grid: all upper-triangular (lam1, lam2, lam3) triples on a uniform
    grid with lam1, lam2 in [1/lam_max, lam_max], lam3 in [-lam_shear, lam_shear].
    """

    kind: str
    lam_max: float = 1.5
    lam_shear: float = 0.5
    count: int = 60

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.count < 2:
            raise ValueError("sample count must be at least 2")
        if self.kind in ("horizontal", "vertical", "dilational", "box-grid") and self.lam_max <= 1:
            raise ValueError("lam_max must exceed 1")
        if self.kind in ("shear", "box-grid") and self.lam_shear <= 0:
            raise ValueError("lam_shear must be positive")


def sample_family(family: DeformationFamily):
    """Deformation gradients of the family; returns (parameters, F stack).

    For box-grid the parameters are the (lam1, lam2, lam3) triples.
    """
    kind = family.kind
    if kind == "box-grid":
        lam_d = np.linspace(1.0 / family.lam_max, family.lam_max, family.count)
        lam_s = np.linspace(-family.lam_shear, family.lam_shear, family.count)
        a, b, c = np.meshgrid(lam_d, lam_d, lam_s, indexing="ij")
        params = np.stack([a.ravel(), b.ravel(), c.ravel()], axis=1)
        fs = np.zeros((len(params), 2, 2))
        fs[:, 0, 0] = params[:, 0]
        fs[:, 1, 1] = params[:, 1]
        fs[:, 0, 1] = params[:, 2]
        return params, fs
    if kind == "shear":
        lams = np.linspace(-family.lam_shear, family.lam_shear, family.count)
    else:
        lams = np.linspace(1.0 / family.lam_max, family.lam_max, family.count)
    fs = np.tile(np.eye(2), (len(lams), 1, 1))
    if kind == "horizontal":
        fs[:, 0, 0] = lams
    elif kind == "vertical":
        fs[:, 1, 1] = lams
    elif kind == "dilational":
        fs[:, 0, 0] = lams
        fs[:, 1, 1] = lams
    else:  # shear
        fs[:, 0, 1] = lams
    return lams, fs


def measured_energies(
    sample: FiniteLatticeSample,
    fs: np.ndarray,
    opts: SolverOptions | None = None,
    mode: str = "branch",
) -> np.ndarray:
    """Relaxed per-cell energy of the sample for each boundary gradient.

    mode "branch" (default) equilibrates on the unbuckled branch with
    step-capped Newton from the affine state (`relax_branch`, at most 60
    steps); mode "minimize" runs trust-region Newton to a local minimum
    (`minimize`, at most opts.max_iter iterations), which under strong
    compression can be a folded state that the homogenised Cauchy-Born form
    cannot represent.  A solve that does not converge raises
    ConvergenceError.
    """
    if mode not in ("branch", "minimize"):
        raise ValueError(f"unknown relaxation mode {mode!r}")
    relax = relax_branch if mode == "branch" else minimize
    out = np.empty(len(fs))
    for i, f in enumerate(fs):
        report = relax(sample, AffineBoundary(f), opts)
        if not report.converged:
            raise ConvergenceError(f"solve failed at sample {i}: {report.message}")
        out[i] = report.per_cell_energy
    return out


# ---------------------------------------------------------------------------
# Fit machinery


@dataclass(frozen=True)
class GrowthAnsatz:
    """Parameter forms for the two growth tensors of a 2-part decomposition.

    Forms: "isotropic" (gamma * I, any class), "diagonal" (diag(a, b), class
    of axis directions), "rotated-diagonal" (eigenvectors along the two
    diagonals, class {(1,1), (1,-1)}).
    """

    g1_form: str = "isotropic"
    g2_form: str = "isotropic"
    bounds: tuple[float, float] = (0.5, 1.5)
    step: float = 0.01
    refinements: int = 2

    def __post_init__(self):
        for form in (self.g1_form, self.g2_form):
            if form not in ("isotropic", "diagonal", "rotated-diagonal"):
                raise ValueError(f"unknown ansatz form {form!r}")
        if not 0 < self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds must be positive and increasing")
        if self.step <= 0:
            raise ValueError("grid step must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with per-sample fractional errors.

    relative_mse is the mean of squared fractional errors over the used
    samples; `errors` holds nan at excluded (zero-target) samples.
    """

    parameters: dict
    relative_mse: float
    errors: np.ndarray
    max_abs_error: float
    n_used: int
    excluded: tuple[int, ...]
    groups: dict | None = None

    @property
    def mse_sum(self) -> float:
        """Sum (not mean) of squared fractional errors over used samples."""
        return self.relative_mse * self.n_used

    def recomputed_mse(self) -> float:
        used = self.errors[np.isfinite(self.errors)]
        return float(np.mean(used**2)) if used.size else float("nan")


def _grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def _scan(norms, targets, divisors, param_of_dir, grids, law):
    """Return the grid point minimising the relative squared error.

    norms: (S, A) direction norms per sample; divisors: (A,) fixed part of
    the denominator; param_of_dir: (A,) index of the parameter scaling each
    direction; grids: per-parameter 1-D candidate arrays.
    """
    used = targets != 0.0
    t_used = targets[used]
    n_used = norms[used]
    n_params = len(grids)
    mesh = np.meshgrid(*grids, indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)  # (C, P)
    best_idx, best_val = 0, np.inf
    chunk = max(1, int(5e6 / max(1, len(t_used))))
    for start in range(0, len(cand), chunk):
        block = cand[start : start + chunk]  # (c, P)
        model = np.zeros((len(block), len(t_used)))
        for a in range(norms.shape[1]):
            scale = divisors[a] * block[:, param_of_dir[a]]
            model += profile_energy(law, n_used[None, :, a] / scale[:, None])
        err = (t_used[None, :] - model) / t_used[None, :]
        obj = np.einsum("cs,cs->c", err, err)
        i = int(np.argmin(obj))
        if obj[i] < best_val:
            best_val = float(obj[i])
            best_idx = start + i
    return cand[best_idx], best_val


def _grid_fit(norms, targets, divisors, param_of_dir, n_params, law, bounds, step, refinements):
    targets = np.asarray(targets, dtype=float)
    excluded = tuple(int(i) for i in np.nonzero(targets == 0.0)[0])
    if len(excluded) == len(targets):
        raise ValueError("all target energies are zero; the relative objective is degenerate")

    grids = [_grid_values(bounds[0], bounds[1], step)] * n_params
    best, _ = _scan(norms, targets, divisors, param_of_dir, grids, law)
    width, fine = step, step
    for _ in range(refinements):
        fine = fine / 5.0 if fine == step else fine / 4.0
        grids = [
            np.clip(b + fine * np.arange(-int(round(width / fine)), int(round(width / fine)) + 1), 1e-9, None)
            for b in best
        ]
        best, _ = _scan(norms, targets, divisors, param_of_dir, grids, law)
        width = fine

    used = targets != 0.0
    model = np.zeros(int(used.sum()))
    for a in range(norms.shape[1]):
        scale = divisors[a] * best[param_of_dir[a]]
        model += profile_energy(law, norms[used, a] / scale)
    errors = np.full(len(targets), np.nan)
    errors[used] = (targets[used] - model) / targets[used]
    finite = errors[used]
    mse = float(np.mean(finite**2))
    return best, errors, mse, excluded


def fit_rest_lengths(
    fs: np.ndarray,
    targets: np.ndarray,
    law: SpringLaw,
    connectivity: Connectivity,
    *,
    tied: bool = True,
    bounds: tuple[float, float] = (0.5, 1.5),
    step: float = 0.01,
    refinements: int = 2,
) -> FitResult:
    """Optimal homogenised rest lengths for measured energies.

    Parameters are rest lengths per unit direction length (the literal rest
    length of direction v is parameter * ||v||), so all parameters live
    near 1.  With tied=True, directions sharing a Euclidean norm share one
    parameter (horizontal = vertical and the two diagonals tied, for the
    square lattice); otherwise each direction gets its own.
    """
    norms = np.linalg.norm(mapped_directions(connectivity.matrix, fs), axis=-1)
    dir_norms = connectivity.norms()
    if tied:
        unique = sorted(set(np.round(dir_norms, 12)))
        param_of_dir = np.array([unique.index(round(float(x), 12)) for x in dir_norms])
        names = [f"ell{k}" for k in range(len(unique))]
        groups = {
            names[k]: tuple(v for v, g in zip(connectivity.directions, param_of_dir) if g == k)
            for k in range(len(unique))
        }
    else:
        param_of_dir = np.arange(len(dir_norms))
        names = [f"ell_{'_'.join(str(c) for c in v)}" for v in connectivity.directions]
        groups = {names[k]: (connectivity.directions[k],) for k in range(len(dir_norms))}
    best, errors, mse, excluded = _grid_fit(
        norms, targets, dir_norms, param_of_dir, len(names), law, bounds, step, refinements
    )
    params = {name: float(val) for name, val in zip(names, best)}
    for k, v in enumerate(connectivity.directions):
        params[f"L_{'_'.join(str(c) for c in v)}"] = float(best[param_of_dir[k]] * dir_norms[k])
    finite = errors[np.isfinite(errors)]
    return FitResult(params, mse, errors, float(np.max(np.abs(finite))), int(np.isfinite(errors).sum()), excluded, groups)


def fitted_representative(fit: FitResult, connectivity: Connectivity, law: SpringLaw) -> HomogeneousLattice:
    """Homogeneous lattice carrying the fitted rest lengths."""
    rest = tuple(fit.parameters[f"L_{'_'.join(str(c) for c in v)}"] for v in connectivity.directions)
    return HomogeneousLattice(connectivity, rest, (), law)


_AXIS_DIRS = {(1, 0), (0, 1)}
_DIAG_DIRS = {(1, 1), (1, -1)}


def _ansatz_params(dec: Decomposition, ansatz: GrowthAnsatz):
    """Parameter names and the per-direction parameter index for the ansatz.

    Each form must diagonalise over its class directions so the model
    energy stays a per-direction rescaling (isotropic always does; diagonal
    needs axis directions; rotated-diagonal needs the two diagonals).
    """
    if len(dec.parts) != 2:
        raise ValueError("growth fitting expects a 2-part decomposition")
    dirs = dec.lattice.connectivity.directions
    param_of_dir = np.full(len(dirs), -1, dtype=int)
    names: list[str] = []
    builders = []
    for k, form in enumerate((ansatz.g1_form, ansatz.g2_form)):
        cls = dec.parts[k].directions
        if form == "isotropic":
            idx = len(names)
            names.append(f"gamma_{k + 1}")
            for v in cls:
                param_of_dir[dirs.index(v)] = idx
            builders.append(lambda p, i=idx: p[i] * np.eye(2))
        elif form == "diagonal":
            if not set(cls) <= _AXIS_DIRS:
                raise ValueError("diagonal form needs a class of axis directions")
            ia = len(names)
            names.extend([f"gamma_{k + 1}a", f"gamma_{k + 1}b"])
            for v in cls:
                param_of_dir[dirs.index(v)] = ia if v == (1, 0) else ia + 1
            builders.append(lambda p, i=ia: np.diag([p[i], p[i + 1]]))
        else:  # rotated-diagonal
            if not set(cls) <= _DIAG_DIRS:
                raise ValueError("rotated-diagonal form needs the diagonal direction class")
            ip = len(names)
            names.extend(["gamma_plus", "gamma_minus"])
            for v in cls:
                param_of_dir[dirs.index(v)] = ip if v == (1, 1) else ip + 1
            r = rotation(math.pi / 4)
            builders.append(lambda p, i=ip, r=r: r @ np.diag([p[i], p[i + 1]]) @ r.T)
    if np.any(param_of_dir < 0):
        raise ValueError("ansatz does not cover every direction")
    return names, param_of_dir, builders


def fit_growth(
    dec: Decomposition,
    fs: np.ndarray,
    targets: np.ndarray,
    ansatz: GrowthAnsatz,
) -> FitResult:
    """Fit homogenised growth tensors in the given ansatz to measured
    energies of the grown system; the part energies come from `dec` and do
    not change during the fit."""
    if dec.lattice.law.p != 0:
        raise ValueError("growth fitting is defined for recombination laws (p = 0)")
    names, param_of_dir, builders = _ansatz_params(dec, ansatz)
    connectivity = dec.lattice.connectivity
    norms = np.linalg.norm(mapped_directions(connectivity.matrix, fs), axis=-1)
    divisors = np.asarray(dec.lattice.rest)
    best, errors, mse, excluded = _grid_fit(
        norms, np.asarray(targets, float), divisors, param_of_dir, len(names), dec.lattice.law,
        ansatz.bounds, ansatz.step, ansatz.refinements,
    )
    params = {name: float(val) for name, val in zip(names, best)}
    finite = errors[np.isfinite(errors)]
    return FitResult(
        params, mse, errors, float(np.max(np.abs(finite))), int(np.isfinite(errors).sum()), excluded,
        groups={f"G_{k + 1}": builders[k](best).tolist() for k in range(2)},
    )


def growth_tensors(fit: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """The fitted growth tensors as matrices."""
    if not fit.groups or "G_1" not in fit.groups:
        raise ValueError("fit result does not carry growth tensors")
    return np.asarray(fit.groups["G_1"]), np.asarray(fit.groups["G_2"])


# ---------------------------------------------------------------------------
# Convergence studies


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    fit: FitResult


# relative MSE changes below this are rounding, not growth
_MSE_RTOL = 1e-9


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    drift_tol: float

    @property
    def drift(self) -> float:
        """Max parameter change between the two largest N."""
        if len(self.rows) < 2:
            return 0.0
        a, b = self.rows[-2].fit, self.rows[-1].fit
        return float(max(abs(a.parameters[k] - b.parameters[k]) for k in a.parameters))

    @property
    def mse_increased(self) -> bool:
        """The MSE grew, by more than _MSE_RTOL relative, from the
        second-largest to the largest N."""
        if len(self.rows) < 2:
            return False
        a, b = self.rows[-2].fit.relative_mse, self.rows[-1].fit.relative_mse
        return b > a * (1.0 + _MSE_RTOL)

    @property
    def converged(self) -> bool:
        return self.drift <= self.drift_tol and not self.mse_increased


def convergence_study(
    build,
    ns,
    fs: np.ndarray,
    dec_for,
    ansatz: GrowthAnsatz,
    *,
    solver_opts: SolverOptions | None = None,
    drift_tol: float = 0.01,
    mode: str = "branch",
) -> ConvergenceStudy:
    """Run build -> relax -> fit for each N and track parameter drift.

    `build(n)` returns the finite sample for side count n; `dec_for(n)`
    returns the decomposition whose parts feed the fit (usually independent
    of n; for inhomogeneous initial lattices it may wrap a per-N rest fit).
    Any non-convergent inner solve aborts the study.
    """
    rows = []
    for n in ns:
        sample = build(n)
        try:
            targets = measured_energies(sample, fs, solver_opts, mode)
        except ConvergenceError as exc:
            raise ConvergenceError(f"study aborted at N={n}: {exc}") from exc
        dec = dec_for(n)
        fit = fit_growth(dec, fs, targets, ansatz)
        rows.append(ConvergenceRow(n, fit))
    return ConvergenceStudy(tuple(rows), drift_tol)
