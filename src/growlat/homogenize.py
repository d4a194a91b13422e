"""Least-squares homogenisation of rest lengths and growth tensors.

Targets are per-cell relaxed energies of a finite sample over a family of
boundary deformations.  Fits minimise the relative mean square error

    mean over samples of ((E_target - E_model) / E_target)**2,

with zero-energy targets excluded, by bounded trust-region least squares
(scipy's `least_squares`; Moré, 1978) with a closed-form Jacobian.  Every
step is deterministic, so results are reproducible from (config, seed).
Each result carries the rank of the Jacobian at the optimum; below the
number of parameters, the optimum is a set of equally good points and the
one reported is arbitrary.  sim1's q = 2 dilational fit is an example: under
lambda I the energy is a quadratic in lambda, and its two coefficients
cannot fix three parameters.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .continuum import Decomposition, growth_tensors, mapped_lengths
from .lattice import Connectivity, FiniteLatticeSample, HomogeneousLattice
from .solver import AffineBoundary, ConvergenceError, SolverOptions, relax_branch
# `bench/spans.py` wraps this name; ROADMAP item 4's benchmark change deletes it.
from .solver import minimize  # noqa: F401
from .springs import SpringLaw, profile_deriv, profile_energy

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
) -> np.ndarray:
    """Relaxed per-cell energy of the sample for each boundary gradient, from
    the equilibrium on the unbuckled branch (`relax_branch`, which stops at
    the first iterate whose Hessian is not positive definite, or after 60
    steps).  A solve that does not converge raises ConvergenceError, naming
    the sample index and its boundary gradient F.
    """
    out = np.empty(len(fs))
    for i, f in enumerate(fs):
        report = relax_branch(sample, AffineBoundary(f), opts)
        if not report.converged:
            raise ConvergenceError(f"solve failed at sample {i}, F = {f.tolist()}: {report.message}")
        out[i] = report.per_cell_energy
    return out


# ---------------------------------------------------------------------------
# Fit machinery

# every fitted parameter (a growth factor, or a rest length per unit
# direction length) lies in this box
_BOUNDS = (0.5, 1.5)


@dataclass(frozen=True)
class GrowthAnsatz:
    """Parameter forms for the two growth tensors of a 2-part decomposition.

    A form ties the growth factors of its class's directions to parameters:
    "isotropic" (one gamma for the whole class, any class), "diagonal" (one
    parameter per axis direction, class of axis directions),
    "rotated-diagonal" (one per diagonal, class {(1,1), (1,-1)}).  The
    tensors themselves come from `growth_tensors`, so for a class of two planar
    directions these are gamma * I, diag(a, b) and a tensor with
    eigenvectors along the diagonals.  Every parameter is fitted within
    `_BOUNDS`; the fit starts from each of the 2**P corners of the box at the
    quarter marks of `_BOUNDS` and keeps the start that ends lowest.
    """

    g1_form: str = "isotropic"
    g2_form: str = "isotropic"

    def __post_init__(self):
        for form in (self.g1_form, self.g2_form):
            if form not in ("isotropic", "diagonal", "rotated-diagonal"):
                raise ValueError(f"unknown ansatz form {form!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with per-sample fractional errors.

    relative_mse is the mean of squared fractional errors over the used
    samples; `errors` holds nan at excluded (zero-target) samples.  `rank`
    is the numerical rank of the residual Jacobian at the optimum.
    """

    parameters: dict
    relative_mse: float
    errors: np.ndarray
    max_abs_error: float
    n_used: int
    excluded: tuple[int, ...]
    rank: int
    groups: dict | None = None

    @property
    def mse_sum(self) -> float:
        """Sum (not mean) of squared fractional errors over used samples."""
        return self.relative_mse * self.n_used


def _relative_residuals(lengths, t, divisors, param_of_dir, n_params, law):
    """Residuals (t - model) / t of targets t and their Jacobian in x, as two
    functions of x.

    The model energy of sample i is sum_a W(s_ia) with s_ia = lengths[i, a] /
    (divisors[a] x[param_of_dir[a]]), so the Jacobian is
    sum_{a: p(a) = p} W'(s_a) s_a / (x_p t).
    """
    base = lengths / divisors  # s = base / x[param_of_dir]
    owner = (param_of_dir[:, None] == np.arange(n_params)).astype(float)  # direction -> parameter

    def residuals(x):
        return (t - np.sum(profile_energy(law, base / x[param_of_dir]), axis=1)) / t

    def jacobian(x):
        s = base / x[param_of_dir]
        return (profile_deriv(law, s) * s / t[:, None]) @ owner / x

    return residuals, jacobian


def _fit(lengths, targets, divisors, param_of_dir, names, law, groups) -> FitResult:
    """Least-squares fit of the per-direction scale parameters x to the
    nonzero targets; `groups(x)` gives the result's groups."""
    from scipy.optimize import least_squares

    targets = np.asarray(targets, dtype=float)
    used = targets != 0.0
    if not used.any():
        raise ValueError("all target energies are zero; the relative objective is degenerate")
    residuals, jacobian = _relative_residuals(lengths[used], targets[used], divisors, param_of_dir, len(names), law)

    lo, hi = _BOUNDS
    best = None
    for start in itertools.product((lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)), repeat=len(names)):
        res = least_squares(residuals, start, jac=jacobian, bounds=_BOUNDS, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best is None or res.cost < best.cost:
            best = res
    x = best.x
    errors = np.full(len(targets), np.nan)
    errors[used] = residuals(x)
    return FitResult(
        {name: float(v) for name, v in zip(names, x)},
        float(np.mean(errors[used] ** 2)),
        errors,
        float(np.max(np.abs(errors[used]))),
        int(used.sum()),
        tuple(int(i) for i in np.nonzero(~used)[0]),
        int(np.linalg.matrix_rank(jacobian(x))),
        groups(x),
    )


def fit_rest_lengths(
    fs: np.ndarray,
    targets: np.ndarray,
    law: SpringLaw,
    connectivity: Connectivity,
) -> FitResult:
    """Optimal homogenised rest lengths for measured energies.

    Parameters are rest lengths per unit direction length (the literal rest
    length of direction v is parameter * ||v||), so all parameters live
    near 1 and are fitted within `_BOUNDS`.  Directions sharing a Euclidean
    norm share one parameter (horizontal = vertical and the two diagonals
    tied, for the square lattice).
    """
    dir_norms = connectivity.norms()
    unique = sorted(set(np.round(dir_norms, 12)))
    param_of_dir = np.array([unique.index(round(float(x), 12)) for x in dir_norms])
    names = [f"ell{k}" for k in range(len(unique))]
    groups = {
        names[k]: tuple(v for v, g in zip(connectivity.directions, param_of_dir) if g == k)
        for k in range(len(unique))
    }
    fit = _fit(mapped_lengths(connectivity.matrix, fs), targets, dir_norms, param_of_dir, names, law,
               lambda x: groups)
    fit.parameters.update({
        f"L_{'_'.join(str(c) for c in v)}": float(fit.parameters[names[param_of_dir[k]]] * dir_norms[k])
        for k, v in enumerate(connectivity.directions)
    })
    return fit


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
    for k, form in enumerate((ansatz.g1_form, ansatz.g2_form)):
        cls = dec.parts[k].directions
        if form == "isotropic":
            idx = len(names)
            names.append(f"gamma_{k + 1}")
            for v in cls:
                param_of_dir[dirs.index(v)] = idx
        elif form == "diagonal":
            if not set(cls) <= _AXIS_DIRS:
                raise ValueError("diagonal form needs a class of axis directions")
            ia = len(names)
            names.extend([f"gamma_{k + 1}a", f"gamma_{k + 1}b"])
            for v in cls:
                param_of_dir[dirs.index(v)] = ia if v == (1, 0) else ia + 1
        else:  # rotated-diagonal
            if not set(cls) <= _DIAG_DIRS:
                raise ValueError("rotated-diagonal form needs the diagonal direction class")
            ip = len(names)
            names.extend(["gamma_plus", "gamma_minus"])
            for v in cls:
                param_of_dir[dirs.index(v)] = ip if v == (1, 1) else ip + 1
    if np.any(param_of_dir < 0):
        raise ValueError("ansatz does not cover every direction")
    return names, param_of_dir


def fit_growth(
    dec: Decomposition,
    fs: np.ndarray,
    targets: np.ndarray,
    ansatz: GrowthAnsatz,
) -> FitResult:
    """Fit homogenised growth tensors in the given ansatz to measured
    energies of the grown system; the part energies come from `dec` and do
    not change during the fit.  The fit is over per-direction growth
    factors tied by the ansatz; the reported G_1 and G_2 are the
    `growth_tensors` of `dec`'s parts for the fitted factors."""
    if dec.lattice.law.p != 0:
        raise ValueError("growth fitting is defined for recombination laws (p = 0)")
    names, param_of_dir = _ansatz_params(dec, ansatz)

    def tensors(x):
        return {f"G_{k + 1}": g.tolist() for k, (g, _) in enumerate(growth_tensors(dec.parts, x[param_of_dir]))}

    return _fit(
        mapped_lengths(dec.lattice.connectivity.matrix, fs), targets, np.asarray(dec.lattice.rest), param_of_dir,
        names, dec.lattice.law, tensors,
    )
