"""Discrete energy minimisation on finite lattice samples.

The inner problem behind the continuum energy density: interior nodes
relax under affine boundary data u(x) = F x while boundary nodes stay
pinned.  The reported per-cell energy counts one spring of each direction
per unit cell (the springs excluded by that convention connect boundary
nodes only, so minimisers are unaffected), which makes the per-cell value
of a homogeneous sample agree with the Cauchy-Born density at every N.

Both relaxation modes are Newton methods on the exact energy, gradient and
interior Hessian, all three built from one call of the spring kernel
(`springs.spring_terms`) per iterate.  `minimize` is a trust-region Newton
method that may leave the affine branch; `relax_branch` takes step-capped
Newton steps and stays on it.
"""

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .lattice import FiniteLatticeSample, build_sample, chain_connectivity
from .springs import SpringLaw, per_length, profile_energy, spring_terms


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class AffineBoundary:
    """Affine boundary data u(x) = F x."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("boundary deformation gradient must be finite")
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class SolverOptions:
    # convergence means max|grad| <= gtol_rel * (1 + |E|) over the interior
    # degrees of freedom, in both relaxation modes
    gtol_rel: float = 1e-8
    # trust-region iterations of `minimize`; `relax_branch` has its own fixed
    # step limit (_BRANCH_MAX_STEPS) and ignores this
    max_iter: int = 500


@dataclass(frozen=True)
class SolveReport:
    per_cell_energy: float
    total_energy: float
    positions: np.ndarray   # (M, D); boundary rows equal F x bitwise
    iterations: int
    grad_norm: float        # infinity norm over interior degrees of freedom
    converged: bool
    message: str = ""


def _edge_terms(sample: FiniteLatticeSample, positions: np.ndarray, order: int):
    """Edge vectors, their lengths and the spring kernel's terms up to `order`."""
    d = positions[sample.edges[:, 1]] - positions[sample.edges[:, 0]]
    r, terms = spring_terms(sample.law, d, sample.rest * sample.growth, sample.growth**sample.law.p, order)
    return d, r, terms


class _Iterate:
    """Energy, gradient and interior Hessian of a sample at one set of node
    positions, all from one call of the spring kernel.  The Hessian is
    assembled on first use."""

    def __init__(self, sample: FiniteLatticeSample, positions: np.ndarray, interior: np.ndarray):
        self.sample, self.positions, self.interior = sample, positions, interior
        self._springs = d, r, (self.edge_energies, slope, _) = _edge_terms(sample, positions, 2)
        self.energy = float(np.sum(self.edge_energies))
        force = per_length(slope, r)[:, None] * d  # contribution along each edge
        m = sample.n_nodes
        self.gradient = np.stack([
            np.bincount(sample.edges[:, 1], weights=force[:, axis], minlength=m)
            - np.bincount(sample.edges[:, 0], weights=force[:, axis], minlength=m)
            for axis in range(sample.dimension)
        ], axis=1)
        self.x = positions[interior].ravel()
        self.grad = self.gradient[interior].ravel()
        self.grad_norm = float(np.max(np.abs(self.grad))) if self.grad.size else 0.0

    @cached_property
    def hessian(self):
        """Sparse Hessian in the interior coordinates (node-major).  Per edge,
        the DxD block of the spring energy in the edge vector d is
        (E' / r) I + (E'' - E' / r) d d^T / r^2, with E', E'' the kernel's
        derivatives in r."""
        import scipy.sparse as sp

        sample, dim = self.sample, self.sample.dimension
        d, r, (_, slope, curvature) = self._springs
        tension = per_length(slope, r)
        block = (per_length(curvature - tension, r * r)[:, None, None] * d[:, :, None] * d[:, None, :]
                 + tension[:, None, None] * np.eye(dim))

        index = -np.ones(sample.n_nodes, dtype=np.int64)
        index[self.interior] = np.arange(self.x.size // dim)
        ends = index[sample.edges]  # interior index of each edge's tail and head; -1 if pinned
        # the four DxD blocks of an edge: (tail, tail), (head, head), (tail, head), (head, tail)
        i, j = ends[:, [0, 1, 0, 1]], ends[:, [0, 1, 1, 0]]
        edge, which = np.nonzero((i >= 0) & (j >= 0))
        u, v = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        rows = (dim * i[edge, which][:, None, None] + u).ravel()
        cols = (dim * j[edge, which][:, None, None] + v).ravel()
        vals = (block[edge] * np.array([1.0, 1.0, -1.0, -1.0])[which, None, None]).ravel()
        m = self.x.size
        return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))

    def moved(self, x: np.ndarray) -> "_Iterate":
        positions = self.positions.copy()
        positions[self.interior] = x.reshape(-1, self.sample.dimension)
        return _Iterate(self.sample, positions, self.interior)

    def converged(self, opts: SolverOptions) -> bool:
        return self.grad_norm <= opts.gtol_rel * (1.0 + abs(self.energy))


def total_energy(sample: FiniteLatticeSample, positions: np.ndarray) -> float:
    """Sum over all edges of g**p W(||u(x+v) - u(x)|| / (L g))."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (sample.n_nodes, sample.dimension):
        raise ValueError(f"positions must have shape {(sample.n_nodes, sample.dimension)}")
    return float(np.sum(_edge_terms(sample, positions, 0)[2][0]))


def owned_energy(sample: FiniteLatticeSample, positions: np.ndarray) -> float:
    """Energy of the cell-owned springs (per-cell numerator)."""
    return float(np.sum(_edge_terms(sample, positions, 0)[2][0][sample.owned]))


def energy_and_gradient(sample: FiniteLatticeSample, positions: np.ndarray):
    """Total energy and its gradient with respect to all node positions."""
    it = _Iterate(sample, np.asarray(positions, dtype=float), ~sample.boundary_mask())
    return it.energy, it.gradient


def _affine_start(sample: FiniteLatticeSample, boundary: AffineBoundary) -> _Iterate:
    if sample.dimension > 2:
        raise ValueError("relaxation supports dimensions 1 and 2")
    f = np.asarray(boundary.f, dtype=float)
    if f.shape != (sample.dimension, sample.dimension):
        raise ValueError("boundary gradient shape must match the sample dimension")
    return _Iterate(sample, sample.affine_positions(f), ~sample.boundary_mask())


def _report(it: _Iterate, iterations: int, opts: SolverOptions, reason: str) -> SolveReport:
    sample = it.sample
    converged = it.converged(opts)
    tol = opts.gtol_rel * (1.0 + abs(it.energy))
    message = "" if converged else f"stopped with |grad| = {it.grad_norm:.3e} > {tol:.3e}: {reason}"
    return SolveReport(
        per_cell_energy=float(np.sum(it.edge_energies[sample.owned])) / sample.n**sample.dimension,
        total_energy=it.energy,
        positions=it.positions,
        iterations=iterations,
        grad_norm=it.grad_norm,
        converged=converged,
        message=message,
    )


class _Iterates:
    """The iterates of one trust-region solve, looked up by their interior
    coordinates.  The optimiser evaluates each trial point before it accepts
    or rejects it, so both the current iterate and the latest trial are kept
    and neither is computed twice."""

    def __init__(self, start: _Iterate):
        self.current = self.latest = start

    def at(self, x: np.ndarray) -> _Iterate:
        for it in (self.current, self.latest):
            if np.array_equal(it.x, x):
                return it
        self.latest = self.current.moved(x)
        return self.latest


def minimize(
    sample: FiniteLatticeSample,
    boundary: AffineBoundary,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Relax interior nodes under pinned affine boundary data to a local
    minimum of the energy.

    Trust-region Newton from the affine start (scipy's trust-krylov; Nocedal
    & Wright, ch. 7) on the exact gradient and Hessian.  Its subproblem
    follows negative curvature, so under strong compression the solve leaves
    the unbuckled branch for a folded minimum.  At most opts.max_iter
    trust-region iterations.  Convergence means the infinity norm of the
    interior gradient is at or below gtol_rel * (1 + |E|); anything else is
    reported, never silent.
    """
    from scipy.optimize import minimize as scipy_minimize

    opts = opts or SolverOptions()
    iterates = _Iterates(_affine_start(sample, boundary))
    iterations, reason = 0, ""
    if not iterates.current.converged(opts):

        def stop_when_converged(intermediate_result):
            iterates.current = iterates.at(intermediate_result.x)
            if iterates.current.converged(opts):
                raise StopIteration

        res = scipy_minimize(
            lambda x: iterates.at(x).energy,
            iterates.current.x,
            method="trust-krylov",
            jac=lambda x: iterates.at(x).grad,
            hessp=lambda x, v: iterates.at(x).hessian @ v,
            callback=stop_when_converged,
            # the callback applies the relative tolerance; scipy's own test
            # is on the 2-norm and would stop early or late
            options={"maxiter": opts.max_iter, "gtol": 0.0},
        )
        iterates.current = iterates.at(res.x)
        iterations, reason = int(res.nit), res.message
    return _report(iterates.current, iterations, opts, reason)


# ---------------------------------------------------------------------------
# Branch relaxation (Newton continuation from the affine state)

# The bench fingerprints pin which branch solves fail, so these stay fixed.
_BRANCH_MAX_STEPS = 60     # Newton steps before a branch solve gives up
_BRANCH_STEP_CAP = 0.25    # largest nodal displacement of one step


def relax_branch(
    sample: FiniteLatticeSample,
    boundary: AffineBoundary,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Equilibrium on the unbuckled branch: Newton from the affine state,
    each step a sparse direct solve with the exact interior Hessian and
    capped at a nodal displacement of 0.25, converging to the nearby
    stationary point whether or not it is stable.

    At most 60 Newton steps; opts.max_iter does not apply.  Under strong
    compression the energy also has folded minima far from the affine
    state; `minimize` may fall into them, while the homogenised Cauchy-Born
    form can only describe the unfolded branch.  Where the affine-adjacent
    equilibrium is a stable minimum this returns the same state as
    `minimize`.
    """
    from scipy.sparse.linalg import spsolve

    opts = opts or SolverOptions()
    it = _affine_start(sample, boundary)
    steps = 0
    reason = f"no convergence in {_BRANCH_MAX_STEPS} Newton steps"
    while not it.converged(opts) and steps < _BRANCH_MAX_STEPS:
        delta = spsolve(it.hessian.tocsc(), -it.grad)
        if not np.all(np.isfinite(delta)):
            reason = "singular Hessian on the affine branch"
            break
        biggest = float(np.max(np.abs(delta)))
        if biggest > _BRANCH_STEP_CAP:
            delta *= _BRANCH_STEP_CAP / biggest
        it = it.moved(it.x + delta)
        steps += 1
    return _report(it, steps, opts, reason)


# ---------------------------------------------------------------------------
# One-dimensional chain and its continuum limit


@dataclass(frozen=True)
class GrowthProfile:
    """Cumulative growth g on [0, 1] together with its rate G = g'.

    The chain discretisation uses increments of `cumulative`; the continuum
    energy integrates `rate`.  `rate` must be positive (g increasing).
    """

    cumulative: Callable
    rate: Callable

    def check(self, n_probe: int = 257):
        xs = np.linspace(0.0, 1.0, n_probe)
        if np.any(np.asarray(self.rate(xs)) <= 0):
            raise ValueError("growth profile must be increasing (positive rate)")


def linear_growth(a: float, b: float) -> GrowthProfile:
    """Profile with rate G(x) = a + b x."""
    return GrowthProfile(
        cumulative=lambda x: a * np.asarray(x, float) + 0.5 * b * np.asarray(x, float) ** 2,
        rate=lambda x: a + b * np.asarray(x, float),
    )


def constant_growth(c: float) -> GrowthProfile:
    return linear_growth(c, 0.0)


def one_d_chain(profile: GrowthProfile, n: int, rest: float, law: SpringLaw) -> FiniteLatticeSample:
    """Chain of n springs with rest length `rest`, spring j grown by the
    mean rate of the profile over its subinterval."""
    profile.check()
    sample = build_sample(chain_connectivity(), n, rest, law=law)
    j = np.arange(1, n + 1, dtype=float)
    increments = n * (np.asarray(profile.cumulative(j / n)) - np.asarray(profile.cumulative((j - 1) / n)))
    if np.any(increments <= 0):
        raise ValueError("growth profile must be increasing")
    # edges are enumerated in node order for the single chain direction
    return dataclasses.replace(sample, growth=increments)


def one_d_chain_energy(profile: GrowthProfile, n: int, rest: float, law: SpringLaw, f: float,
                       opts: SolverOptions | None = None) -> float:
    """Per-cell energy of the relaxed grown chain stretched to mean F."""
    sample = one_d_chain(profile, n, rest, law)
    report = minimize(sample, AffineBoundary(np.array([[float(f)]])), opts)
    if not report.converged:
        raise ConvergenceError(f"chain relaxation failed: {report.message}")
    return report.per_cell_energy


def one_d_continuum_energy(profile: GrowthProfile, law: SpringLaw, rest: float, f: float) -> float:
    """Continuum energy min over u of the integral of G**p W(Du / (L G))
    with u(0) = 0, u(1) = F, solved through the stationarity condition:
    the weighted stress G**p W'(Du/(LG)) / (LG) is constant in x."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    profile.check()
    if f <= 0:
        raise ValueError("mean stretch F must be positive")
    q, p, big_l = law.q, law.p, float(rest)
    if law.profile is not None:
        raise ValueError("continuum closed form requires the power-law profile")

    def stretch(x, sigma):
        g = profile.rate(x)
        y = sigma * big_l * g ** (1.0 - p) / q
        return 1.0 + np.sign(y) * np.abs(y) ** (1.0 / (q - 1.0))

    def mean_displacement(sigma):
        val, _ = quad(lambda x: big_l * profile.rate(x) * stretch(x, sigma), 0.0, 1.0, limit=200)
        return val - f

    lo, hi = -1.0, 1.0
    while mean_displacement(lo) > 0:
        lo *= 2.0
        if lo < -1e12:
            raise ConvergenceError("failed to bracket the stress")
    while mean_displacement(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise ConvergenceError("failed to bracket the stress")
    sigma = brentq(mean_displacement, lo, hi, xtol=1e-14, rtol=8.9e-16)

    probe = np.linspace(0.0, 1.0, 257)
    if np.any(stretch(probe, sigma) < 0):
        raise ConvergenceError("mean stretch is too compressive for the stationarity form")

    def integrand(x):
        g = profile.rate(x)
        return g**p * float(profile_energy(law, stretch(x, sigma)))

    energy, _ = quad(integrand, 0.0, 1.0, limit=200)
    return float(energy)
