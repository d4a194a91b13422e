"""Discrete energy minimisation on finite lattice samples.

The inner problem behind the continuum energy density: interior nodes
relax under affine boundary data u(x) = F x while boundary nodes stay
pinned.  The reported per-cell energy counts one spring of each direction
per unit cell (the springs excluded by that convention connect boundary
nodes only, so minimisers are unaffected), which makes the per-cell value
of a homogeneous sample agree with the Cauchy-Born density at every N.

The relaxation, `relax_branch`, is a Newton method on the exact energy,
gradient and interior Hessian, all three built from one call of the spring
kernel (`springs.spring_terms`) per iterate; the per-edge Hessian blocks use
the arithmetic of `springs.spring_hessian_block`, which the Cauchy-Born
Hessian shares.  The interior degrees of freedom are numbered in node order
(`FiniteLatticeSample.interior_nodes`), which makes the Hessian banded.
Edge vectors, gradient and band are each assembled one lattice direction
at a time, by slices of the node grid that `build_sample`'s edge layout
gives (`FiniteLatticeSample.direction_plan`): the band goes straight into
LAPACK's lower band storage, and no per-edge index array is used.

Every step factors that band by Cholesky, which also tests the Hessian for
positive definiteness: the solve follows the affine (unbuckled) branch
only while it is stable, and stops where it ends.
"""

import dataclasses
from dataclasses import dataclass
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
    # degrees of freedom; the step limit is fixed (_BRANCH_MAX_STEPS)
    gtol_rel: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.gtol_rel < np.inf:
            raise ValueError(f"gtol_rel must be finite and positive, got {self.gtol_rel}")


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
    d, grid = np.empty((sample.n_edges, sample.dimension)), positions.reshape(sample.direction_plan.nodes)
    for run, box, tail, head, _ in sample.direction_plan.runs:
        np.subtract(grid[head], grid[tail], out=d[run].reshape(box + (-1,)))
    r = np.linalg.norm(d, axis=-1)
    return d, r, spring_terms(sample.law, r, sample.rest * sample.growth, sample.growth**sample.law.p, order)


class _Iterate:
    """Energy, gradient and interior Hessian of a sample at one set of node
    positions, from one call of the spring kernel, assembled by direction on
    the node grid.  The Hessian is assembled on request, into a band the caller holds."""

    def __init__(self, sample: FiniteLatticeSample, positions: np.ndarray):
        self.sample, self.positions = sample, positions
        plan, grid = sample.direction_plan, positions.reshape(sample.direction_plan.nodes)
        self._springs = d, r, (self.edge_energies, slope, _) = _edge_terms(sample, positions, 2)
        self.energy = float(np.sum(self.edge_energies))
        force = per_length(slope, r)[:, None] * d  # contribution along each edge
        heads, tails = np.zeros((2,) + plan.nodes)  # summed apart, then subtracted, node by node
        for run, box, tail, head, _ in plan.runs:
            at_heads, at_tails, f = heads[head], tails[tail], force[run].reshape(box + (-1,))
            at_heads += f
            at_tails += f
        self.gradient = (heads - tails).reshape(positions.shape)
        self.x = grid[plan.interior].reshape(-1)
        self.grad = self.gradient.reshape(plan.nodes)[plan.interior].reshape(-1)
        self.grad_norm = float(np.max(np.abs(self.grad))) if self.grad.size else 0.0

    def band(self, out: np.ndarray) -> np.ndarray:
        """Fill `out`, laid out as the sample's `direction_plan` says, with the
        interior Hessian on and below the diagonal, and return it.  The edge
        blocks are those of `springs.spring_hessian_block`, to the bit."""
        plan = self.sample.direction_plan
        d, r, (_, slope, curvature) = self._springs
        tension = per_length(slope, r)
        a, b = zip(*plan.pairs)
        parts = per_length(curvature - tension, r * r)[:, None] * (d[:, a] * d[:, b])
        parts[:, :self.sample.dimension] += tension[:, None]  # the pairs (a, a) come first
        out.fill(0.0)
        grid = out.reshape(plan.band)
        for run, box, _, _, ops in plan.runs:
            block = parts[run].reshape(box + (-1,))
            for dest, src, subtract in ops:
                (np.subtract if subtract else np.add)(grid[dest], block[src], out=grid[dest])
        return out

    def moved(self, x: np.ndarray) -> "_Iterate":
        plan = self.sample.direction_plan
        positions = self.positions.copy()
        positions.reshape(plan.nodes)[plan.interior] = x.reshape(plan.band[:-1])
        return _Iterate(self.sample, positions)

    def converged(self, opts: SolverOptions) -> bool:
        return self.grad_norm <= opts.gtol_rel * (1.0 + abs(self.energy))


def total_energy(sample: FiniteLatticeSample, positions: np.ndarray) -> float:
    """Sum over all edges of g**p W(||u(x+v) - u(x)|| / (L g))."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (sample.n_nodes, sample.dimension):
        raise ValueError(f"positions must have shape {(sample.n_nodes, sample.dimension)}")
    return float(np.sum(_edge_terms(sample, positions, 0)[2][0]))


def energy_and_gradient(sample: FiniteLatticeSample, positions: np.ndarray):
    """Total energy and its gradient in all node positions (an entry point of bench/spans.py)."""
    it = _Iterate(sample, np.asarray(positions, dtype=float))
    return it.energy, it.gradient


def _affine_start(sample: FiniteLatticeSample, boundary: AffineBoundary) -> _Iterate:
    f = np.asarray(boundary.f, dtype=float)
    if f.shape != (sample.dimension, sample.dimension):
        raise ValueError("boundary gradient shape must match the sample dimension")
    return _Iterate(sample, sample.affine_positions(f))


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


# The bench fingerprints pin which branch solves fail, so these stay fixed.
_BRANCH_MAX_STEPS = 60     # Newton steps, taken or not, before a branch solve gives up
_FIRST_RADIUS = 0.25       # first trust radius, in the largest nodal displacement of a step


def relax_branch(
    sample: FiniteLatticeSample,
    boundary: AffineBoundary,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Equilibrium on the unbuckled branch, followed only while it is
    stable: trust-region Newton from the affine state on the exact gradient
    g and interior Hessian H (Nocedal & Wright, ch. 4).

    The banded Cholesky factorisation (dpbtrf) of H also tests H for
    positive definiteness.  Where it fails, the stable branch has ended
    (for the square lattice under compression, the known loss of
    Cauchy-Born stability; Friesecke & Theil, J. Nonlinear Sci. 12, 2002),
    and the solve stops unconverged without taking a step.  A failed pivot
    of 0 (or NaN), or a step that is not finite, is reported as a singular
    Hessian instead.  The test covers every iterate a step is taken from,
    but not the state where the gradient test is met, so a converged state
    is not certified.  Negative curvature is never followed, so the solve
    cannot leave the branch for the folded minima that strong compression
    also has, which the homogenised Cauchy-Born form cannot describe.

    The step is the Newton step -H^-1 g, cut back to the trust radius in the
    largest nodal displacement where it is longer.  The radius starts at
    0.25; it is quartered where the energy falls by less than a quarter of
    the quadratic model's prediction, and doubled where a cut-back step gets
    more than three quarters of it.  A step that lowers the energy is taken.
    At most 60 steps, taken or not.  Convergence means
    max|g| <= gtol_rel * (1 + |E|) over the interior; anything else is
    reported, never silent.
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    opts = opts or SolverOptions()
    if sample.dimension > 2:
        raise ValueError("relaxation supports dimensions 1 and 2")
    # refilled at each step and factored in place; taken before the first
    # iterate, so it can reuse the memory the previous solve's band freed
    band = np.empty(sample.direction_plan.band).reshape(-1, sample.direction_plan.band[-1])
    it = _affine_start(sample, boundary)
    radius, steps = _FIRST_RADIUS, 0
    reason = f"no convergence in {_BRANCH_MAX_STEPS} Newton steps"
    while not it.converged(opts) and steps < _BRANCH_MAX_STEPS:
        factor, info = dpbtrf(it.band(band).T, lower=1, overwrite_ab=1)
        # on failure, info names the first leading minor that is not positive
        # and its pivot is left in place
        if info > 0 and factor[0, info - 1] < 0.0:
            reason = "Hessian not positive definite on the affine branch"
            break
        delta = dpbtrs(factor, -it.grad, lower=1)[0] if info == 0 else None
        if delta is None or not np.all(np.isfinite(delta)):
            reason = "singular Hessian on the affine branch"
            break
        slope = it.grad @ delta  # -delta.H.delta, negative as H is positive definite
        cap = radius / np.max(np.abs(delta))
        scale = min(1.0, cap)
        delta *= scale
        trial = it.moved(it.x + delta)
        steps += 1
        predicted = -scale * (slope - 0.5 * scale * slope)  # fall of the quadratic model
        rho = (it.energy - trial.energy) / predicted
        if not rho >= 0.25:  # also where the trial energy is not finite
            radius /= 4.0
        elif rho > 0.75 and cap <= 1.0:
            radius *= 2.0
        if rho > 0.0:
            it = trial
    return _report(it, steps, opts, reason)


# `bench/spans.py` wraps this name; ROADMAP item 4's benchmark change deletes it.
minimize = relax_branch


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
    report = relax_branch(sample, AffineBoundary(np.array([[float(f)]])), opts)
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
