"""Growable-spring energetics.

A growable spring carries a rest length `l` and a current length `e`.
Elastic deformation changes `e`; growth changes `l`.  The elastic energy
is positively p-homogeneous in (l, e):

    energy(l, e) = l**p * W(e / l)

where W(x) = |x - 1|**q, with integer q >= 2, is the convex stretch profile
with W(1) = 0 and W'(1) = 0.  p = 0 models recombination (constant-mass
rearrangement, "remodelling"); p = 1 models replication (mass-adding growth).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpringLaw:
    """Scalar energy law of a growable spring: the stretch profile
    W(x) = |x - 1|**q, whose absolute value keeps x = 1 a global minimum for
    odd q as well, and the homogeneity degree p.  `derivative` holds the
    formulas of W, W' and W''; `value` and `deriv` are W and W' at x."""

    q: int = 2
    p: float = 0.0

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError(f"power-law exponent must be an integer >= 2, got {self.q}")

    def derivative(self, k: int, t, a):
        """W^(k)(1 + t) for k = 0, 1 or 2, from the shifted stretch t = x - 1
        and a = |t|; a new array.  The only place the law's formulas live."""
        q = self.q
        if k == 0:
            return a**q
        if k == 1:
            return q * a ** (q - 1) * np.sign(t)
        return q * (q - 1) * a ** (q - 2)

    def value(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.derivative(0, t, np.abs(t))

    def deriv(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.derivative(1, t, np.abs(t))


def profile_energy(law: SpringLaw, x):
    """Energy W(x) of a unit spring at stretch ratio x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("stretch ratio must be non-negative")
    return law.value(x)


def spring_terms(law: SpringLaw, r, scale, weight, order: int = 0):
    """The spring kernel: for spring lengths r,

        weight * W^(k)(r / scale) / scale**k    for k = 0, ..., order.

    With scale = L g (the grown rest length) and weight = g**p these are the
    energy g**p W(r / (L g)) of a grown spring and its first and second
    derivatives in r.  The shifted stretch t = r / scale - 1 and its
    absolute value are formed once, and every order shares them; each term
    is the law's `derivative`, scaled in place, and the same to the bit as
    weight * W^(k)(x) / scale**k evaluated order by order.  At order 0 the
    sign of t is not needed, so |t| overwrites t, and a stack of lengths
    costs two arrays of its size beyond r.  weight broadcasts to the shape
    of r / scale.  The discrete solver and the Cauchy-Born density both call
    it.  Returns [terms].
    """
    t = np.asarray(r / scale, dtype=float)
    t -= 1.0
    a = np.abs(t, out=t) if order == 0 else np.abs(t)
    terms = []
    for k in range(order + 1):
        term = law.derivative(k, t, a)
        term *= weight
        if k:
            term /= scale if k == 1 else scale**2
        terms.append(term)
    return terms


def root_sum_squares(squares: np.ndarray, axis: int) -> np.ndarray:
    """Lengths from squared components: the root of their sum over `axis`,
    taken slice by slice in index order into one new array (see
    `sum_slices`).  `np.linalg.norm` sums fewer than 8 components in index
    order too, so for D < 8 the lengths are its own to the bit, without its
    conjugate copy or its reduction along a short axis."""
    total = sum_slices(squares, axis)
    return np.sqrt(total, out=total)


def sum_slices(a: np.ndarray, axis: int):
    """np.sum(a, axis) as a loop over whole slices in index order: on a
    large stack with a short axis, numpy's reduction loop runs once per
    output element and costs several times as much.  numpy adds fewer than
    8 terms in index order too, so there the sum is the same to the bit;
    from 8 terms on numpy sums pairwise and the two agree to rounding."""
    index = (slice(None),) * (axis % a.ndim)
    total = a[index + (0,)].copy()
    for k in range(1, a.shape[axis]):
        total += a[index + (k,)]
    return total


def per_length(values, r):
    """values / r, with 0 where r = 0: a collapsed spring has no direction,
    so it exerts no force along one.  One division, masked to r > 0."""
    return np.divide(values, r, out=np.zeros(np.broadcast(values, r).shape), where=r > 0)


def spring_hessian_block(d, r, slope, curvature):
    """Per spring, the DxD second derivative of its energy E(||d||) in its
    vector d: (E' / r) I + (E'' - E' / r) d d^T / r^2, with r = ||d|| and
    E' = slope, E'' = curvature from `spring_terms`.  Shared by the discrete
    and the Cauchy-Born Hessians; shape (..., D, D)."""
    tension = per_length(slope, r)
    return (per_length(curvature - tension, r * r)[..., None, None] * (d[..., :, None] * d[..., None, :])
            + tension[..., None, None] * np.eye(d.shape[-1]))
