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
    odd q as well, and the homogeneity degree p.  `value`, `deriv` and
    `second` are W, W' and W''."""

    q: int = 2
    p: float = 0.0

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError(f"power-law exponent must be an integer >= 2, got {self.q}")

    def value(self, x):
        return np.abs(np.asarray(x, dtype=float) - 1.0) ** self.q

    def deriv(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.q * np.abs(t) ** (self.q - 1) * np.sign(t)

    def second(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.q * (self.q - 1) * np.abs(t) ** (self.q - 2)


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
    derivatives in r, with W^(k) from the law's `value`, `deriv` and
    `second`.  The discrete solver and the Cauchy-Born density both call
    it.  Returns [terms].
    """
    x = r / scale
    terms = [weight * law.value(x)]
    if order >= 1:
        terms.append(weight * law.deriv(x) / scale)
    if order >= 2:
        terms.append(weight * law.second(x) / scale**2)
    return terms


def per_length(values, r):
    """values / r, with 0 where r = 0: a collapsed spring has no direction,
    so it exerts no force along one."""
    return np.where(r > 0, values / np.where(r > 0, r, 1.0), 0.0)


def spring_hessian_block(d, r, slope, curvature):
    """Per spring, the DxD second derivative of its energy E(||d||) in its
    vector d: (E' / r) I + (E'' - E' / r) d d^T / r^2, with r = ||d|| and
    E' = slope, E'' = curvature from `spring_terms`.  Shared by the discrete
    and the Cauchy-Born Hessians; shape (..., D, D)."""
    tension = per_length(slope, r)
    return (per_length(curvature - tension, r * r)[..., None, None] * (d[..., :, None] * d[..., None, :])
            + tension[..., None, None] * np.eye(d.shape[-1]))
