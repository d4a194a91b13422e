"""Growable-spring energetics.

A growable spring carries a rest length `l` and a current length `e`.
Elastic deformation changes `e`; growth changes `l`.  The elastic energy
is positively p-homogeneous in (l, e):

    energy(l, e) = l**p * W(e / l)

where W is a convex stretch profile with W(1) = 0 and W'(1) = 0.
p = 0 models recombination (constant-mass rearrangement, "remodelling");
p = 1 models replication (mass-adding growth).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerProfile:
    """Convex stretch profile |x - 1|**q with integer exponent q >= 2.

    The absolute value keeps the rest stretch x = 1 a global minimum for
    odd q as well; for even q it coincides with (x - 1)**q.
    """

    q: int = 2

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise ValueError(f"profile exponent must be an integer >= 2, got {self.q}")

    def value(self, x):
        return np.abs(np.asarray(x, dtype=float) - 1.0) ** self.q

    def deriv(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.q * np.abs(t) ** (self.q - 1) * np.sign(t)

    def second(self, x):
        t = np.asarray(x, dtype=float) - 1.0
        return self.q * (self.q - 1) * np.abs(t) ** (self.q - 2)


@dataclass(frozen=True)
class SpringLaw:
    """Scalar energy law of a growable spring.

    q selects the power-law profile |x - 1|**q; p is the homogeneity
    degree of the two-argument energy (0 = recombination, 1 = replication).
    Any object with value/deriv/second methods may be supplied as a custom
    convex profile, in which case q is ignored.
    """

    q: int = 2
    p: float = 0.0
    profile: object | None = None

    def __post_init__(self):
        if self.profile is None and (int(self.q) != self.q or self.q < 2):
            raise ValueError(f"power-law exponent must be an integer >= 2, got {self.q}")

    @property
    def stretch_profile(self):
        return self.profile if self.profile is not None else PowerProfile(self.q)


def profile_energy(law: SpringLaw, x):
    """Energy W(x) of a unit spring at stretch ratio x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("stretch ratio must be non-negative")
    return law.stretch_profile.value(x)


def profile_deriv(law: SpringLaw, x):
    """Derivative W'(x) of the stretch profile."""
    return law.stretch_profile.deriv(np.asarray(x, dtype=float))


def growable_energy(law: SpringLaw, rest, current):
    """Two-argument energy l**p * W(e / l) of a spring with rest length l
    and current length e."""
    rest = np.asarray(rest, dtype=float)
    current = np.asarray(current, dtype=float)
    if np.any(rest <= 0):
        raise ValueError("rest length must be positive")
    if np.any(current < 0):
        raise ValueError("current length must be non-negative")
    return rest**law.p * profile_energy(law, current / rest)


def spring_terms(law: SpringLaw, vectors, scale, weight, order: int = 0):
    """The spring kernel: lengths r = ||vectors|| over the last axis, and

        weight * W^(k)(r / scale) / scale**k    for k = 0, ..., order.

    With scale = L g (the grown rest length) and weight = g**p these are the
    energy g**p W(r / (L g)) of a grown spring and its first and second
    derivatives in r.  W^(k) comes from `law.stretch_profile`, so custom
    profiles work wherever the kernel is used.  Returns (r, [terms]).
    """
    r = np.linalg.norm(vectors, axis=-1)
    x = r / scale
    profile = law.stretch_profile
    terms = [weight * profile.value(x)]
    if order >= 1:
        terms.append(weight * profile.deriv(x) / scale)
    if order >= 2:
        terms.append(weight * profile.second(x) / scale**2)
    return r, terms


def per_length(values, r):
    """values / r, with 0 where r = 0: a collapsed spring has no direction,
    so it exerts no force along one."""
    return np.where(r > 0, values / np.where(r > 0, r, 1.0), 0.0)
