import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growlat import springs


def test_profile_energy_at_rest():
    law = springs.SpringLaw(q=2)
    assert springs.profile_energy(law, 1.0) == 0.0


def test_profile_energy_quadratic():
    law = springs.SpringLaw(q=2)
    assert springs.profile_energy(law, 1.1) == pytest.approx(0.01, rel=1e-12)


def test_profile_energy_cubic_uses_absolute_value():
    # |0.8 - 1|^3, not (0.8 - 1)^3
    law = springs.SpringLaw(q=3)
    assert springs.profile_energy(law, 0.8) == pytest.approx(0.008, rel=1e-12)
    assert springs.profile_energy(law, 0.8) > 0


def test_profile_energy_rejects_negative_stretch():
    with pytest.raises(ValueError):
        springs.profile_energy(springs.SpringLaw(), -0.1)


def test_invalid_exponent():
    with pytest.raises(ValueError):
        springs.SpringLaw(q=1)
    with pytest.raises(ValueError):
        springs.SpringLaw(q=0)


def spring_energy(law, rest, current):
    """Two-argument energy l**p W(e / l) of a spring with rest length l and
    current length e: the kernel with scale = l and weight = l**p."""
    return springs.spring_terms(law, current, rest, rest**law.p)[0]


def test_growable_energy_recombination():
    law = springs.SpringLaw(q=2, p=0.0)
    assert spring_energy(law, 2.0, 2.2) == pytest.approx(0.01, rel=1e-12)
    assert spring_energy(law, 3.7, 3.7) == 0.0


def test_growable_energy_replication():
    law = springs.SpringLaw(q=2, p=1.0)
    assert spring_energy(law, 2.0, 2.2) == pytest.approx(0.02, rel=1e-12)


def homogeneity_bound(law, eta, rest, current, rhs):
    """Forward-error bound on |E(eta l, eta e) - eta**p E(l, e)| for
    E(l, e) = l**p W(e / l).  Both sides evaluate W at a rounded stretch:
    fl(fl(eta e) / fl(eta l)) and fl(e / l) each lie within 3 rounding
    errors of e / l, so they differ by at most dx = 6 eps x.  To second
    order, W changes by at most |W'(x)| dx + max|W''| dx**2 / 2 over
    [x - dx, x + dx]; the second term covers x within a few ulps of 1, where
    W'(x) ~ 0.  The weights and W's own rounding differ relatively by a few
    eps, which 1e-12 |rhs| covers."""
    x = current / rest
    dx = 6 * np.finfo(float).eps * x
    curvature = np.max(springs.spring_terms(law, np.array([x - dx, x + dx]), 1.0, 1.0, 2)[2])
    change = abs(law.deriv(x)) * dx + 0.5 * curvature * dx**2
    return eta**law.p * rest**law.p * change + 1e-12 * abs(rhs)


@settings(max_examples=200, deadline=None)
@given(
    eta=st.floats(0.05, 20.0),
    rest=st.floats(0.05, 20.0),
    current=st.floats(0.0, 40.0),
    p=st.sampled_from([0.0, 1.0, 0.5]),
    q=st.sampled_from([2, 3, 4]),
)
@example(eta=4.75, rest=2.00001, current=2.0, p=0.0, q=2)  # relative error 4.4e-11 near rest
def test_homogeneity(eta, rest, current, p, q):
    law = springs.SpringLaw(q=q, p=p)
    lhs = spring_energy(law, eta * rest, eta * current)
    rhs = eta**p * spring_energy(law, rest, current)
    assert abs(lhs - rhs) <= homogeneity_bound(law, eta, rest, current, rhs)


@pytest.mark.parametrize("eta,rest,current", [(4.75, 2.00001, 2.0), (1.5, 1.0, 1.3), (0.5, 2.0, 0.7)])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_homogeneity_bound_rejects_a_wrong_weight_exponent(eta, rest, current, p):
    # weight l**(p + 1) in place of l**p scales the left side by eta
    law = springs.SpringLaw(q=2, p=p)
    lhs = springs.spring_terms(law, eta * current, eta * rest, (eta * rest) ** (p + 1))[0]
    rhs = eta**p * springs.spring_terms(law, current, rest, rest ** (p + 1))[0]
    assert abs(lhs - rhs) > homogeneity_bound(law, eta, rest, current, rhs)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_linearization_richardson(p):
    # energy ~ 0.5 W''(1) (eps - gam)^2 with cubic remainder
    law = springs.SpringLaw(q=2, p=p)
    gam0, eps0 = 0.7, -0.4
    remainders = []
    for h in (1e-2, 5e-3, 2.5e-3):
        exact = spring_energy(law, 1 + h * gam0, 1 + h * eps0)
        quad = 0.5 * 2.0 * (h * eps0 - h * gam0) ** 2
        remainders.append(abs(exact - quad))
    # remainder scales like h^3: halving h cuts it by ~8
    assert remainders[0] / remainders[1] == pytest.approx(8.0, rel=0.2)
    assert remainders[1] / remainders[2] == pytest.approx(8.0, rel=0.2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rest_state_is_global_minimum_on_grid(q):
    law = springs.SpringLaw(q=q)
    xs = np.linspace(0.1, 5.0, 491)
    vals = springs.profile_energy(law, xs)
    assert np.all(vals >= 0.0)
    assert springs.profile_energy(law, 1.0) == 0.0
    assert vals.min() >= 0.0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_profile_convexity_random_midpoints(q):
    law = springs.SpringLaw(q=q)
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 5.0, 500)
    b = rng.uniform(0.0, 5.0, 500)
    mid = springs.profile_energy(law, (a + b) / 2)
    avg = (springs.profile_energy(law, a) + springs.profile_energy(law, b)) / 2
    assert np.all(mid <= avg + 1e-12)


def test_profile_first_derivative_vanishes_at_rest():
    law = springs.SpringLaw(q=2)
    h = 1e-6
    fd = (springs.profile_energy(law, 1 + h) - springs.profile_energy(law, 1 - h)) / (2 * h)
    assert abs(fd) < 1e-9
    assert law.deriv(1.0) == 0.0



def reference_terms(law, r, scale, weight, order):
    """The kernel's terms as the law's three expressions evaluated apart,
    each from its own x - 1: weight * W^(k)(r / scale) / scale**k."""
    q, x = law.q, r / scale
    value = np.abs(x - 1.0) ** q
    deriv = q * np.abs(x - 1.0) ** (q - 1) * np.sign(x - 1.0)
    second = q * (q - 1) * np.abs(x - 1.0) ** (q - 2)
    return [weight * value, weight * deriv / scale, weight * second / scale**2][: order + 1]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_spring_terms_are_the_law_expressions_to_the_bit(q, p, order):
    rng = np.random.default_rng(q + 10 * order)
    growth = rng.uniform(0.8, 1.2, (3, 40))
    scale = rng.uniform(0.8, 1.5, 40) * growth
    # stretches on both sides of 1, exactly 1, and r = 0
    stretch = np.concatenate([[0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12], rng.uniform(0.3, 1.7, 36)])
    r = stretch * scale
    law = springs.SpringLaw(q=q, p=p)
    got = springs.spring_terms(law, r, scale, growth**p, order)
    want = reference_terms(law, r, scale, growth**p, order)
    assert len(got) == order + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_per_length_is_the_two_where_form_to_the_bit():
    rng = np.random.default_rng(6)
    r = rng.uniform(0.0, 2.0, (4, 30))
    r[:, :5] = 0.0
    values = rng.standard_normal((4, 30))
    want = np.where(r > 0, values / np.where(r > 0, r, 1.0), 0.0)
    got = springs.per_length(values, r)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[:, :5] == 0.0)
