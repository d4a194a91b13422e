import numpy as np
import pytest
from hypothesis import given, settings
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
        springs.PowerProfile(q=0)


def test_growable_energy_recombination():
    law = springs.SpringLaw(q=2, p=0.0)
    assert springs.growable_energy(law, 2.0, 2.2) == pytest.approx(0.01, rel=1e-12)
    assert springs.growable_energy(law, 3.7, 3.7) == 0.0


def test_growable_energy_replication():
    law = springs.SpringLaw(q=2, p=1.0)
    assert springs.growable_energy(law, 2.0, 2.2) == pytest.approx(0.02, rel=1e-12)


def test_growable_energy_domain_errors():
    law = springs.SpringLaw()
    with pytest.raises(ValueError):
        springs.growable_energy(law, 0.0, 1.0)
    with pytest.raises(ValueError):
        springs.growable_energy(law, -1.0, 1.0)
    with pytest.raises(ValueError):
        springs.growable_energy(law, 1.0, -0.5)


@settings(max_examples=200, deadline=None)
@given(
    eta=st.floats(0.05, 20.0),
    rest=st.floats(0.05, 20.0),
    current=st.floats(0.0, 40.0),
    p=st.sampled_from([0.0, 1.0, 0.5]),
    q=st.sampled_from([2, 3, 4]),
)
def test_homogeneity(eta, rest, current, p, q):
    law = springs.SpringLaw(q=q, p=p)
    lhs = springs.growable_energy(law, eta * rest, eta * current)
    rhs = eta**p * springs.growable_energy(law, rest, current)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_linearization_richardson(p):
    # energy ~ 0.5 W''(1) (eps - gam)^2 with cubic remainder
    law = springs.SpringLaw(q=2, p=p)
    gam0, eps0 = 0.7, -0.4
    remainders = []
    for h in (1e-2, 5e-3, 2.5e-3):
        exact = springs.growable_energy(law, 1 + h * gam0, 1 + h * eps0)
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
    assert springs.profile_deriv(law, 1.0) == 0.0


def test_custom_profile_extension_point():
    class Quartic:
        def value(self, x):
            return (np.asarray(x) - 1.0) ** 4

        def deriv(self, x):
            return 4.0 * (np.asarray(x) - 1.0) ** 3

        def second(self, x):
            return 12.0 * (np.asarray(x) - 1.0) ** 2

    law = springs.SpringLaw(profile=Quartic())
    assert springs.profile_energy(law, 1.5) == pytest.approx(0.0625, rel=1e-12)
