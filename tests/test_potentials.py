"""Potential families, int V against closed forms and quadrature, scaling laws."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condensate_lab import potentials as pot


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_soft_sphere_norms_analytic():
    p = pot.soft_sphere(2.0, 1.0)
    assert _rel(p.l1, 2.0 * 4.0 * np.pi / 3.0) < 1e-14


def test_gaussian_norms_analytic():
    assert _rel(pot.gaussian(1.0, 1.0).l1, np.pi**1.5) < 1e-14
    assert _rel(pot.gaussian(2.5, 0.3).l1, 2.5 * np.pi**1.5 * 0.3**3) < 1e-14


def test_zero_potential_all_norms_vanish():
    p = pot.zero_potential()
    assert p.l1 == 0.0
    assert pot.born_scattering_length(p) == 0.0


def test_scaling_exactness_same_arithmetic_path():
    # scale multiplies the amplitude v0 by N^2: N^2 V(N r) but for the rounding of v0 N^2,
    # and bit for bit where v0 N^2 is exact (v0 = 2)
    rng = np.random.default_rng(0)
    for p in (pot.soft_sphere(2.0, 1.0), pot.gaussian(1.5, 0.7)):
        for N in (2, 7, 31):
            sp = pot.scale(p, N)
            r = rng.uniform(0.0, 3.0, 50)
            assert np.array_equal(sp(r), (p.amplitude * N**2) * p.profile(N * r))
            assert np.allclose(sp(r), N**2 * p(N * r), rtol=2.3e-16, atol=0.0)
            if p.amplitude == 2.0:
                assert np.array_equal(sp(r), N**2 * p(N * r))


def test_scale_identity_at_one():
    p = pot.gaussian(1.0, 1.0)
    sp = pot.scale(p, 1)
    r = np.linspace(0, 5, 100)
    assert np.array_equal(sp(r), p(r))


def test_norm_scaling_laws():
    p = pot.gaussian(1.0, 1.0)
    for N in (2, 7, 10):
        assert _rel(pot.scale(p, N).l1, p.l1 / N) < 1e-14


def test_scaled_l1_matches_quadrature_for_soft_sphere():
    from scipy.integrate import quad

    p = pot.soft_sphere(2.0, 1.0)
    p10 = pot.scale(p, 10)
    ball, _ = quad(lambda r: 4.0 * np.pi * r**2 * 200.0, 0.0, 0.1)
    assert _rel(p10.l1, p.l1 / 10.0) < 1e-14
    assert _rel(p10.l1, ball) < 1e-14


def test_invalid_scale_rejected():
    p = pot.gaussian(1.0, 1.0)
    with pytest.raises(pot.PotentialError, match="invalid scale"):
        pot.scale(p, 0)
    # an int N^2 past float range, and a float amplitude N^2 A past it
    for p, N in ((p, 10**200), (pot.gaussian(1e300, 1.0), 10**5)):
        with pytest.raises(pot.PotentialError, match="float range"):
            pot.scale(p, N)


def test_born_length_is_l1_over_8pi():
    p = pot.gaussian(1.0, 1.0)
    assert _rel(pot.born_scattering_length(p), np.pi**1.5 / (8 * np.pi)) < 1e-14


def test_unit_l1_normalization():
    for p in (pot.gaussian(2.0, 0.7), pot.soft_sphere(2.0, 1.0)):
        unit = pot.unit_l1(p)
        assert abs(unit.l1 - 1.0) < 1e-14
        assert unit.breakpoints == p.breakpoints
    with pytest.raises(pot.PotentialError):
        pot.unit_l1(pot.zero_potential())
    # int V = 5.6e-315, subnormal: 1 / int V is inf
    with pytest.raises(pot.PotentialError, match="float range"):
        pot.unit_l1(pot.gaussian(1.0, 1e-105))


def test_values_after_unit_l1_and_scale():
    unit = pot.unit_l1(pot.gaussian(3.0, 1.0))
    assert _rel(unit(np.asarray([0.0]))[0], 1.0 / np.pi**1.5) < 1e-14
    ball = pot.scale(pot.unit_l1(pot.soft_sphere(2.0, 1.0)), 3)
    assert _rel(ball(np.asarray([0.3]))[0], 9.0 * 3.0 / (4.0 * np.pi)) < 1e-14


# ---------------------------------------------------------------------------
# Properties of the (amplitude, rate) algebra under every transform
# ---------------------------------------------------------------------------

_positive = st.floats(0.3, 3.0)

_bases = st.one_of(
    st.builds(pot.soft_sphere, _positive, _positive),
    st.builds(pot.gaussian, _positive, _positive),
)

_transforms = st.lists(
    st.one_of(
        st.integers(1, 6).map(lambda N: lambda p: pot.scale(p, N)),
        st.just(pot.unit_l1),
        st.floats(0.1, 2.0).map(lambda a: lambda p: pot.dilate(p, a)),
    ),
    max_size=3,
)


@st.composite
def _composed(draw):
    p = draw(_bases)
    for transform in draw(_transforms):
        p = transform(p)
    return p


@settings(max_examples=40, deadline=None)
@given(_composed())
def test_l1_matches_radial_quadrature(p):
    from scipy.integrate import quad

    def f(r):
        return 4.0 * np.pi * r**2 * float(p(np.asarray([r]))[0])

    edges = [0.0, *p.breakpoints, p.range_hint]
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))
    total += quad(f, p.range_hint, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    assert _rel(p.l1, total) < 1e-10


@settings(max_examples=20, deadline=None)
@given(_composed(), st.integers(2, 8))
def test_scale_divides_l1(p, N):
    assert _rel(pot.scale(p, N).l1, p.l1 / N) < 1e-14


@settings(max_examples=20, deadline=None)
@given(_composed(), st.floats(0.01, 4.0))
@example(pot.scale(pot.gaussian(1.0, 0.3), 36), 0.01)  # range_hint 5e-4
def test_l1_invariant_along_alpha_ladder(p, alpha):
    assert _rel(pot.dilate(p, alpha).l1, p.l1) < 1e-14
