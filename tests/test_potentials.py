"""Potential families, norms against analytic ball/Gaussian integrals, scaling laws."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condensate_lab import potentials as pot


def test_soft_sphere_norms_analytic():
    p = pot.soft_sphere(2.0, 1.0)
    n = pot.norms(p)
    vol = 4.0 * np.pi / 3.0
    assert abs(n.l1 - 2.0 * vol) < 1e-8 * vol
    assert abs(n.l2 - 2.0 * np.sqrt(vol)) < 1e-8
    assert abs(n.l3half - 2.0 * vol ** (2.0 / 3.0)) < 1e-8
    assert abs(n.first_moment - np.pi * 2.0) < 1e-8
    assert abs(n.second_moment_sup - 2.0) < 1e-12
    assert abs(n.hardy_integral - 4.0 * np.pi) < 1e-8
    assert abs(n.rho - (2.0 + 4.0 * np.pi)) < 1e-8


def test_gaussian_norms_analytic():
    p = pot.gaussian(1.0, 1.0)
    n = pot.norms(p)
    assert abs(n.l1 - np.pi**1.5) < 1e-8
    assert abs(n.l2 - (np.pi / 2.0) ** 0.75) < 1e-8
    assert abs(n.l3half - 2.0 * np.pi / 3.0) < 1e-8
    assert abs(n.first_moment - 2.0 * np.pi) < 1e-8
    assert abs(n.second_moment_sup - 1.0 / np.e) < 1e-12
    assert abs(n.hardy_integral - 2.0 * np.pi) < 1e-8


def test_zero_potential_all_norms_vanish():
    n = pot.norms(pot.zero_potential())
    assert all(v == 0.0 for v in n.as_dict().values())


def test_scaling_exactness_same_arithmetic_path():
    rng = np.random.default_rng(0)
    for p in (pot.soft_sphere(2.0, 1.0), pot.gaussian(1.5, 0.7)):
        for N in (2, 7, 31):
            sp = pot.scale(p, N)
            r = rng.uniform(0.0, 3.0, 50)
            assert np.array_equal(sp(r), N**2 * p.evaluator(N * r))


def test_scale_identity_at_one():
    p = pot.gaussian(1.0, 1.0)
    sp = pot.scale(p, 1)
    r = np.linspace(0, 5, 100)
    assert np.array_equal(sp(r), p(r))


def test_norm_scaling_laws():
    p = pot.gaussian(1.0, 1.0)
    base = pot.norms(p)
    for N in (2, 7, 10):
        n = pot.norms(pot.scale(p, N))
        assert abs(n.l1 - base.l1 / N) < 1e-8 * base.l1
        assert abs(n.first_moment - base.first_moment / N**2) < 1e-8 * base.first_moment
        assert abs(n.l3half - base.l3half) < 1e-8 * base.l3half
        assert abs(n.rho - base.rho) < 1e-8 * base.rho


def test_scaled_l1_matches_quadrature_for_soft_sphere():
    p = pot.soft_sphere(2.0, 1.0)
    n10 = pot.norms(pot.scale(p, 10))
    assert abs(n10.l1 - pot.norms(p).l1 / 10.0) < 1e-8


def test_invalid_scale_rejected():
    p = pot.gaussian(1.0, 1.0)
    with pytest.raises(pot.PotentialError, match="invalid scale"):
        pot.scale(p, 0)


def test_tabulated_rejects_negative_samples():
    with pytest.raises(pot.PotentialError, match="repulsivity violated"):
        pot.tabulated([0.0, 1.0, 2.0], [1.0, -0.1, 0.0])


def test_tabulated_interpolation_stays_nonnegative():
    r = np.linspace(0.0, 3.0, 13)
    v = np.maximum(2.0 - r, 0.0)
    p = pot.tabulated(r, v)
    rr = np.linspace(0.0, 4.0, 400)
    vals = p(rr)
    assert np.all(vals >= 0.0)
    assert abs(p(np.array([0.5]))[0] - 1.5) < 1e-10
    assert p(np.array([3.5]))[0] == 0.0


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("# r, V\n0.0,2.0\n1.0,1.0\n2.0,0.0\n")
    p = pot.tabulated_from_csv(path)
    assert p.family == "tabulated"
    assert abs(p(np.array([1.0]))[0] - 1.0) < 1e-12


def test_divergent_norm_for_slow_decay():
    p = pot.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.2], sigma=2.5)
    with pytest.raises(pot.PotentialError, match="divergent norm"):
        pot.norms(p)


def test_decay_hypothesis_flag():
    assert pot.gaussian(1.0, 1.0).meets_decay_hypothesis
    assert not pot.tabulated([0.0, 1.0], [1.0, 0.5], sigma=4.0).meets_decay_hypothesis


def test_from_config_round_trip_and_errors():
    spec = {"family": "soft-sphere", "v0": 2.0, "radius": 1.0}
    p = pot.from_config(spec)
    assert p.params == {"v0": 2.0, "radius": 1.0}
    with pytest.raises(pot.PotentialError, match="unknown potential family"):
        pot.from_config({"family": "lennard-jones"})


def test_born_length_is_l1_over_8pi():
    p = pot.gaussian(1.0, 1.0)
    assert abs(pot.born_scattering_length(p) - np.pi**1.5 / (8 * np.pi)) < 1e-9


def test_unit_l1_normalization():
    for p in (pot.gaussian(2.0, 0.7), pot.soft_sphere(2.0, 1.0)):
        unit = pot.unit_l1(p)
        assert abs(pot.norms(unit).l1 - 1.0) < 1e-8
        assert unit.breakpoints == p.breakpoints
    with pytest.raises(pot.PotentialError):
        pot.unit_l1(pot.zero_potential())


def test_second_moment_sup_after_unit_l1_and_scale():
    unit = pot.unit_l1(pot.gaussian(3.0, 1.0))
    assert abs(pot.norms(unit).second_moment_sup - 3.0 / np.e / (3.0 * np.pi**1.5)) < 1e-12
    ball = pot.scale(pot.unit_l1(pot.soft_sphere(2.0, 1.0)), 3)
    assert abs(pot.norms(ball).second_moment_sup - 3.0 / (4.0 * np.pi)) < 1e-12


# ---------------------------------------------------------------------------
# Properties of the (amplitude, rate) algebra under every transform
# ---------------------------------------------------------------------------

_positive = st.floats(0.3, 3.0)

_bases = st.one_of(
    st.builds(pot.soft_sphere, _positive, _positive),
    st.builds(pot.gaussian, _positive, _positive),
    st.builds(
        lambda v0, r_end: pot.tabulated(
            np.linspace(0.0, r_end, 9), v0 * (1.0 - np.linspace(0.0, 1.0, 9)) ** 2
        ),
        _positive,
        _positive,
    ),
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


def _rel(a, b):
    return abs(a - b) / abs(b)


@settings(max_examples=40, deadline=None)
@given(_composed())
def test_second_moment_sup_matches_dense_scan(p):
    r = np.linspace(0.0, p.range_hint, 200001)
    scan = float(np.max(r**2 * p(r)))
    assert _rel(pot.norms(p).second_moment_sup, scan) < 1e-3


@settings(max_examples=20, deadline=None)
@given(_composed(), st.integers(2, 8))
def test_scale_divides_l1_and_keeps_rho(p, N):
    base, scaled = pot.norms(p), pot.norms(pot.scale(p, N))
    assert _rel(scaled.l1, base.l1 / N) < 1e-7
    assert _rel(scaled.rho, base.rho) < 1e-7


@settings(max_examples=20, deadline=None)
@given(_composed(), st.floats(0.01, 4.0))
@example(pot.scale(pot.gaussian(1.0, 0.3), 36), 0.01)  # range_hint 5e-4
def test_l1_invariant_along_alpha_ladder(p, alpha):
    assert _rel(pot.norms(pot.dilate(p, alpha)).l1, pot.norms(p).l1) < 1e-7
