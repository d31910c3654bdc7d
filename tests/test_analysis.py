"""Kernel integrals, Gaussian-pair inequalities, and the pair cutoffs."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from condensate_lab import analysis as an
from condensate_lab import potentials as pot

PI2 = np.pi**2


def test_int1_at_zero_is_pi_squared():
    assert abs(an.kernel_integral("int1", 0.0) - PI2) < 1e-8


def test_int1_constant_in_p():
    # the quartic denominator factors so the value is p-independent;
    # numerically every sample must sit at pi^2 within quadrature tolerance
    for p in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        assert abs(an.kernel_integral("int1", p) - PI2) < 1e-6


def test_int1_sup_attained_at_origin_within_tolerance():
    v0 = an.kernel_integral("int1", 0.0)
    vals = [an.kernel_integral("int1", p) for p in (0.5, 2.0, 10.0, 50.0)]
    assert max(vals) <= v0 + 1e-6


def test_int1_angular_closed_form_against_quadrature():
    from scipy.integrate import quad

    for r, P in ((0.3, 1.5), (2.0, 0.7), (10.0, 50.0)):
        direct, _ = quad(
            lambda mu: 1.0
            / ((r * P * mu - r * r) ** 2 + r * r + P * P - 2 * r * P * mu + r * r + 1.0),
            -1.0,
            1.0,
            epsrel=1e-12,
        )
        assert abs(an._int1_mu_integral(r, P) - direct) < 1e-12 * max(direct, 1.0)


def test_trivv_beta_function_oracle():
    # radial reduction at p = 0: 4 pi [ (1/2) B(7/4, 1/4) + pi/4 ]
    oracle = 4.0 * np.pi * (0.5 * gamma(1.75) * gamma(0.25) + np.pi / 4.0)
    assert abs(an.kernel_integral("trivv", 0.0) - oracle) < 1e-6


def test_trivv_finite_and_decaying():
    vals = [an.kernel_integral("trivv", p) for p in (0.0, 1.0, 5.0, 20.0)]
    assert all(np.isfinite(v) for v in vals)
    assert vals[0] > vals[1] > vals[2] > vals[3] > 0.0


def test_unknown_kernel_kind():
    with pytest.raises(ValueError, match="unknown kernel"):
        an.kernel_integral("frob", 0.0)


def test_vl1_zero_potential():
    pair = an.random_pair(np.random.default_rng(0))
    assert an.vl1_check(pot.zero_potential(), pair) == 0.0


def test_vl1_ratio_bounded_by_kernel_constant():
    rng = np.random.default_rng(11)
    bound = PI2 / (2.0 * np.pi) ** 3
    p = pot.soft_sphere(2.0, 1.0)
    for _ in range(40):
        assert an.vl1_check(p, an.random_pair(rng)) <= bound


def test_vl1_translation_invariance():
    rng = np.random.default_rng(5)
    p = pot.gaussian(2.0, 0.8)
    pair = an.random_pair(rng)
    shift = np.array([0.7, -1.1, 0.3])
    moved = [an.GaussianFactor(f.center + shift, f.width, f.momentum) for f in (pair.a, pair.b, pair.c, pair.d)]
    r1 = an.vl1_check(p, pair)
    r2 = an.vl1_check(p, an.GaussianTestPair(*moved))
    assert abs(r1 - r2) <= 1e-9 * r1


def test_pairing_against_grid_riemann_oracle():
    rng = np.random.default_rng(2)
    pair = an.random_pair(rng, spread=0.5)
    p = pot.gaussian(1.5, 0.9)
    val = an.potential_pairing(pair, p)
    xs = np.linspace(-9.0, 9.0, 151)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    R = np.sqrt(X**2 + Y**2 + Z**2)
    A, B, K0 = an._correlation_params(pair)
    Kv = K0 * np.exp(-A * R**2 + (B[0] * X + B[1] * Y + B[2] * Z))
    brute = np.sum(p(R) * Kv) * (xs[1] - xs[0]) ** 3
    assert abs(brute - val) / abs(val) < 1e-6


def _whole_space_pairing(pair, v0, width):
    """int v0 e^{-|v|^2 / width^2} K(v) dv in closed form; width inf is the constant v0."""
    A, B, k0 = an._correlation_params(pair)
    a = A + 1.0 / width**2
    return v0 * k0 * (np.pi / a) ** 1.5 * np.exp(np.dot(B, B) / (4.0 * a))


@pytest.mark.parametrize(
    "V, width",
    [
        (pot.gaussian(1.0, 0.01), 0.01),
        (pot.gaussian(1.0, 1.0), 1.0),
        (pot.gaussian(1.0, 50.0), 50.0),
        # the ball is far wider than any K, so it pairs like the constant 2
        (pot.soft_sphere(2.0, 1e4), np.inf),
    ],
)
def test_pairing_matches_closed_forms(V, width):
    v0 = V.amplitude
    for spread in (0.5, 1.0, 3.0):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pair = an.random_pair(rng, spread)
            exact = _whole_space_pairing(pair, v0, width)
            assert abs(an.potential_pairing(pair, V) - exact) <= 1e-13 * abs(exact)


def test_pairing_on_a_table_breaks_panels_at_its_knots(monkeypatch):
    # PCHIP kinks at every sample: the sum converges only with an edge on each
    r = np.concatenate([[0.0], np.sort(np.random.default_rng(0).uniform(0.05, 2.3, 11)), [2.37]])
    V = pot.tabulated(r, 2.0 * np.exp(-(r**2)))
    assert V.knots == tuple(r)
    pairs = [an.random_pair(np.random.default_rng(seed)) for seed in range(5)]
    values = [an.potential_pairing(pair, V) for pair in pairs]
    monkeypatch.setattr(an, "_SPAN_PANELS", 100 * an._SPAN_PANELS)
    for pair, value in zip(pairs, values):
        reference = an.potential_pairing(pair, V)
        assert abs(value - reference) <= 1e-12 * abs(reference)


def test_vl1_is_finite_for_a_wide_soft_sphere():
    # sinh(s r) alone overflows long before the radius 1e4
    ratio = an.vl1_check(pot.soft_sphere(2.0, 1e4), an.random_pair(np.random.default_rng(0)))
    assert 0.0 < ratio < np.inf


def test_delta_pairing_is_quadruple_product_integral():
    rng = np.random.default_rng(4)
    pair = an.random_pair(rng, spread=0.4)
    xs = np.linspace(-9.0, 9.0, 151)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    A, B, K0 = an._correlation_params(pair)
    target = an.delta_pairing(pair)
    # K(0) must equal the closed form, and also the direct 4-factor overlap
    def g(f, conj):
        ex = -((X - f.center[0]) ** 2 + (Y - f.center[1]) ** 2 + (Z - f.center[2]) ** 2) / (
            2 * f.width**2
        )
        ph = f.momentum[0] * X + f.momentum[1] * Y + f.momentum[2] * Z
        val = (np.pi * f.width**2) ** -0.75 * np.exp(ex + 1j * ph)
        return np.conj(val) if conj else val

    brute = np.sum(
        g(pair.a, True) * g(pair.b, True) * g(pair.c, False) * g(pair.d, False)
    ) * (xs[1] - xs[0]) ** 3
    assert abs(brute - target) / abs(target) < 1e-6


def test_forms_against_grid_moments():
    f = an.GaussianFactor(center=np.array([0.3, -0.2, 0.5]), width=1.1, momentum=np.array([0.4, 0.0, -0.6]))
    g = an.GaussianFactor(center=np.array([-0.5, 0.1, 0.0]), width=0.8, momentum=np.array([-0.2, 0.3, 0.1]))
    ps = np.linspace(-12, 12, 241)
    P1, P2, P3 = np.meshgrid(ps, ps, ps, indexing="ij")

    def dens(fac):
        s2 = fac.width**2
        return (s2 / np.pi) ** 1.5 * np.exp(
            -s2 * ((P1 - fac.momentum[0]) ** 2 + (P2 - fac.momentum[1]) ** 2 + (P3 - fac.momentum[2]) ** 2)
        )

    h = ps[1] - ps[0]
    df, dg = dens(f), dens(g)
    mom = lambda d, w: np.sum(d * w) * h**3
    sx = np.array([[mom(df, Pa * Pb) for Pb in (P1, P2, P3)] for Pa in (P1, P2, P3)])
    sy = np.array([[mom(dg, Pa * Pb) for Pb in (P1, P2, P3)] for Pa in (P1, P2, P3)])
    expected = float(np.sum(sx * sy) + np.trace(sx) + np.trace(sy) + 1.0)
    assert abs(an.mixed_derivative_form(f, g) - expected) < 1e-6 * expected


def test_vl12_requires_unit_integral():
    pair = an.random_pair(np.random.default_rng(1))
    with pytest.raises(ValueError, match="unit integral"):
        an.vl12_rate(pot.gaussian(1.0, 1.0), pair, [0.5])


def test_vl12_scaled_potential_stays_normalized():
    base = pot.gaussian(1.0 / np.pi**1.5, 1.0)
    from scipy.integrate import quad

    for alpha in (1.0, 0.25, 0.03125):
        ev = pot.dilate(base, alpha)
        val, _ = quad(lambda r: 4 * np.pi * r**2 * float(ev([r])[0]), 0, 40 * alpha, limit=200)
        assert abs(val - 1.0) < 1e-8


def test_vl12_gap_ladder():
    base = pot.gaussian(1.0 / np.pi**1.5, 1.0)
    pair = an.random_pair(np.random.default_rng(3), spread=0.5)
    ladder = [0.5 / 2**j for j in range(11)]
    res = an.vl12_rate(base, pair, ladder)
    gaps = res["gaps"]
    assert all(b <= a + 1e-8 for a, b in zip(gaps[:-1], gaps[1:]))
    cfit = gaps[0] / (ladder[0] ** (1.0 / 12.0) * res["form_scale"])
    for g, a in zip(gaps, ladder):
        assert g <= cfit * a ** (1.0 / 12.0) * res["form_scale"] * (1 + 1e-9)
    # alpha -> 0 recovers the contact pairing
    tiny = an.vl12_rate(base, pair, [1e-3])["gaps"][0]
    assert tiny <= 1e-6


def test_vl12_gaps_do_not_depend_on_the_scale_of_v0():
    # v0 is the amplitude, which unit_l1 divides out before any dilation
    pair = an.random_pair(np.random.default_rng(0))
    ladder = [0.5 / 2**j for j in range(11)]
    gaps = {v0: np.array(an.vl12_rate(pot.unit_l1(pot.gaussian(v0, 1.0)), pair, ladder)["gaps"]) for v0 in (1e-300, 1.0, 1e300)}
    for v0 in (1e-300, 1e300):
        assert np.all(np.abs(gaps[v0] - gaps[1.0]) <= 1e-12 * gaps[1.0])


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


def test_cutoff_config_validation():
    with pytest.raises(ValueError):
        an.CutoffConfig(ell=-0.1, eps=0.1, n=1, k=1, N=4)
    with pytest.raises(ValueError):
        an.CutoffConfig(ell=0.4, eps=0.1, n=0, k=1, N=4)
    with pytest.raises(ValueError):
        an.CutoffConfig(ell=0.4, eps=0.1, n=1, k=4, N=4)


def test_theta_far_pair_is_near_one():
    cfg = an.CutoffConfig(ell=0.4, eps=0.1, n=1, k=1, N=2)
    d = 30 * cfg.ell
    pos = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    ev = an.theta_eval(cfg, pos)
    assert 1.0 - ev.Theta <= 3.0 * cfg.strength * np.exp(-d / cfg.ell)


def test_theta_all_coincident_closed_form():
    N = 10
    cfg = an.CutoffConfig(ell=float(N) ** -0.4, eps=0.1, n=2, k=1, N=N)
    ev = an.theta_eval(cfg, np.zeros((N, 3)))
    expected = np.exp(-cfg.strength * np.exp(-1.0) * (N - 1))
    assert ev.Theta == expected
    assert np.isfinite(ev.Theta)


def test_theta_gradient_matches_finite_differences():
    cfg = an.default_cutoff_config()
    rng = np.random.default_rng(3)
    pos = rng.uniform(-2.0, 2.0, (cfg.N, 3))
    ev = an.theta_eval(cfg, pos)
    h = 3e-6
    for m in (0, 4, 9):
        for c in range(3):
            pp = pos.copy()
            pp[m, c] += h
            pm = pos.copy()
            pm[m, c] -= h
            fd = (an.theta_eval(cfg, pp).Theta - an.theta_eval(cfg, pm).Theta) / (2 * h)
            assert abs(fd - ev.grad[m, c]) <= 1e-6 * (abs(ev.grad[m, c]) + 1e-9)


def test_theta_hessian_against_finite_differences():
    cfg = an.CutoffConfig(ell=0.4, eps=0.1, n=1, k=1, N=3)
    rng = np.random.default_rng(8)
    pos = rng.uniform(-0.5, 0.5, (3, 3))
    h = 2e-5

    def theta(q):
        return an.theta_eval(cfg, q).Theta

    # FD estimate of sum_{m,mp} |Frobenius block|
    total = 0.0
    for m in range(3):
        for mp in range(3):
            block = np.empty((3, 3))
            for a in range(3):
                for b in range(3):
                    pp = pos.copy(); pp[m, a] += h; pp[mp, b] += h
                    pm = pos.copy(); pm[m, a] += h; pm[mp, b] -= h
                    mp_ = pos.copy(); mp_[m, a] -= h; mp_[mp, b] += h
                    mm = pos.copy(); mm[m, a] -= h; mm[mp, b] -= h
                    block[a, b] = (theta(pp) - theta(pm) - theta(mp_) + theta(mm)) / (4 * h * h)
            total += np.sqrt(np.sum(block**2))
    ev = an.theta_eval(cfg, pos)
    hess_abs_sum = ev.Theta * cfg.strength**2 * ev.hess_free
    assert abs(total - hess_abs_sum) < 1e-4 * hess_abs_sum


def test_theta_monotonicity_exact():
    cfg = an.default_cutoff_config()
    res = an.theta_inequalities(cfg, samples=200, seed=1)
    assert res["monotonicity_ok"]


def test_theta_near_the_largest_n_warns_of_no_overflow():
    # strength(1021) * S_k leaves float range on some draws; exp(-inf) = 0 is the
    # right cutoff value, and reaching it is no numerical fault to report
    cfg = an.default_cutoff_config(n=1021)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = an.theta_inequalities(cfg, samples=100, seed=0)
    assert res["monotonicity_ok"]


def test_theta_n_monotonicity_compares_independent_evaluations(monkeypatch):
    cfg = an.default_cutoff_config(n=2)
    assert an.theta_inequalities(cfg, samples=100, seed=1)["monotonicity_ok"]
    # a strength that falls with n makes Theta^(n-1) < Theta^(n): the check must trip
    falling = property(lambda c: 2.0 ** (-c.n) / c.ell**c.eps)
    monkeypatch.setattr(an.CutoffConfig, "strength", falling)
    assert not an.theta_inequalities(cfg, samples=100, seed=1)["monotonicity_ok"]


def test_theta_single_pair_closed_form_ratio():
    cfg = an.CutoffConfig(ell=0.4, eps=0.1, n=1, k=1, N=2)
    d = 0.7 * cfg.ell
    pos = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]])
    ev = an.theta_eval(cfg, pos)
    ell, c = cfg.ell, cfg.strength
    rho = np.sqrt(d * d + ell * ell)
    hval = np.exp(-rho / ell)
    grad_h_sq = (hval * d / (ell * rho)) ** 2
    closed = 2.0 * c**2 * grad_h_sq * ell**2 * np.exp(-0.5 * c * hval)
    generic = np.sum(ev.grad**2) / ev.Theta / (np.exp(-0.5 * c * hval) / ell**2)
    assert abs(generic - closed) < 1e-12 * closed


def test_theta_ratios_at_large_n_divide_by_no_theta():
    # At n = 8 Theta underflows to 0 on many draws, so a ratio that divides by it fails.
    cfg = an.default_cutoff_config(n=8)
    res = an.theta_inequalities(cfg, samples=300, seed=0)
    assert np.all(np.isfinite(res["ratio_ii"])) and np.all(np.isfinite(res["ratio_iii"]))
    underflows = 0
    for pos, r2, r3 in zip(an.sample_configurations(cfg, 300, 0), res["ratio_ii"], res["ratio_iii"]):
        ev = an.theta_eval(cfg, pos)
        underflows += ev.Theta == 0.0
        if ev.Theta < 1e-100:  # |grad Theta|^2 would leave the normal floats
            continue
        # the quotient form, where Theta and its derivatives are normal floats
        denom = np.exp(-0.5 * cfg.strength * ev.cumulative_sum) / cfg.ell**2
        assert r2 == pytest.approx(np.sum(ev.grad**2) / ev.Theta / denom, rel=1e-14, abs=0.0)
        assert r3 == pytest.approx(ev.Theta * cfg.strength**2 * ev.hess_free / denom, rel=1e-14, abs=0.0)
    assert underflows > 0


def test_cutoff_strength_must_be_finite():
    assert np.isfinite(an.default_cutoff_config(n=1023).strength)
    for n in (1024, 10**300):
        with pytest.raises(ValueError, match="finite strength"):
            an.default_cutoff_config(n=n)
    # 2^1023 is a float, 2^1023 / ell^eps is not
    with pytest.raises(ValueError, match="finite strength"):
        an.CutoffConfig(ell=1e-10, eps=0.1, n=1023, k=1, N=2)


def test_theta_ratio_sups_stable_under_doubling():
    cfg = an.default_cutoff_config()
    r1 = an.theta_inequalities(cfg, samples=1000, seed=0)
    r2 = an.theta_inequalities(cfg, samples=2000, seed=0)
    assert np.isfinite(r1["ratio_ii_sup"]) and np.isfinite(r1["ratio_iii_sup"])
    assert abs(r2["ratio_ii_sup"] - r1["ratio_ii_sup"]) / r1["ratio_ii_sup"] < 0.1
    assert abs(r2["ratio_iii_sup"] - r1["ratio_iii_sup"]) / r1["ratio_iii_sup"] < 0.1


def test_theta_sampling_deterministic():
    cfg = an.default_cutoff_config()
    a = an.theta_inequalities(cfg, samples=150, seed=42)
    b = an.theta_inequalities(cfg, samples=150, seed=42)
    assert a == b


def test_theta_requires_enough_samples():
    with pytest.raises(ValueError, match="at least 100"):
        an.theta_inequalities(an.default_cutoff_config(), samples=10)


def _hess_abs_sum_by_blocks(cfg, pos):
    """Sum of the Frobenius norms of Theta's 3 x 3 Hessian blocks, one block at a time."""
    hmat, grad_h, hess_h = an._pair_geometry(cfg, pos)
    weights = np.zeros((cfg.N, cfg.N))
    weights[: cfg.k, :] += 1.0
    weights[:, : cfg.k] += 1.0
    np.fill_diagonal(weights, 0.0)
    c = cfg.strength
    theta = np.exp(-c * np.sum(hmat[: cfg.k]))
    grad_s = np.sum(weights[..., None] * grad_h, axis=1)
    total = 0.0
    for m in range(cfg.N):
        for mp in range(cfg.N):
            if m == mp:
                hs = np.sum(weights[m, :, None, None] * hess_h[m], axis=0)
            else:
                hs = -weights[m, mp] * hess_h[m, mp]
            block = theta * (c**2 * np.outer(grad_s[m], grad_s[mp]) - c * hs)
            total += float(np.sqrt(np.sum(block**2)))
    return total


@st.composite
def _cutoff_configurations(draw):
    N = draw(st.integers(2, 8))
    cfg = an.CutoffConfig(
        ell=draw(st.floats(0.2, 1.0)),
        eps=0.1,
        n=draw(st.integers(1, 3)),
        k=draw(st.integers(1, N - 1)),
        N=N,
    )
    coords = draw(st.lists(st.floats(-3.0, 3.0), min_size=3 * N, max_size=3 * N))
    return cfg, cfg.ell * np.reshape(coords, (N, 3))


@settings(max_examples=100, deadline=None)
@given(_cutoff_configurations())
def test_theta_hessian_blocks_match_the_per_block_sum(case):
    cfg, pos = case
    ref = _hess_abs_sum_by_blocks(cfg, pos)
    ev = an.theta_eval(cfg, pos)
    assert abs(ev.Theta * cfg.strength**2 * ev.hess_free - ref) <= 1e-13 * ref


def test_pair_array_bytes_bounds_the_theta_eval_peak():
    # at N = 240 one N x N array outweighs the allowance for numpy's buffers
    for N in (60, 120, 240):
        cfg = an.default_cutoff_config(N=N)
        pos = an.sample_configurations(cfg, 1, 0)[0]
        tracemalloc.start()
        try:
            an.theta_eval(cfg, pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an upper bound, and not a loose one
        assert peak <= an.pair_array_bytes(N) <= 1.25 * peak, (N, peak, an.pair_array_bytes(N))
