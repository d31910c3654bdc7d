"""Scattering lengths by three routes, phase shifts, and the transform pair."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condensate_lab import _kernels
from condensate_lab import potentials as pot
from condensate_lab import scattering as sc
from condensate_lab.propagators import gaussian_packet
from condensate_lab.radial import build_grid, half_step_samples

SOFT_A0 = 1.0 - np.tanh(1.0)  # interior sinh / exterior affine matching, kappa = 1


@pytest.fixture(scope="module")
def soft():
    return pot.soft_sphere(2.0, 1.0)


@pytest.fixture(scope="module")
def soft_solution(soft):
    return sc.solve_zero_energy(soft)


@pytest.fixture(scope="module")
def soft_transform(soft):
    return sc.build_transform(soft, k_max=8.0, n_k=256)


def test_zero_potential_profile_is_one():
    sol = sc.solve_zero_energy(pot.zero_potential())
    assert abs(sol.a0_asym) < 1e-10
    assert np.max(np.abs(sol.f - 1.0)) < 1e-9


def test_soft_sphere_asymptotic_length(soft_solution):
    assert abs(soft_solution.a0_asym - SOFT_A0) < 1e-8 * SOFT_A0


def test_soft_sphere_interior_profile_closed_form(soft, soft_solution):
    # u(r) = sinh(r) / cosh(1) inside the ball once the exterior slope is 1
    g = soft_solution.grid
    inside = g.r <= 1.0
    exact = np.sinh(g.r[inside]) / np.cosh(1.0)
    assert np.max(np.abs(soft_solution.u[inside] - exact)) < 1e-9


def test_profile_bounds_maximum_principle(soft_solution):
    f = soft_solution.f
    assert np.all(f >= -1e-10)
    assert np.all(f <= 1.0 + 1e-10)


def test_integral_route_consistency(soft, soft_solution):
    gap = abs(soft_solution.a0_int - soft_solution.a0_asym) / soft_solution.a0_asym
    assert gap < 1e-6
    gauss = pot.gaussian(1.0, 1.0)
    sol = sc.solve_zero_energy(gauss)
    assert abs(sol.a0_int - sol.a0_asym) / sol.a0_asym < 1e-6


def test_gaussian_refinement_oracle(monkeypatch):
    gauss = pot.gaussian(1.0, 1.0)
    coarse = sc.solve_zero_energy(gauss)
    monkeypatch.setattr(sc, "_STEPS_PER_RANGE", 2 * sc._STEPS_PER_RANGE)
    fine = sc.solve_zero_energy(gauss)
    assert fine.grid.rmax == coarse.grid.rmax and fine.grid.h == coarse.grid.h / 2.0
    assert abs(coarse.a0_asym - fine.a0_asym) < 1e-9


def test_weak_gaussian_matches_born_to_second_order():
    p = pot.gaussian(0.01, 1.0)
    sol = sc.solve_zero_energy(p)
    born = pot.born_scattering_length(p)
    assert sol.a0_asym < born  # strict for V != 0
    assert abs(sol.a0_asym - born) < 0.02 * born


def test_born_upper_bound_across_families():
    for p in (pot.soft_sphere(0.5, 1.0), pot.soft_sphere(4.0, 1.0), pot.gaussian(2.0, 0.8)):
        sol = sc.solve_zero_energy(p)
        assert sol.a0_asym <= pot.born_scattering_length(p) + 1e-12


def test_monotonic_in_strength():
    for family in ("soft-sphere", "gaussian"):
        prev = -1.0
        for v0 in (0.5, 1.0, 2.0, 4.0):
            p = pot.soft_sphere(v0, 1.0) if family == "soft-sphere" else pot.gaussian(v0, 1.0)
            a0 = sc.solve_zero_energy(p).a0_asym
            assert a0 > prev
            prev = a0


def test_scaling_law_three_values(soft, soft_solution):
    a0 = soft_solution.a0_int
    for N in (1, 10, 100):
        solN = sc.solve_zero_energy(pot.scale(soft, N))
        assert abs(solN.a0_int * N - a0) < 1e-8 * a0


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([pot.soft_sphere, pot.gaussian]),
    st.floats(0.05, 5.0),
    st.floats(0.3, 3.0),
    st.integers(2, 200),
)
def test_scaled_asymptotic_length_is_a0_over_n(family, v0, size, N):
    p = family(v0, size)
    a0 = sc.solve_zero_energy(p).a0_asym
    assert abs(sc.solve_zero_energy(pot.scale(p, N)).a0_asym - a0 / N) <= 1e-8 * a0 / N


def test_zero_energy_state_integral_identity(soft, soft_solution):
    out = sc.zero_energy_state_integral(soft_solution)
    target = 8.0 * np.pi * SOFT_A0
    assert abs(out["integral"] - target) < 1e-6 * target
    gauss = pot.gaussian(1.0, 1.0)
    assert sc.zero_energy_state_integral(sc.solve_zero_energy(gauss))["relative_gap"] < 1e-6


def test_zero_energy_state_integral_zero_potential():
    out = sc.zero_energy_state_integral(sc.solve_zero_energy(pot.zero_potential()))
    assert out["integral"] == 0.0
    assert abs(out["eight_pi_a0"]) < 1e-9


def test_grid_does_not_grow_with_the_scattering_length():
    # R_max = 50 range whatever the strength: no Born-length padding
    weak, strong = sc.solve_zero_energy(pot.soft_sphere(2.0, 1.0)), sc.solve_zero_energy(pot.soft_sphere(50.0, 1.0))
    assert weak.grid.n == strong.grid.n


def test_slowly_decaying_tabulated_potential_is_refused():
    p = pot.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.0], sigma=2.5)
    with pytest.raises(pot.PotentialError, match="divergent norm"):
        sc.solve_zero_energy(p)


def _full_march(p, grid, k2):
    """RK4 over every step of every grid piece, as the zero-energy solve did before."""
    u, up = np.zeros(len(k2)), np.ones(len(k2))
    blocks = [u[None]]
    for sl in grid.piece_slices():
        ia, ib = sl.start, sl.stop - 1
        q_half = 0.5 * half_step_samples(p, grid.r[ia], grid.h, ib - ia, grid.r[ia], grid.r[ib])
        block, u, up = _kernels.rk4_radial_batch(q_half, np.asarray(k2, dtype=float), grid.h, u, up)
        blocks.append(block[1:])
    return np.concatenate(blocks)


@pytest.mark.parametrize("family", [pot.soft_sphere, pot.gaussian])
def test_affine_tail_matches_full_march(family, monkeypatch):
    p = family(2.0, 1.0)
    steps = []
    march = _kernels.rk4_radial_batch

    def counted(q_half, k2, h, u0, up0):
        steps.append((len(q_half) - 1) // 2)
        return march(q_half, k2, h, u0, up0)

    monkeypatch.setattr(_kernels, "rk4_radial_batch", counted)
    sol = sc.solve_zero_energy(p)
    monkeypatch.undo()
    grid = sol.grid
    # only the steps that sample a nonzero V are marched
    assert sum(steps) < 0.1 * (grid.n - 1)
    u = _full_march(p, grid, [0.0])[:, 0]
    # reference: the least-squares line through the full march over [0.6, 0.9] R_max
    mask = (grid.r >= 0.6 * grid.rmax) & (grid.r <= 0.9 * grid.rmax)
    alpha, beta = np.polyfit(grid.r[mask], u[mask], 1)
    assert np.max(np.abs(sol.u - u / alpha)) <= 1e-10 * np.max(np.abs(sol.u))
    # a0 is the intercept of an affine u of size rmax: the full march's own
    # rounding over 10^4 steps moves the Gaussian's a0 by 3e-10 relative
    tol = 1e-10 if family is pot.soft_sphere else 1e-9
    assert abs(sol.a0_asym - (-beta / alpha)) <= tol * sol.a0_asym


def test_affine_tail_is_exact_for_zero_potential():
    # the march accumulates 1.7e-11 here; the closed form stays at roundoff
    assert abs(sc.solve_zero_energy(pot.zero_potential()).a0_asym) < 1e-13


def test_positive_k_march_is_unchanged(soft):
    grid = build_grid(20.0, 0.01, breakpoints=soft.breakpoints)
    k2 = np.array([0.25, 1.0, 4.0])
    U, _, _ = sc._integrate_radial(soft, grid, k2)
    assert np.array_equal(U, _full_march(soft, grid, k2))


def test_phase_shift_rejects_bad_k(soft):
    with pytest.raises(ValueError):
        sc.phase_shift(soft, 0.0)


def test_phase_shift_zero_potential():
    ps = sc.phase_shift(pot.zero_potential(), 1.0)
    assert ps.delta0 == 0.0


def test_phase_shift_low_k_limit(soft, soft_solution):
    ps = sc.phase_shift(soft, 1e-3)
    assert ps.delta0 < 0.0
    assert abs(-ps.delta0 / ps.k - soft_solution.a0_asym) < 1e-4


def test_phase_shift_closed_form_soft_sphere(soft):
    # interior wavenumber kappa'' = sqrt(V0/2 - k^2) below the barrier
    for k in (0.3, 0.9):
        kpp = np.sqrt(1.0 - k**2)
        exact = np.arctan2(k * np.tanh(kpp), kpp) - k
        ps = sc.phase_shift(soft, k)
        assert abs(ps.delta0 - exact) < 1e-8


def test_phase_shift_born_regime():
    p = pot.gaussian(0.01, 1.0)
    from scipy.integrate import quad

    for k in (0.05, 0.1):
        born, _ = quad(lambda r: -(0.5 * p(np.array([r]))[0] / k) * np.sin(k * r) ** 2, 0, 20)
        ps = sc.phase_shift(p, k)
        assert abs(ps.delta0 - born) < 0.1 * abs(born)


def test_three_route_agreement(soft, soft_solution):
    a_fit = soft_solution.a0_asym
    a_int = soft_solution.a0_int
    a_phase = -sc.phase_shift(soft, 1e-3).delta0 / 1e-3
    for x, y in ((a_fit, a_int), (a_fit, a_phase), (a_int, a_phase)):
        assert abs(x - y) / a_fit < 1e-5


def test_transform_completeness_recorded(soft_transform):
    assert soft_transform.completeness_defect < 1e-5


def test_transform_free_case_is_sine_basis():
    tr = sc.build_transform(pot.zero_potential(), k_max=8.0, n_k=256)
    w = gaussian_packet(tr.grid, sigma=1.0, r0=3.0)
    u = np.real(w.u)
    out = sc.apply_wave_operator(tr, u)
    assert tr.grid.norm(out - u) < 1e-9
    # states equal sines up to the RK4 phase error of the marched segment
    assert np.max(np.abs(tr.states - tr.sines)) < 5e-6


def test_wave_operator_unitarity(soft_transform):
    w = gaussian_packet(soft_transform.grid, sigma=1.0, r0=3.0)
    u = np.real(w.u)
    img = sc.apply_wave_operator(soft_transform, u)
    assert abs(soft_transform.grid.norm(img) - soft_transform.grid.norm(u)) < 1e-6


def test_wave_operator_round_trip(soft_transform):
    w = gaussian_packet(soft_transform.grid, sigma=1.0, r0=2.0)
    u = np.real(w.u)
    back = sc.apply_wave_operator(
        soft_transform, sc.apply_wave_operator(soft_transform, u), adjoint=True
    )
    assert soft_transform.grid.norm(back - u) < 1e-5


def test_intertwining_multiplier(soft, soft_transform):
    w = gaussian_packet(soft_transform.grid, sigma=1.0, r0=0.0)
    u = np.real(w.u)
    hg = sc.apply_hamiltonian(soft_transform.grid, soft, u)
    c1 = soft_transform.forward_interacting(hg)
    c2 = soft_transform.multiplier() * soft_transform.forward_interacting(u)
    num = np.sqrt(np.sum(soft_transform.wk * (c1 - c2) ** 2))
    den = np.sqrt(np.sum(soft_transform.wk * c2**2))
    assert num / den < 1e-6


def test_dilation_covariance(soft, soft_transform):
    from scipy.interpolate import CubicSpline

    base = soft_transform
    w = gaussian_packet(base.grid, sigma=1.0, r0=3.0)
    u = np.real(w.u)
    wg = sc.apply_wave_operator(base, u)
    spl_u = CubicSpline(base.grid.r, u)
    spl_w = CubicSpline(base.grid.r, wg)
    for N in (2, 4):
        pN = pot.scale(soft, N)
        trN = sc.build_transform(
            pN, k_max=8.0 * N, n_k=320 * N, rmax=26.0 / N * 1.3
        )
        rN = trN.grid.r
        dil = np.sqrt(N) * spl_u(np.clip(rN * N, 0.0, base.grid.rmax))
        dil[0] = dil[-1] = 0.0
        lhs = sc.apply_wave_operator(trN, dil)
        rhs = np.sqrt(N) * spl_w(np.clip(rN * N, 0.0, base.grid.rmax))
        assert trN.grid.norm(lhs - rhs) < 1e-5


def test_insufficient_k_resolution_raises(soft, monkeypatch):
    monkeypatch.setattr(sc, "_COMPLETENESS_TOL", 1e-16)
    with pytest.raises(RuntimeError, match="insufficient k resolution"):
        sc.build_transform(soft, k_max=8.0, n_k=256)


def test_l1_ratio_diagnostic(soft_transform):
    w = gaussian_packet(soft_transform.grid, sigma=1.0, r0=2.0)
    ratio = sc.l1_ratio_diagnostic(soft_transform, np.real(w.u))
    assert np.isfinite(ratio) and ratio > 0.0


def test_transform_builds_its_matrices_without_temporaries(soft):
    # the second-moment task's transform: n_k 640 x 12001 nodes, 61 MB per matrix
    p = pot.scale(soft, 2)
    tracemalloc.start()
    try:
        t = sc.build_transform(p, k_max=14.0, n_k=640)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.states.shape == (640, 12001)
    assert peak - t.states.nbytes - t.sines.nbytes < t.states.nbytes / 10, peak
    # filled in place with the values of the outer-product formulas
    r = t.grid.r[-64:]
    assert np.array_equal(t.sines[:, -64:], np.sin(np.outer(t.k, r)))
    assert np.array_equal(t.states[:, -64:], np.sin(np.outer(t.k, r) + t.delta0[:, None]))
