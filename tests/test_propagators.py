"""Free/interacting propagators, the defect experiment, the N=2 energy bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from condensate_lab import _kernels as K
from condensate_lab import potentials as pot
from condensate_lab import propagators as pr
from condensate_lab import scattering as sc
from condensate_lab.radial import RadialGrid, build_grid

SOFT = pot.soft_sphere(2.0, 1.0)
GAUSS = pot.gaussian(2.0, 1.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(40.0, 0.01)


@pytest.fixture(scope="module")
def packet(grid):
    return pr.gaussian_packet(grid, sigma=1.0)


@pytest.fixture(scope="module")
def n2_transform():
    return sc.build_transform(pot.scale(SOFT, 2), k_max=14.0, n_k=640)


def test_free_identity_at_zero_time(packet):
    out = pr.evolve_free(packet, 0.0)
    assert np.max(np.abs(out.u - packet.u)) < 1e-13


def test_free_norm_preservation(packet):
    out = pr.evolve_free(packet, 1.7)
    assert abs(out.mass() - packet.mass()) < 1e-12


def test_free_gaussian_dispersion_closed_form(grid, packet):
    t = 0.7
    out = pr.evolve_free(packet, t)
    s2 = 1.0 + 2j * t
    exact = grid.r * (1.0 / s2) ** 1.5 * np.exp(-grid.r**2 / (2.0 * s2)) * 2.0
    exact[0] = exact[-1] = 0.0
    u0 = grid.r * np.exp(-grid.r**2 / 2.0) * 2.0
    exact /= grid.norm(u0)
    assert grid.norm(out.u - exact) < 1e-6


def test_interacting_identity_at_zero_time(packet):
    out = pr.evolve_interacting(packet, pot.scale(SOFT, 1), 0.0, 1e-3)
    assert np.array_equal(out.u, packet.u)


def test_interacting_unitarity_and_energy(grid, packet):
    p1 = pot.scale(SOFT, 1)
    out = pr.evolve_interacting(packet, p1, 1.0, 1e-3)
    assert abs(out.mass() - packet.mass()) < 1e-10  # per unit time
    e0 = pr.interacting_energy(packet, p1)
    e1 = pr.interacting_energy(out, p1)
    assert abs(e1 - e0) / abs(e0) < 1e-8


def test_free_limit_within_scheme_order(grid, packet):
    a = pr.evolve_interacting(packet, pot.zero_potential(), 0.5, 1e-3)
    b = pr.evolve_free(packet, 0.5)
    err = grid.norm(a.u - b.u)
    assert err < 1e-3
    fine = build_grid(40.0, 0.005)
    wf = pr.gaussian_packet(fine, sigma=1.0)
    a2 = pr.evolve_interacting(wf, pot.zero_potential(), 0.5, 5e-4)
    b2 = pr.evolve_free(wf, 0.5)
    assert fine.norm(a2.u - b2.u) < 0.3 * err


def test_richardson_second_order(grid, packet):
    p1 = pot.scale(GAUSS, 1)
    ref = pr.evolve_interacting(packet, p1, 0.5, 6.25e-5)
    e1 = grid.norm(pr.evolve_interacting(packet, p1, 0.5, 1e-3).u - ref.u)
    e2 = grid.norm(pr.evolve_interacting(packet, p1, 0.5, 5e-4).u - ref.u)
    assert abs(e1 / e2 - 4.0) < 0.4


def test_boundary_contamination_guard(grid):
    w = pr.gaussian_packet(grid, sigma=1.0, r0=39.0)
    with pytest.raises(RuntimeError, match="boundary contamination"):
        pr.evolve_free(w, 0.1)


def test_boundary_contamination_warning_tier(grid):
    w = pr.gaussian_packet(grid, sigma=1.0, r0=34.5)
    frac = w.boundary_fraction()
    assert 1e-8 < frac < 1e-4
    with pytest.warns(RuntimeWarning, match="boundary contamination"):
        pr.evolve_free(w, 0.1)


def test_zero_potential_takes_exact_free_scheme(packet, monkeypatch):
    def no_cn(*args):
        raise AssertionError("cn_evolve called for V = 0")

    monkeypatch.setattr(K, "cn_evolve", no_cn)
    out = pr.evolve_interacting(packet, pot.zero_potential(), 0.5, 1e-3)
    assert abs(out.mass() - packet.mass()) < 1e-12


def test_convergence_experiment_reports_boundary_fraction():
    curve = pr.convergence_experiment(GAUSS, [4, 8, 16, 32], times=(0.5, 0.25), dt=2e-3)
    assert 0.0 < curve.boundary_fraction_max < 1e-4
    assert curve.t == (0.5, 0.25)


def test_convergence_experiment_rejects_bad_times():
    with pytest.raises(ValueError, match="nonnegative"):
        pr.convergence_experiment(GAUSS, [4, 8, 16, 32], times=(-0.5, 0.25), dt=2e-3)
    with pytest.raises(ValueError, match="at least one sample time"):
        pr.convergence_experiment(GAUSS, [4, 8, 16, 32], times=(), dt=2e-3)


def test_defect_zero_potential_and_zero_time(packet):
    assert pr.wave_operator_defect(packet, pot.zero_potential(), 8, 0.5) == 0.0
    assert pr.wave_operator_defect(packet, SOFT, 8, 0.0, dt=1e-3) == 0.0


def test_defect_grid_too_coarse(packet):
    with pytest.raises(ValueError, match="grid too coarse"):
        pr.wave_operator_defect(packet, SOFT, 256, 0.25)


def test_defect_monotone_soft_sphere():
    curve = pr.convergence_experiment(SOFT, [4, 8, 16, 32], times=(0.5,), dt=2e-3)
    assert curve.monotone_decreasing()


def test_convergence_experiment_gaussian_slope():
    curve = pr.convergence_experiment(GAUSS, [8, 16, 32, 64], times=(0.25, 0.5), dt=2e-3)
    assert curve.monotone_decreasing()
    assert curve.fitted_slope <= -1.0 / 6.0 + 0.05
    # defect bound form with the constant fitted at the smallest N
    C = curve.defects[0] * curve.N_values[0] ** (1.0 / 6.0)
    for N, d in zip(curve.N_values[1:], curve.defects[1:]):
        assert d <= C * N ** (-1.0 / 6.0)


def test_convergence_experiment_exact_for_zero_potential():
    curve = pr.convergence_experiment(
        pot.zero_potential(), [8, 16, 32, 64], times=(0.5, 0.25), dt=2e-3
    )
    assert curve.exact
    assert curve.defects == [0.0] * 4
    assert curve.fitted_slope is None


def test_defect_discretization_converged():
    # halving grid spacing and dt changes the defect by under 5%
    N = 16
    coarse_grid = build_grid(24.0, min(0.02, pot.scale(GAUSS, N).range_hint / 10))
    fine_grid = build_grid(24.0, coarse_grid.h / 2)
    w_c = pr.gaussian_packet(coarse_grid, sigma=1.0)
    w_f = pr.gaussian_packet(fine_grid, sigma=1.0)
    d_c = pr.wave_operator_defect(w_c, GAUSS, N, 0.5, dt=1e-3)
    d_f = pr.wave_operator_defect(w_f, GAUSS, N, 0.5, dt=5e-4)
    assert abs(d_c - d_f) / d_f < 0.05


def test_requires_four_values_of_n():
    with pytest.raises(ValueError, match="at least 4"):
        pr.convergence_experiment(GAUSS, [8, 16, 32])


def test_center_profile_moments_against_quadrature():
    from scipy.integrate import quad

    widths = (0.9, 1.3, 1.1)
    momenta = (0.4, -0.7, 0.2)
    chi = pr.CenterProfile(widths=widths, momenta=momenta)
    m2 = 0.0
    comps2, comps4 = [], []
    for s, q in zip(widths, momenta):
        dens = lambda p: (s**2 / np.pi) ** 0.5 * np.exp(-(s**2) * (p - q) ** 2)
        c2, _ = quad(lambda p: p**2 * dens(p), -30, 30)
        c4, _ = quad(lambda p: p**4 * dens(p), -30, 30)
        comps2.append(c2)
        comps4.append(c4)
    m2 = sum(comps2)
    m4 = sum(comps4) + sum(
        comps2[i] * comps2[j] for i in range(3) for j in range(3) if i != j
    )
    assert abs(chi.second_moment() - m2) < 1e-9
    assert abs(chi.fourth_moment() - m4) < 1e-8


def test_second_moment_free_case_equals_dropped_cross_terms():
    z = pot.zero_potential()
    tr = sc.build_transform(pot.scale(z, 2), k_max=14.0, n_k=640)
    chi = pr.CenterProfile(widths=(1.0, 1.2, 0.9))
    g = pr.gaussian_packet(tr.grid, sigma=1.0)
    res = pr.second_moment_check(chi, g, z, transform=tr)
    c = tr.grid.dst(np.real(g.u))
    km = tr.grid.modes()
    c0 = np.sum(np.abs(c) ** 2)
    k2 = np.sum(km**2 * np.abs(c) ** 2)
    k4 = np.sum(km**4 * np.abs(c) ** 2)
    dropped = chi.fourth_moment() / 8.0 * c0 + 3.0 * chi.second_moment() * k2 + 2.0 * k4
    assert res.slack >= 0.0
    assert abs(res.slack - dropped) / dropped < 1e-9


def test_second_moment_random_states(n2_transform):
    rng = np.random.default_rng(7)
    for _ in range(3):
        chi = pr.CenterProfile(
            widths=tuple(rng.uniform(0.7, 1.5, 3)),
            momenta=tuple(rng.uniform(-1.0, 1.0, 3)),
        )
        g = pr.gaussian_packet(n2_transform.grid, sigma=float(rng.uniform(0.8, 1.6)))
        res = pr.second_moment_check(chi, g, SOFT, transform=n2_transform)
        assert res.slack >= -1e-6 * abs(res.lhs)


def test_second_moment_broadening_decreases_both_sides(n2_transform):
    chi = pr.CenterProfile(widths=(1.0, 1.0, 1.0))
    g1 = pr.gaussian_packet(n2_transform.grid, sigma=1.0)
    g2 = pr.gaussian_packet(n2_transform.grid, sigma=2.0)
    r1 = pr.second_moment_check(chi, g1, SOFT, transform=n2_transform)
    r2 = pr.second_moment_check(chi, g2, SOFT, transform=n2_transform)
    assert r2.lhs < r1.lhs
    assert r2.rhs < r1.rhs
    assert r2.slack >= -1e-6 * abs(r2.lhs)


# ---------------------------------------------------------------------------
# Properties of the radial propagators on small random grids
# ---------------------------------------------------------------------------


@st.composite
def _states(draw, max_m=400):
    m = draw(st.integers(1, max_m))
    h = draw(st.floats(0.005, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros(m + 2, dtype=np.complex128)
    u[1:-1] = rng.normal(size=m) + 1j * rng.normal(size=m)
    # dst, idst and norm_flat need no Simpson weights
    return RadialGrid(r=h * np.arange(m + 2), h=h), u, rng


@settings(max_examples=50, deadline=None)
@given(_states(max_m=600))
def test_dst_round_trip(state):
    grid, u, _ = state
    assert np.max(np.abs(grid.idst(grid.dst(u)) - u)) <= 1e-13 * np.max(np.abs(u))
    assert np.max(np.abs(grid.idst(grid.dst(u.real)) - u.real)) <= 1e-13 * np.max(np.abs(u))


def _cn_refuses_short(u_interior, q_interior, h, dt, nsteps) -> bool:
    """For fewer than 3 interior points, cn_evolve must refuse and name the count."""
    m = u_interior.shape[0]
    if m >= 3:
        return False
    with pytest.raises(ValueError, match=f"at least 3 interior points, got {m}"):
        K.cn_evolve(u_interior, q_interior, h, dt, nsteps)
    return True


@settings(max_examples=40, deadline=None)
@given(_states(), st.floats(1e-4, 0.1), st.integers(0, 200))
def test_exact_free_scheme_matches_cn_kernel(state, dt, nsteps):
    grid, u, _ = state
    u /= np.linalg.norm(u)
    exact = pr._cn_steps(pr.RadialWavepacket(grid, u), np.zeros(grid.n), nsteps, dt).u
    if _cn_refuses_short(u[1:-1], np.zeros(grid.n - 2), grid.h, dt, nsteps):
        return
    stepped = K.cn_evolve(u[1:-1], np.zeros(grid.n - 2), grid.h, dt, nsteps)
    assert np.max(np.abs(exact[1:-1] - stepped)) <= 1e-12
    assert exact[0] == exact[-1] == 0.0


@settings(max_examples=40, deadline=None)
@given(_states(), st.floats(1e-4, 0.1), st.floats(0.0, 1e3), st.integers(1, 100))
def test_cn_kernel_conserves_flat_norm(state, dt, qmax, nsteps):
    grid, u, rng = state
    q = rng.uniform(0.0, qmax, grid.n - 2)
    if _cn_refuses_short(u[1:-1], q, grid.h, dt, nsteps):
        return
    out = np.zeros_like(u)
    out[1:-1] = K.cn_evolve(u[1:-1], q, grid.h, dt, nsteps)
    before = grid.norm_flat(u)
    assert abs(grid.norm_flat(out) - before) <= 1e-13 * nsteps * before


@settings(max_examples=40, deadline=None)
@given(_states(), st.floats(1e-4, 0.1), st.integers(0, 60), st.integers(0, 60))
def test_cn_kernel_segments_equal_one_call(state, dt, n1, n2):
    grid, u, rng = state
    q = rng.uniform(0.0, 10.0, grid.n - 2)
    if _cn_refuses_short(u[1:-1], q, grid.h, dt, n1):
        return
    first = K.cn_evolve(u[1:-1], q, grid.h, dt, n1)
    assert np.array_equal(K.cn_evolve(first, q, grid.h, dt, n2), K.cn_evolve(u[1:-1], q, grid.h, dt, n1 + n2))


@settings(max_examples=40, deadline=None)
@given(_states(max_m=120), st.floats(1e-4, 0.1), st.floats(0.0, 1e3), st.integers(0, 200))
def test_cn_kernel_matches_exact_propagator(state, dt, qmax, nsteps):
    """cn_evolve against V diag(((1 - i theta lam) / (1 + i theta lam))^nsteps) V^T u,
    theta = dt / 2, from the eigenpairs of the same tridiagonal matrix A.

    Error model, relative to ||u||: each unitary step adds O(eps (1 + theta ||A||)),
    the reference's eigenvectors add O(eps m), and an eigenvalue off by
    O(eps ||A||) turns the phase by nsteps dt times that.  With
    ||A|| <= 4 / h^2 + max q the sum is eps (m + nsteps + nsteps dt ||A||) up to a
    constant; the largest ratio over 3000 draws was 0.73, so the bound is 4 times it.
    """
    grid, u, rng = state
    q = rng.uniform(0.0, qmax, grid.n - 2)
    if _cn_refuses_short(u[1:-1], q, grid.h, dt, nsteps):
        return
    m, h = grid.n - 2, grid.h
    lam, vec = eigh_tridiagonal(2.0 / h**2 + q, np.full(m - 1, -1.0 / h**2))
    z = (1.0 - 0.5j * dt * lam) / (1.0 + 0.5j * dt * lam)
    exact = vec @ (z**nsteps * (vec.T @ u[1:-1]))
    stepped = K.cn_evolve(u[1:-1], q, h, dt, nsteps)
    model = np.finfo(float).eps * (m + nsteps + nsteps * dt * (4.0 / h**2 + qmax))
    assert np.linalg.norm(stepped - exact) <= 4.0 * model * np.linalg.norm(u[1:-1])
