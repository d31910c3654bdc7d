"""Acceptance battery: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from condensate_lab import analysis as an
from condensate_lab import gp
from condensate_lab import hierarchy as hr
from condensate_lab import potentials as pot
from condensate_lab import propagators as pr
from condensate_lab import scattering as sc

SOFT = pot.soft_sphere(2.0, 1.0)
GAUSS = pot.gaussian(1.0, 1.0)
SOFT_A0 = 1.0 - np.tanh(1.0)
TWO_PI = 2.0 * np.pi


class _Budget:
    def __init__(self, number: int, name: str, seconds: float):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number:02d} ({self.name}): {elapsed:.2f}s "
              f"(budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"runtime {elapsed:.1f}s over budget"
        return False


@pytest.fixture(scope="module")
def soft_solution():
    return sc.solve_zero_energy(SOFT)


@pytest.fixture(scope="module")
def soft_transform():
    return sc.build_transform(SOFT, k_max=8.0, n_k=256)


def test_criterion_01_closed_form_scattering_length(soft_solution):
    with _Budget(1, "soft-sphere closed form", 1.0):
        rel = abs(soft_solution.a0_asym - SOFT_A0) / SOFT_A0
        assert rel <= 1e-8, f"relative error {rel:.2e}"


def test_criterion_02_integral_route_consistency(soft_solution):
    with _Budget(2, "profile-integral consistency", 2.0):
        gap_soft = abs(soft_solution.a0_int - soft_solution.a0_asym) / soft_solution.a0_asym
        assert gap_soft <= 1e-6
        sol_g = sc.solve_zero_energy(GAUSS)
        gap_gauss = abs(sol_g.a0_int - sol_g.a0_asym) / sol_g.a0_asym
        assert gap_gauss <= 1e-6


def test_criterion_03_zero_energy_state_identity(soft_solution):
    with _Budget(3, "contact-value identity", 1.0):
        out = sc.zero_energy_state_integral(SOFT, soft_solution)
        target = 8.0 * np.pi * soft_solution.a0_asym
        assert abs(out["integral"] - target) <= 1e-6 * target


def test_criterion_04_scaling_law(soft_solution):
    with _Budget(4, "rescaling law", 5.0):
        a0 = soft_solution.a0_int
        for N in (1, 10, 100):
            solN = sc.solve_zero_energy(pot.scale(SOFT, N))
            assert abs(solN.a0_int * N - a0) <= 1e-8 * a0, f"N={N}"


def test_criterion_05_wave_operator_unitarity_covariance(soft_transform):
    from scipy.interpolate import CubicSpline

    with _Budget(5, "wave operator round trip + dilation", 30.0):
        base = soft_transform
        w = pr.gaussian_packet(base.grid, sigma=1.0, r0=2.0)
        u = np.real(w.u)
        img = sc.apply_wave_operator(base, u)
        assert abs(base.grid.norm(img) - base.grid.norm(u)) <= 1e-6
        back = sc.apply_wave_operator(base, img, adjoint=True)
        assert base.grid.norm(back - u) <= 1e-5

        w3 = pr.gaussian_packet(base.grid, sigma=1.0, r0=3.0)
        u3 = np.real(w3.u)
        wg = sc.apply_wave_operator(base, u3)
        spl_u = CubicSpline(base.grid.r, u3)
        spl_w = CubicSpline(base.grid.r, wg)
        for N in (2, 4):
            trN = sc.build_transform(
                pot.scale(SOFT, N),
                k_max=8.0 * N,
                n_k=320 * N,
                grid_spec=sc.GridSpec(rmax=26.0 / N * 1.3),
            )
            rN = trN.grid.r
            dil = np.sqrt(N) * spl_u(np.clip(rN * N, 0.0, base.grid.rmax))
            dil[0] = dil[-1] = 0.0
            lhs = sc.apply_wave_operator(trN, dil)
            rhs = np.sqrt(N) * spl_w(np.clip(rN * N, 0.0, base.grid.rmax))
            assert trN.grid.norm(lhs - rhs) <= 1e-5, f"N={N}"


def test_criterion_06_defect_rate():
    with _Budget(6, "short-range defect rate", 30.0):
        curve = pr.convergence_experiment(
            pot.gaussian(2.0, 1.0),
            [8, 16, 32, 64, 128, 256],
            times=(0.25, 0.5, 1.0),
            sigma=1.0,
            dt=1e-3,
        )
        assert curve.monotone_decreasing(), f"defects {curve.defects}"
        assert curve.fitted_slope <= -1.0 / 6.0 + 0.05, f"slope {curve.fitted_slope:.3f}"


def test_criterion_07_second_moment_bound():
    with _Budget(7, "second-moment bound at N=2", 120.0):
        transform = sc.build_transform(pot.scale(SOFT, 2), k_max=14.0, n_k=640)
        rng = np.random.default_rng(7)
        for i in range(10):
            chi = pr.CenterProfile(
                widths=tuple(rng.uniform(0.7, 1.5, 3)),
                momenta=tuple(rng.uniform(-1.0, 1.0, 3)),
            )
            g = pr.gaussian_packet(transform.grid, sigma=float(rng.uniform(0.8, 1.6)))
            res = pr.second_moment_check(chi, g, SOFT, transform=transform)
            assert res.slack >= -1e-6 * abs(res.lhs), f"state {i}: slack {res.slack:.3e}"


def _gp_1d_battery():
    # mass + energy drift on a smooth interacting state
    M, L = 128, TWO_PI
    x = (np.arange(M) - M // 2) * (L / M)
    f = gp.Field((1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex), (L,))
    f.normalize()
    cfg = gp.GPConfig(coupling=1.0, dt=2e-4)
    e0 = gp.gp_energy(f, cfg)["total"]
    cur, mass_drift, energy_drift = f, 0.0, 0.0
    for _ in range(4):
        cur = gp.gp_evolve(cur, cfg, 0.25)
        mass_drift = max(mass_drift, abs(cur.mass() - f.mass()))
        energy_drift = max(
            energy_drift, abs(gp.gp_energy(cur, cfg)["total"] - e0) / abs(e0)
        )
    assert mass_drift <= 1e-10, f"d=1 mass drift {mass_drift:.2e}"
    assert energy_drift <= 1e-8, f"d=1 energy drift {energy_drift:.2e}"

    # plane-wave dispersion at the pinned step size
    M = 64
    x = (np.arange(M) - M // 2) * (L / M)
    A, kmode, g = 0.7, 2.0, 1.3
    pw = gp.Field(A * np.exp(1j * kmode * x), (L,))
    out = gp.gp_evolve(pw, gp.GPConfig(coupling=g, dt=1e-3), 1.0)
    omega = kmode**2 + g * A**2
    exact = A * np.exp(1j * (kmode * x - omega))
    phase = np.max(np.abs(np.angle(out.values / exact)))
    assert phase <= 1e-6, f"plane-wave phase error {phase:.2e}"

    # refinement slope
    f64 = gp.Field((1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex), (L,))
    f64.normalize()
    ref = gp.gp_evolve(f64, gp.GPConfig(coupling=1.0, dt=1.25e-4), 0.5)
    errs = []
    dts = [2e-3, 1e-3, 5e-4]
    for dt in dts:
        out = gp.gp_evolve(f64, gp.GPConfig(coupling=1.0, dt=dt), 0.5)
        errs.append(np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2) * out.dvol))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1, f"dt slope {slope:.3f}"


def _gp_3d_battery():
    L = TWO_PI
    M = 48
    ax = (np.arange(M) - M // 2) * (L / M)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    f = gp.Field((1.0 + 0.15 * np.cos(X) + 0.1 * np.cos(Y) * np.cos(Z)).astype(complex), (L, L, L))
    f.normalize()
    cfg = gp.GPConfig(coupling=1.0, dt=2.5e-4)
    e0 = gp.gp_energy(f, cfg)["total"]
    cur, mass_drift, energy_drift = f, 0.0, 0.0
    for _ in range(4):
        cur = gp.gp_evolve(cur, cfg, 0.25)
        mass_drift = max(mass_drift, abs(cur.mass() - f.mass()))
        energy_drift = max(
            energy_drift, abs(gp.gp_energy(cur, cfg)["total"] - e0) / abs(e0)
        )
    assert mass_drift <= 1e-10, f"d=3 mass drift {mass_drift:.2e}"
    assert energy_drift <= 1e-8, f"d=3 energy drift {energy_drift:.2e}"

    M = 64
    ax = (np.arange(M) - M // 2) * (L / M)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    A, g = 0.6, 1.1
    pw = gp.Field(A * np.exp(1j * (X + 2.0 * Y)), (L, L, L))
    out = gp.gp_evolve(pw, gp.GPConfig(coupling=g, dt=1e-3), 1.0)
    omega = 5.0 + g * A**2
    exact = A * np.exp(1j * (X + 2.0 * Y - omega))
    phase = np.max(np.abs(np.angle(out.values / exact)))
    assert phase <= 1e-6, f"d=3 plane-wave phase error {phase:.2e}"


def test_criterion_08_gp_solver_d1():
    with _Budget(8, "condensate dynamics, d=1", 60.0):
        _gp_1d_battery()


def test_criterion_08_gp_solver_d3():
    with _Budget(8, "condensate dynamics, d=3", 120.0):
        _gp_3d_battery()


def test_criterion_09_ground_states():
    with _Budget(9, "harmonic ground states", 4.0):
        for dim, M in ((1, 256), (3, 48)):
            L = 16.0 if dim == 1 else 12.0
            ax = (np.arange(M) - M // 2) * (L / M)
            if dim == 1:
                vals = np.exp(-(ax**2))
                box = (L,)
            else:
                X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
                vals = np.exp(-(X**2 + Y**2 + Z**2))
                box = (L, L, L)
            init = gp.Field(vals.astype(complex), box)
            init.normalize()
            res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
            assert abs(res["energy"] - dim) <= 1e-10, f"d={dim} energy {res['energy']}"
            es = res["energies"]
            assert all(b <= a for a, b in zip(es[:-1], es[1:])), "descent not monotone"


def test_criterion_10_hierarchy_residuals():
    with _Budget(10, "coupled-equation residuals", 1.0):
        study = hr.refinement_study(lambda l: hr.build_trajectory(l, coupling=1.0), levels=3, coupling=1.0)
        assert study["slope_differential"] >= 2.0, study
        assert study["slope_integral"] >= 2.0, study
        matched = study["finest_residual"].max_differential()
        wrong = study["finest_residual"].max_differential(2.0)
        assert wrong >= 10.0 * matched, f"ratio {wrong / matched:.1f}"
        zero = max(hr.integral_form_residual(hr.build_trajectory(0, coupling=0.0), 0.0))
        assert zero <= 1e-8, f"zero-coupling residual {zero:.2e}"


def test_criterion_11_kernel_integral_calibration():
    with _Budget(11, "kernel integral calibration", 30.0):
        v0 = an.kernel_integral("int1", 0.0)
        assert abs(v0 - np.pi**2) <= 1e-4
        vals = [an.kernel_integral("int1", p) for p in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
        assert max(vals) <= v0 + 1e-6, "sup not attained at p = 0 within tolerance"


def test_criterion_12_pairing_inequalities():
    with _Budget(12, "pairing bounds and contact rate", 120.0):
        rng = np.random.default_rng(1)
        ratios = [an.vl1_check(SOFT, an.random_pair(rng))["ratio"] for _ in range(200)]
        sup_half, sup_full = max(ratios[:100]), max(ratios)
        assert abs(sup_full - sup_half) / sup_half < 0.1
        assert sup_full <= np.pi**2 / (2.0 * np.pi) ** 3

        unit = pot.gaussian(1.0 / np.pi**1.5, 1.0)
        pair = an.random_pair(np.random.default_rng(3), spread=0.5)
        ladder = [0.5 / 2**j for j in range(11)]
        res = an.vl12_rate(unit, pair, ladder)
        gaps = res["gaps"]
        assert all(b <= a + 1e-8 for a, b in zip(gaps[:-1], gaps[1:]))
        cfit = gaps[0] / (ladder[0] ** (1.0 / 12.0) * res["form_scale"])
        for gval, alpha in zip(gaps, ladder):
            assert gval <= cfit * alpha ** (1.0 / 12.0) * res["form_scale"] * (1 + 1e-9)


def test_criterion_13_cutoff_battery():
    with _Budget(13, "pair cutoff battery", 60.0):
        cfg = an.default_cutoff_config(N=10, k=3, n=1)
        r1 = an.theta_inequalities(cfg, samples=1000, seed=0)
        assert r1["monotonicity_ok"]
        r2 = an.theta_inequalities(cfg, samples=2000, seed=0)
        assert r2["monotonicity_ok"]
        assert np.isfinite(r2["ratio_ii_sup"]) and np.isfinite(r2["ratio_iii_sup"])
        assert abs(r2["ratio_ii_sup"] - r1["ratio_ii_sup"]) / r1["ratio_ii_sup"] < 0.1
        assert abs(r2["ratio_iii_sup"] - r1["ratio_iii_sup"]) / r1["ratio_iii_sup"] < 0.1

        rng = np.random.default_rng(3)
        pos = rng.uniform(-2.0, 2.0, (cfg.N, 3))
        ev = an.theta_eval(cfg, pos)
        h = 3e-6
        for m in (0, 5, 9):
            for c in range(3):
                pp = pos.copy()
                pp[m, c] += h
                pm = pos.copy()
                pm[m, c] -= h
                fd = (an.theta_eval(cfg, pp).Theta - an.theta_eval(cfg, pm).Theta) / (2 * h)
                assert abs(fd - ev.grad[m, c]) <= 1e-6 * (abs(ev.grad[m, c]) + 1e-9)
