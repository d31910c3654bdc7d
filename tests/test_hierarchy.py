"""Rank-one kernels, the contact trace term, and both residual forms."""

import numpy as np
import pytest

from condensate_lab import gp
from condensate_lab import hierarchy as hr

TWO_PI = 2.0 * np.pi


def normalized_field(M=64, fn=None):
    x = (np.arange(M) - M // 2) * (TWO_PI / M)
    vals = np.ones(M, dtype=complex) if fn is None else fn(x).astype(complex)
    f = gp.Field(vals, (TWO_PI,))
    return f.normalize()


def test_factorized_marginal_properties():
    rng = np.random.default_rng(0)
    f = normalized_field(fn=lambda x: rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
    mk = hr.factorized_marginal(f)
    assert abs(mk.trace() - 1.0) < 1e-12
    assert mk.hermiticity_defect() < 1e-14
    assert mk.min_eigenvalue() >= -1e-10 * abs(mk.trace())


def test_factorized_marginal_constant_field():
    f = normalized_field()
    mk = hr.factorized_marginal(f)
    vol = TWO_PI
    assert np.max(np.abs(mk.kernel - 1.0 / vol)) < 1e-12


def test_factorized_marginal_requires_normalization():
    f = gp.Field(2.0 * np.ones(16, dtype=complex), (TWO_PI,))
    with pytest.raises(ValueError):
        hr.factorized_marginal(f)


def test_delta_trace_term_trivial_cases():
    const = normalized_field()
    assert np.max(np.abs(hr.delta_trace_term(const).kernel)) == 0.0
    x = (np.arange(64) - 32) * (TWO_PI / 64)
    plane = gp.Field(np.exp(1j * x), (TWO_PI,)).normalize()
    assert np.max(np.abs(hr.delta_trace_term(plane).kernel)) < 1e-14


def test_delta_trace_term_structure():
    f = normalized_field(fn=lambda x: 1.0 + 0.5 * np.cos(x))
    T = hr.delta_trace_term(f).kernel
    assert np.max(np.abs(np.diag(T))) == 0.0
    # commutator structure: kernel(x;x') = -conj kernel(x';x)
    assert np.max(np.abs(T + T.conj().T)) < 1e-15


def test_stationary_phase_trajectory_has_tiny_residual():
    # constant profile evolves by a global phase; every term vanishes
    f = normalized_field()
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)
    traj = [f]
    cur = f
    for _ in range(6):
        cur = gp.gp_evolve(cur, cfg, 0.05)
        traj.append(cur)
    res = hr.hierarchy_residual(traj, 1.0)
    assert res.max_differential() < 1e-10
    assert res.max_integral() < 1e-10


def test_refinement_slopes_at_least_two():
    study = hr.refinement_study(lambda l: hr.build_trajectory(l, coupling=1.0), levels=3, coupling=1.0)
    assert study["slope_differential"] >= 2.0
    assert study["slope_integral"] >= 2.0


def test_wrong_coupling_residual_dominates():
    traj = hr.build_trajectory(2, coupling=1.0)
    matched = hr.hierarchy_residual(traj, 1.0)
    wrong = hr.hierarchy_residual(traj, 2.0)
    zero = hr.hierarchy_residual(traj, 0.0)
    assert wrong.max_differential() >= 10.0 * matched.max_differential()
    assert zero.max_differential() >= 10.0 * matched.max_differential()
    # cross-test matrix: the matched coupling minimizes the residual
    assert matched.max_differential() == min(
        matched.max_differential(), wrong.max_differential(), zero.max_differential()
    )


def test_zero_coupling_integral_form_exact():
    traj = hr.build_trajectory(0, coupling=0.0)
    assert max(hr.integral_form_residual(traj, 0.0)) < 1e-8


def test_integral_form_zero_time():
    f = normalized_field(fn=lambda x: 1.0 + 0.3 * np.cos(x))
    assert hr.integral_form_residual([f], 1.0) == [0.0]


def test_inconsistent_grids_rejected():
    a = normalized_field(M=64)
    b = normalized_field(M=128)
    b.time = 0.05
    c = normalized_field(M=64)
    c.time = 0.1
    d = normalized_field(M=64)
    d.time = 0.15
    e = normalized_field(M=64)
    e.time = 0.2
    with pytest.raises(ValueError, match="inconsistent grids"):
        hr.hierarchy_residual([a, b, c, d, e], 1.0)


def test_needs_five_snapshots():
    traj = hr.build_trajectory(0, coupling=1.0)[:4]
    with pytest.raises(ValueError, match="at least 5"):
        hr.hierarchy_residual(traj, 1.0)


def _dense_propagator(f, t):
    """U(t) = exp(i Lap t) on the grid as a dense matrix."""
    M = f.shape[0]
    symbol = np.exp(-1j * f.k_squared() * t)
    return np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(M), axis=0), axis=0)


def test_integral_sweep_matches_dense_schrodinger_picture():
    g = 1.0
    traj = hr.build_trajectory(0, coupling=g, grid=32)
    sweep = hr.integral_form_residual(traj, g)
    assert len(sweep) == len(traj)
    ds = traj[1].time - traj[0].time
    gamma0 = hr.factorized_marginal(traj[0]).kernel

    def evolve(kernel, lag):
        U = _dense_propagator(traj[0], lag)
        return U @ kernel @ U.conj().T

    for n in (1, 2, 5, len(traj) - 1):
        t = traj[n].time
        duhamel = sum(
            (0.5 if m in (0, n) else 1.0) * ds * evolve(hr.delta_trace_term(traj[m]).kernel, t - traj[m].time)
            for m in range(n + 1)
        )
        resid = hr.factorized_marginal(traj[n]).kernel - (evolve(gamma0, t) - 1j * g * duhamel)
        dense = float(np.linalg.norm(resid) * traj[0].dvol)
        assert abs(sweep[n] - dense) <= 1e-10 * dense, (n, sweep[n], dense)


def test_integral_form_requires_uniform_spacing():
    traj = hr.build_trajectory(0, coupling=1.0)[:5]
    traj[3] = traj[3].copy()
    traj[3].time += 0.01
    with pytest.raises(ValueError, match="uniformly spaced"):
        hr.integral_form_residual(traj, 1.0)


def test_build_trajectory_refines_grid_and_spacing_together():
    coarse = hr.build_trajectory(0, coupling=1.0, dim=2, grid=8, t_final=0.1)
    fine = hr.build_trajectory(1, coupling=1.0, dim=2, grid=8, t_final=0.1)
    assert coarse[0].shape == (8, 8) and fine[0].shape == (16, 16)
    assert len(coarse) == 3 and len(fine) == 5
    assert abs(fine[-1].time - 0.1) < 1e-12
    with pytest.raises(ValueError, match="dim 1 or 2"):
        hr.build_trajectory(0, coupling=1.0, dim=3)
