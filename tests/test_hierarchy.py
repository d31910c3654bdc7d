"""Both residual forms against a dense reference built from n x n kernels."""

import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condensate_lab import cli, gp
from condensate_lab import hierarchy as hr

TWO_PI = 2.0 * np.pi


# Dense reference: the kernels as n x n arrays, for small grids only.


@dataclass
class MarginalKernel:
    """Discrete one-particle kernel gamma(x; x') on a flattened grid."""

    kernel: np.ndarray
    dvol: float

    def trace(self) -> complex:
        return complex(np.trace(self.kernel) * self.dvol)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.kernel - self.kernel.conj().T)))

    def min_eigenvalue(self) -> float:
        w = np.linalg.eigvalsh(0.5 * (self.kernel + self.kernel.conj().T))
        return float(w[0] * self.dvol)


def factorized_marginal(f):
    """gamma = |phi><phi| for a normalized field."""
    if abs(f.mass() - 1.0) > 1e-8:
        raise ValueError("field must be normalized to unit mass")
    phi = f.values.reshape(-1)
    return MarginalKernel(kernel=np.outer(phi, np.conj(phi)), dvol=f.dvol)


def delta_trace_term(f):
    """Contact commutator of the factorized two-particle kernel, traced once."""
    if abs(f.mass() - 1.0) > 1e-8:
        raise ValueError("rank-1 required: witness field must be normalized")
    phi = f.values.reshape(-1)
    dens = np.abs(phi) ** 2
    kernel = (dens[:, None] - dens[None, :]) * np.outer(phi, np.conj(phi))
    return MarginalKernel(kernel=kernel, dvol=f.dvol)


def _dense_operator(f, symbol):
    """The Fourier multiplier `symbol` on f's grid as a dense matrix."""
    n = f.values.size
    axes = tuple(range(1, f.dim + 1))
    images = np.fft.ifftn(symbol * np.fft.fftn(np.eye(n).reshape((n,) + f.shape), axes=axes), axes=axes)
    return images.reshape(n, n).T


def _dense_propagator(f, t):
    """U(t) = exp(i Lap t) on the grid as a dense matrix."""
    return _dense_operator(f, np.exp(-1j * f.k_squared() * t))


def _dense_residuals(traj, g):
    """Both residual forms in the Schrodinger picture, from dense kernels."""
    ds = traj[1].time - traj[0].time
    dvol = traj[0].dvol
    P = [factorized_marginal(f).kernel for f in traj]
    T = [delta_trace_term(f).kernel for f in traj]
    U = [_dense_propagator(traj[0], k * ds) for k in range(len(traj))]

    def evolve(kernel, lag):
        return U[lag] @ kernel @ U[lag].conj().T

    integral = [0.0]
    for n in range(1, len(traj)):
        duhamel = sum((0.5 if m in (0, n) else 1.0) * ds * evolve(T[m], n - m) for m in range(n + 1))
        integral.append(float(np.linalg.norm(P[n] - evolve(P[0], n) + 1j * g * duhamel) * dvol))
    minus_lap = _dense_operator(traj[0], traj[0].k_squared())
    differential = []
    for n in range(2, len(traj) - 2):
        ddt = (-P[n + 2] + 8.0 * P[n + 1] - 8.0 * P[n - 1] + P[n - 2]) / (12.0 * ds)
        rhs = minus_lap @ P[n] - P[n] @ minus_lap + g * T[n]
        differential.append(float(np.linalg.norm(1j * ddt - rhs) * dvol))
    return differential, integral


def normalized_field(M=64, fn=None):
    x = (np.arange(M) - M // 2) * (TWO_PI / M)
    vals = np.ones(M, dtype=complex) if fn is None else fn(x).astype(complex)
    f = gp.Field(vals, (TWO_PI,))
    return f.normalize()


def test_factorized_marginal_properties():
    rng = np.random.default_rng(0)
    f = normalized_field(fn=lambda x: rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
    mk = factorized_marginal(f)
    assert abs(mk.trace() - 1.0) < 1e-12
    assert mk.hermiticity_defect() < 1e-14
    assert mk.min_eigenvalue() >= -1e-10 * abs(mk.trace())


def test_factorized_marginal_constant_field():
    f = normalized_field()
    mk = factorized_marginal(f)
    vol = TWO_PI
    assert np.max(np.abs(mk.kernel - 1.0 / vol)) < 1e-12


def test_factorized_marginal_requires_normalization():
    f = gp.Field(2.0 * np.ones(16, dtype=complex), (TWO_PI,))
    with pytest.raises(ValueError):
        factorized_marginal(f)


def test_delta_trace_term_trivial_cases():
    const = normalized_field()
    assert np.max(np.abs(delta_trace_term(const).kernel)) == 0.0
    x = (np.arange(64) - 32) * (TWO_PI / 64)
    plane = gp.Field(np.exp(1j * x), (TWO_PI,)).normalize()
    assert np.max(np.abs(delta_trace_term(plane).kernel)) < 1e-14


def test_delta_trace_term_structure():
    f = normalized_field(fn=lambda x: 1.0 + 0.5 * np.cos(x))
    T = delta_trace_term(f).kernel
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
    assert max(res.integral_residual) < 1e-10


def test_refinement_slopes_at_least_two():
    study = hr.refinement_study(levels=3, coupling=1.0)
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


def test_integral_sweep_matches_dense_schrodinger_picture():
    g = 1.0
    traj = hr.build_trajectory(0, coupling=g, grid=32)
    sweep = hr.integral_form_residual(traj, g)
    assert len(sweep) == len(traj)
    _, dense = _dense_residuals(traj, g)
    for n in (1, 2, 5, len(traj) - 1):
        assert abs(sweep[n] - dense[n]) <= 1e-10 * dense[n], (n, sweep[n], dense[n])


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
    # the same two-mode state in d = 3: constant along the middle axis
    cube = hr.build_trajectory(0, coupling=1.0, dim=3, grid=8, t_final=0.1)
    assert cube[0].shape == (8, 8, 8) and len(cube) == 3
    for j in (0, 5):
        assert np.allclose(cube[0].values[:, j, :] * np.sqrt(TWO_PI), coarse[0].values, rtol=0, atol=1e-14)


@st.composite
def _ladders(draw):
    """Small resolved GP trajectories and a residual coupling in [-2, 2]."""
    dim = draw(st.sampled_from([1, 2]))
    grid = draw(st.integers(24, 48) if dim == 1 else st.integers(10, 16))
    amp = st.floats(-0.5, 0.5, allow_nan=False)
    snapshots = draw(st.integers(5, 13))
    traj = hr.build_trajectory(
        0,
        coupling=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0)),
        dim=dim,
        grid=grid,
        t_final=0.05 * (snapshots - 1),
        amp_cos=draw(amp),
        amp_sin=draw(amp),
    )
    return traj, draw(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0))


@settings(max_examples=30, deadline=None)
@given(_ladders())
# more pulled-back fields than grid points: 2 * 11 columns on 20 points
@example((hr.build_trajectory(0, coupling=1.0, grid=20, t_final=0.5), 1.0))
def test_low_rank_residuals_match_dense_kernels(case):
    traj, g = case
    res = hr.hierarchy_residual(traj, g)
    differential, integral = _dense_residuals(traj, g)
    pairs = list(zip(res.differential_residual, differential))
    pairs += list(zip(hr.integral_form_residual(traj, g), integral))
    for low_rank, dense in pairs:
        # relative agreement above the roundoff floor of the O(1) terms
        assert abs(low_rank - dense) <= 1e-9 * dense + 1e-13, (low_rank, dense)


def test_residuals_allocate_no_dense_kernel():
    M = 1024
    traj = hr.build_trajectory(0, coupling=1.0, grid=M, snapshot_dt=1e-4, t_final=8e-4)
    tracemalloc.start()
    try:
        hr.hierarchy_residual(traj, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * M * M, peak


def test_sweep_memory_matches_the_parse_time_refusal(monkeypatch):
    # The documented d = 3 ladder (finest level 2); the d = 1 default ladder
    # (n = 256 points, T = 41 snapshots), whose peak is in the sweep's r x r
    # matrices (r = min(n, 2T)); and a long ladder on a small grid (n = 64,
    # T = 401), where the r x 2T QR coordinates are as large as the 2T
    # pulled-back fields.  The count adds one numpy iterator buffer for the
    # r x r matrices, which a ladder may leave unused.
    buffer = 16 * np.getbufsize()
    cases = [
        ({"dim": 3, "grid": 8, "levels": 3}, 0),
        ({"dim": 1, "grid": 64, "levels": 3}, buffer),
        ({"dim": 1, "grid": 32, "levels": 2, "t_final": 10.0}, buffer),
    ]
    for params, slack in cases:
        doc = json.dumps({"task": "hierarchy-check", **params})
        shape = {key: value for key, value in params.items() if key != "levels"}
        traj = hr.build_trajectory(params["levels"] - 1, coupling=1.0, **shape)
        field = traj[0].values.nbytes
        tracemalloc.start()
        try:
            hr.integral_form_residual(traj, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        used = peak + len(traj) * field
        # _read_hierarchy must refuse a memory one byte short of what the
        # trajectory and sweep used, and accept one field (and the buffer) more:
        # the count covers the sweep and is not loose by a whole field.
        monkeypatch.setattr(cli, "_physical_memory", lambda: used - 1)
        with pytest.raises(cli.ConfigError, match="physical memory"):
            cli.parse_config(doc)
        monkeypatch.setattr(cli, "_physical_memory", lambda: used + field + slack)
        cli.parse_config(doc)


def test_wrong_coupling_reuses_the_matched_factorization():
    # The differential residual at another coupling, from the matched run's QR,
    # is the one a separate run at that coupling computes, to the last bit.
    traj = hr.build_trajectory(1, coupling=1.0)
    matched = hr.hierarchy_residual(traj, 1.0)
    for g in (2.0, 0.0, -0.5, 1.0 + 1e-9, 7.25):
        assert matched.max_differential(g) == hr.hierarchy_residual(traj, g).max_differential()
        assert matched.differential(g) == hr.hierarchy_residual(traj, g).differential_residual
    assert matched.max_differential(1.0) == matched.max_differential()
