"""Split-step dynamics and the exact harmonic ground state on periodic boxes."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from condensate_lab import _kernels, gp

TWO_PI = 2.0 * np.pi


def make_1d(M=64, L=TWO_PI, fn=None):
    x = (np.arange(M) - M // 2) * (L / M)
    vals = np.ones(M, dtype=complex) if fn is None else fn(x).astype(complex)
    return gp.Field(vals, (L,))


def test_plane_wave_dispersion():
    M, L = 64, TWO_PI
    x = (np.arange(M) - M // 2) * (L / M)
    A, kmode, g = 0.7, 2.0, 1.3
    f = gp.Field(A * np.exp(1j * kmode * x), (L,))
    cfg = gp.GPConfig(coupling=g, dt=1e-3)
    out = gp.gp_evolve(f, cfg, 1.0)
    omega = kmode**2 + g * A**2
    exact = A * np.exp(1j * (kmode * x - omega))
    assert np.max(np.abs(np.angle(out.values / exact))) < 1e-6
    assert abs(out.mass() - f.mass()) / f.mass() < 1e-10


def test_free_mode_exact_phase():
    M, L = 64, TWO_PI
    x = (np.arange(M) - M // 2) * (L / M)
    f = gp.Field(np.exp(2j * x), (L,))
    out = gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=1e-3), 0.5)
    exact = np.exp(2j * x - 4j * 0.5)
    assert np.max(np.abs(out.values - exact)) < 1e-10


def test_plane_wave_energies_analytic():
    M, L = 64, TWO_PI
    x = (np.arange(M) - M // 2) * (L / M)
    A, kmode, g = 0.7, 2.0, 1.3
    f = gp.Field(A * np.exp(1j * kmode * x), (L,))
    e = gp.gp_energy(f, gp.GPConfig(coupling=g))
    assert abs(e["kinetic"] - kmode**2 * A**2 * L) < 1e-10
    assert abs(e["interaction"] - 0.5 * g * A**4 * L) < 1e-10
    const = gp.Field(np.ones(M, dtype=complex), (L,))
    assert gp.gp_energy(const, gp.GPConfig(coupling=0.0))["kinetic"] < 1e-14


def test_free_gaussian_spreading():
    M, L = 256, 40.0
    x = (np.arange(M) - M // 2) * (L / M)
    f = gp.Field(np.exp(-(x**2) / 2.0).astype(complex), (L,))
    t = 0.5
    out = gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=2e-4), t)
    s2 = 1.0 + 2j * t
    exact = (1.0 / s2) ** 0.5 * np.exp(-(x**2) / (2.0 * s2))
    assert np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * out.dvol) < 1e-6


def test_energy_conservation():
    f = make_1d(128, fn=lambda x: 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
    f.normalize()
    cfg = gp.GPConfig(coupling=1.0, dt=2e-4)
    e0 = gp.gp_energy(f, cfg)["total"]
    cur = f
    for _ in range(5):
        cur = gp.gp_evolve(cur, cfg, 0.2)
        e = gp.gp_energy(cur, cfg)["total"]
        assert abs(e - e0) / abs(e0) < 1e-8


def test_time_reversal():
    f = make_1d(64, fn=lambda x: 1.0 + 0.3 * np.cos(x))
    f.normalize()
    cfg = gp.GPConfig(coupling=1.0, dt=5e-4)
    fwd = gp.gp_evolve(f, cfg, 1.0)
    back = gp.gp_evolve(gp.Field(np.conj(fwd.values), fwd.box), cfg, 1.0)
    err = np.sqrt(np.sum(np.abs(np.conj(back.values) - f.values) ** 2) * f.dvol)
    assert err < 1e-8


def test_dt_refinement_slope():
    f = make_1d(64, fn=lambda x: 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
    f.normalize()
    dts = [2e-3, 1e-3, 5e-4]
    ref = gp.gp_evolve(f, gp.GPConfig(coupling=1.0, dt=1.25e-4), 0.5)
    errs = []
    for dt in dts:
        out = gp.gp_evolve(f, gp.GPConfig(coupling=1.0, dt=dt), 0.5)
        errs.append(np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2) * out.dvol))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_kinetic_scale_precondition():
    f = make_1d(256, fn=lambda x: 1.0 + 0.1 * np.cos(x))
    with pytest.raises(ValueError, match="dt too large"):
        gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=5e-3), 0.5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 80), min_size=1, max_size=3),
    st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
)
def test_max_k_squared_is_the_grid_maximum_bit_for_bit(shape, sides):
    box = tuple(sides[: len(shape)])
    assert gp.max_k_squared(tuple(shape), box) == float(np.max(gp.Field(np.zeros(shape), box).k_squared()))


def test_negative_time_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        gp.gp_evolve(make_1d(64), gp.GPConfig(coupling=1.0), -0.1)


def test_resolution_guard_trips_on_rough_data():
    rng = np.random.default_rng(0)
    f = gp.Field(rng.normal(size=64) + 1j * rng.normal(size=64), (TWO_PI,))
    with pytest.raises(RuntimeError, match="spectral blow-up"):
        gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=1e-4), 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_resolution_guard_trips_on_non_finite_data(bad):
    # a NaN tail fraction fails every comparison, so the guard refuses unless the
    # fraction is small; an inf entry makes it inf / inf, whose numpy warning is not
    # the point here
    f = make_1d()
    f.values[5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="spectral blow-up"):
        gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=1e-4), 0.01)


def test_defocusing_requires_nonnegative_coupling():
    with pytest.raises(ValueError):
        gp.GPConfig(coupling=-1.0)


def test_ground_state_harmonic_1d():
    M, L = 256, 16.0
    x = (np.arange(M) - M // 2) * (L / M)
    init = gp.Field(np.exp(-(x**2)).astype(complex), (L,))
    init.normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), init)
    assert abs(res["energy"] - 1.0) < 1e-4
    es = res["energies"]
    assert all(b <= a for a, b in zip(es[:-1], es[1:]))


def _gaussian(shape, box, width=1.0, phase=1.0):
    mesh = np.meshgrid(*[(np.arange(M) - M // 2) * (L / M) for M, L in zip(shape, box)], indexing="ij")
    vals = phase * np.exp(-sum(c**2 for c in mesh) / (2.0 * width**2))
    return gp.Field(vals, box).normalize()


@pytest.mark.parametrize("shape, box", [((12, 9), (7.0, 6.0)), ((6, 5, 4), (5.0, 4.5, 4.0))])
def test_harmonic_ground_state_is_lowest_eigenvector_of_grid_operator(shape, box):
    # the grid operator -Lap + |x|^2 assembled column by column, as gp_energy applies it
    probe = gp.Field(np.zeros(shape), box)
    k2, trap = probe.k_squared(), gp.harmonic_trap(*probe.meshgrid())
    n = probe.values.size
    H = np.empty((n, n))
    for j, e in enumerate(np.eye(n)):
        e = e.reshape(shape)
        H[:, j] = (np.fft.ifftn(k2 * np.fft.fftn(e)).real + trap * e).ravel()
    lam, vec = np.linalg.eigh(0.5 * (H + H.T))
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), _gaussian(shape, box))
    assert res["iterations"] == 1 and len(res["energies"]) == 2
    assert res["energies"][1] <= res["energies"][0]
    assert abs(res["energy"] - lam[0]) <= 1e-10 * lam[0]
    phi = res["field"].values.ravel() * np.sqrt(probe.dvol)
    assert abs(abs(np.vdot(vec[:, 0], phi)) - 1.0) <= 1e-10


def test_harmonic_ground_state_aligns_phase():
    shape, box = (16, 12), (8.0, 7.0)
    for phase in (1.0, -1.0, np.exp(1j * np.pi / 7)):
        init = _gaussian(shape, box, width=0.7, phase=phase)
        res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), init)
        overlap = np.vdot(init.values, res["field"].values)
        assert overlap.real > 0.9 / init.dvol and abs(overlap.imag) <= 1e-12 * abs(overlap)


def test_harmonic_ground_state_from_odd_init():
    # orthogonal to the even ground state, which the descent cannot leave
    init = make_1d(64, 12.0, fn=lambda x: x * np.exp(-(x**2))).normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), init)
    assert np.all(np.isfinite(res["field"].values))
    assert abs(res["field"].mass() - 1.0) < 1e-12
    assert abs(res["energy"] - 1.0) < 1e-8


def test_harmonic_minimiser_takes_any_phase_when_orthogonal():
    phi = gp._harmonic_minimiser(gp.Field(np.zeros((8, 6)), (5.0, 4.0)))
    assert np.all(np.isfinite(phi.values))
    assert abs(phi.mass() - 1.0) < 1e-12


def test_harmonic_ground_state_returns_the_minimiser_when_energy_rises(monkeypatch):
    # a minimiser above the initial energy is returned all the same, and energies shows the rise
    init = _gaussian((32,), (10.0,))
    worse = make_1d(32, 10.0, fn=lambda x: np.exp(-((x - 1.0) ** 2))).normalize()
    monkeypatch.setattr(gp, "_harmonic_minimiser", lambda f: worse)
    cfg = gp.GPConfig(coupling=0.0, trap="harmonic")
    res = gp.gp_ground_state(cfg, init)
    assert res["iterations"] == 1
    assert res["energies"] == [gp.gp_energy(init, cfg)["total"], gp.gp_energy(worse, cfg)["total"]]
    assert res["energies"][1] > res["energies"][0] and res["energy"] == res["energies"][1]
    assert res["field"] is worse


def test_ground_state_requires_minimizer():
    f = make_1d(64)
    f.normalize()
    with pytest.raises(ValueError, match="no minimizer"):
        gp.gp_ground_state(gp.GPConfig(coupling=0.0), f)


def test_ground_state_requires_normalized_init():
    f = make_1d(64, fn=lambda x: 2.0 + 0 * x)
    with pytest.raises(ValueError, match="normalized"):
        gp.gp_ground_state(gp.GPConfig(coupling=1.0), f)


def test_ground_state_refuses_g_above_zero():
    # no minimiser for g > 0 is offered, in the trap or on the torus
    init = _gaussian((32,), (10.0,))
    for trap in ("harmonic", gp.harmonic_trap, None):
        with pytest.raises(ValueError, match=r"g = 0\.5 > 0"):
            gp.gp_ground_state(gp.GPConfig(coupling=0.5, trap=trap), init)


def test_ground_state_refuses_a_trap_whose_values_are_not_x_squared():
    init = _gaussian((32,), (10.0,))
    for trap in (lambda x: 2.0 * x**2, lambda x: (x - 0.5) ** 2, lambda x: x**2 + 1e-12):
        with pytest.raises(ValueError, match="no minimizer"):
            gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=trap), init)


def test_ground_state_takes_the_exact_path_by_the_trap_values():
    # the name, the function and a wrap of it give one trap, so one result
    init = _gaussian((24, 21), (12.0, 12.0), width=0.8)
    named = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), init)
    for trap in (gp.harmonic_trap, lambda *c: gp.harmonic_trap(*c)):
        res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=trap), init)
        assert res["iterations"] == 1 and res["energies"] == named["energies"]
        assert np.array_equal(res["field"].values, named["field"].values)


def test_ground_state_refuses_an_axis_past_the_dense_limit():
    init = make_1d(gp._EIGH_AXIS_MAX + 2, 16.0, fn=lambda x: np.exp(-(x**2))).normalize()
    with pytest.raises(ValueError, match="at most 1024 points per axis"):
        gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap="harmonic"), init)


def test_trap_must_be_nonnegative():
    f = make_1d(64)
    cfg = gp.GPConfig(coupling=0.0, trap=lambda x: x)
    with pytest.raises(ValueError, match="nonnegative"):
        cfg.trap_values(f)


def test_field_mass_and_tail():
    f = make_1d(64, fn=lambda x: 1.0 + 0.1 * np.cos(x))
    f.normalize()
    assert abs(f.mass() - 1.0) < 1e-12
    assert gp._tail_fraction(scipy.fft.fftn(f.values), gp._low_blocks(f.shape), np.empty(f.shape)) < 1e-12


def _top_octave(axes: list[np.ndarray]) -> np.ndarray:
    """The guard's former mask: the modes at or above half-Nyquist on any axis."""
    mask = np.zeros([k.size for k in axes], dtype=bool)
    for axis, k in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = -1
        mask |= (np.abs(k) >= 0.5 * np.max(np.abs(k))).reshape(shape)
    return mask


@pytest.mark.parametrize("side", [0.3, TWO_PI, 12.0, 1e5])
def test_low_blocks_are_the_modes_below_the_top_octave(side):
    for M in range(1, 200):
        f = gp.Field(np.zeros((M, 2, 3)), (side, side, side))
        low = np.zeros(f.shape, dtype=bool)
        for block in gp._low_blocks(f.shape):
            assert not low[block].any(), "the corner blocks overlap"
            low[block] = True
        assert np.array_equal(low, ~_top_octave(f.k_axes())), M


@st.composite
def _spectra(draw, with_bad=False):
    """A grid and a complex spectrum on it, d = 1-3 with odd and even lengths, decaying
    at a drawn rate; with_bad puts a NaN or inf at a drawn mode."""
    shape = tuple(draw(st.lists(st.integers(1, 17), min_size=1, max_size=3)))
    box = tuple(draw(st.floats(0.5, 20.0)) for _ in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k2 = gp.Field(np.zeros(shape), box).k_squared()
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values *= np.exp(-draw(st.floats(1e-3, 10.0)) * k2) * draw(st.sampled_from([1e-150, 1.0, 1e150]))
    if with_bad:
        index = tuple(draw(st.integers(0, M - 1)) for M in shape)
        values[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, np.nan)]))
    return gp.Field(np.zeros(shape), box), values


@settings(max_examples=300, deadline=None)
@given(_spectra())
def test_top_octave_share_is_the_masked_sum(case):
    f, spectrum = case
    power = np.abs(spectrum) ** 2
    reference = np.sum(power[_top_octave(f.k_axes())]) / np.sum(power)
    tail = gp._tail_fraction(spectrum, gp._low_blocks(f.shape), np.empty(f.shape))
    assert abs(tail - reference) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(_spectra(with_bad=True))
def test_a_non_finite_mode_anywhere_trips_the_guard(case):
    f, spectrum = case
    plan = gp.GPConfig(coupling=0.0)._plan(f)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(RuntimeError, match="spectral blow-up"):
        gp._guard(plan, spectrum, np.empty(f.shape), "probe")


def test_a_guard_probe_allocates_no_grid_array_and_calls_no_blas(monkeypatch):
    f = _cosine(3, 32)
    plan = gp.GPConfig(coupling=1.0)._plan(f)
    gp._bind_c2c()
    spectrum, power = gp._fft(f.values), np.empty(f.shape)

    def refuse(*args, **kwargs):
        raise AssertionError("the guard called a BLAS routine")

    for name in ("dot", "vdot", "inner", "matmul", "tensordot", "einsum"):
        monkeypatch.setattr(np, name, refuse)
    tracemalloc.start()
    try:
        gp._guard(plan, spectrum, power, "probe")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's reductions buffer at most 8192 elements; a grid of |spectrum| is 256 kB here
    assert peak < power.nbytes / 8


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([128, 256]),
    st.floats(0.0, 10.0),
    st.booleans(),
    st.floats(1.5, 2.5),
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0),
    st.integers(1, 40),
)
def test_gp_evolve_conserves_mass(M, g, trapped, width, center, kick, nsteps):
    # a localized packet, negligible at the box edges where the trap phase kinks
    f = make_1d(M, 20.0, lambda x: np.exp(-(((x - center) / width) ** 2) + 1j * kick * x))
    f.normalize()
    cfg = gp.GPConfig(coupling=g, trap=gp.harmonic_trap if trapped else None, dt=1e-3)
    out = gp.gp_evolve(f, cfg, nsteps * cfg.dt)
    assert abs(out.mass() - 1.0) <= 1e-12


def _half_phase(phi, cfg, v):
    return phi * np.exp(-0.5j * cfg.dt * (cfg.coupling * np.abs(phi) ** 2 + v))


def _strang_two_half_steps(f, cfg, nsteps):
    """The textbook loop, a phase half step on each side of every kinetic step.

    Returns the state after each step, the initial state first.
    """
    kin = np.exp(-1j * f.k_squared() * cfg.dt)
    v = cfg.trap_values(f)
    states = [f.values.copy()]
    for _ in range(nsteps):
        phi = np.fft.ifftn(kin * np.fft.fftn(_half_phase(states[-1], cfg, v)))
        states.append(_half_phase(phi, cfg, v))
    return states


# probe = max(1, nsteps // 8): 5 and 8 probe every step, 21 and 44 end between
# probes, 64 ends on one; merged steps run from 16 steps on
@pytest.mark.parametrize("nsteps", [5, 8, 21, 44, 64])
@pytest.mark.parametrize("trapped", [False, True])
@pytest.mark.parametrize("dim, M", [(1, 64), (2, 32), (3, 24)])
def test_merged_half_steps_match_two_half_step_loop(monkeypatch, dim, M, trapped, nsteps):
    # a smooth localized packet: the guard passes with and without the trap
    L = 8.0
    ax = (np.arange(M) - M // 2) * (L / M)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    vals = np.exp(-r2 / 2.0 + 0.5j * mesh[0])
    f = gp.Field(vals, (L,) * dim).normalize()
    cfg = gp.GPConfig(coupling=2.0, trap=gp.harmonic_trap if trapped else None, dt=2e-3)
    guarded = []
    guard = gp._guard

    def spy(plan, spectrum, power, where):
        guarded.append((where, spectrum.copy()))
        guard(plan, spectrum, power, where)

    monkeypatch.setattr(gp, "_guard", spy)
    count = 2
    snaps = [f]
    for _ in range(count):
        snaps.append(gp.gp_evolve(snaps[-1], cfg, nsteps * cfg.dt))
    states = _strang_two_half_steps(f, cfg, count * nsteps)
    # every call ends on the state of the two-half-step loop at its step
    for n, snap in enumerate(snaps[1:], 1):
        ref = states[n * nsteps]
        assert np.linalg.norm(snap.values - ref) <= 1e-12 * np.linalg.norm(ref)
        assert snap.time == pytest.approx(n * nsteps * cfg.dt)
    # each call guards its initial data, then probes at its cadence; the
    # spectrum a probe reads is that of the loop's half-rotated state after
    # the kinetic factor
    probe = max(1, nsteps // 8)
    steps = [k for k in range(1, nsteps + 1) if k % probe == 0 or k == nsteps]
    per_call = ["initial data"] + [f"step {k}" for k in steps]
    assert [where for where, _ in guarded] == per_call * count
    kin = np.exp(-1j * f.k_squared() * cfg.dt)
    v = cfg.trap_values(f)
    for n in range(count):
        (_, initial), *probed = guarded[n * len(per_call) : (n + 1) * len(per_call)]
        assert np.array_equal(initial, scipy.fft.fftn(snaps[n].values))
        for k, (_, spectrum) in zip(steps, probed):
            ref = kin * np.fft.fftn(_half_phase(states[n * nsteps + k - 1], cfg, v))
            assert np.linalg.norm(spectrum - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("nsteps", [0, 1, 7, 40])
@pytest.mark.parametrize("dim, M", [(1, 48), (3, 12)])
def test_each_step_costs_two_transforms(monkeypatch, dim, M, nsteps):
    # one transform pair per Strang step plus the guard on the initial data:
    # a probe that transforms, or a split phase step, would show here.  Every
    # transform is a call of gp._c2c; the spy records its forward flag and
    # whether it writes into a given buffer (the initial data's into rot), so
    # none allocates its output.  gp binds _c2c at a solver's entry, not at
    # import, and must not rebind it over the spy
    calls = []
    from scipy.fft._pocketfft.pypocketfft import c2c

    def spy(a, axes, forward, inorm, out, nthreads):
        calls.append((forward, out is not None))
        return c2c(a, axes, forward, inorm, out, nthreads)

    monkeypatch.setattr(gp, "_c2c", spy)
    f = _cosine(dim, M)
    out = gp.gp_evolve(f, gp.GPConfig(coupling=1.0, dt=1e-3), nsteps * 1e-3)
    assert calls == [(True, True)] + [(True, True), (False, True)] * nsteps
    if nsteps == 0:
        assert np.array_equal(out.values, f.values)


def _cosine(dim, M):
    ax = (np.arange(M) - M // 2) * (TWO_PI / M)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return gp.Field(1.0 + 0.2 * np.cos(mesh[0]), (TWO_PI,) * dim).normalize()


# the sample configs' grids, the hierarchy ladder (dims 1-3 at levels 0-2), the
# acceptance battery's 48^3 and 64^3, and odd lengths, 97 and 101 of them
# transformed by Bluestein's algorithm; on 3 x 23 x 67 sites 1/N in long double
# rounds to another double than 1.0 / N does.  The 3-d shapes also run on slabs
@pytest.mark.parametrize(
    "shape",
    [(64,), (128,), (256,), (20, 20), (40, 40), (80, 80), (8,) * 3, (16,) * 3, (32,) * 3, (48,) * 3, (64,) * 3, (31,)]
    + [(33, 16, 16), (97, 8, 4), (13, 101, 2), (5, 1, 7), (3, 23, 67)],
)
def test_the_transform_pair_is_fftn_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gp._bind_c2c()  # as every caller of the pair does first
    _check_pair(a, gp._one_thread)
    if len(shape) == 3 and _kernels.pool_size() > 1:
        # the passes on slabs of two pinned threads, as grids past the crossover run them
        with _kernels._pinned_split() as split:
            _check_pair(a, split)


def _same_bits(x, y) -> bool:
    return x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64))


def _check_pair(a, split):
    for pair, ref in ((gp._fft, scipy.fft.fftn(a)), (gp._ifft, scipy.fft.ifftn(a))):
        assert _same_bits(pair(a, split=split), ref)
        inplace = a.copy()
        assert pair(inplace, inplace, split) is inplace
        assert _same_bits(inplace, ref)


def _record_threads(monkeypatch) -> list:
    """The names of the threads started from here on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _two_threads_then_one_cpu(monkeypatch, run):
    """run() with the crossover lowered to every grid, then with an affinity mask of
    one CPU; returns both results and the threads each started."""
    if _kernels.pool_size() < 2:
        pytest.skip("the affinity mask allows one thread")
    started = _record_threads(monkeypatch)
    monkeypatch.setattr(gp, "_THREAD_SITES", 1)
    threaded = run()
    first = started.copy()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return threaded, run(), first, started[len(first) :]


@pytest.mark.parametrize("trapped", [False, True])
@pytest.mark.parametrize("shape", [(24, 24, 24), (33, 24, 24)])
def test_two_threads_take_the_one_thread_steps_bit_for_bit(monkeypatch, shape, trapped):
    # odd axis lengths split into unequal slabs; 21 steps end between probes.  A
    # localized packet, so the guard passes with the trap too
    L = 8.0
    mesh = np.meshgrid(*[(np.arange(M) - M // 2) * (L / M) for M in shape], indexing="ij")
    f = gp.Field(np.exp(-sum(c**2 for c in mesh) / 2.0 + 0.5j * mesh[0]), (L,) * len(shape)).normalize()
    cfg = gp.GPConfig(coupling=2.0, trap="harmonic" if trapped else None, dt=2e-3)
    guard = gp._guard

    def run():
        spectra = []
        monkeypatch.setattr(gp, "_guard", lambda plan, s, p, where: spectra.append(s.copy()) or guard(plan, s, p, where))
        return gp.gp_evolve(f, cfg, 21 * cfg.dt), spectra

    (threaded, probed), (serial, reference), started, one_cpu = _two_threads_then_one_cpu(monkeypatch, run)
    assert started == ["condensate-lab split"] and one_cpu == []
    assert _same_bits(threaded.values, serial.values) and threaded.time == serial.time
    assert len(probed) == len(reference) == 12
    assert all(_same_bits(a, b) for a, b in zip(probed, reference))


def test_gp_energy_stays_on_one_thread_past_the_crossover(monkeypatch):
    # its one transform saves less than starting a worker costs
    f = _cosine(3, 24)
    cfg = gp.GPConfig(coupling=1.0, trap="harmonic")
    threaded, serial, started, _ = _two_threads_then_one_cpu(monkeypatch, lambda: gp.gp_energy(f, cfg))
    assert threaded == serial and started == []


def test_grids_below_the_crossover_start_no_worker(monkeypatch):
    from condensate_lab import hierarchy

    workers, calls = _record_threads(monkeypatch), []
    from scipy.fft._pocketfft.pypocketfft import c2c  # gp binds it at a solver's entry
    monkeypatch.setattr(gp, "_c2c", lambda a, axes, *rest: calls.append((axes, rest[-1])) or c2c(a, axes, *rest))
    # the hierarchy workload's ladder, the sample configs' 1-d evolve grids, the
    # 2-d and 3-d hierarchy ladders below 2^15 sites, and a 2-d grid past them
    hierarchy.refinement_study(levels=3, coupling=1.0)
    for dim, M in [(1, 64), (1, 128), (1, 256), (2, 20), (2, 40), (2, 80), (3, 8), (3, 16), (2, 192)]:
        f = _cosine(dim, M)
        cfg = gp.GPConfig(coupling=1.0, dt=1e-4)
        gp.gp_energy(gp.gp_evolve(f, cfg, 3 * cfg.dt), cfg)
    assert workers == []
    # each transform one c2c call on one thread: over the whole grid, or over the field
    # axis of the 1-d ladder's stack of pulled-back fields (hierarchy._pulled_back)
    assert calls and set(calls) == {(None, 1), ((1,), 1)}
    if _kernels.pool_size() > 1:
        gp.gp_evolve(_cosine(3, 32), gp.GPConfig(coupling=1.0, dt=1e-4), 1e-4)
        assert workers == ["condensate-lab split"]


def test_gp_evolve_peak_memory_does_not_grow_with_steps():
    # in units of one field: the state (1), _rotate's theta (1/2) and rot (1);
    # the initial data's spectrum is taken in rot and every guard probe's power
    # in theta, so nothing else is grid-sized, and Python objects add under
    # 1/50 field (2.519 measured at 24^3).  An allocation per step that
    # outlived it would grow the peak with the step count, and any grid-sized
    # temporary in a probe or the initial guard would pass 3
    f = _cosine(3, 24)
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)
    gp.gp_evolve(f, cfg, cfg.dt)  # builds the plan and its kinetic factor
    peaks = []
    for nsteps in (1, 20):
        tracemalloc.start()
        try:
            gp.gp_evolve(f, cfg, nsteps * cfg.dt)
            peaks.append(tracemalloc.get_traced_memory()[1] / f.values.nbytes)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.01
    assert max(peaks) <= 2.53


def test_a_threaded_call_keeps_the_serial_peak_memory(monkeypatch):
    # the slabs are views and every pass runs in place, so two threads hold the
    # fields one does, 2.5 of them (see above); the worker and its locks, about
    # 7 kB, add under 1/50 field at 32^3 (2.524 measured on the split)
    f = _cosine(3, 32)
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)
    gp.gp_evolve(f, cfg, cfg.dt)

    def peak():
        tracemalloc.start()
        try:
            gp.gp_evolve(f, cfg, 20 * cfg.dt)
            return tracemalloc.get_traced_memory()[1] / f.values.nbytes
        finally:
            tracemalloc.stop()

    threaded, serial, started, _ = _two_threads_then_one_cpu(monkeypatch, peak)
    assert started == ["condensate-lab split"]
    assert threaded <= serial + 0.02 and threaded <= 2.53


@pytest.mark.parametrize("g, step", [(50.0, 372), (200.0, 124), (1000.0, 62)])
def test_resolution_guard_trips_mid_run(g, step):
    # smooth data that strong coupling steepens past the grid within t = 0.5
    f = make_1d(32, fn=lambda x: 1.0 + 0.5 * np.cos(x)).normalize()
    cfg = gp.GPConfig(coupling=g, dt=1e-3)
    with pytest.raises(RuntimeError, match=rf"spectral blow-up: .* \(step {step}\)"):
        gp.gp_evolve(f, cfg, 0.5)


def test_real_input_is_stored_complex_and_evolves_alike():
    f = make_1d(64, fn=lambda x: 1.0 + 0.3 * np.cos(x))
    real = gp.Field(f.values.real, f.box)
    assert real.values.dtype == np.complex128
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)
    assert gp.gp_energy(real, cfg) == gp.gp_energy(f, cfg)
    out = gp.gp_evolve(real, cfg, 0.05)
    assert np.array_equal(out.values, gp.gp_evolve(f, cfg, 0.05).values)
