"""Split-step dynamics and imaginary-time ground states on periodic boxes."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from condensate_lab import gp

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


def test_negative_time_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        gp.gp_evolve(make_1d(64), gp.GPConfig(coupling=1.0), -0.1)


def test_resolution_guard_trips_on_rough_data():
    rng = np.random.default_rng(0)
    f = gp.Field(rng.normal(size=64) + 1j * rng.normal(size=64), (TWO_PI,))
    with pytest.raises(RuntimeError, match="spectral blow-up"):
        gp.gp_evolve(f, gp.GPConfig(coupling=0.0, dt=1e-4), 0.01)


def test_defocusing_requires_nonnegative_coupling():
    with pytest.raises(ValueError):
        gp.GPConfig(coupling=-1.0)


def test_ground_state_harmonic_1d():
    M, L = 256, 16.0
    x = (np.arange(M) - M // 2) * (L / M)
    init = gp.Field(np.exp(-(x**2)).astype(complex), (L,))
    init.normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
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
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), _gaussian(shape, box))
    assert res["iterations"] == 1 and len(res["energies"]) == 2
    assert res["energies"][1] <= res["energies"][0]
    assert abs(res["energy"] - lam[0]) <= 1e-10 * lam[0]
    phi = res["field"].values.ravel() * np.sqrt(probe.dvol)
    assert abs(abs(np.vdot(vec[:, 0], phi)) - 1.0) <= 1e-10


@pytest.mark.parametrize("shape", [(64,), (24, 21)])
def test_harmonic_ground_state_matches_descent(shape):
    box = (12.0,) * len(shape)
    init = _gaussian(shape, box, width=0.8)
    exact = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
    # the same trap as a user callable takes the imaginary-time descent
    descent = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=lambda *c: gp.harmonic_trap(*c)), init)
    assert exact["iterations"] == 1 < descent["iterations"]
    assert abs(exact["energy"] - descent["energy"]) <= 1e-6 * descent["energy"]
    assert exact["energy"] <= descent["energy"] + 1e-12
    diff = exact["field"].values - descent["field"].values
    assert np.sqrt(np.sum(np.abs(diff) ** 2) * init.dvol) < 1e-3


def test_harmonic_ground_state_aligns_phase():
    shape, box = (16, 12), (8.0, 7.0)
    for phase in (1.0, -1.0, np.exp(1j * np.pi / 7)):
        init = _gaussian(shape, box, width=0.7, phase=phase)
        res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
        overlap = np.vdot(init.values, res["field"].values)
        assert overlap.real > 0.9 / init.dvol and abs(overlap.imag) <= 1e-12 * abs(overlap)


def test_harmonic_ground_state_from_odd_init():
    # orthogonal to the even ground state, which the descent cannot leave
    init = make_1d(64, 12.0, fn=lambda x: x * np.exp(-(x**2))).normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
    assert np.all(np.isfinite(res["field"].values))
    assert abs(res["field"].mass() - 1.0) < 1e-12
    assert abs(res["energy"] - 1.0) < 1e-8


def test_harmonic_ground_state_descends_past_the_dense_axis_limit():
    M = gp._EIGH_AXIS_MAX + 2
    init = make_1d(M, 16.0, fn=lambda x: np.exp(-(x**2))).normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap), init)
    assert res["iterations"] > 1
    assert abs(res["energy"] - 1.0) < 1e-4


def test_harmonic_minimiser_takes_any_phase_when_orthogonal():
    phi = gp._harmonic_minimiser(gp.Field(np.zeros((8, 6)), (5.0, 4.0)))
    assert np.all(np.isfinite(phi.values))
    assert abs(phi.mass() - 1.0) < 1e-12


def test_harmonic_ground_state_keeps_init_when_energy_would_rise(monkeypatch):
    init = _gaussian((32,), (10.0,))
    worse = make_1d(32, 10.0, fn=lambda x: np.exp(-((x - 1.0) ** 2))).normalize()
    monkeypatch.setattr(gp, "_harmonic_minimiser", lambda f: worse)
    cfg = gp.GPConfig(coupling=0.0, trap=gp.harmonic_trap)
    res = gp.gp_ground_state(cfg, init)
    assert res["iterations"] == 1
    assert res["energies"] == [gp.gp_energy(init, cfg)["total"]]
    assert np.array_equal(res["field"].values, init.values)


def test_ground_state_monotone_in_coupling():
    M, L = 128, 16.0
    x = (np.arange(M) - M // 2) * (L / M)
    init = gp.Field(np.exp(-(x**2)).astype(complex), (L,))
    init.normalize()
    energies = []
    for g in (0.0, 1.0, 10.0):
        res = gp.gp_ground_state(gp.GPConfig(coupling=g, trap=gp.harmonic_trap), init)
        energies.append(res["energy"])
    assert energies[0] < energies[1] < energies[2]


def test_ground_state_on_torus_with_coupling_is_constant():
    f = make_1d(64, fn=lambda x: 1.0 + 0.3 * np.cos(x))
    f.normalize()
    res = gp.gp_ground_state(gp.GPConfig(coupling=2.0), f, tol=1e-13)
    dens = np.abs(res["field"].values) ** 2
    assert (np.max(dens) - np.min(dens)) / np.mean(dens) < 1e-3


def test_ground_state_requires_minimizer():
    f = make_1d(64)
    f.normalize()
    with pytest.raises(ValueError, match="no minimizer"):
        gp.gp_ground_state(gp.GPConfig(coupling=0.0), f)


def test_ground_state_requires_normalized_init():
    f = make_1d(64, fn=lambda x: 2.0 + 0 * x)
    with pytest.raises(ValueError, match="normalized"):
        gp.gp_ground_state(gp.GPConfig(coupling=1.0), f)


def test_trap_must_be_nonnegative():
    f = make_1d(64)
    cfg = gp.GPConfig(coupling=0.0, trap=lambda x: x)
    with pytest.raises(ValueError, match="nonnegative"):
        cfg.trap_values(f)


def test_field_mass_and_tail():
    f = make_1d(64, fn=lambda x: 1.0 + 0.1 * np.cos(x))
    f.normalize()
    assert abs(f.mass() - 1.0) < 1e-12
    assert gp._tail_fraction(scipy.fft.fftn(f.values), gp._top_octave(f.k_axes())) < 1e-12


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

    def spy(plan, spectrum, where):
        guarded.append((where, spectrum.copy()))
        guard(plan, spectrum, where)

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
    # a probe that transforms, or a split phase step, would show here
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        fn = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    ax = (np.arange(M) - M // 2) * (TWO_PI / M)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    f = gp.Field(1.0 + 0.2 * np.cos(mesh[0]), (TWO_PI,) * dim).normalize()
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)  # a new config builds its plan from the patched module
    out = gp.gp_evolve(f, cfg, nsteps * cfg.dt)
    forward, inverse = ("fft", "ifft") if dim == 1 else ("fftn", "ifftn")
    assert calls == [forward] + [forward, inverse] * nsteps
    if nsteps == 0:
        assert np.array_equal(out.values, f.values)


@pytest.mark.parametrize("g, step", [(50.0, 372), (200.0, 124), (1000.0, 62)])
def test_resolution_guard_trips_mid_run(g, step):
    # smooth data that strong coupling steepens past the grid within t = 0.5
    f = make_1d(32, fn=lambda x: 1.0 + 0.5 * np.cos(x)).normalize()
    cfg = gp.GPConfig(coupling=g, dt=1e-3)
    with pytest.raises(RuntimeError, match=rf"spectral blow-up: .* \(step {step}\)"):
        gp.gp_evolve(f, cfg, 0.5)


@pytest.mark.parametrize("shape", [(64,), (24, 21)])
def test_ground_state_real_and_complex_paths_agree(shape):
    L = 12.0
    axes = [(np.arange(M) - M // 2) * (L / M) for M in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    gauss = np.exp(-sum(c**2 for c in mesh))
    cfg = gp.GPConfig(coupling=1.0, trap=gp.harmonic_trap)
    real, cplx = (
        gp.gp_ground_state(cfg, gp.Field((gauss * phase).astype(complex), (L,) * len(shape)).normalize())
        for phase in (1.0, np.exp(1j * np.pi / 7))
    )
    # the descent commutes with a global phase
    assert real["iterations"] == cplx["iterations"]
    np.testing.assert_allclose(real["energies"], cplx["energies"], rtol=1e-12, atol=0)
    assert real["field"].values.dtype == np.complex128
    rotated = real["field"].values * np.exp(1j * np.pi / 7)
    assert np.linalg.norm(cplx["field"].values - rotated) <= 1e-12 * np.linalg.norm(rotated)


def test_real_input_is_stored_complex_and_evolves_alike():
    f = make_1d(64, fn=lambda x: 1.0 + 0.3 * np.cos(x))
    real = gp.Field(f.values.real, f.box)
    assert real.values.dtype == np.complex128
    cfg = gp.GPConfig(coupling=1.0, dt=1e-3)
    assert gp.gp_energy(real, cfg) == gp.gp_energy(f, cfg)
    out = gp.gp_evolve(real, cfg, 0.05)
    assert np.array_equal(out.values, gp.gp_evolve(f, cfg, 0.05).values)
