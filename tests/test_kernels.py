"""Radial kernels against exact solutions and invariants."""

import numpy as np

from condensate_lab import _kernels as K


def test_rk4_free_oscillator_matches_sine():
    # u'' = -k^2 u, u(0)=0, u'(0)=1  ->  sin(k r)/k
    h = 0.002
    nsteps = 2000
    q = np.zeros(2 * nsteps + 1)
    k = np.array([1.7])
    out, u, up = K.rk4_radial_batch(q, k**2, h, np.array([0.0]), np.array([1.0]))
    r = h * np.arange(nsteps + 1)
    exact = np.sin(k[0] * r) / k[0]
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-10


def test_phase_kernel_zero_potential():
    q = np.zeros(201)
    assert K.rk4_phase(q, 2.0, 0.01) == 0.0


def test_cn_evolve_unitary():
    rng = np.random.default_rng(2)
    m = 400
    h = 0.02
    q = rng.uniform(0.0, 3.0, m)
    u = (rng.normal(size=m) + 1j * rng.normal(size=m)) * np.hanning(m)
    b = K.cn_evolve(u.copy(), q, h, 1e-3, 50)
    assert abs(np.linalg.norm(b) - np.linalg.norm(u)) < 1e-12 * np.linalg.norm(u)


def test_cn_zero_steps_identity():
    u = np.arange(5, dtype=complex)
    out = K.cn_evolve(u, np.zeros(5), 0.1, 1e-3, 0)
    assert np.array_equal(out, u)
