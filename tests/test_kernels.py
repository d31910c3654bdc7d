"""Radial kernels against exact solutions and invariants, and the split GP threads share."""

import os
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import lapack

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


def test_cn_evolve_equals_a_loop_over_scipys_f2py_zgttrs():
    # cn_evolve solves through the zgttrs pointer of scipy.linalg.cython_lapack, which
    # releases the GIL; it must give the bits of scipy's f2py wrapper, here on a soft core
    m, h, dt, nsteps = 1200, 0.02, 1e-3, 200
    r = h * np.arange(1, m + 1)
    q = np.where(r <= 0.5, 8.0, 0.0)
    u0 = np.sqrt(4.0 * np.pi) * r * np.exp(-0.5 * r**2)
    theta = 0.5 * dt
    off = 1j * theta * (-1.0 / h**2) * np.ones(m - 1, dtype=np.complex128)
    diag = 1.0 + 1j * theta * (2.0 / h**2 + q).astype(np.complex128)
    dl, dd, du, du2, ipiv, info = lapack.zgttrf(off, diag, off)
    assert info == 0
    ref = u0.astype(np.complex128)
    for _ in range(nsteps):
        y, info = lapack.zgttrs(dl, dd, du, du2, ipiv, ref)
        assert info == 0
        ref = 2.0 * y - ref
    assert np.array_equal(K.cn_evolve(u0, q, h, dt, nsteps), ref)


def test_pinned_split_covers_the_range_raises_either_halfs_error_and_cleans_up():
    # the worker's exception comes back through the caller, the split stays usable,
    # and exit stops the worker and restores the caller's affinity mask; a short
    # switch interval makes the handoffs interleave with the interpreter's
    if K.pool_size() < 2:
        pytest.skip("the affinity mask allows one thread")
    mask = os.sched_getaffinity(0)
    seen, errors, masks = [], [], []

    def body():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with K._pinned_split() as split:
                for n in range(200):
                    split(lambda s: seen.append((s.start, s.stop)), n)
                for bad in (0, 1):
                    def fail(s, bad=bad):
                        if (s.start > 0) == bad:
                            raise ValueError(bad)
                    try:
                        split(fail, 4)
                    except ValueError as exc:
                        errors.append(exc.args[0])
                masks.append(os.sched_getaffinity(0))
            masks.append(os.sched_getaffinity(0))
        finally:
            sys.setswitchinterval(interval)

    runner = threading.Thread(target=body)
    before = threading.active_count()
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert sorted(seen) == sorted(p for n in range(200) for p in ((0, n // 2), (n // 2, n)))
    assert errors == [0, 1]
    assert threading.active_count() == before
    assert len(masks[0]) == 1 and masks[1] == mask


def test_a_split_holds_every_bound_openblas_to_one_thread():
    # a BLAS call inside the split starts no OpenBLAS thread; exit gives each library its count back
    if K.pool_size() < 2:
        pytest.skip("the affinity mask allows one thread")
    with K._one_blas_thread():  # binds numpy's OpenBLAS and scipy's, which the lapack import mapped
        pass
    assert len(K._openblas) == 2
    counts = [get() for _, get in K._openblas]
    inside = []
    try:
        for set_threads, _ in K._openblas:
            set_threads(2)
        with K._pinned_split() as split:
            split(lambda s: inside.append([get() for _, get in K._openblas]), 2)
            inside.append([get() for _, get in K._openblas])
        after = [get() for _, get in K._openblas]
    finally:
        for (set_threads, _), n in zip(K._openblas, counts):
            set_threads(n)
    assert inside == [[1, 1]] * 3
    assert after == [2, 2]
