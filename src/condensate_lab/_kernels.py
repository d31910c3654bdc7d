"""Hot numerical kernels (numpy/scipy).

Kernels:
  * batched RK4 sweep for the radial equation u'' = (q(r) - k^2) u
  * RK4 sweep for the s-wave phase ODE
  * Crank-Nicolson (implicit midpoint) stepping of i u_t = (-d^2/dr^2 + q) u
    on a Dirichlet grid, via a pre-factored LAPACK tridiagonal solve.  The
    propagators call it only for q != 0; the q = 0 scheme is diagonal in the
    DST-I basis and is applied there exactly (propagators._cn_steps).

Both stacks run on pool_size() threads.  Each CN step's solve is scipy's
f2py lapack.zgttrs, which releases the GIL for the call (tests/test_kernels.py
checks that a Python thread advances during one).  So CN runs on two threads
overlap, and _pool_map runs them: convergence_experiment maps its N values
over pool_size() threads.  gp's split-step on large 3-d grids shares its slabs
between the calling thread and a pinned worker through _pinned_split.  Every
thread does the same arithmetic on the same data as one thread would, so
results do not change by a bit.
OpenBLAS's own threads do not keep that promise for a GEMM or a QR, so the
scattering transform's products, hierarchy's zgeqrf and every _pinned_split
run under _one_blas_thread.

scipy loads where it is first used, never on import: here at the first CN
solve (cn_evolve), in gp at the entry of a solver that transforms,
elsewhere inside the functions that call it.  The RK4 sweeps need numpy
alone, so the scatter task, which runs only them, never loads scipy; nor do
the vl1, vl12 and theta checks.

``python3 perfbench/run.py --workload radial --trace 1`` times each kernel.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Kept for callers that record the active kernel path; there is only one.
HAVE_NUMBA = False


def pool_size() -> int:
    """Threads of _pool_map: the machine's two cores, fewer if the affinity mask allows fewer."""
    return min(2, len(os.sched_getaffinity(0)))


def _pool_map(fn, items) -> list:
    """[fn(x) for x in items], taken in order by pool_size() threads."""
    with ThreadPoolExecutor(max_workers=pool_size()) as pool:
        return list(pool.map(fn, items))


_sched_getcpu = ctypes.CDLL(None).sched_getcpu


@contextlib.contextmanager
def _pinned_split():
    """Yields split(fn, n), which runs fn(s) on the two halves s of range(n) at
    once: the calling thread takes the first, one worker thread the second.
    For a caller whose affinity mask has at least two CPUs (pool_size() == 2).

    Inside, the caller is pinned to the CPU it runs on and the worker to the
    other CPUs of the mask; exit stops the worker and restores the caller's
    mask.  Unpinned, the scheduler often woke the worker on the caller's busy
    CPU while the other one idled: on the 2-vCPU host a 48^3 Strang step split
    that way ran 7.3 ms against 6.3 ms on one thread, and 4.1 ms pinned.  The
    halves change hands through two bare locks; a ThreadPoolExecutor's futures
    made the sustained 48^3 step 7% slower (5.0 against 4.7 ms).

    The caller waits for the worker's half without sleeping.  When it blocked,
    its CPU idled for a moment at every join, and the host then ran that CPU
    slower for about 0.2 s: a 1-d evolve config right after a two-thread 48^3
    run took 0.080 s against 0.052 s after a one-thread run.  Waiting awake it
    took 0.057 s, and the 48^3 step went from 4.68 to 4.45 ms.

    The split holds OpenBLAS to one thread for its lifetime (_one_blas_thread),
    so a BLAS call in fn starts no thread to contend with the two pinned ones:
    unheld, an np.vdot (zdotc) of each slab inside the split, once a step, took
    the evolve_d3_cosine config from 0.86-1.02 s to 2.03-2.37 s on the 2-vCPU
    host (4 alternating runs each), and held to one thread 0.86-0.94 s.
    """
    mask = os.sched_getaffinity(0)
    here = {_sched_getcpu()}
    go, done = threading.Lock(), threading.Lock()
    go.acquire()
    done.acquire()
    # the worker's fn (None stops it) and slice, and what it raised; cleared
    # after each split, so no array outlives its split in a reference here
    job = [None, None, None]

    def work():
        while True:
            go.acquire()
            if job[0] is None:
                return
            try:
                job[0](job[1])
            except BaseException as exc:  # handed to the caller, which raises it
                job[2] = exc
            done.release()

    def split(fn, n: int):
        job[:] = fn, slice(n // 2, n), None
        go.release()
        try:
            fn(slice(0, n // 2))
        finally:
            while not done.acquire(False):  # see the docstring: the caller's CPU must not idle
                time.sleep(0)  # lets the worker take the GIL
            job[0] = None
        exc, job[2] = job[2], None
        if exc is not None:
            raise exc

    worker = threading.Thread(target=work, name="condensate-lab split")
    with _one_blas_thread():
        worker.start()
        try:
            os.sched_setaffinity(worker.native_id, mask - here)
            os.sched_setaffinity(0, here)
            yield split
        finally:
            job[0] = None
            go.release()
            worker.join()
            os.sched_setaffinity(0, mask)


# [(set_num_threads, get_num_threads)] of each OpenBLAS bound by _one_blas_thread,
# the paths of those libraries, and len(sys.modules) when /proc/self/maps was last read
_openblas = []
_openblas_paths = set()
_modules_seen = 0
# the thread-count symbols of numpy's scipy-openblas64 and of scipy's scipy-openblas
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


@contextlib.contextmanager
def _one_blas_thread():
    """Holds every OpenBLAS mapped in to one thread inside, then restores their thread counts.

    A GEMM or QR that OpenBLAS splits over two threads differs in its last bits
    from the same call on one, so without this a report would read otherwise on
    one and two CPUs.  On one thread it gives the bits of OPENBLAS_NUM_THREADS=1
    and of a one-CPU affinity mask.  The libraries are those in /proc/self/maps
    that export a symbol of _OPENBLAS_SYMBOLS: numpy's, mapped at its import,
    and scipy's, mapped when scipy.linalg first loads.  A library maps in only
    through an import, so the maps are read again only when sys.modules has
    grown, and each library is bound once.  Where none is found it holds
    nothing.  Not for use from two threads at once.
    """
    global _modules_seen
    if len(sys.modules) != _modules_seen:
        _modules_seen = len(sys.modules)
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
        for path in sorted(libs - _openblas_paths):
            _openblas_paths.add(path)
            lib = ctypes.CDLL(path)
            for symbol in _OPENBLAS_SYMBOLS:
                if hasattr(lib, symbol.format("set")):
                    _openblas.append((getattr(lib, symbol.format("set")), getattr(lib, symbol.format("get"))))
                    break
    counts = [get() for _, get in _openblas]
    for set_threads, _ in _openblas:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), n in zip(_openblas, counts):
            set_threads(n)


# ---------------------------------------------------------------------------
# RK4 sweep, batched over wavenumbers: u'' = (q(r) - k^2) u
# q_half holds q at the integration nodes AND midpoints: length 2*nsteps + 1.
# ---------------------------------------------------------------------------

def rk4_radial_batch(q_half, k2, h, u0, up0):
    """Integrate u'' = (q - k^2) u for a batch of k values.

    Returns (U, u_end, up_end) where U[j, i] is u at node j for column i;
    row 0 is the initial u.
    """
    q_half = np.ascontiguousarray(q_half, dtype=np.float64)
    k2 = np.ascontiguousarray(k2, dtype=np.float64)
    nsteps = (q_half.shape[0] - 1) // 2
    out = np.empty((nsteps + 1, k2.shape[0]))
    u = np.array(u0, dtype=np.float64)
    up = np.array(up0, dtype=np.float64)
    out[0, :] = u
    for j in range(nsteps):
        qa = q_half[2 * j]
        qm = q_half[2 * j + 1]
        qb = q_half[2 * j + 2]
        k1u = up
        k1p = (qa - k2) * u
        k2u = up + 0.5 * h * k1p
        k2p = (qm - k2) * (u + 0.5 * h * k1u)
        k3u = up + 0.5 * h * k2p
        k3p = (qm - k2) * (u + 0.5 * h * k2u)
        k4u = up + h * k3p
        k4p = (qb - k2) * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        up = up + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        out[j + 1, :] = u
    return out, u, up


# ---------------------------------------------------------------------------
# Variable-phase RK4: d'(r) = -(q(r)/k) sin^2(k r + d)
# ---------------------------------------------------------------------------

def rk4_phase(q_half, k, h, r0=0.0, d0=0.0):
    q_half = np.ascontiguousarray(q_half, dtype=np.float64)
    k, h, r0, d = float(k), float(h), float(r0), float(d0)
    nsteps = (q_half.shape[0] - 1) // 2
    for j in range(nsteps):
        r = r0 + j * h
        qa = q_half[2 * j]
        qm = q_half[2 * j + 1]
        qb = q_half[2 * j + 2]
        k1 = -(qa / k) * np.sin(k * r + d) ** 2
        k2 = -(qm / k) * np.sin(k * (r + 0.5 * h) + d + 0.5 * h * k1) ** 2
        k3 = -(qm / k) * np.sin(k * (r + 0.5 * h) + d + 0.5 * h * k2) ** 2
        k4 = -(qb / k) * np.sin(k * (r + h) + d + h * k3) ** 2
        d = d + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(d)


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping on interior Dirichlet values.
# A = tridiag(-1/h^2, 2/h^2 + q_j, -1/h^2);  (I + i dt/2 A) u+ = (I - i dt/2 A) u
# The left-hand matrix is constant, so it is LU-factored once and each step
# is one solve with those factors.
# ---------------------------------------------------------------------------

def cn_evolve(u_interior, q_interior, h, dt, nsteps):
    """Advance interior Dirichlet values by nsteps Crank-Nicolson steps."""
    from scipy.linalg import lapack

    q = np.ascontiguousarray(q_interior, dtype=np.float64)
    u = np.array(u_interior, dtype=np.complex128)
    if u.shape[0] < 3:
        # LAPACK's tridiagonal factorization wrapper rejects shorter systems
        raise ValueError(f"Crank-Nicolson needs at least 3 interior points, got {u.shape[0]}")
    m = u.shape[0]
    theta = 0.5 * float(dt)
    # the bands of I + i theta A, built in the arrays zgttrf factors in place; the
    # off-diagonal holds the bits of 1j * theta * (-1 / h^2) times a complex one,
    # whose real part is +0.0
    dl = np.full(m - 1, complex(0.0, theta * (-1.0 / h**2)))
    du = dl.copy()
    diag = np.empty(m, dtype=np.complex128)
    diag.real = 1.0
    np.add(2.0 / h**2, q, out=diag.imag)
    diag.imag *= theta
    dl, dd, du, du2, ipiv, info = lapack.zgttrf(dl, diag, du, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    if info != 0:
        raise RuntimeError("tridiagonal factorization failed")
    y = np.empty_like(u)
    for _ in range(int(nsteps)):
        # Cayley map in resolvent form: u+ = (I + i theta A)^{-1} (2 u) - u.
        # No amplifying matvec appears, so roundoff stays at the eps level:
        # over 1000 steps on ~1200-point grids the norm drifted by 4e-14
        # relative, and the state stayed within 1.2e-12 of the exact
        # propagator of the same matrix.  Doubling is exact, so solving for
        # 2 u gives the bits of twice the solution for u.
        np.multiply(u, 2.0, out=y)
        # zgttrs solves in place into y and returns it; the returned array is
        # used, so a wrapper that copied instead would still be read right
        y, info = lapack.zgttrs(dl, dd, du, du2, ipiv, y, overwrite_b=True)
        if info != 0:
            raise RuntimeError("tridiagonal solve failed")
        np.subtract(y, u, out=u)
    return u
