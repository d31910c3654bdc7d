"""Rank-one marginal kernels and the coupled-equation residuals at k = 1.

For a factorized one-particle kernel gamma(x; x') = phi(x) conj phi(x') the
partial-trace contact term evaluates in closed form, so both the
differential equation

    i d/dt gamma = [-Lap, gamma] + g * T(phi),
    T(x; x') = (|phi(x)|^2 - |phi(x')|^2) phi(x) conj phi(x'),

and its Duhamel (integral) counterpart can be checked against a stored
trajectory without ever evolving a full two-particle kernel: the free
evolution of every term factorizes through one-particle propagations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .gp import Field


@dataclass
class MarginalKernel:
    """Discrete one-particle kernel gamma(x; x') on a flattened grid."""

    kernel: np.ndarray
    dvol: float
    factorized: np.ndarray | None = None

    def trace(self) -> complex:
        return complex(np.trace(self.kernel) * self.dvol)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.kernel - self.kernel.conj().T)))

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm, the Frobenius norm with volume weights."""
        return float(np.linalg.norm(self.kernel) * self.dvol)

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
    return MarginalKernel(
        kernel=np.outer(phi, np.conj(phi)),
        dvol=f.dvol,
        factorized=phi.copy(),
    )


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


@dataclass
class HierarchyResidual:
    times: list[float]
    differential_residual: list[float]
    integral_residual: list[float]

    def max_differential(self) -> float:
        return max(self.differential_residual) if self.differential_residual else 0.0

    def max_integral(self) -> float:
        return max(self.integral_residual) if self.integral_residual else 0.0


def hierarchy_residual(trajectory: list[Field], coupling: float) -> HierarchyResidual:
    """Pointwise residuals of both equation forms along a trajectory.

    The trajectory must be uniformly spaced in time on a common grid; the
    time derivative is the central difference of the rank-one kernels, so
    residuals at the first and last snapshot are not defined.
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

    # symmetric five-point stencil: the two-point one approaches second
    # order from below (its next correction is anti-aligned for coherent
    # phase dynamics), which would sit exactly on the target slope
    kernels = [factorized_marginal(f).kernel for f in trajectory]
    diff_res = []
    times = []
    for n in range(2, len(trajectory) - 2):
        f = trajectory[n]
        ddt = (
            -kernels[n + 2]
            + 8.0 * kernels[n + 1]
            - 8.0 * kernels[n - 1]
            + kernels[n - 2]
        ) / (12.0 * dt)
        rhs = commutator_kernel(f) + coupling * delta_trace_term(f).kernel
        diff_res.append(float(np.linalg.norm(1j * ddt - rhs) * dvol))
        times.append(f.time)

    int_res = [
        integral_form_residual(trajectory[: n + 1], coupling)
        for n in range(2, len(trajectory) - 2)
    ]
    return HierarchyResidual(
        times=times, differential_residual=diff_res, integral_residual=int_res
    )


def integral_form_residual(trajectory: list[Field], coupling: float) -> float:
    """Duhamel-form residual at the final snapshot time.

    gamma_t is compared with  U(t) gamma_0 - i g int_0^t U(t-s) T(phi_s) ds,
    where U propagates both kernel slots freely and the s integral is a
    composite trapezoid over the stored snapshots.  Every term is a
    difference of rank-one outer products, so only one-particle fields are
    ever propagated.
    """
    f_end = trajectory[-1]
    t_end = f_end.time - trajectory[0].time
    dvol = f_end.dvol
    if len(trajectory) == 1 or t_end == 0.0:
        return 0.0
    steps = np.diff([f.time for f in trajectory])
    ds = float(steps[0])
    if not np.allclose(steps, ds, rtol=1e-10, atol=1e-12):
        raise ValueError("snapshots must be uniformly spaced")

    phi0_t = _free_evolve_values(trajectory[0], t_end).reshape(-1)
    recon = np.outer(phi0_t, np.conj(phi0_t))

    acc = np.zeros_like(recon)
    acc_half = np.zeros_like(recon)
    last = len(trajectory) - 1
    for n, f in enumerate(trajectory):
        lag = t_end - (f.time - trajectory[0].time)
        dens_phi = Field(np.abs(f.values) ** 2 * f.values, f.box, f.time)
        a = _free_evolve_values(f, lag).reshape(-1)
        b = _free_evolve_values(dens_phi, lag).reshape(-1)
        term = np.outer(b, np.conj(a)) - np.outer(a, np.conj(b))
        acc += (0.5 * ds if n in (0, last) else ds) * term
        if last % 2 == 0 and n % 2 == 0:
            acc_half += (ds if n in (0, last) else 2.0 * ds) * term
    gamma_t = factorized_marginal(f_end).kernel
    resid = float(np.linalg.norm(gamma_t - (recon - 1j * coupling * acc)) * dvol)
    if last % 2 == 0 and last >= 4:
        # Richardson estimate of the trapezoid error from the half sampling
        est = float(np.linalg.norm(coupling * (acc - acc_half)) * dvol) / 3.0
        if est > 2.0 * resid and est > 1e-12:
            raise RuntimeError("refine trajectory sampling: s-quadrature unresolved")
    return resid


def refinement_study(make_trajectory, levels: int = 3, coupling: float = 1.0) -> dict:
    """Run matched-coupling residuals over a refinement ladder.

    make_trajectory(level) must return a trajectory whose snapshot spacing,
    solver step and grid are refined together as the level increases.  The
    levels are compared on common times: the differential maximum is taken
    over the coarsest level's stencil window and the integral residual is
    evaluated at the shared final time, so the measured slopes track the
    truncation orders rather than window effects.
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
        int_final.append(integral_form_residual(traj, coupling))
    lv = np.arange(levels)
    slope_diff = float(-np.polyfit(lv, np.log2(diff_max), 1)[0])
    slope_int = float(-np.polyfit(lv, np.log2(int_final), 1)[0])
    return {
        "differential": diff_max,
        "integral": int_final,
        "slope_differential": slope_diff,
        "slope_integral": slope_int,
    }
