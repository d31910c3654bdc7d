"""Coupled-equation residuals at k = 1 along a factorized condensate trajectory.

For a factorized one-particle kernel gamma = |phi><phi| the partial-trace
contact term evaluates in closed form, so both the differential equation

    i d/dt gamma = [-Lap, gamma] + g * T(phi),
    T(phi) = |u><phi| - |phi><u|,   u = |phi|^2 phi,

and its Duhamel (integral) counterpart can be checked against a stored
trajectory without ever evolving a full two-particle kernel.  Every term of
either residual is a short sum of rank-one outer products of one-particle
fields, so no n x n kernel is formed on an n-point grid: a residual is
Q S Q^H for a Q with orthonormal columns, and its Hilbert-Schmidt norm is
the Frobenius norm of the small matrix S, taken directly (summing Gram
products instead would cancel a roundoff-sized residual away).

Both residuals take the coordinates of their fields from one Householder
QR of the fields as columns, C = Q R (_coordinates).  The differential
residual at a stencil time lies in the span of the seven fields
phi_{n+-2}, phi_{n+-1}, phi_n, Lap phi_n and u_n, and S = R K R^H with K the
7 x 7 coefficient matrix.

The Duhamel residuals at all snapshot times come from one sweep in the
interaction picture.  The free propagator U is unitary in both kernel
slots, so conjugating the residual at time t by U(-t) keeps its norm and
pulls every term back to time 0.  The 2T fields U(-s_m) phi_m and
U(-s_m) u_m of T snapshots are factored at once, so the trapezoid
accumulator and the Richardson even-snapshot sum are r x r matrices with
r <= 2T.  On M grid points the sweep costs O(M T^2) time and O(M T)
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
import scipy.linalg.lapack

from . import gp
from .gp import Field


def _coordinates(cols: np.ndarray) -> np.ndarray:
    """R of the thin QR cols = Q R: each column's coordinates in an orthonormal basis Q.

    One Householder QR, in place when cols is a Fortran-ordered complex128
    n x c matrix (cols is then overwritten); R is its top min(n, c) rows.
    """
    qr, _, _, _ = scipy.linalg.lapack.zgeqrf(cols, overwrite_a=True)
    r = qr[: min(qr.shape)].copy()
    for j in range(1, len(r)):
        r[j, :j] = 0.0  # row by row: np.triu's where() would add a numpy iterator buffer
    return r


def _pulled_back(trajectory: list[Field]) -> np.ndarray:
    """Columns a_0, b_0, a_1, b_1, ... of a_m = U(-s_m) phi_m, b_m = U(-s_m) u_m.

    Each field is stored by its orthonormal Fourier coefficients, where
    U(-s) is the diagonal exp(i k^2 s), a product of one factor per axis.
    The DFT is unitary, so every norm and inner product is that of the grid
    values.  a_0 is phi_0 itself.  The n x 2T matrix for T snapshots is
    Fortran-ordered, so _coordinates factors it in place.
    """
    f0 = trajectory[0]
    fields = np.empty((2 * len(trajectory),) + f0.shape, dtype=complex)
    for m, f in enumerate(trajectory):
        fields[2 * m] = f.values
        u = fields[2 * m + 1]
        u[...] = f.values
        dens = np.abs(f.values)
        dens **= 2
        # scaling the real and imaginary parts keeps numpy from casting dens to complex
        u.real *= dens
        u.imag *= dens
        del dens  # before the next snapshot's is built
    fields = scipy.fft.fftn(fields, axes=range(1, fields.ndim), overwrite_x=True, norm="ortho")
    k2 = [
        np.reshape(k**2, [-1 if j == axis else 1 for j in range(f0.dim)])
        for axis, k in enumerate(f0.k_axes())
    ]
    for m, f in enumerate(trajectory):
        pair = fields[2 * m : 2 * m + 2]  # a named view: `fields[...] *=` would copy it back
        for k2_axis in k2:
            pair *= np.exp(1j * (f.time - f0.time) * k2_axis)
    return fields.reshape(len(fields), -1).T


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

    The cosine mode runs along the first axis and the sine mode along the
    last, at twice the wavenumber when that is the same axis (d = 1).
    Level l has grid * 2**l points per axis and snapshot spacing
    snapshot_dt / 2**l; the Strang step divides the spacing and keeps
    dt * max k^2 below 0.8 pi.  Each snapshot is one gp_evolve call, so
    the phase half steps split only at snapshots, and the guard reads the
    spectrum each step already holds.
    """
    M = grid * 2**level
    coords = np.meshgrid(*gp.centered_axes((M,) * dim, (box,) * dim), indexing="ij")
    wavenumber = 2 if dim == 1 else 1
    phi0 = (
        1.0
        + amp_cos * np.cos(2 * np.pi * coords[0] / box)
        + amp_sin * np.sin(2 * np.pi * wavenumber * coords[-1] / box)
    )
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
    integral_residual: list[float]
    final_integral: float
    coupling: float
    dt: float
    dvol: float
    coordinates: list[np.ndarray]  # the R of the seven stencil columns at each time

    @cached_property
    def differential_residual(self) -> list[float]:
        return self.differential(self.coupling)

    def differential(self, coupling: float) -> list[float]:
        """Differential residuals at any coupling: only K depends on it, so the QR is reused."""
        # i d/dt gamma - [-Lap, gamma] - g T = Q R K R^H Q^H on the columns
        # [d_{+2}, d_{+1}, d_{-1}, d_{-2}, phi_n, Lap phi_n, u_n], d_k = phi_{n+k} - phi_n.
        # The symmetric five-point stencil: the two-point one approaches second
        # order from below (its next correction is anti-aligned for coherent
        # phase dynamics), which would sit exactly on the target slope.  Its
        # weights sum to zero, so |phi_n><phi_n| drops out of
        # |phi_{n+k}><phi_{n+k}| = |phi_n><phi_n| + |d_k><phi_n| + |phi_n><d_k| + |d_k><d_k|
        # and no O(1/dt) term is left to cancel in roundoff.
        coef = np.zeros((7, 7), dtype=complex)
        stencil = 1j * np.array([-1.0, 8.0, -8.0, 1.0]) / (12.0 * self.dt)
        coef[range(4), range(4)] = coef[range(4), 4] = coef[4, range(4)] = stencil
        coef[5, 4], coef[4, 5] = 1.0, -1.0
        coef[6, 4], coef[4, 6] = -coupling, coupling
        return [float(np.linalg.norm(r @ coef @ r.conj().T) * self.dvol) for r in self.coordinates]

    def max_differential(self, coupling: float | None = None) -> float:
        """Largest differential residual, at the trajectory's coupling unless one is given."""
        res = self.differential_residual if coupling is None else self.differential(coupling)
        return max(res, default=0.0)


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
    integral = integral_form_residual(trajectory, coupling)  # checks the spacing is uniform

    k2 = trajectory[0].k_squared()
    coords = []
    for n in range(2, len(trajectory) - 2):
        phi = trajectory[n].values
        lap = scipy.fft.ifftn(-k2 * scipy.fft.fftn(phi))
        cols = [(trajectory[n + k].values - phi).reshape(-1) for k in (2, 1, -1, -2)]
        cols += [phi.reshape(-1), lap.reshape(-1), (np.abs(phi) ** 2 * phi).reshape(-1)]
        coords.append(_coordinates(np.stack(cols, axis=1)))
    return HierarchyResidual(
        times=[f.time for f in trajectory[2:-2]],
        integral_residual=integral[2 : len(trajectory) - 2],
        final_integral=integral[-1],
        coupling=coupling,
        dt=trajectory[1].time - trajectory[0].time,
        dvol=trajectory[0].dvol,
        coordinates=coords,
    )


def integral_form_residual(trajectory: list[Field], coupling: float) -> list[float]:
    """Duhamel-form residual at every snapshot time, from one sweep.

    gamma_t is compared with  U(t) gamma_0 - i g int_0^t U(t-s) T(phi_s) ds,
    where U propagates both kernel slots freely and the s integral is a
    composite trapezoid over the stored snapshots up to t.  Conjugating by
    U(-t_n) keeps the norm and turns the residual at t_n into

        |a_n><a_n| - |phi_0><phi_0| + i g sum_m w_m (|b_m><a_m| - |a_m><b_m|),

    with a_m = U(-s_m) phi_m and b_m = U(-s_m) u_m pulled back to time 0.
    In the orthonormal basis of their QR every term is a small matrix of
    coordinates, and the residual's norm is that of the small matrix.  At
    every even snapshot index n >= 4 the trapezoid over the even snapshots
    gives a Richardson estimate of the quadrature error.
    """
    steps = np.diff([f.time for f in trajectory])
    ds = float(steps[0]) if len(steps) else 0.0
    if not np.allclose(steps, ds, rtol=1e-10, atol=1e-12):
        raise ValueError("snapshots must be uniformly spaced")
    dvol = trajectory[0].dvol
    r = _coordinates(_pulled_back(trajectory))
    alpha, beta = r[:, 0::2], r[:, 1::2]
    phi0 = alpha[:, 0]
    # Running trapezoid sums over the snapshots so far (full: all of them;
    # even: the even ones at twice the spacing), left open at the last
    # snapshot: adding half the last term's weight once more closes them.
    full = np.zeros((r.shape[0], r.shape[0]), dtype=complex)
    even = np.zeros_like(full)
    out = [0.0]
    for n in range(len(trajectory)):
        half_term = np.outer(0.5 * ds * beta[:, n], np.conj(alpha[:, n]))
        half_term -= half_term.conj().T
        full += half_term
        if n == 0:
            even += 2.0 * half_term
            continue
        resid = np.outer(alpha[:, n], np.conj(alpha[:, n]))
        resid -= np.outer(phi0, np.conj(phi0))
        resid += (1j * coupling) * full
        out.append(float(np.linalg.norm(resid) * dvol))
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


def refinement_study(levels: int, coupling: float, **shape) -> dict:
    """Run matched-coupling residuals over a refinement ladder.

    Level l is build_trajectory(l, coupling=coupling, **shape), which
    refines the snapshot spacing, solver step and grid together.  The
    levels are compared on common times: the differential maximum is taken
    over the coarsest level's stencil window and the integral residual is
    evaluated at the shared final time, so the measured slopes track the
    truncation orders rather than window effects.  The finest level's
    residuals are returned as finest_residual.
    """
    diff_max, int_final = [], []
    window = None
    for lvl in range(levels):
        res = hierarchy_residual(build_trajectory(lvl, coupling=coupling, **shape), coupling)
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
        "finest_residual": res,
    }
