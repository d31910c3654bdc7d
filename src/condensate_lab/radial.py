"""Uniform radial grids on [0, R] with Dirichlet ends and sine-spectral tools.

Radial s-wave states g(x) = g(|x|) are carried as u(r) = sqrt(4 pi) r g(r),
so that the L2 norm over R^3 equals the L2(0, R) norm of u.  The grid is
uniform; breakpoints of piecewise potentials are snapped onto even-index
nodes so that composite Simpson weights retain full order on each piece.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    if n_intervals % 2 != 0:
        raise ValueError("composite Simpson needs an even interval count")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class RadialGrid:
    r: np.ndarray
    h: float
    breakpoints: tuple[float, ...] = ()
    weights: np.ndarray = field(default=None, repr=False)

    @property
    def rmax(self) -> float:
        return float(self.r[-1])

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def modes(self) -> np.ndarray:
        """Sine-basis wavenumbers k_m = m pi / rmax for interior modes."""
        m = np.arange(1, self.n - 1)
        return m * np.pi / self.rmax

    def dst(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of u in the orthonormal sine basis on [0, rmax]."""
        import scipy.fft

        # scipy's DST-I carries an extra factor 2 relative to sum_j u_j sin.
        scale = 0.5 * self.h * np.sqrt(2.0 / self.rmax)
        return scale * scipy.fft.dst(u[1:-1], type=1)

    def idst(self, c: np.ndarray) -> np.ndarray:
        import scipy.fft

        interior = np.sqrt(2.0 / self.rmax) * 0.5 * scipy.fft.dst(c, type=1)
        out = np.zeros(self.n, dtype=interior.dtype)
        out[1:-1] = interior
        return out

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(u) ** 2).real))

    def norm_flat(self, u: np.ndarray) -> float:
        """Trapezoid L2 norm; the quantity Crank-Nicolson conserves exactly."""
        return float(np.sqrt(self.h * np.sum(np.abs(u[1:-1]) ** 2)))

    def piece_slices(self) -> list[slice]:
        edges = [0.0, *self.breakpoints, self.rmax]
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            ia = int(round(a / self.h))
            ib = int(round(b / self.h))
            out.append(slice(ia, ib + 1))
        return out


def _spacing(rmax: float, h_target: float, breakpoints) -> tuple[tuple[float, ...], float]:
    """build_grid's interior breakpoints and step: h <= h_target, splitting the first
    piece into an even number of intervals."""
    breakpoints = tuple(b for b in sorted(breakpoints) if 0.0 < b < rmax)
    if len(breakpoints) > 1:
        raise ValueError("at most one interior breakpoint is supported")
    end = breakpoints[0] if breakpoints else rmax
    m = max(1, int(np.ceil(end / h_target / 2.0)))
    return breakpoints, end / (2 * m)


def grid_points(rmax: float, h_target: float, breakpoints=()) -> float:
    """Node count of build_grid(rmax, h_target, breakpoints), without building it;
    a breakpoint far below h_target sets the step, and so the count.  A step so small
    that rmax / step passes float range, or that underflows to 0, counts as inf."""
    if not h_target > rmax / sys.float_info.max:
        return math.inf
    _, h = _spacing(rmax, h_target, breakpoints)
    return 2.0 * np.ceil(rmax / h / 2.0) + 1.0 if h else math.inf


def build_grid(rmax: float, h_target: float, breakpoints=()) -> RadialGrid:
    """Uniform grid with h <= h_target, breakpoints on even node indices.

    rmax is rounded up so every piece holds an even number of intervals
    (required by the Simpson weights and by the DST length conventions).
    """
    breakpoints, h = _spacing(rmax, h_target, breakpoints)
    n_total = int(np.ceil(rmax / h / 2.0)) * 2
    r = np.arange(n_total + 1) * h
    grid = RadialGrid(r=r, h=h, breakpoints=breakpoints)
    # Simpson weights assembled piece by piece; each piece has an even interval count.
    w = np.zeros(n_total + 1)
    for sl in grid.piece_slices():
        w[sl] += _simpson_weights(sl.stop - sl.start - 1, h)
    object.__setattr__(grid, "weights", w)
    return grid


def gaussian_bump(grid: RadialGrid, sigma: float, r0: float = 0.0) -> np.ndarray:
    """Normalized radial Gaussian bump, odd-analytic at the origin.

    The image-sum form r (G(r - r0) + G(r + r0)) keeps the odd extension
    smooth, so sine-spectral tails decay like a Gaussian.
    """
    r = grid.r
    u = r * (
        np.exp(-((r - r0) ** 2) / (2.0 * sigma**2))
        + np.exp(-((r + r0) ** 2) / (2.0 * sigma**2))
    )
    u[0] = u[-1] = 0.0
    return u / grid.norm(u)


def gauss_panels(edges, rule) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of a Gauss-Legendre rule, numpy's leggauss (x, w) on
    [-1, 1], on each panel between ascending edges."""
    x, w = rule
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def half_step_samples(evaluator, a: float, h: float, nsteps: int, lo: float, hi: float):
    """Sample evaluator at nodes and midpoints of [a, a + nsteps h].

    Evaluation points are clipped infinitesimally inside (lo, hi) so that
    piecewise potentials are sampled with the correct one-sided values at
    piece edges.
    """
    pts = a + 0.5 * h * np.arange(2 * nsteps + 1)
    eps = 1e-12 * max(hi - lo, 1.0)
    pts = np.clip(pts, lo + eps, hi - eps)
    return np.asarray(evaluator(pts), dtype=np.float64)
