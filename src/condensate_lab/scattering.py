"""Zero-energy scattering, phase shifts, and the s-wave scattering transform.

The radial problem is -u'' + (1/2) V u = k^2 u on the half line with
u(0) = 0.  At k = 0 the solution is affine beyond the range of V and its
intercept is the scattering length; three independent routes to that number
are provided (intercept of the exact affine tail, weighted integral of the
profile, and the low-k limit of the s-wave phase shift).

The transform built here diagonalizes -d^2/dr^2 + (1/2) V with multiplier
k^2: regular solutions u_k normalized to sin(k r + delta(k)) at infinity
form the analysis/synthesis kernels, and the composition
(interacting synthesis) o (free sine analysis) realizes the two-body wave
operator on the radially symmetric sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .potentials import PotentialError
from .radial import RadialGrid, build_grid, gauss_panels, gaussian_bump, grid_points, half_step_samples


# Radial steps per effective range of V, on both the zero-energy and the
# transform grid
_STEPS_PER_RANGE = 200

# Largest completeness defect build_transform accepts
_COMPLETENESS_TOL = 1e-5


def _check_repulsive(p, grid: RadialGrid):
    vals = p(grid.r)
    if np.any(vals < 0):
        raise PotentialError("repulsivity violated: V < 0 sample")


def potential_node_samples(p, grid: RadialGrid) -> np.ndarray:
    """V at the grid nodes, with jump nodes carrying the two-sided average.

    With piece-aligned Simpson weights this makes node-sampled integrals of
    V times a continuous factor correct to full order: the O(h) errors of
    the two adjacent pieces cancel exactly.
    """
    vals = np.asarray(p(grid.r), dtype=np.float64).copy()
    eps = 1e-9 * grid.h
    for b in grid.breakpoints:
        idx = int(round(b / grid.h))
        left = float(p(np.asarray([b - eps]))[0])
        right = float(p(np.asarray([b + eps]))[0])
        vals[idx] = 0.5 * (left + right)
    return vals


@np.errstate(over="ignore", invalid="ignore")
def _integrate_radial(p, grid: RadialGrid, k2: np.ndarray, r_stop: float | None = None):
    """March u'' = (V/2 - k^2) u from u(0)=0, u'(0)=1 over the grid pieces.

    At k = 0 the solution is affine wherever V vanishes, and RK4 steps it
    exactly there, so each piece is marched only up to its last step that
    samples a nonzero V; the rest of the piece is u + (r - r_s) u'.

    Returns (U, up_end, i_stop): U holds u at nodes 0..i_stop per k column.
    """
    k2 = np.atleast_1d(np.asarray(k2, dtype=np.float64))
    affine_tail = not np.any(k2)
    nk = k2.shape[0]
    if r_stop is None:
        i_stop = grid.n - 1
    else:
        i_stop = min(grid.n - 1, int(np.ceil(r_stop / grid.h - 1e-9)))
    U = np.empty((i_stop + 1, nk))
    u = np.zeros(nk)
    up = np.ones(nk)
    U[0] = u
    for sl in grid.piece_slices():
        ia = sl.start
        ib = min(sl.stop - 1, i_stop)
        if ib <= ia:
            break
        nsteps = ib - ia
        q_half = 0.5 * half_step_samples(
            p, grid.r[ia], grid.h, nsteps, grid.r[ia], grid.r[ib]
        )
        if affine_tail:
            # step j reads q_half[2j : 2j + 3]
            nonzero = np.flatnonzero(q_half)
            nsteps = min(nsteps, nonzero[-1] // 2 + 1) if nonzero.size else 0
        block, u, up = _kernels.rk4_radial_batch(q_half[: 2 * nsteps + 1], k2, grid.h, u, up)
        im = ia + nsteps
        U[ia : im + 1] = block
        if im < ib:
            U[im + 1 : ib + 1] = u + (grid.r[im + 1 : ib + 1] - grid.r[im])[:, None] * up
            u = U[ib]
        if ib == i_stop:
            break
    # inf and NaN persist to the last node: a core too strong for the grid ends the solve
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(up))):
        raise RuntimeError("divergent quadrature: the radial march left float range")
    return U, up, i_stop


@dataclass
class ZeroEnergySolution:
    grid: RadialGrid
    u: np.ndarray
    a0_asym: float
    a0_int: float
    residual: float

    @property
    def f(self) -> np.ndarray:
        """Profile f(r) = u(r)/r with the r -> 0 limit filled in."""
        out = np.empty_like(self.u)
        out[1:] = self.u[1:] / self.grid.r[1:]
        # u(0) = 0 and u ~ u'(0) r near the origin
        out[0] = (4.0 * self.u[1] - self.u[2]) / (2.0 * self.grid.h)
        return out


def _ode_residual(p, grid: RadialGrid, u: np.ndarray) -> float:
    worst = 0.0
    scale = max(np.max(np.abs(u)), 1.0)
    for sl in grid.piece_slices():
        seg = u[sl]
        if seg.shape[0] < 5:
            continue
        rr = grid.r[sl][1:-1]
        upp = (seg[2:] - 2.0 * seg[1:-1] + seg[:-2]) / grid.h**2
        res = upp - 0.5 * p(rr) * seg[1:-1]
        denom = scale * (0.5 * np.max(np.abs(p(rr))) + 1.0)
        worst = max(worst, float(np.max(np.abs(res)) / denom))
    return worst


def _zero_energy_extent(p) -> tuple[float, float]:
    """solve_zero_energy's R_max and grid step target."""
    rng = max(p.range_hint, 1e-6)
    return 50.0 * rng, rng / _STEPS_PER_RANGE


def zero_energy_points(p) -> float:
    """Node count of solve_zero_energy(p)'s grid, without building it."""
    return grid_points(*_zero_energy_extent(p), p.breakpoints)


def solve_zero_energy(p) -> ZeroEnergySolution:
    """Outward integration of the k = 0 radial problem.

    The grid runs to R_max = 50 range in steps of range / _STEPS_PER_RANGE.
    Beyond the potential u is affine and _integrate_radial fills it in
    closed form, so dividing by its slope gives u(r) = r - a0 there
    exactly: a0_asym is the intercept R_max - u(R_max), and a0_int the
    weighted-profile value.
    """
    grid = build_grid(*_zero_energy_extent(p), breakpoints=p.breakpoints)
    _check_repulsive(p, grid)
    U, slope, _ = _integrate_radial(p, grid, np.array([0.0]))
    u = U[:, 0] / slope[0]
    sol = ZeroEnergySolution(
        grid=grid,
        u=u,
        a0_asym=float(grid.rmax - u[-1]),
        a0_int=np.nan,
        residual=_ode_residual(p, grid, u),
    )
    sol.a0_int = scattering_length_integral(sol, p)
    return sol


def scattering_length_integral(sol: ZeroEnergySolution, p) -> float:
    """(1/8 pi) int V f over R^3, reduced to (1/2) int V(r) u(r) r dr."""
    g = sol.grid
    vals = 0.5 * potential_node_samples(p, g) * sol.u * g.r
    out = float(np.sum(g.weights * vals))
    if not np.isfinite(out):
        raise RuntimeError("divergent quadrature in scattering length integral")
    return out


def zero_energy_state_integral(sol: ZeroEnergySolution) -> dict:
    """Both sides of int V f = 8 pi a0 for a solve_zero_energy result, and their relative gap."""
    integral = 8.0 * np.pi * sol.a0_int
    target = 8.0 * np.pi * sol.a0_asym
    denom = max(abs(target), 1e-300)
    gap = abs(integral - target) / denom if abs(target) > 1e-14 else abs(integral - target)
    return {"integral": integral, "eight_pi_a0": target, "relative_gap": gap}


def phase_shift(p, k: float) -> float:
    """s-wave phase shift delta_0(k) by outward integration of the phase ODE."""
    if k <= 0:
        raise ValueError("phase shift requires k > 0")
    if not np.isfinite(p.range_hint):
        raise PotentialError("non-decaying tail")
    rng = max(p.range_hint, 1e-6)
    r_end = rng if p.breakpoints else 1.4 * rng
    h = min(rng / 400.0, 0.15 / k)
    nsteps = int(np.ceil(r_end / h / 2.0)) * 2
    h = r_end / nsteps
    delta = 0.0
    edges = [0.0, *[b for b in p.breakpoints if b < r_end], r_end]
    for a, b in zip(edges[:-1], edges[1:]):
        seg_steps = max(2, int(round((b - a) / h)))
        hh = (b - a) / seg_steps
        q_half = 0.5 * half_step_samples(p, a, hh, seg_steps, a, b)
        delta = _kernels.rk4_phase(q_half, k, hh, r0=a, d0=delta)
    return float(delta)


# ---------------------------------------------------------------------------
# Scattering transform
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes per panel of the transform's k grid
_PER_PANEL = 16


class _SineKernel:
    """The nk x n matrix M[i, j] = sin(k[i] j h + phase[i]), its first columns
    replaced by head, applied as M @ x and d @ M without forming M.

    With B = ceil(sqrt(n)) and j = b B + m, angle addition splits each entry
    exactly into sin(k b B h + phase) cos(k m h) + cos(k b B h + phase) sin(k m h).
    So M is held as the nk x B tables C, S of the offset m and the nk x nb tables
    SB, CB of the block b: O(nk sqrt(n)) floats, and a product is two GEMMs
    with x laid out as the B x nb array X[m, b] = x[b B + m], run on one
    OpenBLAS thread so that its bits do not depend on the machine's CPUs.

    A kernel built like another on the same k, h and n shares its C and S.
    nbytes counts the head and the tables this kernel made, so the nbytes of
    kernels that share add up to the bytes they hold.
    """

    # ndarray @ kernel returns NotImplemented, so Python calls __rmatmul__
    __array_ufunc__ = None

    def __init__(self, k: np.ndarray, phase: np.ndarray, h: float, n: int, head: np.ndarray, like=None):
        B = int(np.ceil(np.sqrt(n)))
        block = np.multiply.outer(k, (np.arange(-(-n // B)) * B) * h) + phase[:, None]
        self.n = n
        self.head = head
        self.SB, self.CB = np.sin(block), np.cos(block)
        self.nbytes = head.nbytes + self.SB.nbytes + self.CB.nbytes
        if like is None:
            offset = np.multiply.outer(k, np.arange(B) * h)
            self.C, self.S = np.cos(offset), np.sin(offset)
            self.nbytes += self.C.nbytes + self.S.nbytes
        else:
            self.C, self.S = like.C, like.S

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        j0 = self.head.shape[1]
        B, nb = self.C.shape[1], self.SB.shape[1]
        X = np.zeros(nb * B, dtype=np.result_type(x, self.C))
        X[j0 : self.n] = x[j0:]
        X = X.reshape(nb, B).T
        with _kernels._one_blas_thread():
            rows = self.SB * (self.C @ X) + self.CB * (self.S @ X)
            return self.head @ x[:j0] + rows.sum(axis=1)

    def __rmatmul__(self, d: np.ndarray) -> np.ndarray:
        with _kernels._one_blas_thread():
            Y = (d[:, None] * self.SB).T @ self.C + (d[:, None] * self.CB).T @ self.S
            out = Y.reshape(-1)[: self.n]
            out[: self.head.shape[1]] = d @ self.head
        return out


@dataclass
class ScatteringTransform:
    """Generalized sine-basis pair for -d^2/dr^2 + V/2 on [0, rmax].

    states[i] is the regular solution at k[i] normalized to unit asymptotic
    amplitude; sines[i] is sin(k[i] r).  Forward maps take u(r) samples to
    coefficients on the k grid, inverse maps synthesize back, and the wave
    operator is inverse-interacting after forward-free (adjoint: swap).

    Neither k x n matrix is formed: both are _SineKernel tables on the
    uniform grid r_j = j h.  states keeps the marched columns up to the match
    point r_m as an explicit head block, where u_k is not yet a sine; past
    it states[i] is sin(k[i] r + delta0[i]).  sines has phase 0 and no head.
    """

    grid: RadialGrid
    k: np.ndarray
    wk: np.ndarray
    delta0: np.ndarray
    states: _SineKernel = field(repr=False)
    sines: _SineKernel = field(repr=False)
    completeness_defect: float = np.nan

    _SQ = np.sqrt(2.0 / np.pi)

    def forward_free(self, u: np.ndarray) -> np.ndarray:
        return self._SQ * (self.sines @ (self.grid.weights * u))

    def inverse_free(self, c: np.ndarray) -> np.ndarray:
        return self._SQ * ((self.wk * c) @ self.sines)

    def forward_interacting(self, u: np.ndarray) -> np.ndarray:
        return self._SQ * (self.states @ (self.grid.weights * u))

    def inverse_interacting(self, c: np.ndarray) -> np.ndarray:
        return self._SQ * ((self.wk * c) @ self.states)

    def wave_operator(self, u: np.ndarray) -> np.ndarray:
        return self.inverse_interacting(self.forward_free(u))

    def wave_operator_adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.inverse_free(self.forward_interacting(u))


def _radial_extent(p, k_max: float) -> tuple[float, float, float]:
    """build_transform's range of p, its default rmax and its grid step target."""
    rng = max(p.range_hint, 1e-6)
    return rng, max(30.0, 5.0 * rng + 20.0), min(rng / _STEPS_PER_RANGE, np.pi / (20.0 * k_max), 0.02)


def _k_nodes(k_max: float, n_k: int, rmax: float) -> float:
    """build_transform's k node count (inf past float range): n_k, raised to resolve
    the synthesis kernels at rmax, in whole panels of _PER_PANEL nodes."""
    n_k = max(n_k, np.ceil(4.5 * k_max * rmax / (2.0 * np.pi)))
    return _PER_PANEL * max(1.0, np.ceil(n_k / _PER_PANEL))


def transform_points(p, k_max: float, n_k: int) -> float:
    """About k nodes x grid nodes of build_transform(p, k_max, n_k), the multiply-adds
    of each of the two GEMMs one of its products makes, from the rules it builds by
    but without building anything."""
    _, rmax, h = _radial_extent(p, k_max)
    return float(_k_nodes(k_max, n_k, rmax) * (rmax / h + 1.0))


def build_transform(p, k_max: float, n_k: int, rmax: float | None = None) -> ScatteringTransform:
    """Construct the s-wave transform pair for potential p on [0, rmax].

    rmax defaults to max(30, 5 range + 20); the step is the smallest of
    range / _STEPS_PER_RANGE, pi / (20 k_max) and 0.02.  n_k is raised
    automatically if the k grid would under-resolve the oscillation of the
    synthesis kernels at rmax; a completeness defect above
    _COMPLETENESS_TOL raises "insufficient k resolution".
    """
    rng, default_rmax, h = _radial_extent(p, k_max)
    grid = build_grid(default_rmax if rmax is None else rmax, h, breakpoints=p.breakpoints)
    _check_repulsive(p, grid)

    n_panels = int(_k_nodes(k_max, n_k, grid.rmax)) // _PER_PANEL
    k, wk = gauss_panels(np.linspace(0.0, k_max, n_panels + 1), np.polynomial.legendre.leggauss(_PER_PANEL))

    r_match = rng if p.breakpoints else min(1.3 * rng, 0.8 * grid.rmax)
    U, up_end, i_stop = _integrate_radial(p, grid, k**2, r_stop=r_match)
    r_m = grid.r[i_stop]
    u_m = U[i_stop]
    amp = np.hypot(u_m, up_end / k)
    if np.any(amp < 1e-8):
        raise RuntimeError("near-singular normalization: resonance suspicion")
    delta = np.arctan2(k * u_m, up_end) - k * r_m
    # normalized in place, after delta reads u_m: the head of states is U's transpose
    U /= amp

    sines = _SineKernel(k, np.zeros_like(k), grid.h, grid.n, head=np.empty((k.shape[0], 0)))
    t = ScatteringTransform(
        grid=grid,
        k=k,
        wk=wk,
        delta0=delta,
        states=_SineKernel(k, delta, grid.h, grid.n, head=U.T, like=sines),
        sines=sines,
    )
    # Two calibration probes: a wave-operator round trip on a centered packet
    # and a plain interacting round trip on a packet clear of the core (for a
    # discontinuous V the interacting coefficients of a core-hugging packet
    # have algebraic k tails, which is truncation physics, not grid error).
    sigma = max(8.0 / k_max, 12.0 * grid.h)
    cal0 = gaussian_bump(grid, sigma)
    cal_off = gaussian_bump(grid, sigma, r0=max(2.0 * rng, 4.0 * sigma))
    rt_int = t.inverse_interacting(t.forward_interacting(cal_off))
    rt_wave = t.wave_operator_adjoint(t.wave_operator(cal0))
    defect = max(grid.norm(rt_int - cal_off), grid.norm(rt_wave - cal0))
    t.completeness_defect = float(defect)
    if defect > _COMPLETENESS_TOL:
        raise RuntimeError(
            f"insufficient k resolution: completeness defect {defect:.3e} > {_COMPLETENESS_TOL:.1e}"
        )
    return t


def apply_hamiltonian(grid: RadialGrid, p, u: np.ndarray) -> np.ndarray:
    """(-d^2/dr^2 + V/2) u via the sine-spectral second derivative."""
    c = grid.dst(u)
    k = grid.modes()
    upp = grid.idst(-(k**2) * c)
    return -upp + 0.5 * potential_node_samples(p, grid) * u
