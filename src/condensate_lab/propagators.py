"""Two-body relative dynamics in the s-wave sector.

Free evolution is exact in the discrete sine basis; interacting evolution
uses the unconditionally unitary implicit midpoint (Crank-Nicolson) scheme
on the same Dirichlet grid, whose V = 0 case is applied exactly in that
basis.  On top of the propagators sit the quantitative
experiments: the short-range defect ||(interacting - free) g|| as a function
of the scaling parameter N, and the second-moment energy inequality for
separable two-particle states at N = 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .potentials import Potential, scale, zero_potential
from .radial import RadialGrid, build_grid, gaussian_bump
from .scattering import ScatteringTransform, apply_hamiltonian, build_transform, potential_node_samples


@dataclass
class RadialWavepacket:
    """u(r) = sqrt(4 pi) r g(|x|) samples on a Dirichlet radial grid."""

    grid: RadialGrid
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        if self.u.shape != (self.grid.n,):
            raise ValueError("wavepacket length does not match grid")

    def mass(self) -> float:
        return self.grid.norm_flat(self.u) ** 2

    def h1_norm(self) -> float:
        c = self.grid.dst(self.u)
        k = self.grid.modes()
        return float(np.sqrt(np.sum((1.0 + k**2) * np.abs(c) ** 2)))

    def boundary_fraction(self) -> float:
        tail = slice(int(0.95 * self.grid.n), None)
        total = np.sum(np.abs(self.u) ** 2)
        return float(np.sum(np.abs(self.u[tail]) ** 2) / total)

    def copy(self) -> "RadialWavepacket":
        return RadialWavepacket(self.grid, self.u.copy())


def gaussian_packet(grid: RadialGrid, sigma: float = 1.0, r0: float = 0.0) -> RadialWavepacket:
    """radial.gaussian_bump as a wavepacket."""
    return RadialWavepacket(grid, gaussian_bump(grid, sigma, r0))


def _check_boundary(w: RadialWavepacket):
    frac = w.boundary_fraction()
    if frac > 1e-4:
        raise RuntimeError(f"boundary contamination {frac:.2e} above 1e-4")
    if frac > 1e-8:
        warnings.warn(f"boundary contamination {frac:.2e} above 1e-8", RuntimeWarning)
    return frac


def _sine_multiply(w: RadialWavepacket, symbol: np.ndarray) -> RadialWavepacket:
    """Multiply the sine coefficients of w by symbol, one value per interior mode."""
    return RadialWavepacket(w.grid, w.grid.idst(symbol * w.grid.dst(w.u)))


def evolve_free(w: RadialWavepacket, t: float) -> RadialWavepacket:
    """exp(i Laplacian t) in the sine basis: coefficients get exp(-i k^2 t)."""
    _check_boundary(w)
    return _sine_multiply(w, np.exp(-1j * w.grid.modes() ** 2 * t))


def step_count(t: float, dt: float) -> int:
    """The number of dt steps in t; ValueError unless t is a multiple of dt >= 0."""
    nsteps = int(round(t / dt))
    if abs(nsteps * dt - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t must be an integer number of steps")
    if nsteps < 0:
        raise ValueError("t must be nonnegative")
    return nsteps


def _cn_steps(w: RadialWavepacket, q: np.ndarray, nsteps: int, dt: float) -> RadialWavepacket:
    """nsteps Crank-Nicolson steps of i u_t = (-u'' + q u), q sampled on the grid.

    For q = 0 on the interior the CN matrix tridiag(-1, 2, -1) / h^2 is
    diagonal in the DST-I basis, with eigenvalues
    lam_m = (4 / h^2) sin^2(k_m h / 2), so nsteps Cayley steps multiply each
    sine coefficient by ((1 - i theta lam_m) / (1 + i theta lam_m))^nsteps
    = exp(-2 i nsteps arctan(theta lam_m)), theta = dt / 2.  That is the
    discrete propagator itself, not exp(-i k^2 t).

    Norm drift above 1e-8 per step (roundoff health check) is an error.
    """
    if nsteps == 0:
        return w.copy()
    grid = w.grid
    if np.any(q[1:-1]):
        res = np.zeros_like(w.u)
        res[1:-1] = _kernels.cn_evolve(w.u[1:-1], q[1:-1], grid.h, dt, nsteps)
        new = RadialWavepacket(grid, res)
    else:
        lam = (2.0 / grid.h * np.sin(0.5 * grid.h * grid.modes())) ** 2
        new = _sine_multiply(w, np.exp(-2j * nsteps * np.arctan(0.5 * dt * lam)))
    drift = abs(grid.norm_flat(new.u) - grid.norm_flat(w.u))
    if drift > 1e-8 * nsteps:
        raise RuntimeError("step size: norm drift per step exceeds 1e-8")
    return new


def evolve_interacting(w: RadialWavepacket, p: Potential, t: float, dt: float) -> RadialWavepacket:
    """Crank-Nicolson propagation of i u_t = (-u'' + (V/2) u).

    Unitary for every dt; dt must still resolve the phases of interest.
    A potential that vanishes on the grid interior takes the exact DST-I
    form of the same scheme (see _cn_steps).
    """
    _check_boundary(w)
    nsteps = step_count(t, dt)
    return _cn_steps(w, 0.5 * potential_node_samples(p, w.grid), nsteps, dt)


def interacting_energy(w: RadialWavepacket, p) -> float:
    """<u, (-d^2/dr^2 + V/2) u> with the same finite differences CN uses."""
    u = w.u
    h = w.grid.h
    q = 0.5 * potential_node_samples(p, w.grid)
    lap = np.zeros_like(u)
    lap[1:-1] = (2.0 * u[1:-1] - u[:-2] - u[2:]) / h**2
    return float(np.real(np.sum(np.conj(u) * (lap + q * u))) * h)


def wave_operator_defect(
    w: RadialWavepacket,
    p: Potential,
    N: int,
    t: float,
    dt: float = 1e-3,
) -> float:
    """|| (interacting - free) g || at time t for the N-rescaled potential.

    The free reference is the Crank-Nicolson scheme's own V = 0 propagator,
    applied exactly in the DST-I basis, so the defect vanishes identically
    for V = 0 and discretization bias cancels at leading order.
    """
    pN = scale(p, N)
    if w.grid.h > 0.25 * pN.range_hint:
        raise ValueError("grid too coarse for the rescaled core")
    a = evolve_interacting(w, pN, t, dt)
    b = evolve_interacting(w, zero_potential(), t, dt)
    return float(w.grid.norm_flat(a.u - b.u))


@dataclass
class DefectCurve:
    """Defect per N; boundary_fraction_max is the largest boundary_fraction of
    the interacting state over N and the sampled times (reported only)."""

    N_values: list[int]
    defects: list[float]
    fitted_slope: float | None
    t: tuple[float, ...]
    h1_norm: float
    boundary_fraction_max: float
    exact: bool = False

    def monotone_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.defects[:-1], self.defects[1:]))


# convergence_experiment's per-N grid resolves the range of V_N by
# _POINTS_PER_CORE steps, none longer than _H_CAP.
_POINTS_PER_CORE = 10
_H_CAP = 0.02


def radial_step(range_hint: float) -> float:
    """Grid step of convergence_experiment for a scaled potential of this range."""
    return min(_H_CAP, range_hint / _POINTS_PER_CORE)


def convergence_experiment(
    p: Potential,
    N_list,
    times=(0.25, 0.5, 1.0),
    sigma: float = 1.0,
    rmax: float = 24.0,
    dt: float = 1e-3,
) -> DefectCurve:
    """Defect versus N on per-N grids; reports the log-log slope.

    The defect for each N is the maximum over the sampled times.  The
    interacting state and the free reference, the scheme's exact V = 0
    propagator (see _cn_steps), each advance once through the sorted times.
    The boundary guard applies to the initial packet.  At least 4
    geometrically spaced N values are required.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 4:
        raise ValueError("need at least 4 values of N")
    steps = sorted(step_count(tt, dt) for tt in times)
    if not steps:
        raise ValueError("need at least one sample time")
    defects = []
    h1 = None
    wall = 0.0
    for N in N_list:
        pN = scale(p, N)
        grid = build_grid(rmax, radial_step(pN.range_hint), breakpoints=pN.breakpoints)
        w = gaussian_packet(grid, sigma=sigma)
        if h1 is None:
            h1 = w.h1_norm()
        _check_boundary(w)
        q = 0.5 * potential_node_samples(pN, grid)
        zero = np.zeros(grid.n)
        a, b, done, best = w, w, 0, 0.0
        for n in steps:
            a = _cn_steps(a, q, n - done, dt)
            b = _cn_steps(b, zero, n - done, dt)
            done = n
            best = max(best, float(grid.norm_flat(a.u - b.u)))
            wall = max(wall, a.boundary_fraction())
        defects.append(best)
    if max(defects) < 1e-13:
        return DefectCurve(N_list, defects, None, tuple(times), h1, wall, exact=True)
    slope = float(
        np.polyfit(np.log(np.asarray(N_list, dtype=float)), np.log(defects), 1)[0]
    )
    return DefectCurve(N_list, defects, slope, tuple(times), h1, wall)


# ---------------------------------------------------------------------------
# Second moment of the energy at N = 2 for separable states chi(u) g(|v|)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenterProfile:
    """Product of per-component 1-d Gaussians for the center of mass."""

    widths: tuple[float, float, float]
    momenta: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def second_moment(self) -> float:
        """<chi, -Laplacian chi> summed over components."""
        return sum(1.0 / (2.0 * s**2) + q**2 for s, q in zip(self.widths, self.momenta))

    def fourth_moment(self) -> float:
        """<chi, Laplacian^2 chi> = E[(sum_c p_c^2)^2]."""
        m2 = [1.0 / (2.0 * s**2) + q**2 for s, q in zip(self.widths, self.momenta)]
        m4 = [
            3.0 / (4.0 * s**4) + 3.0 * q**2 / s**2 + q**4
            for s, q in zip(self.widths, self.momenta)
        ]
        total = sum(m4)
        for i in range(3):
            for j in range(3):
                if i != j:
                    total += m2[i] * m2[j]
        return total


@dataclass
class SecondMomentResult:
    lhs: float
    rhs: float
    slack: float


def second_moment_check(
    chi: CenterProfile,
    g: RadialWavepacket,
    p: Potential,
    transform: ScatteringTransform | None = None,
) -> SecondMomentResult:
    """Quadratic-form energy inequality at N = 2 for chi(u) g(|v|).

    lhs = <psi, H^2 psi> with H = -(1/2) Lap_u - 2 Lap_v + V_N(v), computed
    as ||H psi||^2 from 1-d Gaussian moments and radial quadratures.
    rhs = <W* psi, ((1/4) Lap_u - Lap_v)^2 W* psi> via the scattering
    transform of g (the multiplier k^2 plays Lap_v).  The bound is
    lhs >= 2 rhs, so slack = lhs - 2 rhs.
    """
    pN = scale(p, 2)
    if transform is None:
        transform = build_transform(pN, k_max=14.0, n_k=640)
    grid = transform.grid
    if g.grid is not grid and g.grid.n != grid.n:
        raise ValueError("g must live on the transform grid")
    u = np.real(g.u)

    mu2 = chi.second_moment()
    mu4 = chi.fourth_moment()

    # radial pieces for the lhs
    hv_u = apply_hamiltonian(grid, pN, u)
    norm_g = np.sum(grid.weights * u**2)
    g_hv_g = float(np.sum(grid.weights * u * np.real(hv_u)))
    hv_sq = float(np.sum(grid.weights * np.abs(hv_u) ** 2))

    lhs = 0.25 * mu4 * norm_g + 2.0 * mu2 * g_hv_g + 4.0 * hv_sq

    # rhs via the interacting spectral data of g
    c = transform.forward_interacting(u)
    k = transform.k
    c0 = float(np.sum(transform.wk * c**2))
    k2 = float(np.sum(transform.wk * k**2 * c**2))
    k4 = float(np.sum(transform.wk * k**4 * c**2))
    rhs = mu4 / 16.0 * c0 - 0.5 * mu2 * k2 + k4

    slack = lhs - 2.0 * rhs
    return SecondMomentResult(lhs=float(lhs), rhs=float(rhs), slack=float(slack))
