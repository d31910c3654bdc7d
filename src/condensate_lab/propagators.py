"""Two-body relative dynamics in the s-wave sector, on states carried, as in
radial and scattering, by their samples u(r) = sqrt(4 pi) r g(|x|) on a RadialGrid.

Evolution uses the unconditionally unitary implicit midpoint
(Crank-Nicolson) scheme on a Dirichlet grid; its V = 0 case, the free
reference, is diagonal in the discrete sine basis and applied exactly
there.  On top of the propagator sit the quantitative experiments: the
short-range defect ||(interacting - free) g|| as a function of the scaling
parameter N, and the second-moment energy inequality for separable
two-particle states at N = 2, whose transform carries the potential it
diagonalises.

convergence_experiment runs its N values on the threads of
_kernels._pool_map, largest grid first.  The runs share no state, and each
CN solve is scipy's f2py zgttrs, which releases the GIL (see _kernels), so
two of them take both cores; every defect is the one a single thread
computes, bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .potentials import Potential, scale
from .radial import RadialGrid, build_grid, gaussian_bump, grid_points
from .scattering import ScatteringTransform, apply_hamiltonian, build_transform, potential_node_samples
from .scattering import transform_bytes, transform_points


def _h1_norm(grid: RadialGrid, u: np.ndarray) -> float:
    """The H^1 norm of u from its sine coefficients."""
    return float(np.sqrt(np.sum((1.0 + grid.modes() ** 2) * np.abs(grid.dst(u)) ** 2)))


def _boundary_fraction(u: np.ndarray) -> float:
    """The share of the mass of u on its last 5% of nodes."""
    return float(np.sum(np.abs(u[int(0.95 * u.shape[0]) :]) ** 2) / np.sum(np.abs(u) ** 2))


def _check_boundary(u: np.ndarray):
    frac = _boundary_fraction(u)
    if frac > 1e-4:
        raise RuntimeError(f"boundary contamination {frac:.2e} above 1e-4")
    if frac > 1e-8:
        warnings.warn(f"boundary contamination {frac:.2e} above 1e-8", RuntimeWarning)


def step_count(t: float, dt: float) -> int:
    """The number of dt steps in t; ValueError unless t is a multiple of dt >= 0."""
    nsteps = int(round(t / dt))
    if abs(nsteps * dt - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t must be an integer number of steps")
    if nsteps < 0:
        raise ValueError("t must be nonnegative")
    return nsteps


def _cn_steps(grid: RadialGrid, u: np.ndarray, q: np.ndarray, nsteps: int, dt: float) -> np.ndarray:
    """nsteps Crank-Nicolson steps of i u_t = (-u'' + q u), q sampled on the grid.

    For q = 0 on the interior the CN matrix tridiag(-1, 2, -1) / h^2 is
    diagonal in the DST-I basis, with eigenvalues
    lam_m = (4 / h^2) sin^2(k_m h / 2), so nsteps Cayley steps multiply each
    sine coefficient by ((1 - i theta lam_m) / (1 + i theta lam_m))^nsteps
    = exp(-2 i nsteps arctan(theta lam_m)), theta = dt / 2.  That is the
    discrete propagator itself, not exp(-i k^2 t).

    Zero steps return u itself; otherwise the result is a new complex128
    array.  Norm drift above 1e-8 per step (roundoff health check) is an error.
    """
    if nsteps == 0:
        return u
    u = np.asarray(u, dtype=np.complex128)
    if np.any(q[1:-1]):
        new = np.zeros_like(u)
        new[1:-1] = _kernels.cn_evolve(u[1:-1], q[1:-1], grid.h, dt, nsteps)
    else:
        lam = (2.0 / grid.h * np.sin(0.5 * grid.h * grid.modes())) ** 2
        new = grid.idst(np.exp(-2j * nsteps * np.arctan(0.5 * dt * lam)) * grid.dst(u))
    drift = abs(grid.norm_flat(new) - grid.norm_flat(u))
    if drift > 1e-8 * nsteps:
        raise RuntimeError("step size: norm drift per step exceeds 1e-8")
    return new


def evolve_interacting(grid: RadialGrid, u: np.ndarray, p: Potential, t: float, dt: float) -> np.ndarray:
    """Crank-Nicolson propagation of i u_t = (-u'' + (V/2) u).

    Unitary for every dt; dt must still resolve the phases of interest.
    A potential that vanishes on the grid interior takes the exact DST-I
    form of the same scheme (see _cn_steps).
    """
    _check_boundary(u)
    return _cn_steps(grid, u, 0.5 * potential_node_samples(p, grid), step_count(t, dt), dt)


@dataclass
class DefectCurve:
    """Defect per N; boundary_fraction_max is the largest boundary_fraction of
    the interacting state over N and the sampled times (reported only).
    fitted_slope is None when every defect is below roundoff (exact)."""

    N_values: list[int]
    defects: list[float]
    fitted_slope: float | None
    h1_norm: float
    boundary_fraction_max: float

    @property
    def exact(self) -> bool:
        return self.fitted_slope is None


# convergence_experiment's per-N grid on [0, DEFECT_RMAX] resolves the range of
# V_N by _POINTS_PER_CORE steps, none longer than _H_CAP; its state starts as the
# Gaussian bump of width DEFECT_SIGMA at the origin.
DEFECT_RMAX = 24.0
DEFECT_SIGMA = 1.0
_POINTS_PER_CORE = 10
_H_CAP = 0.02


def radial_step(range_hint: float) -> float:
    """Grid step of convergence_experiment for a scaled potential of this range."""
    return min(_H_CAP, range_hint / _POINTS_PER_CORE)


def _defect_extent(p: Potential, N: int) -> tuple:
    """build_grid's arguments for convergence_experiment's grid of scale(p, N).  They
    depend on V_N's rate alone, so its height N^2 A, which passes float range for
    N > 1.3e154, is never formed."""
    shape = replace(p, rate=p.rate * N)
    return DEFECT_RMAX, radial_step(shape.range_hint), shape.breakpoints


def defect_points(p: Potential, N: int) -> float:
    """Node count of convergence_experiment's grid for N, without building it."""
    return grid_points(*_defect_extent(p, N))


def _defect_at(p: Potential, N: int, steps: list, dt: float) -> tuple:
    """convergence_experiment's run at one N: the defect, the largest boundary fraction
    of the interacting state and the H^1 norm of the initial state."""
    grid = build_grid(*_defect_extent(p, N))
    u0 = gaussian_bump(grid, DEFECT_SIGMA)
    _check_boundary(u0)
    q = 0.5 * potential_node_samples(scale(p, N), grid)
    zero = np.zeros(grid.n)
    a, b, done, best, wall = u0, u0, 0, 0.0, 0.0
    for n in steps:
        a = _cn_steps(grid, a, q, n - done, dt)
        b = _cn_steps(grid, b, zero, n - done, dt)
        done = n
        best = max(best, float(grid.norm_flat(a - b)))
        wall = max(wall, _boundary_fraction(a))
    return best, wall, _h1_norm(grid, u0)


def convergence_experiment(
    p: Potential,
    N_list,
    times=(0.25, 0.5, 1.0),
    dt: float = 1e-3,
) -> DefectCurve:
    """Defect versus N on per-N grids; reports the log-log slope.

    The defect for each N is the maximum over the sampled times.  The
    interacting state and the free reference, the scheme's exact V = 0
    propagator (see _cn_steps), each advance once through the sorted times.
    The boundary guard applies to the initial state.  At least 4
    geometrically spaced N values are required.  The N values run on the
    pool of _kernels._pool_map; the curve is the same as one thread's.
    """
    N_list = sorted(int(n) for n in N_list)
    if len(N_list) < 4:
        raise ValueError("need at least 4 values of N")
    steps = sorted(step_count(tt, dt) for tt in times)
    if not steps:
        raise ValueError("need at least one sample time")
    # the grid points grow with N: the largest grids go to the pool first
    runs = _kernels._pool_map(lambda N: _defect_at(p, N, steps, dt), N_list[::-1])[::-1]
    defects = [best for best, _, _ in runs]
    wall = max(frac for _, frac, _ in runs)
    h1 = runs[0][2]
    slope = None  # every defect below roundoff: exact, nothing to fit
    if not max(defects) < 1e-13:
        slope = float(np.polyfit(np.log(np.asarray(N_list, dtype=float)), np.log(defects), 1)[0])
    return DefectCurve(N_list, defects, slope, h1, wall)


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


# second_moment_check's N = 2 transform: its spectral cutoff and least k node count
_SECOND_MOMENT_K_MAX = 14.0
_SECOND_MOMENT_N_K = 640

# Bytes a second-moment run holds per radial node beside its transform's tables and
# head at its peak: the grid, the calibration probes and their round trips, the
# sample state and the check's arrays.  tracemalloc read 65 on 1.2e6 and 2.4e6 nodes,
# and a run's ru_maxrss grew by up to 103: the rest is scipy's FFT work arrays, which
# tracemalloc does not see.
_SECOND_MOMENT_NODE_BYTES = 104


def second_moment_transform(p: Potential) -> ScatteringTransform:
    """The transform of scale(p, 2) that second_moment_check takes."""
    return build_transform(scale(p, 2), k_max=_SECOND_MOMENT_K_MAX, n_k=_SECOND_MOMENT_N_K)


def second_moment_points(p: Potential) -> float:
    """About k nodes x grid nodes of second_moment_transform(p), without building it:
    the multiply-adds of each GEMM in one second_moment_check's transform product."""
    return transform_points(scale(p, 2), k_max=_SECOND_MOMENT_K_MAX, n_k=_SECOND_MOMENT_N_K)


def second_moment_bytes(p: Potential) -> float:
    """About the most bytes a second-moment run on p holds at once, without building
    second_moment_transform(p)."""
    return transform_bytes(scale(p, 2), _SECOND_MOMENT_K_MAX, _SECOND_MOMENT_N_K, _SECOND_MOMENT_NODE_BYTES)


def second_moment_check(
    chi: CenterProfile,
    g: np.ndarray,
    transform: ScatteringTransform,
) -> SecondMomentResult:
    """Quadratic-form energy inequality at N = 2 for chi(u) g(|v|), g given by its
    radial samples on the grid of transform = second_moment_transform(p).

    lhs = <psi, H^2 psi> with H = -(1/2) Lap_u - 2 Lap_v + V_N(v), V_N the
    transform's potential, computed as ||H psi||^2 from 1-d Gaussian moments
    and radial quadratures.  rhs = <W* psi, ((1/4) Lap_u - Lap_v)^2 W* psi>
    via the scattering transform of g (the multiplier k^2 plays Lap_v).  The
    bound is lhs >= 2 rhs, so slack = lhs - 2 rhs.
    """
    grid = transform.grid
    if np.shape(g) != (grid.n,):
        raise ValueError(f"g must have the transform grid's {grid.n} samples, got shape {np.shape(g)}")
    u = np.real(g)

    mu2 = chi.second_moment()
    mu4 = chi.fourth_moment()

    # radial pieces for the lhs
    hv_u = apply_hamiltonian(grid, transform.potential, u)
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
