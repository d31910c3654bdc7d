"""Cubic defocusing Schrodinger dynamics on periodic boxes in d = 1, 2, 3.

i phi_t = -Lap phi + g |phi|^2 phi + V_ext phi, integrated by Strang
splitting (pointwise-exact phase half steps around an exact Fourier kinetic
step).  Ground states come from the normalized imaginary-time flow with a
backtracking step size, which makes the energy descent monotone by
construction; at g = 0 in the harmonic trap the quadratic problem is
solved exactly instead, one dense eigenproblem per axis.  The coupling g
is an explicit parameter; 8 pi a0 from the scattering module is one
natural choice, the bare integral of V another.

The grid operators of a run form one plan: k^2, the trap values, the
top-octave mask of the spectral guard, the kinetic factor exp(-i k^2 dt)
and the transform pair (fft/ifft on 1-d grids, fftn/ifftn otherwise; the
same bits).  A GPConfig builds the plan the first time it meets a (shape,
box) and keeps it, so every solver call with that config reads the same
arrays.  The phase step keeps |phi| pointwise, so gp_evolve runs adjacent
phase half steps as one full step, split only at the end of a call.  The
guard probes every max(1, nsteps // 8) steps and at the last step, on the
spectrum the step already holds after the kinetic factor: that factor has
modulus 1, so this is the spectrum of the state after the leading phase
half step, and only the initial data needs a transform for its guard.
Fields are complex128 throughout, so every solver uses the one spectrum k^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft
import scipy.linalg


def _sum_of_squares(axes: list[np.ndarray]) -> np.ndarray:
    """sum_j k_j^2 on the grid spanned by the 1-d frequency axes."""
    out = np.zeros([k.size for k in axes])
    for axis, k in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = -1
        out = out + (k**2).reshape(shape)
    return out


def _top_octave(axes: list[np.ndarray]) -> np.ndarray:
    """Mask of the modes above half-Nyquist on any axis."""
    mask = np.zeros([k.size for k in axes], dtype=bool)
    for axis, k in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = -1
        mask |= (np.abs(k) >= 0.5 * np.max(np.abs(k))).reshape(shape)
    return mask


def _tail_fraction(spectrum: np.ndarray, top: np.ndarray) -> float:
    power = np.abs(spectrum) ** 2
    return float(np.sum(power[top]) / np.sum(power))


def max_k_squared(shape: tuple[int, ...], box: tuple[float, ...]) -> float:
    """Largest entry of Field.k_squared, bit for bit: each axis's Nyquist |k| squared as
    k * k, like the array square (k ** 2 on a scalar may round apart); inf beyond float range."""
    with np.errstate(divide="ignore", over="ignore"):
        k = [2.0 * np.pi * ((M // 2) * (1.0 / np.float64(M * (L / M)))) for M, L in zip(shape, box)]
        return float(sum(kk * kk for kk in k))


def centered_axes(shape: tuple[int, ...], box: tuple[float, ...]) -> list[np.ndarray]:
    """Sample points (j - M // 2) L / M of each axis of M points on a box side L."""
    return [(np.arange(M) - M // 2) * (L / M) for M, L in zip(shape, box)]


@dataclass
class Field:
    """Periodic grid function phi on a centered box; values are complex128."""

    values: np.ndarray
    box: tuple[float, ...]
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values).astype(np.complex128, copy=False)
        if self.values.ndim != len(self.box):
            raise ValueError("box dimensionality does not match values")
        if self.values.ndim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(L / M for L, M in zip(self.box, self.shape))

    @property
    def dvol(self) -> float:
        return float(np.prod(self.dx))

    def axes(self) -> list[np.ndarray]:
        return centered_axes(self.shape, self.box)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def k_axes(self) -> list[np.ndarray]:
        return [
            2.0 * np.pi * scipy.fft.fftfreq(M, d=L / M)
            for L, M in zip(self.box, self.shape)
        ]

    def k_squared(self) -> np.ndarray:
        return _sum_of_squares(self.k_axes())

    def mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dvol)

    def normalize(self) -> "Field":
        self.values /= np.sqrt(self.mass())
        return self

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.box, self.time)


class _Plan:
    """Grid operators of one (shape, box) under one GPConfig, built once."""

    def __init__(self, f: Field, cfg: "GPConfig"):
        axes = f.k_axes()
        self.k2 = _sum_of_squares(axes)
        self.k2_max = max_k_squared(f.shape, f.box)
        self.trap = None if cfg.trap is None else cfg.trap_values(f)
        self.top_octave = _top_octave(axes)
        # fft skips fftn's axes handling, which sets the cost of a short 1-d step
        self.fft, self.ifft = (scipy.fft.fft, scipy.fft.ifft) if f.dim == 1 else (scipy.fft.fftn, scipy.fft.ifftn)
        self._dt = None
        self._kinetic = None

    def kinetic(self, dt: float) -> np.ndarray:
        """exp(-i k^2 dt), rebuilt only when dt changes."""
        if dt != self._dt:
            self._kinetic, self._dt = np.exp(-1j * self.k2 * dt), dt
        return self._kinetic


@dataclass
class GPConfig:
    """Coupling, optional confining trap, and stepping parameters."""

    coupling: float
    trap: Callable[..., np.ndarray] | None = None
    dt: float = 1e-3
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError("defocusing dynamics requires coupling >= 0")

    def trap_values(self, f: Field) -> np.ndarray:
        if self.trap is None:
            return np.zeros(f.shape)
        vals = np.asarray(self.trap(*f.meshgrid()), dtype=np.float64)
        if np.any(vals < 0):
            raise ValueError("trap must be nonnegative")
        return vals

    def _plan(self, f: Field) -> _Plan:
        key = (f.shape, tuple(f.box), self.trap)
        if key not in self._plans:
            self._plans[key] = _Plan(f, self)
        return self._plans[key]


def harmonic_trap(*coords):
    """V_ext = |x|^2."""
    out = np.zeros_like(coords[0])
    for c in coords:
        out = out + c**2
    return out


def _guard(plan: _Plan, spectrum: np.ndarray, where: str):
    tail = _tail_fraction(spectrum, plan.top_octave)
    if tail > 1e-6:
        raise RuntimeError(f"spectral blow-up: top-octave fraction {tail:.2e} ({where})")


def _rotate(phi: np.ndarray, tau: float, g: float, v: np.ndarray | None):
    """phi <- exp(-i tau (g |phi|^2 + V)) phi in place; |phi| is unchanged."""
    theta = np.abs(phi) ** 2
    theta *= -tau * g
    if v is not None:
        theta -= tau * v
    rot = np.empty_like(phi)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    phi *= rot


def _damp(phi: np.ndarray, tau: float, g: float, v_factor: np.ndarray | None):
    """phi <- exp(-tau (g |phi|^2 + V)) phi in place; v_factor is exp(-tau V)."""
    if g:
        phi *= np.exp(-tau * g * np.abs(phi) ** 2)
    if v_factor is not None:
        phi *= v_factor


# The kinetic phase dt * max|k|^2 of default steps, below gp_evolve's limit pi
KINETIC_PHASE = 0.8 * np.pi


def gp_evolve(f: Field, cfg: GPConfig, t: float) -> Field:
    """Strang-split evolution by time t >= 0 (an integer number of dt steps).

    Adjacent phase half steps run as one full step, which is exact because
    the phase step keeps |phi|; they split only at the end.  The guard sees
    the initial data and, at its probe steps, the state after the step's
    leading phase half step; the returned state is not guarded itself, so
    a chain of calls guards each link as the next call's initial data.
    """
    nsteps = int(round(t / cfg.dt))
    if abs(nsteps * cfg.dt - t) > 1e-10 * max(1.0, abs(t)):
        raise ValueError("t must be an integer number of dt steps")
    if nsteps < 0:
        raise ValueError("t must be nonnegative")
    plan = cfg._plan(f)
    if cfg.dt * plan.k2_max > np.pi:
        raise ValueError("dt too large for the grid kinetic scale")
    _guard(plan, plan.fft(f.values), "initial data")
    kin = plan.kinetic(cfg.dt)
    g, v, half = cfg.coupling, plan.trap, 0.5 * cfg.dt
    phi = f.values.copy()
    probe = max(1, nsteps // 8)
    lead = half  # phase time owed before the next kinetic step
    for step in range(1, nsteps + 1):
        _rotate(phi, lead, g, v)
        phi = plan.fft(phi, overwrite_x=True)
        phi *= kin
        if step % probe == 0 or step == nsteps:
            _guard(plan, phi, f"step {step}")
        phi = plan.ifft(phi, overwrite_x=True)
        if step == nsteps:
            _rotate(phi, half, g, v)
        lead = cfg.dt
    return Field(phi, f.box, f.time + nsteps * cfg.dt)


def gp_energy(f: Field, cfg: GPConfig) -> dict:
    """Kinetic, interaction, trap and total energy of the functional

    E = int |grad phi|^2 + V_ext |phi|^2 + (g/2) |phi|^4.

    The exact flow conserves E.  The split scheme of gp_evolve conserves
    the mass to roundoff but E only to O(dt^2).
    """
    plan = cfg._plan(f)
    norm = f.dvol / np.prod(f.shape)
    kinetic = float(np.sum(plan.k2 * np.abs(plan.fft(f.values)) ** 2) * norm)
    dens = np.abs(f.values) ** 2
    interaction = float(0.5 * cfg.coupling * np.sum(dens**2) * f.dvol)
    trap = 0.0 if plan.trap is None else float(np.sum(plan.trap * dens) * f.dvol)
    return {
        "kinetic": kinetic,
        "interaction": interaction,
        "trap": trap,
        "total": kinetic + interaction + trap,
    }


# Longest axis whose dense M x M eigenproblem the exact g = 0 ground state
# solves; past it eigh costs more than the descent (0.1 s at 1024, 0.7 s at
# 2048 points on a 2-core host).
_EIGH_AXIS_MAX = 1024

# Accepted-step budget of the backtracking descent.
_MAX_ITERS = 20000

# First imaginary-time step of the descent; backtracking halves it.
_DTAU = 0.02


def _harmonic_minimiser(f: Field) -> Field:
    """Lowest eigenvector of -Lap + |x|^2 on f's grid, of unit mass.

    With gp_energy's k^2 the discrete operator is the Kronecker sum of the
    per-axis matrices Re(F^-1 diag(k^2) F) + diag(x^2), so its minimiser is
    the tensor product of their lowest eigenvectors.  The phase makes
    <f, phi> >= 0; any phase will do when they are orthogonal.
    """
    phi = np.ones(())
    for x, k in zip(f.axes(), f.k_axes()):
        # F^-1 diag(k^2) F is the circulant of ifft(k^2)
        kinetic = scipy.linalg.circulant(scipy.fft.ifft(k**2).real)
        _, vec = scipy.linalg.eigh(kinetic + np.diag(x**2), subset_by_index=[0, 0])
        phi = np.multiply.outer(phi, vec[:, 0])
    overlap = np.vdot(f.values, phi)
    if overlap:
        phi = phi * (np.conj(overlap) / abs(overlap))
    return Field(phi / np.sqrt(f.dvol), f.box, f.time)


def _descend(f: Field, cfg: GPConfig, energies: list, tol: float):
    """Backtracking imaginary-time descent from f; appends accepted energies."""
    plan = cfg._plan(f)
    g = cfg.coupling
    dtau = _DTAU
    energy = energies[-1]
    iters = 0
    built = None
    while iters < _MAX_ITERS:
        iters += 1
        stepped = False
        while dtau > 1e-12:
            if dtau != built:  # the step factors change only when dtau halves
                kin = np.exp(-plan.k2 * dtau)
                v_factor = None if plan.trap is None else np.exp(-0.5 * dtau * plan.trap)
                built = dtau
            phi = f.values.copy()
            _damp(phi, 0.5 * dtau, g, v_factor)
            phi = plan.fft(phi, overwrite_x=True)
            phi *= kin
            phi = plan.ifft(phi, overwrite_x=True)
            _damp(phi, 0.5 * dtau, g, v_factor)
            cand = Field(phi, f.box, f.time)
            cand.normalize()
            e_new = gp_energy(cand, cfg)["total"]
            if e_new <= energy:
                stepped = True
                break
            dtau *= 0.5
        if not stepped:
            break
        drop = energy - e_new
        f, energy = cand, e_new
        energies.append(energy)
        if drop < tol:
            break
    return f, iters


def gp_ground_state(cfg: GPConfig, init: Field, tol: float = 1e-10) -> dict:
    """Normalized imaginary-time minimization of the energy functional.

    The descent starts at step size _DTAU.  Each accepted step renormalizes
    and must not raise the energy; a step that does is retried with half
    the step size (backtracking), so the recorded energy sequence is
    monotone nonincreasing.  The descent stops when an accepted step lowers
    the energy by less than tol, or after _MAX_ITERS steps.  The returned
    field is complex128, like every Field.

    At g = 0 in harmonic_trap the functional is quadratic, and on grids of
    at most _EIGH_AXIS_MAX points per axis its minimiser is computed
    exactly (_harmonic_minimiser).  That counts as one descent step: it
    replaces init only if the energy does not rise, and iterations is 1.
    """
    if cfg.trap is None and cfg.coupling == 0.0:
        raise ValueError("no minimizer: need a confining trap or g > 0 on the torus")
    if abs(init.mass() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    f = init.copy()
    energies = [gp_energy(f, cfg)["total"]]
    if cfg.coupling == 0.0 and cfg.trap is harmonic_trap and max(f.shape) <= _EIGH_AXIS_MAX:
        cand = _harmonic_minimiser(f)
        e_new = gp_energy(cand, cfg)["total"]
        if e_new <= energies[-1]:
            f = cand
            energies.append(e_new)
        iters = 1
    else:
        f, iters = _descend(f, cfg, energies, tol)
    return {"field": f, "energy": energies[-1], "iterations": iters, "energies": energies}
