"""Cubic defocusing Schrodinger dynamics on periodic boxes in d = 1, 2, 3.

i phi_t = -Lap phi + g |phi|^2 phi + V_ext phi, integrated by Strang
splitting (pointwise-exact phase half steps around an exact Fourier kinetic
step).  The one ground state solved is that of g = 0 in the harmonic trap
|x|^2: the functional is quadratic there, and its grid minimiser is solved
exactly, one dense eigenproblem per axis.  No minimiser for g > 0 is
offered.  The coupling g is an explicit parameter; 8 pi a0 from the
scattering module is one natural choice, the bare integral of V another.

The grid operators of a run form one plan: the trap values, the low-mode
corner blocks of the spectral guard and the kinetic factor exp(-i k^2 dt).
A GPConfig builds the plan the first time it meets a (shape, box) and keeps
it, so every solver call with that config reads the same arrays.  The plan
holds no k^2: _sum_of_squares rebuilds it, bit for bit, for the kinetic
factor and for gp_energy, whose squares and products run in place.  Every
solver uses one transform pair, the c2c call of fftn/ifftn without their
dispatch, which _bind_c2c binds at the entry of each solver that transforms;
scipy loads there, or in _harmonic_minimiser, never when gp is imported or a
config parsed, so the scatter, vl1, vl12 and theta tasks never load it.
gp_evolve runs the pair in place and rotates through buffers it allocates
once per call, after the kinetic factor: the state, the rotation rot and the
phase theta, 2.5 fields beside its input, and its steps allocate no field.
The phase step keeps |phi| pointwise, so gp_evolve runs adjacent phase half
steps as one full step, split only at the end of a call.  The guard probes every
max(1, nsteps // 8) steps and at the last step, on the spectrum the step
already holds after the kinetic factor: that factor has modulus 1, so this
is the spectrum of the state after the leading phase half step, and only
the initial data needs a transform for its guard, which it takes into rot.
A probe forms |spectrum|^2 in theta and takes the total less the 2^d corner
blocks of modes below half-Nyquist on every axis, so it allocates no
grid-sized array and calls no BLAS.
Fields are complex128 throughout, so every solver uses the one spectrum k^2.

On 3-d grids of at least _THREAD_SITES = 2^15 sites gp_evolve runs on
_kernels.pool_size() threads (two, or one if the affinity mask allows one),
bit for bit.  Each transform runs as c2c's two passes, the axis-0 lines on
slabs of axis 1 and the other axes on slabs of axis 0; the kinetic factor and
the phase step ride the second pass's slabs, so a step joins the threads four
times.  The calling thread takes one slab, and a worker, started once per
call and pinned to another CPU, takes the other (_kernels._pinned_split); the
initial data's transform uses it too.  Below the crossover the split is
_one_thread: each transform is one c2c call, and each slab step runs once on
the whole grid, bound to it once a call.  The crossover was measured on a
2-vCPU host, alternating one- and two-thread calls of 50 steps: 24^3 broke
even, 32^3 (2^15 sites) ran 0.73x and 48^3 0.71x the one-thread step.  1-d
and 2-d grids stay on one thread: the one 2-d grid measured, 128^2, ran
1.28x on two.
gp_energy transforms once a call and stays on one thread: starting the
worker costs about 0.3 ms, as much as the split saves at 48^3.
The guard's probes and every sum stay on the calling thread over the whole
grid, because a sum split in two adds in another order and rounds apart.
The split holds OpenBLAS to one thread (see _kernels._pinned_split), so a
BLAS call inside it starts no thread of its own: unheld, an np.vdot of each
slab there ran the evolve_d3_cosine config 2.4x slower.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels


def _sum_of_squares(axes: list[np.ndarray]) -> np.ndarray:
    """sum_j k_j^2 on the grid spanned by the 1-d frequency axes, summed in place."""
    out = np.zeros([k.size for k in axes])
    for axis, k in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = -1
        out += (k**2).reshape(shape)
    return out


def _low_blocks(shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """The 2^d corner blocks of the modes at or below half-Nyquist on every axis.

    On an axis of M points the mode j (fftfreq order) lies below half-Nyquist
    when 2|j| < M // 2, that is |j| <= c = (M // 2 - 1) // 2: the indices
    0..c and M - c..M - 1.  The float comparison |k| >= max|k| / 2 on the
    grid's k axis draws the same line, since (M // 2) / 2 is either a mode,
    whose k halves max|k| exactly, or half-way between two.
    """
    halves = []
    for M in shape:
        c = (M // 2 - 1) // 2  # -1 when M = 1: the one mode, k = 0, is max|k| and not below it
        halves.append((slice(0, c + 1), slice(M - c, M)))
    return list(itertools.product(*halves))


def _tail_fraction(spectrum: np.ndarray, low: list[tuple[slice, ...]], power: np.ndarray) -> float:
    """Share of |spectrum|^2 above half-Nyquist on any axis: the total less the
    corner blocks low, formed in the float buffer power of the spectrum's shape.
    It allocates no grid-sized array and makes no BLAS call."""
    np.square(np.abs(spectrum, out=power), out=power)
    total = power.sum()
    return float((total - sum(power[block].sum() for block in low)) / total)


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
        """The open grid: each axis's coordinates, shaped to broadcast against the others."""
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    def k_axes(self) -> list[np.ndarray]:
        return [
            2.0 * np.pi * np.fft.fftfreq(M, d=L / M)
            for L, M in zip(self.box, self.shape)
        ]

    def k_squared(self) -> np.ndarray:
        return _sum_of_squares(self.k_axes())

    def mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dvol)

    def normalize(self) -> "Field":
        self.values /= np.sqrt(self.mass())
        return self


# Smallest grid, in sites, whose transforms and steps run on two threads
_THREAD_SITES = 2**15


def _one_thread(step, n: int):
    """The split of a grid below the crossover: step, made by _slabwise, on the whole grid."""
    step()


def _team(a: np.ndarray):
    """Context of the split that a's transforms and steps run on: _kernels._pinned_split()
    for 3-d grids of at least _THREAD_SITES sites when the affinity mask allows
    two threads, else a context of _one_thread."""
    if a.ndim == 3 and a.size >= _THREAD_SITES and _kernels.pool_size() > 1:
        return _kernels._pinned_split()
    return contextlib.nullcontext(_one_thread)


def _slabwise(split, fn, *arrays):
    """fn on slabs of axis 0 of the arrays (None stays None), as split(step, n)
    runs it: on _one_thread, fn bound to the whole arrays once, so a step adds
    no slicing; on a split, a function of each slab's slice."""
    if split is _one_thread:
        return functools.partial(fn, *arrays)
    # a list: a generator here left 4 kB more in allocator caches at 32^3
    return lambda s: fn(*[x if x is None else x[s] for x in arrays])


def _transform(forward: bool, a: np.ndarray, out: np.ndarray | None = None, split=_one_thread, then=None):
    """fftn (forward) or ifftn of a into out, bit for bit, on a split; then, a
    _slabwise step of that split, runs on each slab of axis 0 once it is transformed.

    On _one_thread this is fftn/ifftn's own c2c call without their costlier
    dispatch.  A split runs in _slab_transform: its closures, here, would make
    the locals they use cells and the one-thread call 0.2 us slower on a
    2-vCPU host.
    """
    if split is not _one_thread:
        return _slab_transform(forward, a, out, split, then)
    out = _c2c(a, None, forward, 0 if forward else 2, out, 1)  # inorm 2 divides by the grid size
    if then is not None:
        then()
    return out


def _slab_transform(forward: bool, a: np.ndarray, out: np.ndarray | None, split, then) -> np.ndarray:
    """_transform on a split.

    c2c transforms the axes in order, axis 0 first, each line alike wherever
    it lies, and the inverse's 1/N (in long double, then rounded) scales the
    axis-0 pass's output before the other axes.  Here the axis-0 pass runs on
    slabs of axis 1 and the rest on slabs of axis 0, which the 1/N scales
    first, so every bit is c2c's.  The 1/N and then work on slabs of axis 0
    because those are contiguous: numpy copies a non-contiguous operand of an
    in-place product first.
    """
    out = np.empty_like(a) if out is None else out
    scale = np.float64(1 / np.longdouble(a.size))
    rest = tuple(range(1, a.ndim))

    def axis0(s):
        _c2c(a[:, s], (0,), forward, 0, out[:, s], 1)

    def others(s):
        slab = out[s]
        if not forward:
            parts = slab.view(np.float64)  # real and imaginary parts, each scaled alone like c2c's
            parts *= scale
        _c2c(slab, rest, forward, 0, slab, 1)
        if then is not None:
            then(s)

    split(axis0, a.shape[1])
    split(others, a.shape[0])
    return out


# The one transform pair: _fft(a, out=None, split=_one_thread, then=None); out=a is in place.
# Its caller runs _bind_c2c first.
_fft = functools.partial(_transform, True)
_ifft = functools.partial(_transform, False)

# pocketfft's c2c, bound by _bind_c2c: a transform looks it up as a global, once a call
_c2c = None


def _bind_c2c() -> None:
    """Bind _c2c to pocketfft's c2c, unless it is bound: the entry of every solver that
    transforms runs this, so importing gp loads no scipy module and a step looks up no more."""
    global _c2c
    if _c2c is None:
        from scipy.fft._pocketfft.pypocketfft import c2c

        _c2c = c2c


class _Plan:
    """Grid operators of one (shape, box) under one GPConfig, built once."""

    def __init__(self, f: Field, cfg: "GPConfig"):
        self.k_axes = f.k_axes()
        self.k2_max = max_k_squared(f.shape, f.box)
        self.trap = None if cfg.trap is None else cfg.trap_values(f)
        self.low = _low_blocks(f.shape)
        self._dt = None
        self._kinetic = None

    def kinetic(self, dt: float) -> np.ndarray:
        """exp(-i k^2 dt), rebuilt only when dt changes."""
        if dt != self._dt:
            self._kinetic, self._dt = np.exp(-1j * _sum_of_squares(self.k_axes) * dt), dt
        return self._kinetic


@dataclass
class GPConfig:
    """Coupling, optional confining trap, and stepping parameters.

    The trap is a nonnegative function of the grid coordinates, or the name
    "harmonic" of harmonic_trap.  gp_ground_state solves g = 0 in a trap
    whose grid values are harmonic_trap's, whatever names or wraps it, and
    refuses every other case; gp_evolve takes any trap.
    """

    coupling: float
    trap: str | Callable[..., np.ndarray] | None = None
    dt: float = 1e-3
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError("defocusing dynamics requires coupling >= 0")

    def trap_values(self, f: Field) -> np.ndarray:
        if self.trap is None:
            return np.zeros(f.shape)
        trap = harmonic_trap if self.trap == "harmonic" else self.trap
        # a trap of the open grid's coordinates may return fewer axes than the grid's
        vals = np.broadcast_to(np.asarray(trap(*f.meshgrid()), dtype=np.float64), f.shape)
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


def _guard(plan: _Plan, spectrum: np.ndarray, power: np.ndarray, where: str):
    """RuntimeError unless spectrum's top-octave share is at most 1e-6; power is
    a float buffer of its shape that the guard overwrites."""
    tail = _tail_fraction(spectrum, plan.low, power)
    if not tail <= 1e-6:  # NaN from non-finite data fails every comparison
        raise RuntimeError(f"spectral blow-up: top-octave fraction {tail:.2e} ({where})")


def _rotate(g: float, tau: float, phi: np.ndarray, v: np.ndarray | None, theta: np.ndarray, rot: np.ndarray):
    """phi <- exp(-i tau (g |phi|^2 + V)) phi in place via the buffers theta, rot; |phi| is kept."""
    np.square(np.abs(phi, out=theta), out=theta)
    theta *= -tau * g
    if v is not None:
        theta -= np.multiply(tau, v, out=rot.real)  # rot is free until the cosine below
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    phi *= rot


# gp_evolve's bound on the kinetic phase dt * max|k|^2 of a step, and the phase
# of default steps below it
KINETIC_LIMIT = np.pi
KINETIC_PHASE = 0.8 * KINETIC_LIMIT


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
    if cfg.dt * plan.k2_max > KINETIC_LIMIT:
        raise ValueError("dt too large for the grid kinetic scale")
    probe = max(1, nsteps // 8)
    _bind_c2c()
    kinetic = plan.kinetic(cfg.dt)  # before the step's buffers, so its temporaries do not stack on them
    with _team(f.values) as split:
        theta, rot = np.empty(f.shape), np.empty_like(f.values)
        # the initial data's spectrum in rot and the guard's power in theta: both are
        # overwritten before the first step reads them
        _guard(plan, _fft(f.values, rot, split), theta, "initial data")
        phi = f.values.copy()
        kick = _slabwise(split, np.multiply, phi, kinetic, phi)  # phi *= exp(-i k^2 dt)
        rotating = phi, plan.trap, theta, rot  # _rotate's phi, v, theta, rot
        inner = _slabwise(split, functools.partial(_rotate, cfg.coupling, cfg.dt), *rotating)
        outer = _slabwise(split, functools.partial(_rotate, cfg.coupling, 0.5 * cfg.dt), *rotating)
        if nsteps:
            split(outer, len(phi))
        # the kinetic factor and the phase step ride the slabs of the transforms'
        # last pass, so a split step joins the threads four times
        for step in range(1, nsteps + 1):
            _fft(phi, phi, split, kick)
            if step % probe == 0 or step == nsteps:
                _guard(plan, phi, theta, f"step {step}")
            _ifft(phi, phi, split, inner if step < nsteps else outer)
    return Field(phi, f.box, f.time + nsteps * cfg.dt)


def gp_energy(f: Field, cfg: GPConfig) -> dict:
    """Kinetic, interaction, trap and total energy of the functional

    E = int |grad phi|^2 + V_ext |phi|^2 + (g/2) |phi|^4.

    The exact flow conserves E.  The split scheme of gp_evolve conserves
    the mass to roundoff but E only to O(dt^2).
    """
    plan = cfg._plan(f)
    norm = f.dvol / np.prod(f.shape)
    _bind_c2c()
    # |spectrum|^2, |phi|^2 and their products formed in place, in two float buffers
    power = np.abs(_fft(f.values))  # the spectrum is freed here
    np.square(power, out=power)
    power *= f.k_squared()
    kinetic = float(np.sum(power) * norm)
    dens = np.abs(f.values)
    np.square(dens, out=dens)
    interaction = float(0.5 * cfg.coupling * np.sum(np.square(dens, out=power)) * f.dvol)
    trap = 0.0 if plan.trap is None else float(np.sum(np.multiply(plan.trap, dens, out=power)) * f.dvol)
    return {
        "kinetic": kinetic,
        "interaction": interaction,
        "trap": trap,
        "total": kinetic + interaction + trap,
    }


# Longest axis whose dense M x M eigenproblem gp_ground_state solves: eigh
# takes 0.1 s at 1024 and 0.7 s at 2048 points on a 2-core host.
_EIGH_AXIS_MAX = 1024


def check_ground_state(coupling: float, shape: tuple[int, ...]) -> None:
    """ValueError, with its reason, unless gp_ground_state solves this coupling and grid:
    g = 0 on at most _EIGH_AXIS_MAX points per axis."""
    if coupling != 0.0:
        raise ValueError(f"no minimiser for g = {coupling!r} > 0 is offered; only g = 0 is solved")
    if max(shape) > _EIGH_AXIS_MAX:
        raise ValueError(f"the exact ground state takes at most {_EIGH_AXIS_MAX} points per axis, got {max(shape)}")


def _harmonic_minimiser(f: Field) -> Field:
    """Lowest eigenvector of -Lap + |x|^2 on f's grid, of unit mass.

    With gp_energy's k^2 the discrete operator is the Kronecker sum of the
    per-axis matrices Re(F^-1 diag(k^2) F) + diag(x^2), so its minimiser is
    the tensor product of their lowest eigenvectors.  The phase makes
    <f, phi> >= 0; any phase will do when they are orthogonal.
    """
    import scipy.fft
    import scipy.linalg

    phi = np.ones(())
    for x, k in zip(f.axes(), f.k_axes()):
        # F^-1 diag(k^2) F is the circulant of ifft(k^2)
        kinetic = scipy.linalg.circulant(scipy.fft.ifft(k**2).real)
        _, vec = scipy.linalg.eigh(kinetic + np.diag(x**2), subset_by_index=[0, 0])
        phi = np.multiply.outer(phi, vec[:, 0])
    overlap = np.vdot(f.values, phi)
    if overlap:
        phi = phi * (np.conj(overlap) / abs(overlap))
    phi /= np.sqrt(f.dvol)
    return Field(phi, f.box, f.time)


def gp_ground_state(cfg: GPConfig, init: Field) -> dict:
    """The grid minimiser of the energy at g = 0 in the trap |x|^2, solved exactly.

    The functional is then quadratic, and _harmonic_minimiser solves it on
    grids of at most _EIGH_AXIS_MAX points per axis.  The trap's grid values
    pick this path, so a wrapped harmonic_trap takes it too.  Any other
    coupling, trap or grid is a ValueError (check_ground_state, then the trap):
    no minimiser for g > 0 is offered.

    The solve counts as one descent step, so iterations is 1 and energies
    records E(init) and E(minimiser); the minimiser is returned whatever its
    energy, so a rise in energies shows a wrong solve.  The returned field is
    complex128, like every Field.
    """
    if abs(init.mass() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    check_ground_state(cfg.coupling, init.shape)
    trap = cfg._plan(init).trap
    # |x|^2 on the grid, harmonic_trap(*init.meshgrid()) bit for bit: the same squares summed in the same order
    if trap is None or not np.array_equal(trap, _sum_of_squares(init.axes())):
        raise ValueError("no minimizer solved for this trap: only g = 0 in the trap |x|^2 is")
    energies = [gp_energy(init, cfg)["total"]]  # before the minimiser, so the two do not stack
    f = _harmonic_minimiser(init)
    energies.append(gp_energy(f, cfg)["total"])
    return {"field": f, "energy": energies[-1], "iterations": 1, "energies": energies}
