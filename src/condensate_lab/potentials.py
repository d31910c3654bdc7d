"""Repulsive radial interaction potentials and their short-range rescaling.

Supported families: zero, soft-sphere (piecewise constant ball) and
gaussian, each compactly supported or super-exponentially decaying.  Every
potential is V(r) = A profile(s r): the family fixes the profile, an
effective range used to size radial grids, the breakpoints where it is not
analytic (the soft-sphere radius, where it jumps) and the exact integral of
the profile over R^3.  The soft-sphere and gaussian profiles have unit
height, so v0 is A.  The transforms below change only the amplitude A and
the rate s, and every derived quantity follows from (A, s).  Rescaling by
N maps V to N^2 V(N r), which divides the effective range and the
scattering length by N.  The builders refuse parameters outside their
ranges; a config's potential object is read by the CLI, with the number
readers it uses for every other key (docs/config-reference.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class Potential:
    """Radial repulsive potential V(r) = amplitude * profile(rate * r) >= 0.

    profile_range, profile_l1, profile_breakpoints: effective range,
        integral over R^3 and the points where the profile is not analytic.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    profile_range: float
    profile_l1: float
    profile_breakpoints: tuple[float, ...] = ()
    amplitude: float = 1.0
    rate: float = 1.0

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        return self.amplitude * self.profile(self.rate * r)

    @property
    def range_hint(self) -> float:
        return self.profile_range / self.rate

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(b / self.rate for b in self.profile_breakpoints)

    @property
    def l1(self) -> float:
        """int_{R^3} V, in closed form from the profile's."""
        return self.amplitude * self.profile_l1 / self.rate**3


def zero_potential() -> Potential:
    return Potential(
        profile=lambda r: np.zeros_like(np.asarray(r, dtype=np.float64)),
        profile_range=1.0,
        profile_l1=0.0,
    )


def soft_sphere(v0: float, radius: float) -> Potential:
    if v0 < 0:
        raise PotentialError("repulsivity violated: v0 < 0")
    if radius <= 0:
        raise PotentialError("radius must be positive")
    v0 = float(v0)
    radius = float(radius)
    if not (np.isfinite(v0) and np.isfinite(radius)):  # NaN passes the sign tests
        raise PotentialError("soft-sphere parameters must be finite")

    def ev(r):
        r = np.asarray(r, dtype=np.float64)
        return np.where(r <= radius, 1.0, 0.0)

    return Potential(
        profile=ev,
        profile_range=radius,
        # a product, not **, so that a cube past float range is inf, not an OverflowError
        profile_l1=4.0 * np.pi * (radius * radius * radius) / 3.0,
        profile_breakpoints=(radius,),
        amplitude=v0,
    )


def gaussian(v0: float, width: float) -> Potential:
    if v0 < 0:
        raise PotentialError("repulsivity violated: v0 < 0")
    if width <= 0:
        raise PotentialError("width must be positive")
    v0 = float(v0)
    width = float(width)
    if not (np.isfinite(v0) and np.isfinite(width)):  # NaN passes the sign tests
        raise PotentialError("gaussian parameters must be finite")

    def ev(r):
        r = np.asarray(r, dtype=np.float64)
        return np.exp(-((r / width) ** 2))

    return Potential(
        profile=ev,
        profile_range=6.0 * width,
        profile_l1=np.pi**1.5 * (width * width * width),
        amplitude=v0,
    )


def scale(p: Potential, N: int) -> Potential:
    """Short-range rescaling V -> N^2 V(N r)."""
    if int(N) != N or N < 1:
        raise PotentialError("invalid scale: N must be a positive integer")
    N = int(N)
    try:  # an int N^2 past float range raises; a float product past it is inf
        amplitude, rate = p.amplitude * N**2, p.rate * N
    except OverflowError:
        amplitude = rate = np.inf
    if not (np.isfinite(amplitude) and np.isfinite(rate)):
        raise PotentialError("invalid scale: N^2 V(N r) leaves float range")
    return replace(p, amplitude=amplitude, rate=rate)


def dilate(p: Potential, alpha: float) -> Potential:
    """V -> alpha^-3 V(r / alpha): keeps int V while concentrating it at 0."""
    if not alpha > 0:
        raise PotentialError("dilation alpha must be positive")
    return replace(p, amplitude=p.amplitude / alpha**3, rate=p.rate / alpha)


def born_scattering_length(p) -> float:
    """First Born approximation (1/8 pi) int V; upper bound for V >= 0."""
    return p.l1 / (8.0 * np.pi)


def unit_l1(p: Potential) -> Potential:
    """Rescale the amplitude so that int V = 1."""
    l1 = p.l1
    if l1 <= 0.0:
        raise PotentialError("cannot normalize a vanishing potential")
    amplitude = p.amplitude / l1
    if not np.isfinite(amplitude):  # a subnormal int V
        raise PotentialError(f"cannot normalize: int V = {l1!r} puts the amplitude past float range")
    return replace(p, amplitude=amplitude)
