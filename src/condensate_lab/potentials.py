"""Repulsive radial interaction potentials and their short-range rescaling.

Supported families: zero, soft-sphere (piecewise constant ball), gaussian,
and tabulated radial samples.  Every potential is V(r) = A profile(s r):
the family fixes the profile, its decay exponent sigma, an effective range
used to size radial grids, the breakpoints where it is non-smooth and the
exact integral of the profile over R^3; the transforms below change only
the amplitude A and the rate s, and every derived quantity follows from
(A, s).  Rescaling by N maps V to N^2 V(N r), which divides the effective
range and the scattering length by N.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class Potential:
    """Radial repulsive potential V(r) = amplitude * profile(rate * r) >= 0.

    family: one of "zero", "soft-sphere", "gaussian", "tabulated"
    params: family parameters of the profile (see factory functions below)
    sigma: decay exponent in V(r) <= C (1+r)^(-sigma); inf for compact
        or super-exponential tails.  Enforced where it matters: l1 and
        scattering.solve_zero_energy refuse sigma <= 3, and
        scattering.phase_shift refuses sigma <= 1.
    profile_range, profile_breakpoints, profile_l1: effective range,
        non-smooth points and integral over R^3 of the profile.
    """

    family: str
    params: dict
    sigma: float
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
        if self.sigma <= 3.0:
            raise PotentialError("divergent norm: decay exponent sigma <= 3")
        return self.amplitude * self.profile_l1 / self.rate**3


def zero_potential() -> Potential:
    return Potential(
        family="zero",
        params={},
        sigma=np.inf,
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
        return np.where(r <= radius, v0, 0.0)

    return Potential(
        family="soft-sphere",
        params={"v0": v0, "radius": radius},
        sigma=np.inf,
        profile=ev,
        profile_range=radius,
        profile_l1=4.0 * np.pi * v0 * radius**3 / 3.0,
        profile_breakpoints=(radius,),
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
        return v0 * np.exp(-((r / width) ** 2))

    return Potential(
        family="gaussian",
        params={"v0": v0, "width": width},
        sigma=np.inf,
        profile=ev,
        profile_range=6.0 * width,
        profile_l1=np.pi**1.5 * v0 * width**3,
    )


def tabulated(r_samples, v_samples, sigma: float = np.inf) -> Potential:
    r_samples = np.asarray(r_samples, dtype=np.float64)
    v_samples = np.asarray(v_samples, dtype=np.float64)
    if r_samples.ndim != 1 or r_samples.shape != v_samples.shape:
        raise PotentialError("tabulated data must be two matching 1-d columns")
    if not (np.all(np.isfinite(r_samples)) and np.all(np.isfinite(v_samples))):
        raise PotentialError("tabulated samples must be finite")
    if np.isnan(sigma):
        raise PotentialError("sigma must not be NaN")
    if not np.all(np.diff(r_samples) > 0):
        raise PotentialError("tabulated radii must be strictly ascending")
    if r_samples[0] < 0:
        raise PotentialError("tabulated radii must be >= 0")
    if np.any(v_samples < 0):
        raise PotentialError("repulsivity violated")
    # scipy.interpolate loads only where used: most tasks never need it
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(r_samples, v_samples, extrapolate=False)
    r_lo, r_hi = float(r_samples[0]), float(r_samples[-1])
    v_lo = float(v_samples[0])

    def ev(r):
        r = np.asarray(r, dtype=np.float64)
        out = np.where(r < r_lo, v_lo, 0.0)
        inside = (r >= r_lo) & (r <= r_hi)
        if np.any(inside):
            vals = interp(r[inside])
            out = out.astype(np.float64)
            out[inside] = np.maximum(vals, 0.0)
        return out

    # r^2 times each PCHIP cubic is a quintic, which 3-point Gauss-Legendre integrates exactly
    nodes, weights = np.polynomial.legendre.leggauss(3)
    mid = 0.5 * (r_samples[1:] + r_samples[:-1])
    half = 0.5 * np.diff(r_samples)
    x = mid[:, None] + half[:, None] * nodes
    inner = float(np.sum(half[:, None] * weights * x**2 * ev(x)))
    return Potential(
        family="tabulated",
        params={"r": r_samples.tolist(), "v": v_samples.tolist()},
        sigma=float(sigma),
        profile=ev,
        profile_range=r_hi,
        profile_l1=4.0 * np.pi * (v_lo * r_lo**3 / 3.0 + inner),
        # a nonzero last sample jumps to 0 there
        profile_breakpoints=(r_hi,) if v_samples[-1] > 0 else (),
    )


def tabulated_from_csv(path, sigma: float = np.inf) -> Potential:
    rs, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                rs.append(float(row[0]))
                vs.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise PotentialError(f"bad tabulated row {row!r}") from exc
    return tabulated(rs, vs, sigma=sigma)


def scale(p: Potential, N: int) -> Potential:
    """Short-range rescaling V -> N^2 V(N r)."""
    if int(N) != N or N < 1:
        raise PotentialError("invalid scale: N must be a positive integer")
    N = int(N)
    return replace(p, amplitude=p.amplitude * N**2, rate=p.rate * N)


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
    return replace(p, amplitude=p.amplitude / l1)


def from_config(spec: dict) -> Potential:
    """Build a potential from its {family, params} serialization."""
    fam = spec.get("family")
    if fam == "zero":
        return zero_potential()
    if fam == "soft-sphere":
        return soft_sphere(spec["v0"], spec["radius"])
    if fam == "gaussian":
        return gaussian(spec["v0"], spec["width"])
    if fam == "tabulated":
        sigma = float(spec.get("sigma", np.inf))
        if "path" in spec:
            if not isinstance(spec["path"], str):
                # open() would take an integer as a file descriptor
                raise PotentialError("tabulated path must be a string")
            return tabulated_from_csv(spec["path"], sigma=sigma)
        return tabulated(spec["r"], spec["v"], sigma=sigma)
    raise PotentialError(f"unknown potential family: {fam!r}")
