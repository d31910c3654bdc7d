"""Repulsive radial interaction potentials and their short-range rescaling.

Supported families: zero, soft-sphere (piecewise constant ball), gaussian,
and tabulated radial samples.  Every potential is V(r) = A profile(s r):
the family fixes the profile, its decay exponent sigma, an effective range
used to size radial grids, the breakpoints where it is non-smooth and
sup x^2 profile(x); the transforms below change only the amplitude A and
the rate s, and every derived quantity follows from (A, s).  Rescaling by N
maps V to N^2 V(N r), which divides the effective range and the scattering
length by N.
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
        or super-exponential tails.  Stored metadata; the sigma > 5
        hypothesis is reported, not enforced.
    profile_range, profile_breakpoints, profile_sup: effective range,
        non-smooth points and sup_x x^2 profile(x) of the profile.
    """

    family: str
    params: dict
    sigma: float
    profile: Callable[[np.ndarray], np.ndarray]
    profile_range: float
    profile_sup: float
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
    def second_moment_sup(self) -> float:
        """sup_r r^2 V(r), in closed form from the profile's."""
        return self.amplitude * self.profile_sup / self.rate**2

    @property
    def meets_decay_hypothesis(self) -> bool:
        return self.sigma > 5.0


def zero_potential() -> Potential:
    return Potential(
        family="zero",
        params={},
        sigma=np.inf,
        profile=lambda r: np.zeros_like(np.asarray(r, dtype=np.float64)),
        profile_range=1.0,
        profile_sup=0.0,
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
        profile_sup=v0 * radius**2,
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
        profile_sup=v0 * width**2 / np.e,
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
    if np.any(v_samples < 0):
        raise PotentialError("repulsivity violated")
    # scipy.interpolate and scipy.integrate load only where used: most tasks need neither
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

    # dense scan; x^2 V is bounded on the compact support
    xx = np.linspace(0.0, r_hi, 20001)
    return Potential(
        family="tabulated",
        params={"r": r_samples.tolist(), "v": v_samples.tolist()},
        sigma=float(sigma),
        profile=ev,
        profile_range=r_hi,
        profile_sup=float(np.max(xx**2 * ev(xx))),
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


@dataclass(frozen=True)
class PotentialNorms:
    l1: float
    l2: float
    l3half: float
    first_moment: float
    second_moment_sup: float
    hardy_integral: float
    rho: float

    def as_dict(self) -> dict:
        return {
            "l1": self.l1,
            "l2": self.l2,
            "l3half": self.l3half,
            "first_moment": self.first_moment,
            "second_moment_sup": self.second_moment_sup,
            "hardy_integral": self.hardy_integral,
            "rho": self.rho,
        }


def _radial_integral(p, weight, quad_opts) -> float:
    """integral over R^3 of weight(r, V(r)) reduced to 4 pi int r^2 ... dr."""
    from scipy.integrate import quad

    def f(r):
        return 4.0 * np.pi * weight(r, float(p(np.asarray([r]))[0]))

    # edges follow range_hint, so quad resolves V at every rate s
    edges = [0.0, *p.breakpoints, 4.0 * p.range_hint]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(f, a, b, **quad_opts)
        total += val
    tail, _ = quad(f, edges[-1], np.inf, **quad_opts)
    return total + tail


def norms(p: Potential) -> PotentialNorms:
    """Lp norms, moments and the dimensionless size parameter of V.

    Entries are adaptive radial quadratures (relative error <= 1e-8);
    rho = sup |x|^2 V + int V / |x|.
    """
    if p.sigma <= 3.0:
        raise PotentialError("divergent norm: decay exponent sigma <= 3")
    if p.family == "zero":
        return PotentialNorms(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    opts = {"epsabs": 1e-13, "epsrel": 1e-10, "limit": 200}
    l1 = _radial_integral(p, lambda r, v: r**2 * v, opts)
    l2sq = _radial_integral(p, lambda r, v: r**2 * v**2, opts)
    l32 = _radial_integral(p, lambda r, v: r**2 * v**1.5, opts)
    first = _radial_integral(p, lambda r, v: r**3 * v, opts)
    hardy = _radial_integral(p, lambda r, v: r * v, opts)
    sup2 = p.second_moment_sup
    return PotentialNorms(
        l1=l1,
        l2=float(np.sqrt(l2sq)),
        l3half=float(l32 ** (2.0 / 3.0)),
        first_moment=first,
        second_moment_sup=sup2,
        hardy_integral=hardy,
        rho=sup2 + hardy,
    )


def born_scattering_length(p) -> float:
    """First Born approximation (1/8 pi) int V; upper bound for V >= 0."""
    if p.family == "zero":
        return 0.0
    return norms(p).l1 / (8.0 * np.pi)


def unit_l1(p: Potential) -> Potential:
    """Rescale the amplitude so that int V = 1."""
    l1 = norms(p).l1
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
