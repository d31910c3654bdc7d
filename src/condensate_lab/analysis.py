"""Numerical certification of the supporting inequalities.

Three groups of checks live here:

  * two momentum-space kernel integrals whose finiteness drives the pairing
    bounds (closed-form angular reduction, then one Gauss-Legendre panel sum
    over r, for |p| <= 64);
  * the pairing inequality |<phi, V(x1-x2) psi>| <= C ||V||_1 sqrt(Q(phi) Q(psi))
    with Q = <(grad1.grad2)^2 - Lap1 - Lap2 + 1>, and its delta-approximation
    refinement with rate alpha^(1/12), evaluated on separable Gaussian pairs
    where every ingredient is a closed form but the radial pairing integral,
    one Gauss-Legendre sum with panel edges at the breakpoints of V;
  * the exponential pair-repulsion cutoffs: pointwise evaluation, analytic
    gradients/Hessians, exact monotonicity, and the gradient/Hessian ratio
    bounds sampled over random configurations.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, dilate
from .radial import gauss_panels


# ---------------------------------------------------------------------------
# Momentum-space kernel integrals
# ---------------------------------------------------------------------------

# The Gauss-Legendre rule of the kernel and pairing sums, 16 nodes per panel
# (built once, since an eigenproblem builds it)
_PAIRING_RULE = np.polynomial.legendre.leggauss(16)


def _int1_mu_integral(r, P):
    """int_{-1}^{1} dmu / ((r P mu - r^2)^2 + r^2 + (P - q)^2 ... ) closed form, for r > 0.

    The denominator is quadratic in mu with discriminant 4 r^2 P^4 > 0, so
    the angular integral is an arctangent difference, written in atan2 form
    to stay stable for small r and across the ridge r P > r^2 + 1.
    """
    num = 2.0 * r * P**2
    den = P**2 + (r**2 + 1.0) ** 2 - r**2 * P**2
    return np.arctan2(num, den) / (r * P**2)


# The kernel integrals' rule, _PAIRING_RULE on _KERNEL_PANELS uniform panels of
# u in [0, 1] on each piece, and the largest |p| it resolves: the integrands'
# ridge at r = |p| has width about 1, so a fixed rule fails at large |p|.  On
# [0, 64] it agrees with twice the panels to 2.3e-14 relative.
_KERNEL_PANELS = 64
_KERNEL_P_MAX = 64.0


def kernel_integral(kind: str, p_mag: float) -> float:
    """3-d integral of the named kernel at momentum magnitude |p| <= _KERNEL_P_MAX.

    kind "int1":  1 / ((q.(p-q))^2 + q^2 + (p-q)^2 + 1)
    kind "trivv": (|q|^(1/2) + 1) / ((1+q^2)(1+(q-p)^2))
    The angular integral is closed; the radial one is one Gauss-Legendre sum,
    through r = mid u^2 on [0, mid] (so trivv's sqrt(r) is smooth at 0) and
    r = mid / u^2 on [mid, inf) (so both tails are smooth at u = 0), with
    mid = max(4, 3|p|).  A larger |p|, or a NaN, is a ValueError.
    """
    P = abs(float(p_mag))
    if not P <= _KERNEL_P_MAX:
        raise ValueError(f"kernel integral needs |p| <= {_KERNEL_P_MAX}, got {p_mag!r}")
    mid = max(4.0, 3.0 * P)
    u, w = gauss_panels(np.linspace(0.0, 1.0, _KERNEL_PANELS + 1), _PAIRING_RULE)
    r = mid * np.concatenate((u**2, u**-2))
    dr = 2.0 * mid * np.concatenate((u * w, w / u**3))
    # the integral over mu, the cosine of the angle between q and p
    if kind == "int1":
        angular = 2.0 / (r**2 + 1.0) ** 2 if P < 1e-10 else _int1_mu_integral(r, P)
    elif kind == "trivv":
        # that of 1 / (1 + (q - p)^2) is log((1 + (r + P)^2) / (1 + (r - P)^2)) / (2 r P)
        shell = 2.0 / (1.0 + r**2) if P < 1e-10 else np.log1p(4.0 * r * P / (1.0 + (r - P) ** 2)) / (2.0 * r * P)
        angular = (np.sqrt(r) + 1.0) / (1.0 + r**2) * shell
    else:
        raise ValueError(f"unknown kernel integral kind: {kind!r}")
    return float(2.0 * np.pi * np.sum(dr * r**2 * angular))


# ---------------------------------------------------------------------------
# Separable Gaussian pair algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFactor:
    """Normalized 3-d isotropic Gaussian (pi s^2)^(-3/4) e^{-(x-mu)^2/2s^2 + iq.x}."""

    center: np.ndarray
    width: float
    momentum: np.ndarray

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("degenerate width")

    def p_mean(self) -> np.ndarray:
        return np.asarray(self.momentum, dtype=np.float64)

    def p_var(self) -> float:
        """Per-component momentum variance 1/(2 s^2)."""
        return 1.0 / (2.0 * self.width**2)


@dataclass(frozen=True)
class GaussianTestPair:
    """Two-particle separable states phi = a(x1) b(x2), psi = c(x1) d(x2)."""

    a: GaussianFactor
    b: GaussianFactor
    c: GaussianFactor
    d: GaussianFactor


def random_pair(rng: np.random.Generator, spread: float = 1.0) -> GaussianTestPair:
    def factor():
        return GaussianFactor(
            center=rng.uniform(-spread, spread, 3),
            width=float(rng.uniform(0.6, 1.8)),
            momentum=rng.uniform(-1.0, 1.0, 3),
        )

    return GaussianTestPair(factor(), factor(), factor(), factor())


def _product_params(f: GaussianFactor, g: GaussianFactor):
    """conj(f) * g written as n0 exp(-alpha x^2 + beta . x), beta complex."""
    alpha = 0.5 / f.width**2 + 0.5 / g.width**2
    beta = (
        f.center / f.width**2
        + g.center / g.width**2
        + 1j * (g.p_mean() - f.p_mean())
    )
    log_n0 = (
        -0.75 * np.log(np.pi * f.width**2)
        - 0.75 * np.log(np.pi * g.width**2)
        - 0.5 * np.dot(f.center, f.center) / f.width**2
        - 0.5 * np.dot(g.center, g.center) / g.width**2
    )
    return alpha, beta, log_n0


def _correlation_params(pair: GaussianTestPair):
    """A, B and the complex log K0 of K(v) = int conj(phi) psi delta(x1 - x2 - v) = K0 e^{-A v^2 + B.v}."""
    ap, bp, lp = _product_params(pair.a, pair.c)
    aq, bq, lq = _product_params(pair.b, pair.d)
    a_tot = ap + aq
    A = ap * aq / a_tot
    B = (aq * bp - ap * bq) / a_tot
    log_k0 = lp + lq + 1.5 * np.log(np.pi / a_tot) + np.dot(bp + bq, bp + bq) / (4.0 * a_tot)
    return A, B, log_k0


def delta_pairing(pair: GaussianTestPair) -> complex:
    """<phi, delta(x1 - x2) psi> in closed form (K(0))."""
    return complex(np.exp(_correlation_params(pair)[2]))


# The pairing sum's least panel count across the span
_SPAN_PANELS = 32
# the least node count of one pairing sum
PAIRING_NODES = len(_PAIRING_RULE[0]) * _SPAN_PANELS

# e^x underflows to 0 below this x
_EXP_UNDERFLOW = math.log(np.finfo(np.float64).smallest_subnormal)


def potential_pairing(pair: GaussianTestPair, V: Potential) -> complex:
    """<phi, V(x1 - x2) psi> = int V(|v|) K(v) dv as one Gauss-Legendre sum.

    The angular integral of exp(B.v) over the sphere of radius r is
    4 pi sinh(s r) / (s r), s = sqrt(B.B), an even analytic function of
    the complex root.  The radial sum takes 16 nodes on each panel.  The
    span ends at 4 V.range_hint or where e^{-A r^2 + |Re s| r} underflows,
    whichever comes first.  The panels are a uniform grid over the span, of
    step at most K's width 1/sqrt(A) and 1/_SPAN_PANELS of the span, with
    every breakpoint of V added as an edge, so V is analytic on each.
    """
    A, B, log_k0 = _correlation_params(pair)
    s = np.sqrt(complex(np.dot(B, B)))  # the principal root: Re s >= 0
    end = min(4.0 * V.range_hint, (s.real + math.sqrt(s.real**2 - 4.0 * A * _EXP_UNDERFLOW)) / (2.0 * A))
    width = min(1.0 / math.sqrt(A), end / _SPAN_PANELS)
    edges = np.union1d(np.linspace(0.0, end, math.ceil(end / width) + 1), [b for b in V.breakpoints if b < end])
    r, w = gauss_panels(edges, _PAIRING_RULE)
    # K0 e^{-A r^2} sinh(z) / z as e^{log K0 + z - A r^2} (1 - e^{-2z}) / 2z: no factor overflows
    z = s * r
    kernel = np.exp(z - A * r**2 + log_k0) * (-np.expm1(-2.0 * z) / (2.0 * z) if s else 1.0)
    return complex(4.0 * np.pi * np.sum(w * r**2 * V(r) * kernel))


def _pair_moments(f: GaussianFactor):
    m = f.p_mean()
    v = f.p_var()
    second = np.outer(m, m) + v * np.eye(3)
    return m, v, second


def mixed_derivative_form(x: GaussianFactor, y: GaussianFactor) -> float:
    """<(grad1.grad2)^2 - Lap1 - Lap2 + 1> on the product state x(x1) y(x2)."""
    _, _, sx = _pair_moments(x)
    _, _, sy = _pair_moments(y)
    term = float(np.sum(sx * sy))
    p1 = float(np.trace(sx))
    p2 = float(np.trace(sy))
    return term + p1 + p2 + 1.0


def difference_quartic_form(x: GaussianFactor, y: GaussianFactor) -> float:
    """<|p1 - p2|^4 + |p1 + p2|^2 + 1> on the product state."""
    mx, vx, _ = _pair_moments(x)
    my, vy, _ = _pair_moments(y)
    m = mx - my
    var = vx + vy  # per component variance of p1 - p2
    m2 = float(np.dot(m, m))
    fourth = (m2 + 3.0 * var) ** 2 + 6.0 * var**2 + 4.0 * m2 * var
    plus = float(np.dot(mx + my, mx + my)) + 3.0 * (vx + vy)
    return fourth + plus + 1.0


def vl1_check(V: Potential, pair: GaussianTestPair) -> float:
    """The ratio of the L1 pairing bound on a Gaussian pair.

    ratio = |<phi, V psi>| / (||V||_1 sqrt(Q(phi) Q(psi))), and 0 when
    ||V||_1 = 0; the analytic bound is
    (2 pi)^{-3} sup_p kernel_integral("int1", p) = pi^2/(8 pi^3).
    """
    l1 = V.l1
    if l1 == 0.0:
        return 0.0
    form_phi = mixed_derivative_form(pair.a, pair.b)
    form_psi = mixed_derivative_form(pair.c, pair.d)
    return float(abs(potential_pairing(pair, V)) / (l1 * np.sqrt(form_phi * form_psi)))


def vl12_rate(V: Potential, pair: GaussianTestPair, alphas) -> dict:
    """Gap |<phi, (V_alpha - delta) psi>| along a ladder of scales.

    V must be normalized to unit integral; V_alpha = dilate(V, alpha), i.e.
    alpha^-3 V(x/alpha), keeps the integral equal to one while concentrating
    at the origin.  Returns the gaps and the form scale of the alpha^(1/12) rate.
    """
    if abs(V.l1 - 1.0) > 1e-6:
        raise ValueError("potential must be normalized to unit integral")
    target = delta_pairing(pair)
    gaps = [abs(potential_pairing(pair, dilate(V, alpha)) - target) for alpha in alphas]
    form_psi = mixed_derivative_form(pair.c, pair.d)
    form_phi4 = difference_quartic_form(pair.a, pair.b)
    return {"gaps": gaps, "form_scale": float(np.sqrt(form_psi * form_phi4))}


# ---------------------------------------------------------------------------
# Exponential pair-repulsion cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffConfig:
    ell: float
    eps: float
    k: int
    N: int

    def __post_init__(self):
        if not (self.ell > 0 and 0 < self.eps < 1):
            raise ValueError("need ell > 0 and 0 < eps < 1")
        if not 1 <= self.k < self.N:
            raise ValueError("need 1 <= k < N")
        # 2 / ell^eps overflows for ell far below 1 with eps near 1
        if not math.isfinite(self.strength):
            raise ValueError(f"need a finite strength 2 / ell^eps, got ell = {self.ell}, eps = {self.eps}")

    @property
    def strength(self) -> float:
        """2 / ell^eps."""
        return 2.0 / self.ell**self.eps


def default_cutoff_config(N: int = 10, k: int = 3) -> CutoffConfig:
    return CutoffConfig(ell=float(N) ** (-0.4), eps=0.1, k=k, N=N)


def _pair_geometry(cfg: CutoffConfig, positions: np.ndarray):
    """h values, gradients and Hessian blocks of h(x_a - x_b) for all pairs.

    h(x) = exp(-sqrt(|x|^2 + ell^2) / ell), zero on the diagonal with its derivatives.
    """
    ell = cfg.ell
    diff = positions[:, None, :] - positions[None, :, :]
    rho2 = np.sum(diff * diff, axis=-1) + ell * ell
    rho = np.sqrt(rho2)
    hmat = np.exp(-rho / ell)
    np.fill_diagonal(hmat, 0.0)
    # grad h = -h x / (ell rho)
    grad = -hmat[..., None] * diff / (ell * rho[..., None])
    # hess h = h [ x x^T (1/(ell^2 rho^2) + 1/(ell rho^3)) - I/(ell rho) ]
    hess = diff[:, :, :, None] * diff[:, :, None, :]
    hess *= (hmat * (1.0 / (ell**2 * rho2) + 1.0 / (ell * rho2 * rho)))[..., None, None]
    np.einsum("abii->abi", hess)[...] -= (hmat / (ell * rho))[..., None]  # a diagonal view
    return hmat, grad, hess


@dataclass
class CutoffEvaluation:
    Theta: float
    grad: np.ndarray
    grad_free: float
    hess_free: float
    row_sums: np.ndarray
    cumulative_sum: float


def theta_eval(cfg: CutoffConfig, positions: np.ndarray) -> CutoffEvaluation:
    """Cutoff value, analytic gradient and Hessian row sums at a configuration.

    Theta = exp(-strength * S_k) with S_k = sum_{i <= k} sum_{j != i} h_ij;
    grad[m] = d Theta / d x_m; row_sums[m] = sum_{j != m} h_mj.  The
    derivative sums leave out their factors Theta and strength^2, which may
    under- or overflow: grad_free = |grad Theta|^2 / (strength Theta)^2 and
    hess_free = (sum over particle pairs of the Frobenius norm of the 3x3
    second-derivative block) / (strength^2 Theta).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (cfg.N, 3) or not np.all(np.isfinite(positions)):
        raise ValueError("positions must be a finite (N, 3) array")
    hmat, grad_h, hess_h = _pair_geometry(cfg, positions)
    rows = np.sum(hmat, axis=1)

    k = cfg.k
    weights = np.zeros((cfg.N, cfg.N))
    weights[:k, :] += 1.0
    weights[:, :k] += 1.0
    np.fill_diagonal(weights, 0.0)

    s_k = float(np.sum(hmat[:k]))
    c = cfg.strength
    theta = float(np.exp(-c * s_k))

    # dS/dx_m = sum_b w_mb grad_h[m, b]
    grad_s = np.sum(weights[..., None] * grad_h, axis=1)
    grad = -c * theta * grad_s
    del grad_h

    # Hessian blocks of Theta / (theta c^2), gS gS^T - hess S / c; hess S has the blocks
    # -w_mb hess_h[m, b] off the diagonal and sum_b w_mb hess_h[m, b] on it
    blocks = hess_h
    blocks *= (weights / c)[..., None, None]
    diag = np.arange(cfg.N)
    blocks[diag, diag] = -np.sum(blocks, axis=1)
    blocks += grad_s[:, None, :, None] * grad_s[None, :, None, :]
    hess_free = float(np.sum(np.sqrt(np.einsum("mpij,mpij->mp", blocks, blocks))))
    return CutoffEvaluation(
        Theta=theta,
        grad=grad,
        grad_free=float(np.sum(grad_s**2)),
        hess_free=hess_free,
        row_sums=rows,
        cumulative_sum=s_k,
    )


def cumulative_values(cfg_base: CutoffConfig, row_sums: np.ndarray) -> np.ndarray:
    """Theta_k for k = 1..N-1, via monotone partial sums.

    row_sums is CutoffEvaluation.row_sums of the configuration.  A product
    strength * sum beyond float range is inf, and exp(-inf) = 0 is the value.
    """
    with np.errstate(over="ignore"):
        return np.exp(-cfg_base.strength * np.cumsum(row_sums[: cfg_base.N - 1]))


def sample_configurations(cfg: CutoffConfig, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Uniform box of side 10 ell plus clustered variants, per-sample streams, drawn one at a time."""
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        pos = rng.uniform(-5.0 * cfg.ell, 5.0 * cfg.ell, size=(cfg.N, 3))
        if i % 3 == 1:
            # pull a pair together to within a fraction of ell
            pos[1] = pos[0] + rng.normal(scale=0.2 * cfg.ell, size=3)
        elif i % 3 == 2:
            # tight cluster of four particles
            pos[1:4] = pos[0] + rng.normal(scale=0.3 * cfg.ell, size=(3, 3))
        yield pos


def theta_inequalities(cfg: CutoffConfig, samples: int = 100, seed: int = 0) -> dict:
    """Monotonicity in k and the two ratio bounds over random configurations.

    Theta_k = exp(-c S_k) with c = strength, and Theta_k' = exp(-(c / 2) S_k)
    is the cutoff at half the strength:
    ratio_ii  = [sum_j |grad_j Theta_k|^2 / Theta_k] / [ell^-2 Theta_k']
    ratio_iii = [sum_{i,j} |hess block| ] / [ell^-2 Theta_k']
    Both are ell^2 (grad_free or hess_free) exp(2 ln c - (c / 2) S_k), so no
    Theta is a divisor.  The per-sample ratios are returned in draw order
    beside their sups.  Monotone partial sums feed a monotone exponential, so
    monotonicity_margin, the largest Theta_k - Theta_{k-1} with Theta_0 = 1
    over the samples, must be <= 0 (a NaN fails).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    c = cfg.strength
    margin = -math.inf
    ratio_ii, ratio_iii = [], []
    for pos in sample_configurations(cfg, samples, seed):
        ev = theta_eval(cfg, pos)
        # Theta_k - Theta_{k-1} for k = 1..N-1; np.max keeps a NaN, in steps or in margin
        steps = np.diff(cumulative_values(cfg, ev.row_sums), prepend=1.0)
        margin = np.max(steps, initial=margin)
        # ell^2 c^2 Theta / Theta'
        scale = cfg.ell**2 * float(np.exp(2.0 * math.log(c) - 0.5 * c * ev.cumulative_sum))
        ratio_ii.append(ev.grad_free * scale)
        ratio_iii.append(ev.hess_free * scale)
    return {
        "monotonicity_ok": bool(margin <= 0.0),
        "monotonicity_margin": float(margin),
        "ratio_ii_sup": max(ratio_ii),
        "ratio_iii_sup": max(ratio_iii),
        "ratio_ii": ratio_ii,
        "ratio_iii": ratio_iii,
    }
