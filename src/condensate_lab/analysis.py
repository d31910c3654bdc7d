"""Numerical certification of the supporting inequalities.

Three groups of checks live here:

  * two momentum-space kernel integrals whose finiteness drives the pairing
    bounds (closed-form angular reduction, adaptive radial quadrature);
  * the pairing inequality |<phi, V(x1-x2) psi>| <= C ||V||_1 sqrt(Q(phi) Q(psi))
    with Q = <(grad1.grad2)^2 - Lap1 - Lap2 + 1>, and its delta-approximation
    refinement with rate alpha^(1/12), evaluated on separable Gaussian pairs
    where every ingredient reduces to closed forms or 1-d quadratures;
  * the exponential pair-repulsion cutoffs: pointwise evaluation, analytic
    gradients/Hessians, exact monotonicity, and the gradient/Hessian ratio
    bounds sampled over random configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import Potential, dilate


# ---------------------------------------------------------------------------
# Momentum-space kernel integrals
# ---------------------------------------------------------------------------


def _int1_mu_integral(r: float, P: float) -> float:
    """int_{-1}^{1} dmu / ((r P mu - r^2)^2 + r^2 + (P - q)^2 ... ) closed form.

    The denominator is quadratic in mu with discriminant 4 r^2 P^4 > 0, so
    the angular integral is an arctangent difference, written in atan2 form
    to stay stable for r -> 0 and across the ridge r P > r^2 + 1.
    """
    if r == 0.0:
        return 2.0 / (P**2 + 1.0)
    num = 2.0 * r * P**2
    den = P**2 + (r**2 + 1.0) ** 2 - r**2 * P**2
    return float(np.arctan2(num, den) / (r * P**2))


def kernel_integral(kind: str, p_mag: float) -> float:
    """3-d integral of the named kernel at momentum magnitude |p|.

    kind "int1":  1 / ((q.(p-q))^2 + q^2 + (p-q)^2 + 1)
    kind "trivv": (|q|^(1/2) + 1) / ((1+q^2)(1+(q-p)^2))
    """
    P = float(abs(p_mag))
    if kind == "int1":
        if P < 1e-10:
            integrand = lambda r: 2.0 * np.pi * r**2 * 2.0 / ((r**2 + 1.0) ** 2)
        else:
            integrand = lambda r: 2.0 * np.pi * r**2 * _int1_mu_integral(r, P)
    elif kind == "trivv":
        if P < 1e-10:
            integrand = (
                lambda r: 4.0 * np.pi * r**2 * (np.sqrt(r) + 1.0) / (1.0 + r**2) ** 2
            )
        else:
            def integrand(r):
                if r == 0.0:
                    return 0.0
                log_term = np.log1p(
                    4.0 * r * P / (1.0 + (r - P) ** 2)
                )
                return (
                    2.0 * np.pi
                    * r
                    * (np.sqrt(r) + 1.0)
                    / (1.0 + r**2)
                    * log_term
                    / (2.0 * P)
                )
    else:
        raise ValueError(f"unknown kernel integral kind: {kind!r}")
    from scipy.integrate import quad

    mid = max(4.0, 3.0 * P)
    v1, e1 = quad(integrand, 0.0, mid, epsabs=0.0, epsrel=1e-9, limit=400)
    v2, e2 = quad(integrand, mid, np.inf, epsabs=1e-13, epsrel=1e-9, limit=400)
    if not np.isfinite(v1 + v2):
        raise RuntimeError("kernel integral quadrature did not converge")
    return float(v1 + v2)


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

    def translated(self, shift) -> "GaussianTestPair":
        shift = np.asarray(shift, dtype=np.float64)
        move = lambda f: GaussianFactor(f.center + shift, f.width, f.momentum)
        return GaussianTestPair(
            move(self.a), move(self.b), move(self.c), move(self.d)
        )


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
    """K(v) = int conj(phi) psi delta(x1 - x2 - v) = K0 exp(-A v^2 + B.v)."""
    ap, bp, lp = _product_params(pair.a, pair.c)
    aq, bq, lq = _product_params(pair.b, pair.d)
    a_tot = ap + aq
    A = ap * aq / a_tot
    B = (aq * bp - ap * bq) / a_tot
    log_k0 = lp + lq + 1.5 * np.log(np.pi / a_tot)
    k0 = np.exp(log_k0 + np.dot(bp + bq, bp + bq) / (4.0 * a_tot))
    return A, B, k0


def delta_pairing(pair: GaussianTestPair) -> complex:
    """<phi, delta(x1 - x2) psi> in closed form (K(0))."""
    _, _, k0 = _correlation_params(pair)
    return complex(k0)


def potential_pairing(pair: GaussianTestPair, V: Potential) -> complex:
    """<phi, V(x1 - x2) psi> = int V(|v|) K(v) dv by radial quadrature.

    The quadrature runs to 4 V.range_hint, split at V's breakpoints.  The
    angular integral of exp(B.v) over the sphere of radius r is
    4 pi sinh(r sqrt(B.B)) / (r sqrt(B.B)), an even analytic function of
    the complex square root.
    """
    A, B, k0 = _correlation_params(pair)
    b2 = complex(np.dot(B, B))
    s = np.sqrt(b2)

    def sinhc(z):
        if abs(z) < 1e-8:
            return 1.0 + z**2 / 6.0
        return np.sinh(z) / z

    def integrand(r, part):
        val = (
            4.0
            * np.pi
            * r**2
            * float(V(np.asarray([r]))[0])
            * k0
            * np.exp(-A * r**2)
            * sinhc(s * r)
        )
        return val.real if part == 0 else val.imag

    from scipy.integrate import quad

    edges = [0.0, *sorted(V.breakpoints), 4.0 * V.range_hint]
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        re, _ = quad(lambda r: integrand(r, 0), a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
        im, _ = quad(lambda r: integrand(r, 1), a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
        total += re + 1j * im
    return complex(total)


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


def vl1_check(V: Potential, pair: GaussianTestPair) -> dict:
    """Both sides of the L1 pairing bound on a Gaussian pair.

    ratio = |<phi, V psi>| / (||V||_1 sqrt(Q(phi) Q(psi))); the analytic
    bound is (2 pi)^{-3} sup_p kernel_integral("int1", p) = pi^2/(8 pi^3).
    """
    l1 = V.l1
    form_phi = mixed_derivative_form(pair.a, pair.b)
    form_psi = mixed_derivative_form(pair.c, pair.d)
    if l1 == 0.0:
        return {"lhs": 0.0, "ratio": 0.0, "form_phi": form_phi, "form_psi": form_psi}
    lhs = abs(potential_pairing(pair, V))
    ratio = lhs / (l1 * np.sqrt(form_phi * form_psi))
    return {
        "lhs": lhs,
        "ratio": float(ratio),
        "form_phi": form_phi,
        "form_psi": form_psi,
        "l1": l1,
    }


def vl12_rate(V: Potential, pair: GaussianTestPair, alphas) -> dict:
    """Gap |<phi, (V_alpha - delta) psi>| along a ladder of scales.

    V must be normalized to unit integral; V_alpha = dilate(V, alpha), i.e.
    alpha^-3 V(x/alpha), keeps the integral equal to one while concentrating
    at the origin.
    """
    if abs(V.l1 - 1.0) > 1e-6:
        raise ValueError("potential must be normalized to unit integral")
    target = delta_pairing(pair)
    gaps = [abs(potential_pairing(pair, dilate(V, alpha)) - target) for alpha in alphas]
    form_psi = mixed_derivative_form(pair.c, pair.d)
    form_phi4 = difference_quartic_form(pair.a, pair.b)
    return {
        "alphas": list(alphas),
        "gaps": gaps,
        "delta_pairing": target,
        "form_psi": form_psi,
        "form_phi4": form_phi4,
        "form_scale": float(np.sqrt(form_psi * form_phi4)),
    }


# ---------------------------------------------------------------------------
# Exponential pair-repulsion cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffConfig:
    ell: float
    eps: float
    n: int
    k: int
    N: int

    def __post_init__(self):
        if not (self.ell > 0 and 0 < self.eps < 1):
            raise ValueError("need ell > 0 and 0 < eps < 1")
        if not (self.n >= 1 and 1 <= self.k < self.N):
            raise ValueError("need n >= 1 and 1 <= k < N")

    @property
    def strength(self) -> float:
        """2^n / ell^eps."""
        return 2.0**self.n / self.ell**self.eps


def default_cutoff_config(N: int = 10, k: int = 3, n: int = 1) -> CutoffConfig:
    return CutoffConfig(ell=float(N) ** (-0.4), eps=0.1, n=n, k=k, N=N)


def pair_array_bytes(N: int) -> int:
    """Peak bytes of theta_eval, in _pair_geometry: 21 N x N float64 arrays (diff and grad
    3 each, rho2, rho, hmat, hess 9, three coefficient temporaries) and numpy's buffers."""
    return 21 * 8 * N * N + 4 * 8 * np.getbufsize()


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
    hess_abs_sum: float
    row_sums: np.ndarray
    cumulative_sum: float


def theta_eval(cfg: CutoffConfig, positions: np.ndarray) -> CutoffEvaluation:
    """Cutoff value, analytic gradient and Hessian row sums at a configuration.

    Theta = exp(-strength * S_k) with S_k = sum_{i <= k} sum_{j != i} h_ij;
    grad[m] = d Theta / d x_m; hess_abs_sum = sum over particle pairs of the
    Frobenius norm of the 3x3 second-derivative block; row_sums[m] =
    sum_{j != m} h_mj.
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

    # Hessian blocks of Theta, theta (c^2 gS gS^T - c hess S); hess S has the blocks
    # -w_mb hess_h[m, b] off the diagonal and sum_b w_mb hess_h[m, b] on it
    blocks = hess_h
    blocks *= (c * weights)[..., None, None]
    diag = np.arange(cfg.N)
    blocks[diag, diag] = -np.sum(blocks, axis=1)
    blocks += c**2 * grad_s[:, None, :, None] * grad_s[None, :, None, :]
    total = theta * float(np.sum(np.sqrt(np.einsum("mpij,mpij->mp", blocks, blocks))))
    return CutoffEvaluation(
        Theta=theta,
        grad=grad,
        hess_abs_sum=total,
        row_sums=rows,
        cumulative_sum=s_k,
    )


def cumulative_values(cfg_base: CutoffConfig, row_sums: np.ndarray) -> np.ndarray:
    """Theta_k^(n) for k = 1..N-1 at fixed n, via monotone partial sums.

    row_sums is CutoffEvaluation.row_sums of the configuration.
    """
    return np.exp(-cfg_base.strength * np.cumsum(row_sums[: cfg_base.N - 1]))


def sample_configurations(cfg: CutoffConfig, samples: int, seed: int) -> list[np.ndarray]:
    """Uniform box of side 10 ell plus clustered variants, per-sample streams."""
    out = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        pos = rng.uniform(-5.0 * cfg.ell, 5.0 * cfg.ell, size=(cfg.N, 3))
        if i % 3 == 1:
            # pull a pair together to within a fraction of ell
            pos[1] = pos[0] + rng.normal(scale=0.2 * cfg.ell, size=3)
        elif i % 3 == 2:
            # tight cluster of four particles
            pos[1:4] = pos[0] + rng.normal(scale=0.3 * cfg.ell, size=(3, 3))
        out.append(pos)
    return out


def theta_inequalities(cfg: CutoffConfig, samples: int = 100, seed: int = 0) -> dict:
    """Monotonicity and the two ratio bounds over random configurations.

    ratio_ii  = [sum_j |grad_j Theta_k^(n)|^2 / Theta_k^(n)] / [ell^-2 Theta_k^(n-1)]
    ratio_iii = [sum_{i,j} |hess block| ] / [ell^-2 Theta_k^(n-1)]
    The per-sample ratios are returned in draw order beside their sups.
    Monotonicity in k and n must hold exactly (monotone partial sums feed
    a monotone exponential).  k-monotonicity comes from the partial sums at
    fixed n; n-monotonicity compares Theta_k^(n) with
    Theta_k^(n-1) = exp(-strength(n-1) S_k), strength(n-1) taken from the
    n - 1 configuration, so at n = 1 only k-monotonicity is checked.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    # strength(n - 1) = strength(n) / 2; at n = 1 there is no n - 1 configuration
    if cfg.n > 1:
        strength_prev = CutoffConfig(cfg.ell, cfg.eps, cfg.n - 1, cfg.k, cfg.N).strength
    else:
        strength_prev = 0.5 * cfg.strength
    mono_ok = True
    ratio_ii, ratio_iii = [], []
    for pos in sample_configurations(cfg, samples, seed):
        ev = theta_eval(cfg, pos)
        # k-monotonicity at fixed n, from monotone partial sums
        cums = cumulative_values(cfg, ev.row_sums)
        if np.any(np.diff(cums) > 0) or np.any(cums > 1.0):
            mono_ok = False
        theta_prev = float(np.exp(-strength_prev * ev.cumulative_sum))
        # n-monotonicity at fixed k
        if cfg.n > 1 and ev.Theta > theta_prev:
            mono_ok = False
        denom = theta_prev / cfg.ell**2
        grad_sq = float(np.sum(ev.grad**2))
        ratio_ii.append(grad_sq / ev.Theta / denom)
        ratio_iii.append(ev.hess_abs_sum / denom)
    return {
        "monotonicity_ok": mono_ok,
        "ratio_ii_sup": max(ratio_ii),
        "ratio_iii_sup": max(ratio_iii),
        "ratio_ii": ratio_ii,
        "ratio_iii": ratio_iii,
        "samples": samples,
    }
