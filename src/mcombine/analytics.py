"""Closed-form and quadrature evaluation of the propagation-bias quantities.

For a scalar scenario (kernel f, data law Y, shared-error law S, batch
sizes J and Q) the quantities of interest are:

* ``target_variance`` — the variance both replicate constructions try to
  reproduce: V[mean_j f(Y_j, S)] = (1/J)·V[f(Y,S)] + ((J−1)/J)·Cov
  between two data vectors sharing one error draw.
* ``bias_factor_current`` — the covariance-bias factor of the current
  construction: V[f(Y, ν)] − V[E[f(Y,S) | Y]].  The construction's
  sample variance is biased by this factor divided by J, independent of Q.
* ``bias_factor_alternative`` — the factor for the alternative
  construction: E[V[f(Y,S) | S]] − V[E[f(Y,S) | Y]].  Its bias is this
  divided by J·Q, and it is non-negative in the scalar case.
* relative biases (factor over J or J·Q, normalized by the target), the
  gap between the variances of the two constructions' grand means, and
  the large-Q difference of the variances of their sample variances.

Additive and multiplicative kernels have full closed forms.  The phase
kernel (sin(y+s), S uniform on (−δ, δ)) and the exponential kernel
(y**s, Y uniform on [a, b], S uniform on [1−α, 1+α]) use one-dimensional
Gauss–Legendre quadrature over exact conditional moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .models import (
    DistSpec,
    ScalarKernel,
    TwoPoint,
    Uniform,
    moments,
    sample,
)
from .rng import RngStream

__all__ = [
    "QUAD_NODES",
    "ScalarScenario",
    "gauss_legendre",
    "exponential_conditional_mean",
    "conditional_mean_given_y",
    "conditional_variance_given_s",
    "bias_factor_current",
    "bias_factor_alternative",
    "bias_factor_alternative_mc",
    "target_variance",
    "relbias_current",
    "relbias_alternative",
    "mean_variance_gap",
    "var_of_sample_variance_normal",
    "synthesis_input_variance_gap",
]

#: Gauss-Legendre node count for one-dimensional integrals.
QUAD_NODES = 256


@dataclass(frozen=True, eq=False)
class ScalarScenario:
    """One scalar propagation scenario: kernel, input laws, and batch sizes."""

    kernel: ScalarKernel
    y_dist: DistSpec
    s_dist: DistSpec
    j: int
    q: int

    def __post_init__(self):
        if self.y_dist.k != 1 or self.s_dist.k != 1:
            raise DomainError("scalar scenario requires K=1 distributions")
        if self.j <= 1:
            raise DomainError(f"need J > 1 data vectors, got {self.j}")
        if self.q < 1:
            raise DomainError(f"need Q >= 1 error draws, got {self.q}")


_BASE_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _base_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Node construction is by far the dominant cost when a parameter map
    # evaluates thousands of cells; the reference nodes depend only on n.
    cached = _BASE_NODES.get(n)
    if cached is None:
        x, w = np.polynomial.legendre.leggauss(n)
        x.setflags(write=False)
        w.setflags(write=False)
        cached = _BASE_NODES[n] = (x, w)
    return cached


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]; weights sum to hi − lo."""
    if n < 1:
        raise DomainError("quadrature needs at least one node")
    if hi < lo:
        raise DomainError("quadrature interval is reversed")
    x, w = _base_gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half * w


# --------------------------------------------------------------------------
# Kernel-specific scenario parameters and conditional moments


def _scalar_variance(dist: DistSpec) -> float:
    return float(dist.covariance()[0, 0])


def _scalar_mean(dist: DistSpec) -> float:
    return float(dist.mean_vector()[0])


def _phase_delta(s: ScalarScenario) -> float:
    d = s.s_dist
    if not isinstance(d, Uniform):
        raise DomainError("phase kernel requires a uniform error distribution on (-delta, delta)")
    lo, hi = float(d.lo[0]), float(d.hi[0])
    if hi <= 0.0 or abs(lo + hi) > 1e-12 * hi:
        raise DomainError("phase error distribution must be Unif(-delta, delta) with delta > 0")
    return hi


def _exponential_params(s: ScalarScenario) -> tuple[float, float, float]:
    """(a, b, alpha) for the exponential pairing Y~Unif[a,b], S~Unif[1-a,1+a]."""
    y, e = s.y_dist, s.s_dist
    if not isinstance(y, Uniform) or not isinstance(e, Uniform):
        raise DomainError("exponential kernel requires uniform data and error distributions")
    a, b = float(y.lo[0]), float(y.hi[0])
    if a < 0.0:
        raise DomainError("exponential kernel requires data support with a >= 0")
    if a == 0.0 and b == 0.0:
        raise DomainError("exponential kernel requires positive data; Unif[0,0] is degenerate at 0")
    lo, hi = float(e.lo[0]), float(e.hi[0])
    alpha = 0.5 * (hi - lo)
    if abs(0.5 * (hi + lo) - 1.0) > 1e-12:
        raise DomainError("exponential error distribution must be Unif[1-alpha, 1+alpha]")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"exponential error half-width must lie in (0, 1], got {alpha}")
    return a, b, alpha


def exponential_conditional_mean(y, alpha: float):
    """E[y**S] for S ~ Unif[1−α, 1+α]: y·sinh(α·ln y)/(α·ln y).

    Accepts scalars or arrays with y > 0 and 0 < α ≤ 1.  Near y = 1
    (|ln y| < 1e-6) the ratio is evaluated by its even series
    1 + x²/6 + x⁴/120 to avoid 0/0.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    arr = np.asarray(y, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("exponential conditional mean requires y > 0")
    logy = np.log(arr)
    x = alpha * logy
    small = np.abs(logy) < 1e-6
    ratio = np.empty_like(arr)
    xs = x[small]
    ratio[small] = 1.0 + xs**2 / 6.0 + xs**4 / 120.0
    xl = x[~small]
    ratio[~small] = np.sinh(xl) / xl
    out = arr * ratio
    if np.isscalar(y):
        return float(out)
    return out


def _uniform_power_mean(a: float, b: float, c) -> np.ndarray:
    """E[Y**c] for Y ~ Unif[a, b] with 0 <= a <= b and c >= 0 (vectorized in c)."""
    c = np.asarray(c, dtype=float)
    if a == b:
        return np.power(a, c)
    return (np.power(b, c + 1.0) - np.power(a, c + 1.0)) / ((c + 1.0) * (b - a))


def _moments_given_s(s: ScalarScenario, x) -> tuple[np.ndarray, np.ndarray]:
    """(E[f(Y, S) | S = x], E[f(Y, S)² | S = x]) for an array of x, closed
    form, for the phase and exponential kernels."""
    x = np.asarray(x, dtype=float)
    if s.kernel.kind == "exponential":
        a, b, _ = _exponential_params(s)
        return _uniform_power_mean(a, b, x), _uniform_power_mean(a, b, 2.0 * x)
    _phase_delta(s)  # validates the pairing
    y_dist = s.y_dist
    if isinstance(y_dist, TwoPoint):
        a, b, p = float(y_dist.a[0]), float(y_dist.b[0]), y_dist.p
        m1 = p * np.sin(a + x) + (1.0 - p) * np.sin(b + x)
        m2 = p * np.sin(a + x) ** 2 + (1.0 - p) * np.sin(b + x) ** 2
        return m1, m2
    if isinstance(y_dist, Uniform):
        c, d = float(y_dist.lo[0]), float(y_dist.hi[0])
        if c == d:
            m1 = np.sin(c + x)
            return m1, m1**2
        width = d - c
        m1 = (np.cos(c + x) - np.cos(d + x)) / width
        m2 = 0.5 - (np.sin(2.0 * (d + x)) - np.sin(2.0 * (c + x))) / (4.0 * width)
        return m1, m2
    raise DomainError("phase kernel supports two_point or uniform data distributions only")


def conditional_mean_given_y(s: ScalarScenario, y):
    """E[f(Y, S) | Y = y], exact, vectorized over y."""
    kind = s.kernel.kind
    y_arr = np.asarray(y, dtype=float)
    nu = _scalar_mean(s.s_dist)
    if kind == "additive":
        out = y_arr + nu
    elif kind == "multiplicative":
        out = y_arr * nu
    elif kind == "phase":
        delta = _phase_delta(s)
        out = np.sin(y_arr) * math.sin(delta) / delta
    elif kind == "exponential":
        _, _, alpha = _exponential_params(s)
        out = exponential_conditional_mean(y_arr, alpha)
    else:
        raise DomainError(f"no exact conditional mean for kernel {kind!r}")
    return float(out) if np.isscalar(y) else out


def conditional_variance_given_s(s: ScalarScenario, shift):
    """V[f(Y, S) | S = s], exact, vectorized over s."""
    kind = s.kernel.kind
    s_arr = np.asarray(shift, dtype=float)
    var_y = _scalar_variance(s.y_dist)
    if kind == "additive":
        out = np.full_like(s_arr, var_y)
    elif kind == "multiplicative":
        out = s_arr**2 * var_y
    elif kind in ("phase", "exponential"):
        m1, m2 = _moments_given_s(s, s_arr)
        out = m2 - m1**2
    else:
        raise DomainError(f"no exact conditional variance for kernel {kind!r}")
    return float(out) if np.isscalar(shift) else out


# --------------------------------------------------------------------------
# Bias factors


def _error_interval(s: ScalarScenario) -> tuple[float, float]:
    """Support (lo, hi) of the uniform error law of a phase or exponential scenario."""
    if s.kernel.kind == "phase":
        delta = _phase_delta(s)
        return -delta, delta
    _, _, alpha = _exponential_params(s)
    return 1.0 - alpha, 1.0 + alpha


def _conditional_mean_spread(s: ScalarScenario, nodes: int) -> tuple[float, float]:
    """(v, g) with V[E[f(Y, S) | Y]] = g·v, for the phase and exponential kernels.

    Phase: v = V[sin Y] and g = (sin δ/δ)².  Exponential: v = V[k(Y)] by
    quadrature, with k the conditional mean, and g = 1.
    """
    kind = s.kernel.kind
    if kind == "phase":
        delta = _phase_delta(s)
        if isinstance(s.y_dist, TwoPoint):
            a, b, p = float(s.y_dist.a[0]), float(s.y_dist.b[0]), s.y_dist.p
            ex = p * math.sin(a) + (1.0 - p) * math.sin(b)
            ex2 = p * math.sin(a) ** 2 + (1.0 - p) * math.sin(b) ** 2
            var_sin = ex2 - ex**2
        elif isinstance(s.y_dist, Uniform):
            c, d = float(s.y_dist.lo[0]), float(s.y_dist.hi[0])
            if c == d:
                var_sin = 0.0
            else:
                x, w = gauss_legendre(c, d, nodes)
                sy = np.sin(x)
                ex = float(w @ sy) / (d - c)
                ex2 = float(w @ sy**2) / (d - c)
                var_sin = ex2 - ex**2
        else:
            raise DomainError("phase kernel supports two_point or uniform data distributions only")
        shrink = math.sin(delta) / delta
        return var_sin, shrink**2
    if kind == "exponential":
        a, b, alpha = _exponential_params(s)
        if a == b:
            return 0.0, 1.0
        x, w = gauss_legendre(a, b, nodes)
        k = exponential_conditional_mean(x, alpha)
        ek = float(w @ k) / (b - a)
        ek2 = float(w @ k**2) / (b - a)
        return ek2 - ek**2, 1.0
    raise DomainError(f"no analytic bias factor for kernel {kind!r}")


def bias_factor_current(s: ScalarScenario, *, nodes: int = QUAD_NODES) -> float:
    """Covariance-bias factor of the current construction.

    V[f(Y, ν)] − V[E[f(Y, S) | Y]]: zero for additive and multiplicative
    kernels, (1 − sin²δ/δ²)·V[sin Y] for phase, and V[Y] − V[k(Y)] for
    exponential with k the conditional mean (V[k(Y)] by quadrature).
    """
    kind = s.kernel.kind
    if kind in ("additive", "multiplicative"):
        return 0.0
    spread, gain = _conditional_mean_spread(s, nodes)
    if kind == "phase":
        return (1.0 - gain) * spread
    a, b, _ = _exponential_params(s)
    return (b - a) ** 2 / 12.0 - spread


def bias_factor_alternative_mc(
    s: ScalarScenario, stream: RngStream, draws: int
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the alternative factor.

    A test oracle for :func:`bias_factor_alternative`: E[V[f|S]] is averaged
    over error draws and V[E[f|Y]] is the sample variance over data draws,
    both through the exact conditionals, so the only error is the outer
    sampling error.
    """
    if draws < 2:
        raise DomainError("Monte Carlo oracle needs at least two draws")
    s_draws = sample(s.s_dist, draws, stream.substream(0))[:, 0]
    y_draws = sample(
        s.y_dist, draws, stream.substream(1), reject_zero=s.kernel.kind == "exponential"
    )[:, 0]
    v = conditional_variance_given_s(s, s_draws)
    m = conditional_mean_given_y(s, y_draws)
    mean_v = float(v.mean())
    se_v = float(v.std(ddof=1)) / math.sqrt(draws)
    mc = m - m.mean()
    var_m = float(mc @ mc) / (draws - 1)
    # Asymptotic SE of a sample variance: sqrt((m4 - var^2)/n).
    m4 = float((mc**4).mean())
    se_var_m = math.sqrt(max(m4 - var_m**2, 0.0) / draws)
    return mean_v - var_m, math.hypot(se_v, se_var_m)


def bias_factor_alternative(s: ScalarScenario, *, nodes: int = QUAD_NODES) -> float:
    """Bias factor of the alternative construction.

    E[V[f(Y,S) | S]] − V[E[f(Y,S) | Y]]: zero for additive, V[S]·V[Y] for
    multiplicative.  For phase and exponential kernels the first term is a
    Gauss–Legendre integral of :func:`conditional_variance_given_s` over
    the error support and the second is the conditional-mean spread that
    :func:`bias_factor_current` uses too.
    """
    kind = s.kernel.kind
    if kind == "additive":
        return 0.0
    if kind == "multiplicative":
        return _scalar_variance(s.s_dist) * _scalar_variance(s.y_dist)
    if kind in ("phase", "exponential"):
        lo, hi = _error_interval(s)
        x, w = gauss_legendre(lo, hi, nodes)
        mean_var = float(w @ conditional_variance_given_s(s, x)) / (hi - lo)
        spread, gain = _conditional_mean_spread(s, nodes)
        # The factor is >= 0 for scalar outputs, but on near-point-mass data
        # supports the closed-form conditional moments cancel to slightly
        # below zero (about -7e-9 for phase and -3e-6 for exponential at
        # support width 1e-8), so the floor stays.
        return max(mean_var - gain * spread, 0.0)
    raise DomainError(f"no bias factor for kernel {kind!r}")


# --------------------------------------------------------------------------
# Target variance and relative biases


def target_variance(s: ScalarScenario, *, nodes: int = QUAD_NODES) -> float:
    """Variance of the shared-error batch mean, V[mean_j f(Y_j, S)].

    Equal to (1/J)·V[f(Y,S)] + ((J−1)/J)·Cov[f(Y,S), f(Y',S)] where the
    two data draws share one error draw.  Closed forms for additive and
    multiplicative kernels; quadrature over the error law (with exact
    data-conditional moments) for phase and exponential.
    """
    kind = s.kernel.kind
    jj = float(s.j)
    var_y = _scalar_variance(s.y_dist)
    var_s = _scalar_variance(s.s_dist)
    if kind == "additive":
        return var_y / jj + var_s
    if kind == "multiplicative":
        mu = _scalar_mean(s.y_dist)
        nu = _scalar_mean(s.s_dist)
        return (var_y / jj) * (var_s + nu**2) + var_s * mu**2
    if kind in ("phase", "exponential"):
        lo, hi = _error_interval(s)
        x, w = gauss_legendre(lo, hi, nodes)
        m1, m2 = _moments_given_s(s, x)
        width = hi - lo
        mean = float(w @ m1) / width
        var_f = float(w @ m2) / width - mean**2
        cov = float(w @ m1**2) / width - mean**2
        return var_f / jj + (jj - 1.0) / jj * cov
    raise DomainError(f"no target variance for kernel {kind!r}")


def _require_positive_target(t: float) -> float:
    """``t`` itself, or :class:`DomainError` when a relative bias over it is undefined."""
    if not (t > 0.0):
        raise DomainError(f"target variance is not positive ({t}); relative bias undefined")
    return t


def relbias_current(s: ScalarScenario, *, nodes: int = QUAD_NODES) -> float:
    """Relative covariance bias of the current construction: (factor/J)/target."""
    t = _require_positive_target(target_variance(s, nodes=nodes))
    return bias_factor_current(s, nodes=nodes) / s.j / t


def relbias_alternative(s: ScalarScenario, *, nodes: int = QUAD_NODES) -> float:
    """Relative bias of the alternative construction: (factor/(J·Q))/target.

    Lies in [0, 1/Q]; for the multiplicative kernel it reaches the upper
    bound exactly when both inputs have zero mean.
    """
    t = _require_positive_target(target_variance(s, nodes=nodes))
    phi = bias_factor_alternative(s, nodes=nodes)
    return phi / (s.j * s.q) / t


def mean_variance_gap(s: ScalarScenario) -> float:
    """V[grand mean, current] − V[grand mean, alternative] = Ψ/(JQ) − Φ/(JQ²)."""
    psi = bias_factor_current(s)
    phi = bias_factor_alternative(s)
    jq = s.j * s.q
    return psi / jq - phi / (jq * s.q)


def var_of_sample_variance_normal(sigma2: float, u2: float, n: int) -> float:
    """Variance of the sample variance of n independent normals with
    common variance sigma2 and fixed means whose sample variance is u2:
    2·sigma2²/(n−1) + 4·sigma2·u2/(n−1)."""
    if n < 2:
        raise DomainError(f"sample variance needs n >= 2, got {n}")
    if sigma2 < 0.0 or u2 < 0.0:
        raise DomainError("variance arguments must be non-negative")
    return (2.0 * sigma2**2 + 4.0 * sigma2 * u2) / (n - 1.0)


def synthesis_input_variance_gap(s: ScalarScenario) -> float:
    """Difference of the variances of the two synthesis-input spread statistics.

    For the multiplicative kernel: V[sample variance of the per-vector
    replicate means] − V[sample variance of the nominals], exact in the
    central moments of both input laws.  Zero for additive (the two
    statistics coincide).
    """
    kind = s.kernel.kind
    if kind == "additive":
        return 0.0
    if kind != "multiplicative":
        raise DomainError(f"no closed variance gap for kernel {kind!r}")
    my = moments(s.y_dist)
    ms = moments(s.s_dist)
    jj, qq = float(s.j), float(s.q)
    sigma2, phi4 = my.variance, my.fourth_central
    nu, tau2, omega3, psi4 = ms.mean, ms.variance, ms.third_central, ms.fourth_central
    var_sbar2 = (
        4.0 * nu**2 * tau2 / qq
        + (2.0 * tau2**2 + 4.0 * nu * omega3) / qq**2
        + (psi4 - 3.0 * tau2**2) / qq**3
    )
    e_sbar4_less_nu4 = (
        6.0 * nu**2 * tau2 / qq
        + (3.0 * tau2**2 + 4.0 * nu * omega3) / qq**2
        + (psi4 - 3.0 * tau2**2) / qq**3
    )
    var_s2y = (phi4 - sigma2**2) / jj + 2.0 * sigma2**2 / (jj * (jj - 1.0))
    return sigma2**2 * var_sbar2 + e_sbar4_less_nu4 * var_s2y
