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
kernel (sin(y+s), S uniform on (−δ, δ), δ > 0) and the exponential kernel
(y**s, Y uniform on [a, b] with a >= 0, S uniform on [1−α, 1+α]
with 0 < α <= 1) use one-dimensional Gauss–Legendre quadrature over exact
conditional moments, except the phase kernel's V[sin Y] on uniform data,
which has a closed form.

Uniform data laws go through array cores that take broadcastable arrays
of supports (c, d) and evaluate cells × nodes at once, with every node
sum in one row-independent form.  A scenario function calls them with
one cell; the parameter maps call them once per grid row, where NaN
marks the cells on which the scenario function raises :class:`DomainError`.
The transcendental terms of the conditional moments that depend on one
support endpoint are taken once per endpoint: two for a scenario, one
table over the grid values for a map.  The target variance reads them
through node sums, one difference of endpoint terms each, without
forming the conditional moments per cell.  Two-point phase data keep
their own closed-form path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .models import (
    DistSpec,
    Normal,
    ScalarKernel,
    TwoPoint,
    Uniform,
    moments,
    # sample: bound only for perfbench/spans.py, which wraps it here (ROADMAP item 1)
    sample,
)

__all__ = [
    "QUAD_NODES",
    "ScalarScenario",
    "gauss_legendre",
    "exponential_conditional_mean",
    "conditional_mean_given_y",
    "conditional_variance_given_s",
    "bias_factor_current",
    "bias_factor_alternative",
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
    """One scalar propagation scenario: kernel, input laws, and batch sizes.

    Both laws are scalar, with the central moments of :func:`models.moments`
    inside the float64 range."""

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
        # a law whose moments pass the float64 range is refused before any draw
        for name, law in (("y_dist", self.y_dist), ("s_dist", self.s_dist)):
            try:
                moments(law)
            except DomainError as exc:
                raise DomainError(f"{name} {type(law).__name__} law: {exc}") from None


@functools.cache
def _base_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # The reference nodes depend only on n: built once per n, and read-only.
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _affine_nodes(lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    # The base nodes mapped onto [lo, hi]; array bounds need a trailing axis.
    x, w = _base_gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half * w


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]; weights sum to hi − lo."""
    if n < 1:
        raise DomainError("quadrature needs at least one node")
    if hi < lo:
        raise DomainError("quadrature interval is reversed")
    return _affine_nodes(lo, hi, n)


def _integrate(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Σ w·f over the node axis (the last), for every leading cell.

    The only node reduction in this module: each cell's sum is the same
    pairwise sum whether it is evaluated alone or inside a row of cells.
    """
    return (w * f).sum(axis=-1)


# --------------------------------------------------------------------------
# Kernel-specific scenario parameters and conditional moments


def _scalar_variance(dist: DistSpec) -> float:
    return float(dist.covariance()[0, 0])


def _scalar_mean(dist: DistSpec) -> float:
    return float(dist.mean_vector()[0])


def _kernel_error_law(kind: str, alpha: float) -> DistSpec:
    """The error law of a kernel at half-width alpha: Unif(−α, α) for phase,
    α in (0, ∞), and Unif[1−α, 1+α] for exponential, α in (0, 1]; N(0, 1)
    for additive and multiplicative, which alpha does not shape."""
    if kind == "phase":
        inside, bounds, centre = 0.0 < alpha < math.inf, "(0, inf)", 0.0
    elif kind == "exponential":
        inside, bounds, centre = 0.0 < alpha <= 1.0, "(0, 1]", 1.0
    else:
        return Normal(mean=[0.0], cov=[[1.0]])
    if not inside:
        raise DomainError(f"{kind} error half-width must lie in {bounds}, got {alpha} (alpha)")
    return Uniform(lo=[centre - alpha], hi=[centre + alpha])


def _error_law(kind: str, s_dist: DistSpec) -> tuple[float, float, float]:
    """(lo, hi, p): the uniform error support of a phase (p = δ, support
    (−δ, δ)) or exponential (p = α, support [1−α, 1+α]) kernel, its shape
    checked here and p by :func:`_kernel_error_law`."""
    if not isinstance(s_dist, Uniform):
        raise DomainError(f"{kind} kernel requires a uniform error distribution")
    lo, hi = float(s_dist.lo[0]), float(s_dist.hi[0])
    if kind == "phase" and abs(lo + hi) > 1e-12 * abs(hi):
        raise DomainError("phase error distribution must be Unif(-delta, delta) with delta > 0")
    if kind == "exponential" and abs(0.5 * (hi + lo) - 1.0) > 1e-12:
        raise DomainError("exponential error distribution must be Unif[1-alpha, 1+alpha]")
    alpha = hi if kind == "phase" else 0.5 * (hi - lo)
    law = _kernel_error_law(kind, alpha)
    return float(law.lo[0]), float(law.hi[0]), alpha


def _scenario_law(s: ScalarScenario, what: str) -> tuple[float, float, float]:
    """:func:`_error_law` of a phase or exponential scenario whose data law
    it also checks: two-point or uniform for phase; for exponential,
    uniform on [a, b] with a >= 0."""
    kind, y = s.kernel.kind, s.y_dist
    if kind == "phase":
        if not isinstance(y, (TwoPoint, Uniform)):
            raise DomainError("phase kernel supports two_point or uniform data distributions only")
    elif kind == "exponential":
        if not isinstance(y, Uniform):
            raise DomainError("exponential kernel requires uniform data and error distributions")
        if y.lo[0] < 0.0:
            raise DomainError("exponential kernel requires data support with a >= 0")
    else:
        raise DomainError(f"no {what} for kernel {kind!r}")
    return _error_law(kind, s.s_dist)


def _exp_mean(y: np.ndarray, alpha: float) -> np.ndarray:
    # E[y**S] for an array y > 0 of at least one dimension, without domain
    # checks; see exponential_conditional_mean.  In place where it can be:
    # a map row holds only a few arrays of its size at once.
    x = np.log(y)
    small = np.abs(x) < 1e-6
    x *= alpha
    # The series branch's where and masked copies run only when a node needs them.
    series = small.any()
    xl = np.where(small, 1.0, x) if series else x
    ratio = np.sinh(xl)
    ratio /= xl
    if series:
        xs = x[small]
        ratio[small] = 1.0 + xs**2 / 6.0 + xs**4 / 120.0
    ratio *= y
    return ratio


def exponential_conditional_mean(y, alpha: float):
    """E[y**S] for S ~ Unif[1−α, 1+α]: y·sinh(α·ln y)/(α·ln y).

    Accepts scalars or arrays with y >= 0 and 0 < α ≤ 1; at y = 0 it is
    E[0**S] = 0.  Near y = 1 (|ln y| < 1e-6) the ratio is evaluated by its
    even series 1 + x²/6 + x⁴/120 to avoid 0/0.
    """
    _kernel_error_law("exponential", alpha)
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(arr >= 0.0):
        raise DomainError("exponential conditional mean requires y >= 0")
    if arr.all():
        out = _exp_mean(arr, alpha)
    else:  # the masked copy only when a zero is present
        zero = arr == 0.0
        out = _exp_mean(np.where(zero, 1.0, arr), alpha)
        out[zero] = 0.0
    out = out.reshape(np.shape(y))
    return float(out) if np.isscalar(y) else out


def _endpoint_terms(kind: str, e, x) -> tuple[np.ndarray, np.ndarray]:
    """The transcendental terms of :func:`_uniform_moments_given_s` that
    depend on one support endpoint e and the error nodes x: cos(e + x) and
    sin(2(e + x)) for phase, e**(x + 1) and e**(2x + 1) for exponential;
    e and x broadcast."""
    if kind == "exponential":
        return np.power(e, x + 1.0), np.power(e, 2.0 * x + 1.0)
    return np.cos(e + x), np.sin(2.0 * (e + x))


def _uniform_moments_given_s(kind: str, c, d, tc, td, x) -> tuple[np.ndarray, np.ndarray]:
    """(E[f(Y, S) | S = x], E[f(Y, S)² | S = x]) for Y ~ Unif[c, d], closed
    form, from the :func:`_endpoint_terms` tc of c and td of d; c, d, the
    terms and x broadcast.  A cell with c = d is the point mass at c.
    Exponential needs c >= 0 on every cell."""
    same = c == d
    width = np.where(same, 1.0, d - c)
    if kind == "exponential":

        def power_mean(p, pc, pd):
            spread = (pd - pc) / ((p + 1.0) * width)
            return np.where(same, np.power(c, p), spread)

        return power_mean(x, tc[0], td[0]), power_mean(2.0 * x, tc[1], td[1])
    (cos_c, sin2_c), (cos_d, sin2_d) = tc, td
    m1 = np.where(same, np.sin(c + x), (cos_c - cos_d) / width)
    m2 = np.where(same, m1**2, 0.5 - (sin2_d - sin2_c) / (4.0 * width))
    return m1, m2


def _moments_given_s(s: ScalarScenario, x) -> tuple[np.ndarray, np.ndarray]:
    """(E[f(Y, S) | S = x], E[f(Y, S)² | S = x]) for an array of x, closed
    form, for the phase and exponential kernels."""
    x = np.asarray(x, dtype=float)
    _scenario_law(s, "conditional moments")
    y_dist = s.y_dist
    if isinstance(y_dist, TwoPoint):
        a, b, p = float(y_dist.a[0]), float(y_dist.b[0]), y_dist.p
        m1 = p * np.sin(a + x) + (1.0 - p) * np.sin(b + x)
        m2 = p * np.sin(a + x) ** 2 + (1.0 - p) * np.sin(b + x) ** 2
        return m1, m2
    kind, c, d = s.kernel.kind, y_dist.lo[0], y_dist.hi[0]
    return _uniform_moments_given_s(
        kind, c, d, _endpoint_terms(kind, c, x), _endpoint_terms(kind, d, x), x
    )


def conditional_mean_given_y(s: ScalarScenario, y):
    """E[f(Y, S) | Y = y], exact, vectorized over y."""
    kind = s.kernel.kind
    y_arr = np.asarray(y, dtype=float)
    if kind == "additive":
        out = y_arr + _scalar_mean(s.s_dist)
    elif kind == "multiplicative":
        out = y_arr * _scalar_mean(s.s_dist)
    elif kind == "phase":
        delta = _error_law(kind, s.s_dist)[2]
        out = np.sin(y_arr) * math.sin(delta) / delta
    else:
        alpha = _scenario_law(s, "exact conditional mean")[2]
        out = exponential_conditional_mean(y_arr, alpha)
    return float(out) if np.isscalar(y) else out


def conditional_variance_given_s(s: ScalarScenario, shift):
    """V[f(Y, S) | S = s], exact, vectorized over s."""
    kind = s.kernel.kind
    s_arr = np.asarray(shift, dtype=float)
    if kind == "additive":
        out = np.full_like(s_arr, _scalar_variance(s.y_dist))
    elif kind == "multiplicative":
        out = s_arr**2 * _scalar_variance(s.y_dist)
    else:
        m1, m2 = _moments_given_s(s, s_arr)
        out = m2 - m1**2
    return float(out) if np.isscalar(shift) else out


# --------------------------------------------------------------------------
# Array cores over uniform data supports
#
# Each takes broadcastable arrays c <= d of data supports Unif[c, d] (one
# entry per cell) and evaluates cells × nodes in one pass.  The scenario
# functions below call them with a single cell and the parameter maps with
# a grid row, so a map cell and the direct call give the same bits.


def _phase_gain(delta: float) -> float:
    # (sin δ/δ)²: V[E[sin(Y + S) | Y]] = gain·V[sin Y] for S ~ Unif(−δ, δ).
    return (math.sin(delta) / delta) ** 2


#: Below this half-width u the differences in :func:`_sin_variance` cancel
#: (V[cos U] loses about 1.3e-14/u⁴ of its value), so their series take over.
_SERIES_BELOW = 1.0
#: 1 − sinc x = x²·Σ_k _ONE_MINUS_SINC[k]·x^(2k) and, for U ~ Unif(−u, u),
#: V[cos U] = u⁴·Σ_k _VAR_COS[k]·u^(2k).  At x = 2u = 2 the first omitted
#: terms are 2e-18 and 1.4e-19 of the sums.
_ONE_MINUS_SINC = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(11))
_VAR_COS = tuple((-4) ** k * 16 * (k + 1) / math.factorial(2 * k + 6) for k in range(11))


def _sin_variance(c, d) -> np.ndarray:
    """V[sin Y] for Y ~ Unif[c, d], closed form.

    With m = (c + d)/2, u = (d − c)/2 and U ~ Unif(−u, u),
    V[sin Y] = sin²m·V[cos U] + cos²m·E[sin²U], where E[sin²U] =
    (1 − sinc 2u)/2 and V[cos U] = (1 + sinc 2u)/2 − sinc²u.  Both terms
    are >= 0, so they never cancel each other.  Below u = _SERIES_BELOW,
    1 − sinc and V[cos U] come from their Taylor series, which start x²/6
    and u⁴/45.  A cell with c = d gives exactly 0.
    """
    m = 0.5 * c + 0.5 * d
    u = 0.5 * d - 0.5 * c
    small = u < _SERIES_BELOW
    ul = np.where(small, 1.0, u)
    sinc_u = np.sin(ul) / ul
    sinc_2u = np.sin(2.0 * ul) / (2.0 * ul)
    u2 = np.where(small, u, 0.0) ** 2
    # Through the attribute, so numpy loads np.polynomial at the first call,
    # not when this module is imported.
    series = np.polynomial.polynomial.polyval
    sin2_u = np.where(small, 2.0 * u2 * series(4.0 * u2, _ONE_MINUS_SINC), 0.5 - 0.5 * sinc_2u)
    var_cos = np.where(small, u2 * u2 * series(u2, _VAR_COS), 0.5 + 0.5 * sinc_2u - sinc_u**2)
    return np.sin(m) ** 2 * var_cos + np.cos(m) ** 2 * sin2_u


def _uniform_spread(alpha: float, c, d) -> np.ndarray:
    """V[k(Y)] for Y ~ Unif[c, d] and k the exponential conditional mean at
    half-width alpha, by quadrature over the support.  A cell with c = d
    is 0; its nodes move to 2, where log is finite and k needs no series."""
    x, w = _affine_nodes(c[..., None], d[..., None], QUAD_NODES)
    same = c == d
    x = np.where(same[..., None], 2.0, x)
    fy = _exp_mean(x, alpha)
    width = np.where(same, 1.0, d - c)
    mean = _integrate(w, fy) / width
    return np.where(same, 0.0, _integrate(w, fy**2) / width - mean**2)


def _uniform_psi(kind: str, p: float, c, d) -> np.ndarray:
    """Current-construction factor for Y ~ Unif[c, d]: (1 − (sin δ/δ)²)·V[sin Y]
    for phase, V[Y] − V[k(Y)] for exponential."""
    if kind == "phase":
        return (1.0 - _phase_gain(p)) * _sin_variance(c, d)
    return (d - c) ** 2 / 12.0 - _uniform_spread(p, c, d)


def _target_from_sums(w, m1, s2, span: float, jj: float, scale=1.0) -> np.ndarray:
    """(1/J)·V[f] + ((J−1)/J)·Cov[f(Y,S), f(Y',S)] per cell, from m1 =
    scale·E[f | S] at the error nodes and s2 = Σw·E[f² | S]; ``span`` is the
    error support's width.  The covariance is the centred Σw·(m1 − mean)²,
    which does not cancel on narrow supports as Σw·m1² − mean² does."""
    s1 = _integrate(w, m1)
    dev = m1 - (s1 / span)[..., None]
    dev *= dev
    mean = s1 / span / scale
    var_f = s2 / span - mean**2
    cov = _integrate(w, dev) / span / scale**2
    return var_f / jj + (jj - 1.0) / jj * cov


def _uniform_target(kind: str, c, d, tc, td, x, w, span: float, jj: float) -> np.ndarray:
    """Target variance per cell for Y ~ Unif[c, d] from the
    :func:`_endpoint_terms` tc of c and td of d (one row per cell) at the
    error nodes x with weights w.

    E[f | S] is (td − tc)·g/(d − c) and E[f² | S] is h + (td' − tc')·g'/(d − c)
    for per-node factors g, g' and a constant h, so each node sum takes one
    difference array per endpoint term and divides by d − c once per cell.
    A cell with c = d is the point mass at c (:func:`_uniform_moments_given_s`).
    """
    same = c == d
    width = np.where(same, 1.0, d - c)
    (t1c, t2c), (t1d, t2d) = tc, td
    if kind == "exponential":
        m1 = t1d - t1c
        m1 *= 1.0 / (x + 1.0)
        s2 = _integrate(w / (2.0 * x + 1.0), t2d - t2c) / width
    else:
        m1 = t1c - t1d
        s2 = 0.5 * span - _integrate(0.25 * w, t2d - t2c) / width
    target = _target_from_sums(w, m1, s2, span, jj, width)
    if same.any():
        c = np.broadcast_to(c, same.shape)[same][:, None]
        point = tuple(t[same] for t in td)
        m1, m2 = _uniform_moments_given_s(kind, c, c, point, point, x)
        target[same] = _target_from_sums(w, m1, _integrate(w, m2), span, jj)
    return target


def _closed_target(kind: str, var_y, mu, var_s: float, nu: float, jj: float):
    """Target variance of the additive or multiplicative kernel, from the
    moments of the data (scalars or arrays) and of the errors."""
    if kind == "additive":
        return var_y / jj + var_s
    return (var_y / jj) * (var_s + nu**2) + var_s * mu**2


def _current_on_uniform_grid(
    kernel: ScalarKernel, s_dist: DistSpec, j: int, grid: np.ndarray, *, relative: bool
) -> np.ndarray:
    """The (n, n) map of the current construction's factor ψ, or with
    ``relative`` its relative bias ψ/J/target, over data Unif[grid[i],
    grid[k]] for k >= i.

    The kernel, the error law and J are shared by every cell and validated
    once; the target's :func:`_endpoint_terms` are taken once per grid
    value.  :func:`_uniform_target` takes the diagonal's point masses in
    one call, and row i's cells k > i in one more, from the term slices
    [i] and [i + 1:].  The phase factor, elementwise in (a, b), is one
    evaluation over the whole grid; the rest of row i is one array
    evaluation of the code the scenario functions run on one cell.  NaN
    marks the cells below the diagonal and the undefined cells: the rows
    of exponential supports with a < 0, which the map skips, and relative
    biases over a target variance <= 0.
    """
    kind = kernel.kind
    jj = float(j)
    values = np.full((grid.size, grid.size), np.nan)
    first = int(np.searchsorted(grid, 0.0)) if kind == "exponential" else 0
    grid, defined = grid[first:], values[first:, first:]
    if kind in ("phase", "exponential"):
        lo, hi, p = _error_law(kind, s_dist)
        x, w = gauss_legendre(lo, hi, QUAD_NODES)
        if relative:
            terms = _endpoint_terms(kind, grid[:, None], x)
            # The diagonal's point masses in one call; row i adds its cells b > a.
            diagonal = _uniform_target(kind, grid, grid, terms, terms, x, w, hi - lo, jj)
        if kind == "phase":
            # The phase factor is a closed form of each cell: one evaluation for the grid.
            phase_psi = _uniform_psi(kind, p, grid[:, None], grid)
    for i, a in enumerate(grid):
        b = grid[i:]
        if kind in ("additive", "multiplicative"):
            psi = np.zeros(b.shape)
            if relative:
                target = _closed_target(kind, (b - a) ** 2 / 12.0, 0.5 * (a + b),
                                        _scalar_variance(s_dist), _scalar_mean(s_dist), jj)
        else:
            c = grid[i : i + 1]
            psi = phase_psi[i, i:] if kind == "phase" else _uniform_psi(kind, p, c, b)
            if relative:
                tc = tuple(t[i : i + 1] for t in terms)
                td = tuple(t[i + 1 :] for t in terms)
                target = np.concatenate(
                    (diagonal[i : i + 1], _uniform_target(kind, c, b[1:], tc, td, x, w, hi - lo, jj))
                )
        if relative:
            undefined = ~(target > 0.0)
            psi = np.where(undefined, np.nan, psi / j / np.where(undefined, 1.0, target))
        defined[i, i:] = psi
    return values


# --------------------------------------------------------------------------
# Bias factors


def _conditional_mean_spread(s: ScalarScenario) -> tuple[float, float]:
    """(v, g) with V[E[f(Y, S) | Y]] = g·v, for the phase and exponential kernels.

    Phase: v = V[sin Y], closed form (p(1 − p)·(sin a − sin b)² on two-point
    data, which close atoms do not cancel), and g = (sin δ/δ)².  Exponential:
    v = V[k(Y)] by quadrature, with k the conditional mean, and g = 1.
    """
    kind = s.kernel.kind
    p = _scenario_law(s, "analytic bias factor")[2]
    gain = _phase_gain(p) if kind == "phase" else 1.0
    y = s.y_dist
    if isinstance(y, TwoPoint):
        q = y.p
        return q * (1.0 - q) * (math.sin(y.a[0]) - math.sin(y.b[0])) ** 2, gain
    spread = _sin_variance(y.lo, y.hi) if kind == "phase" else _uniform_spread(p, y.lo, y.hi)
    return float(spread[0]), gain


def bias_factor_current(s: ScalarScenario) -> float:
    """Covariance-bias factor of the current construction.

    V[f(Y, ν)] − V[E[f(Y, S) | Y]]: zero for additive and multiplicative
    kernels, (1 − sin²δ/δ²)·V[sin Y] for phase, and V[Y] − V[k(Y)] for
    exponential with k the conditional mean.  V[sin Y] has a closed form
    on two-point and uniform data; V[k(Y)] is a ``QUAD_NODES``-point
    Gauss–Legendre sum over the data support.  Uniform data go through
    :func:`_uniform_psi`, the core the parameter maps run on a grid row.
    """
    kind = s.kernel.kind
    if kind in ("additive", "multiplicative"):
        return 0.0
    y = s.y_dist
    if isinstance(y, Uniform):
        p = _scenario_law(s, "analytic bias factor")[2]
        return float(_uniform_psi(kind, p, y.lo, y.hi)[0])
    spread, gain = _conditional_mean_spread(s)  # two-point data, phase only
    return (1.0 - gain) * spread


def bias_factor_alternative(s: ScalarScenario) -> float:
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
    lo, hi, _ = _scenario_law(s, "bias factor")
    x, w = gauss_legendre(lo, hi, QUAD_NODES)
    mean_var = float(_integrate(w, conditional_variance_given_s(s, x))) / (hi - lo)
    spread, gain = _conditional_mean_spread(s)
    # The factor is >= 0 for scalar outputs, but on near-point-mass data
    # supports the closed-form conditional moments cancel to slightly
    # below zero (down to -4.4e-9 for phase and -2.7e-6 for exponential
    # at support width 1e-8, centres 0.05 to 8, δ or α of 0.1, 0.5 and
    # 0.95; the phase spread's closed form is exact there), so the floor
    # stays.
    return max(mean_var - gain * spread, 0.0)


# --------------------------------------------------------------------------
# Target variance and relative biases


def target_variance(s: ScalarScenario) -> float:
    """Variance of the shared-error batch mean, V[mean_j f(Y_j, S)].

    Equal to (1/J)·V[f(Y,S)] + ((J−1)/J)·Cov[f(Y,S), f(Y',S)] where the
    two data draws share one error draw.  Closed forms for additive and
    multiplicative kernels; quadrature over the error law (with exact
    data-conditional moments) for phase and exponential.  The quadrature
    takes three node sums: of E[f | S], of E[f² | S] and of the squared
    deviations of E[f | S] from its mean.  On uniform data they come from
    :func:`_uniform_target`, which the maps run on a row of cells.
    """
    kind = s.kernel.kind
    jj = float(s.j)
    if kind in ("additive", "multiplicative"):
        return _closed_target(
            kind, _scalar_variance(s.y_dist), _scalar_mean(s.y_dist),
            _scalar_variance(s.s_dist), _scalar_mean(s.s_dist), jj,
        )
    lo, hi, _ = _scenario_law(s, "target variance")
    x, w = gauss_legendre(lo, hi, QUAD_NODES)
    y = s.y_dist
    if isinstance(y, Uniform):
        c, d = y.lo, y.hi
        terms = (_endpoint_terms(kind, e[:, None], x) for e in (c, d))
        return float(_uniform_target(kind, c, d, *terms, x, w, hi - lo, jj)[0])
    m1, m2 = _moments_given_s(s, x)
    return float(_target_from_sums(w, m1, _integrate(w, m2), hi - lo, jj))


def _require_positive_target(t: float) -> float:
    """``t`` itself, or :class:`DomainError` when a relative bias over it is undefined."""
    if not (t > 0.0):
        raise DomainError(f"target variance is not positive ({t}); relative bias undefined")
    return t


def relbias_current(s: ScalarScenario) -> float:
    """Relative covariance bias of the current construction: (factor/J)/target."""
    t = _require_positive_target(target_variance(s))
    return bias_factor_current(s) / s.j / t


def relbias_alternative(s: ScalarScenario) -> float:
    """Relative bias of the alternative construction: (factor/(J·Q))/target.

    Lies in [0, 1/Q]; for the multiplicative kernel it reaches the upper
    bound exactly when both inputs have zero mean.
    """
    t = _require_positive_target(target_variance(s))
    return bias_factor_alternative(s) / (s.j * s.q) / t


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
