"""Measurement transformations and the random inputs they consume.

A transformation maps a data vector ``y`` and an error vector ``s`` to a
result vector, componentwise through a scalar kernel ``f``:

    F(y, s)[k] = f(y[k], s[k])

Four named kernels cover the standard error mechanisms — additive
``y + s``, multiplicative ``y * s``, phase ``sin(y + s)``, and
exponential ``y ** s`` — plus an extension point for arbitrary pure
callables.  Data and error distributions are described by small spec
objects (normal / uniform / two-point) that know how to sample
themselves from an :class:`~mcombine.rng.RngStream` and, in the scalar
case, report their exact central moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError, NumericalError
from .linalg import _check_symmetric, scaled_rotation_factor
from .rng import RngStream

__all__ = [
    "ScalarKernel",
    "ADDITIVE",
    "MULTIPLICATIVE",
    "PHASE",
    "EXPONENTIAL",
    "Normal",
    "Uniform",
    "TwoPoint",
    "DistSpec",
    "CentralMoments",
    "kernel_eval",
    "sample",
    "moments",
    "kernel_from_json",
    "dist_from_json",
    "dist_to_json",
]

_KERNEL_NAMES = ("additive", "multiplicative", "phase", "exponential")


@dataclass(frozen=True)
class ScalarKernel:
    """A scalar error mechanism ``f(y, s)``.

    ``kind`` is one of the named mechanisms or ``"custom"``, in which case
    ``fn`` must be a pure, deterministic callable accepting numpy arrays
    and broadcasting like a ufunc.
    """

    kind: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind == "custom":
            if self.fn is None:
                raise DomainError("custom kernel requires a callable")
        elif self.kind not in _KERNEL_NAMES:
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        elif self.fn is not None:
            raise DomainError("named kernels do not take a callable")


ADDITIVE = ScalarKernel("additive")
MULTIPLICATIVE = ScalarKernel("multiplicative")
PHASE = ScalarKernel("phase")
EXPONENTIAL = ScalarKernel("exponential")


def kernel_eval(kernel: ScalarKernel, y, s) -> np.ndarray:
    """Broadcasting evaluation of the kernel over array arguments."""
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if kernel.kind == "additive":
        return y + s
    if kernel.kind == "multiplicative":
        return y * s
    if kernel.kind == "phase":
        # sin in place over the sum: one result-sized array instead of two
        arg = np.add(y, s, out=np.empty(np.broadcast_shapes(y.shape, s.shape)))
        return np.sin(arg, out=arg)
    if kernel.kind == "exponential":
        if not np.all(y >= 0.0):
            raise DomainError("exponential kernel requires y >= 0")
        # 0**s is 0 for s > 0 and 1 at s = 0; a negative power of 0 has no value
        if not y.all() and np.any((y == 0.0) & (s < 0.0)):
            raise DomainError("exponential kernel has no value at y = 0 with s < 0")
        return y**s
    return np.asarray(kernel.fn(y, s), dtype=float)


def _sin_cos(x) -> tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) from one tangent of the half angle, t = tan(x/2):
    sin x = 2t/(1 + t²) and cos x = 2/(1 + t²) − 1.

    One vectorised tangent costs less than numpy's float64 sin and cos, which
    can run as scalar code, and the two results take two arrays, filled in
    place.  Each agrees with np.sin/np.cos to a few units of 2**-53.
    """
    sin = np.multiply(x, 0.5)
    np.tan(sin, out=sin)
    cos = np.square(sin)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0
    return sin, cos


#: Separable forms f(y, s) = sum_r g_r(y) * h_r(s) of the named kernels that
#: have one, as one (g, h) pair per kernel: g(y) returns every rank's g_r(y)
#: and h(s) every h_r(s), in rank order, so phase (sin y cos s + cos y sin s)
#: gets its sin and cos from one tangent.  Each factor is a fresh array of
#: its argument's shape, which its caller may overwrite.  Kernels missing
#: here (exponential y ** s, custom) have no such form.
_SEPARABLE: dict[str, tuple[Callable, Callable]] = {
    "additive": (
        lambda y: (np.positive(y), np.ones_like(y)),
        lambda s: (np.ones_like(s), np.positive(s)),
    ),
    "multiplicative": (lambda y: (np.positive(y),), lambda s: (np.positive(s),)),
    "phase": (_sin_cos, lambda s: _sin_cos(s)[::-1]),
}


# --------------------------------------------------------------------------
# Distributions


def _as_vec(x, name: str) -> NDArray[np.float64]:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DomainError(f"{name} must be a vector")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains non-finite entries")
    return v


def _require_finite_moments(law, kind: str) -> None:
    """Refuse a law whose mean or covariance overflows float64: the
    transform and both combines read them."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(law.mean_vector()).all() and np.isfinite(law.covariance()).all()
    if not finite:
        raise DomainError(f"{kind} law has a mean or covariance beyond the float64 range")


@dataclass(frozen=True, eq=False)
class Normal:
    """Multivariate normal with mean vector and symmetric PSD covariance.

    The covariance is factored once, here: a matrix that is not positive
    semidefinite beyond rounding is a :class:`DomainError`, and
    :func:`sample` reuses the factor.
    """

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self):
        mean = _as_vec(self.mean, "mean")
        cov = np.asarray(self.cov, dtype=float)
        if np.isscalar(self.cov) or cov.ndim == 0:
            cov = np.array([[float(cov)]])
        if cov.shape != (mean.size, mean.size):
            raise DomainError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        cov = _check_symmetric(cov, "cov")
        try:
            factor = scaled_rotation_factor(cov)
        except NumericalError as exc:
            raise DomainError(f"cov is not positive semidefinite: {exc}") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factor", factor)

    @property
    def k(self) -> int:
        return self.mean.size

    def mean_vector(self) -> NDArray[np.float64]:
        return self.mean.copy()

    def covariance(self) -> NDArray[np.float64]:
        return self.cov.copy()


@dataclass(frozen=True, eq=False)
class Uniform:
    """Componentwise-independent uniform on [lo, hi] (lo <= hi; equality degenerate)."""

    lo: NDArray[np.float64]
    hi: NDArray[np.float64]

    def __post_init__(self):
        lo = _as_vec(self.lo, "lo")
        hi = _as_vec(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DomainError("lo and hi must have equal length")
        if np.any(lo > hi):
            raise DomainError("uniform requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        _require_finite_moments(self, "uniform")

    @property
    def k(self) -> int:
        return self.lo.size

    def mean_vector(self) -> NDArray[np.float64]:
        return 0.5 * (self.lo + self.hi)

    def covariance(self) -> NDArray[np.float64]:
        return np.diag((self.hi - self.lo) ** 2 / 12.0)


@dataclass(frozen=True, eq=False)
class TwoPoint:
    """Takes the vector value ``a`` with probability p, else ``b``."""

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    p: float = 0.5

    def __post_init__(self):
        a = _as_vec(self.a, "a")
        b = _as_vec(self.b, "b")
        if a.shape != b.shape:
            raise DomainError("a and b must have equal length")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "p", float(self.p))
        _require_finite_moments(self, "two_point")

    @property
    def k(self) -> int:
        return self.a.size

    def mean_vector(self) -> NDArray[np.float64]:
        return self.p * self.a + (1.0 - self.p) * self.b

    def covariance(self) -> NDArray[np.float64]:
        d = self.a - self.b
        return self.p * (1.0 - self.p) * np.outer(d, d)


DistSpec = Union[Normal, Uniform, TwoPoint]


def sample(dist: DistSpec, n: int, stream: RngStream) -> NDArray[np.float64]:
    """Draw ``n`` i.i.d. rows from ``dist`` using ``stream``.

    Normal draws are built as mean + factor @ z with the covariance's
    scaled rotation factor (computed when the law is built), so a
    synthesized normal sample and a covariance-matched replicate synthesis
    share one code path.
    """
    if n < 1:
        raise DomainError(f"sample needs n >= 1, got {n}")
    gen = stream.gen
    # In-place arithmetic: the bits are those of mean + z @ factor.T and
    # lo + (hi - lo) * u, without a fresh array per operation.  np.dot gives
    # the bits of @ and is several times faster for the (n, 1) @ (1, 1) of
    # scalar laws.
    if isinstance(dist, Normal):
        out = np.dot(gen.standard_normal((n, dist.k)), dist._factor.T)
        out += dist.mean
    elif isinstance(dist, Uniform):
        out = gen.random((n, dist.k))
        out *= dist.hi - dist.lo
        out += dist.lo
    elif isinstance(dist, TwoPoint):
        pick = gen.random(n) < dist.p
        out = np.where(pick[:, None], dist.a[None, :], dist.b[None, :])
    else:
        raise DomainError(f"unknown distribution spec {type(dist).__name__}")
    return out


@dataclass(frozen=True)
class CentralMoments:
    """Exact scalar moments: mean, variance, third and fourth central moments,
    each finite, as is the variance squared."""

    mean: float
    variance: float
    third_central: float
    fourth_central: float

    def __post_init__(self):
        var = float(self.variance)
        square = var * var  # inf, not OverflowError, past the float64 range
        if not all(map(math.isfinite, (self.mean, self.third_central, self.fourth_central, square))):
            raise DomainError("central moments or variance squared beyond the float64 range")
        if var < 0.0:
            raise DomainError("variance must be non-negative")
        # Cauchy-Schwarz: E[(X-m)^4] >= (E[(X-m)^2])^2, with rounding headroom.
        if self.fourth_central < square - 1e-12 * max(1.0, square):
            raise DomainError("fourth central moment below variance squared")


def moments(dist: DistSpec) -> CentralMoments:
    """Closed-form central moments of a scalar distribution: the law's own
    mean and variance σ², and third and fourth moments that scale σ², so
    :class:`CentralMoments` refuses a law only where one of its moments
    passes the float64 range."""
    if not isinstance(dist, (Normal, Uniform, TwoPoint)):
        raise DomainError(f"unknown distribution spec {type(dist).__name__}")
    if dist.k != 1:
        raise DomainError("moments supports scalar (K=1) distributions only")
    mean = float(dist.mean_vector()[0])
    var = float(dist.covariance()[0, 0])
    if isinstance(dist, TwoPoint):
        d, p = float(dist.a[0] - dist.b[0]), dist.p
        # d·d is finite wherever σ² = p(1 − p)·d·d is, and its factor lies in
        # [1/4, 1], so the fourth moment overflows only where it passes float64.
        values = (mean, var, var * d * (1.0 - 2.0 * p), var * (d * d * (1.0 - 3.0 * p * (1.0 - p))))
    else:
        values = (mean, var, 0.0, (3.0 if isinstance(dist, Normal) else 1.8) * (var * var))
    return CentralMoments(*values)


# --------------------------------------------------------------------------
# JSON representations (used by CLI config files)
#
# Kernel:         "additive" | "multiplicative" | "phase" | "exponential"
# Distribution:   {"kind": "normal", "mean": [...], "cov": [[...]]}
#                 {"kind": "uniform", "lo": [...], "hi": [...]}
#                 {"kind": "two_point", "a": [...], "b": [...], "p": 0.5}
#                 (scalars accepted anywhere a length-1 vector is expected)
#
# Custom kernels are API-only: they hold arbitrary callables and have no
# JSON form.


def kernel_from_json(obj: Any) -> ScalarKernel:
    if not isinstance(obj, str) or obj not in _KERNEL_NAMES:
        raise DomainError(f"kernel must be one of {_KERNEL_NAMES}, got {obj!r}")
    return ScalarKernel(obj)


def kernel_to_json(kernel: ScalarKernel) -> str:
    if kernel.kind == "custom":
        raise DomainError("custom kernels have no JSON representation")
    return kernel.kind


def dist_from_json(obj: Any) -> DistSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"distribution spec must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "normal":
            return Normal(mean=np.atleast_1d(obj["mean"]), cov=np.atleast_2d(obj["cov"]))
        if kind == "uniform":
            return Uniform(lo=np.atleast_1d(obj["lo"]), hi=np.atleast_1d(obj["hi"]))
        if kind == "two_point":
            return TwoPoint(a=np.atleast_1d(obj["a"]), b=np.atleast_1d(obj["b"]), p=float(obj.get("p", 0.5)))
    except KeyError as exc:
        raise DomainError(f"distribution spec missing field {exc}") from exc
    raise DomainError(f"unknown distribution kind {kind!r}")


def dist_to_json(dist: DistSpec) -> dict:
    if isinstance(dist, Normal):
        return {"kind": "normal", "mean": dist.mean.tolist(), "cov": dist.cov.tolist()}
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lo": dist.lo.tolist(), "hi": dist.hi.tolist()}
    if isinstance(dist, TwoPoint):
        return {"kind": "two_point", "a": dist.a.tolist(), "b": dist.b.tolist(), "p": dist.p}
    raise DomainError(f"unknown distribution spec {type(dist).__name__}")
