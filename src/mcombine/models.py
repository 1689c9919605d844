"""Measurement transformations and the random inputs they consume.

A transformation maps a data vector ``y`` and an error vector ``s`` to a
result vector, componentwise through a scalar kernel ``f`` after optional
linear pre-maps of each input:

    F(y, s)[k] = f((T_y @ y)[k], (T_s @ s)[k])

Four named kernels cover the standard error mechanisms — additive
``y + s``, multiplicative ``y * s``, phase ``sin(y + s)``, and
exponential ``y ** s`` — plus an extension point for arbitrary pure
callables.  Data and error distributions are described by small spec
objects (normal / uniform / two-point) that know how to sample
themselves from an :class:`~mcombine.rng.RngStream` and, in the scalar
case, report their exact central moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError
from .linalg import scaled_rotation_factor
from .rng import RngStream

__all__ = [
    "ScalarKernel",
    "ADDITIVE",
    "MULTIPLICATIVE",
    "PHASE",
    "EXPONENTIAL",
    "TransformSpec",
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
    "transform_spec_from_json",
    "transform_spec_to_json",
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
        if not np.all(y > 0.0):
            raise DomainError("exponential kernel requires y > 0")
        return y**s
    return np.asarray(kernel.fn(y, s), dtype=float)


@dataclass(frozen=True)
class TransformSpec:
    """Kernel plus optional K×K linear pre-maps of data and error inputs."""

    kernel: ScalarKernel
    t_y: NDArray[np.float64] | None = None
    t_s: NDArray[np.float64] | None = None

    def __post_init__(self):
        for name in ("t_y", "t_s"):
            m = getattr(self, name)
            if m is None:
                continue
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DomainError(f"{name} must be a square matrix")
            if not np.all(np.isfinite(m)):
                raise DomainError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, m)


# --------------------------------------------------------------------------
# Distributions


def _as_vec(x, name: str) -> NDArray[np.float64]:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DomainError(f"{name} must be a vector")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class Normal:
    """Multivariate normal with mean vector and symmetric PSD covariance."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self):
        mean = _as_vec(self.mean, "mean")
        cov = np.asarray(self.cov, dtype=float)
        if np.isscalar(self.cov) or cov.ndim == 0:
            cov = np.array([[float(cov)]])
        if cov.shape != (mean.size, mean.size):
            raise DomainError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if not np.all(np.isfinite(cov)):
            raise DomainError("cov contains non-finite entries")
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise DomainError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

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

    @property
    def k(self) -> int:
        return self.a.size

    def mean_vector(self) -> NDArray[np.float64]:
        return self.p * self.a + (1.0 - self.p) * self.b

    def covariance(self) -> NDArray[np.float64]:
        d = self.a - self.b
        return self.p * (1.0 - self.p) * np.outer(d, d)


DistSpec = Union[Normal, Uniform, TwoPoint]


def _require_not_zero_mass(dist: DistSpec) -> None:
    """Raise when a component of ``dist`` is a point mass at 0.

    Zero-rejection redraws of such a component could never end.
    """
    stuck = (np.diag(dist.covariance()) == 0.0) & (dist.mean_vector() == 0.0)
    if np.any(stuck):
        raise DomainError("cannot reject zero draws: a component of the law is a point mass at 0")


def sample(dist: DistSpec, n: int, stream: RngStream, *, reject_zero: bool = False) -> NDArray[np.float64]:
    """Draw ``n`` i.i.d. rows from ``dist`` using ``stream``.

    Normal draws are built as mean + factor @ z with the covariance's
    scaled rotation factor, so a synthesized normal sample and a
    covariance-matched replicate synthesis share one code path.

    ``reject_zero`` redraws rows containing an exactly-zero component —
    used when the draws feed the exponential kernel, whose base must stay
    positive (a measure-zero event under the distributions involved, but
    floating-point uniforms can hit an endpoint exactly).
    """
    if n < 1:
        raise DomainError(f"sample needs n >= 1, got {n}")
    gen = stream.gen
    # In-place arithmetic: the bits are those of mean + z @ factor.T and
    # lo + (hi - lo) * u, without a fresh array per operation.  np.dot gives
    # the bits of @ and is several times faster for the (n, 1) @ (1, 1) of
    # scalar laws.
    if isinstance(dist, Normal):
        factor = scaled_rotation_factor(dist.cov)
        out = np.dot(gen.standard_normal((n, dist.k)), factor.T)
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
    if reject_zero:
        _require_not_zero_mass(dist)
        bad = np.any(out == 0.0, axis=1)
        while np.any(bad):
            replacement = sample(dist, int(bad.sum()), stream)
            out[bad] = replacement
            bad = np.any(out == 0.0, axis=1)
    return out


@dataclass(frozen=True)
class CentralMoments:
    """Exact scalar moments: mean, variance, third and fourth central moments."""

    mean: float
    variance: float
    third_central: float
    fourth_central: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise DomainError("variance must be non-negative")
        # Cauchy-Schwarz: E[(X-m)^4] >= (E[(X-m)^2])^2, with rounding headroom.
        if self.fourth_central < self.variance**2 - 1e-12 * max(1.0, self.variance**2):
            raise DomainError("fourth central moment below variance squared")


def moments(dist: DistSpec) -> CentralMoments:
    """Closed-form central moments of a scalar distribution."""
    if dist.k != 1:
        raise DomainError("moments supports scalar (K=1) distributions only")
    if isinstance(dist, Normal):
        mu = float(dist.mean[0])
        var = float(dist.cov[0, 0])
        return CentralMoments(mu, var, 0.0, 3.0 * var**2)
    if isinstance(dist, Uniform):
        lo, hi = float(dist.lo[0]), float(dist.hi[0])
        width = hi - lo
        return CentralMoments(0.5 * (lo + hi), width**2 / 12.0, 0.0, width**4 / 80.0)
    if isinstance(dist, TwoPoint):
        a, b, p = float(dist.a[0]), float(dist.b[0]), dist.p
        mean = p * a + (1.0 - p) * b
        d = a - b
        var = p * (1.0 - p) * d**2
        third = p * (1.0 - p) * (1.0 - 2.0 * p) * d**3
        fourth = p * (1.0 - p) * ((1.0 - p) ** 3 + p**3) * d**4
        return CentralMoments(mean, var, third, fourth)
    raise DomainError(f"unknown distribution spec {type(dist).__name__}")


# --------------------------------------------------------------------------
# JSON representations (used by CLI config files)
#
# Kernel:         "additive" | "multiplicative" | "phase" | "exponential"
# Distribution:   {"kind": "normal", "mean": [...], "cov": [[...]]}
#                 {"kind": "uniform", "lo": [...], "hi": [...]}
#                 {"kind": "two_point", "a": [...], "b": [...], "p": 0.5}
#                 (scalars accepted anywhere a length-1 vector is expected)
# TransformSpec:  {"kernel": <kernel>, "t_y": [[...]] | null, "t_s": [[...]] | null}
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


def transform_spec_from_json(obj: Any) -> TransformSpec:
    if not isinstance(obj, dict) or "kernel" not in obj:
        raise DomainError("transform spec must be an object with a 'kernel'")
    t_y = obj.get("t_y")
    t_s = obj.get("t_s")
    return TransformSpec(
        kernel=kernel_from_json(obj["kernel"]),
        t_y=None if t_y is None else np.asarray(t_y, dtype=float),
        t_s=None if t_s is None else np.asarray(t_s, dtype=float),
    )


def transform_spec_to_json(spec: TransformSpec) -> dict:
    return {
        "kernel": kernel_to_json(spec.kernel),
        "t_y": None if spec.t_y is None else spec.t_y.tolist(),
        "t_s": None if spec.t_s is None else spec.t_s.tolist(),
    }
