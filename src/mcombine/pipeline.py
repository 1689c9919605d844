"""The two-stage propagation pipeline: Transform then Combine.

The Transform stage evaluates the measurement transformation once at the
nominal error value for each data vector (the "nominals") and once per
Monte Carlo error draw (the "replicates").  The Combine stage merges the
per-vector results into a single nominal plus a synthesized replicate
sample whose spread has two parts: the across-``q`` spread of the
averaged replicates, plus injected normal noise scaled by a factor of
the across-``j`` covariance — of the nominals ("current" construction)
or of the per-``j`` replicate means ("alternative" construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError
from .linalg import sample_covariance, scaled_rotation_factor
from .models import ScalarKernel, TransformSpec, kernel_eval
from .rng import RngStream

__all__ = [
    "DataBatch",
    "ErrorBatch",
    "TransformOutput",
    "CombineOutput",
    "transform_stage",
    "combine_nominal",
    "combine_current",
    "combine_alternative",
    "combine_with_noise",
]


@dataclass(frozen=True, eq=False)
class DataBatch:
    """J > 1 measurement vectors of length K, one per row.

    ``rows`` is (J, K), or (..., J, K) for a stack of independent batches
    (one per Monte Carlo trial); every stage carries the leading axes
    through.
    """

    rows: NDArray[np.float64]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim < 2:
            raise DomainError("data rows must form an array (..., J, K)")
        if rows.shape[-2] < 2:
            raise DomainError(f"need J > 1 data vectors, got {rows.shape[-2]}")
        if not np.all(np.isfinite(rows)):
            raise DomainError("data contains non-finite entries")
        object.__setattr__(self, "rows", rows)

    @property
    def j(self) -> int:
        return self.rows.shape[-2]

    @property
    def k(self) -> int:
        return self.rows.shape[-1]


@dataclass(frozen=True, eq=False)
class ErrorBatch:
    """Error draws, one per row.

    With ``shared=True`` (the usual case) the same Q rows are reused for
    every data vector, modeling a common systematic error.  With
    ``shared=False`` the batch holds J·Q rows and each data vector
    consumes its own contiguous Q-row block.  Leading axes, if any, must
    match those of the data batch.
    """

    rows: NDArray[np.float64]
    shared: bool = True

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim < 2:
            raise DomainError("error rows must form an array (..., Q, K)")
        if rows.shape[-2] < 1:
            raise DomainError("error batch is empty")
        if not np.all(np.isfinite(rows)):
            raise DomainError("errors contain non-finite entries")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True, eq=False)
class TransformOutput:
    """Per-vector nominals (..., J, K) and replicates (..., J, Q, K)."""

    nominals: NDArray[np.float64]
    replicates: NDArray[np.float64]

    @property
    def j(self) -> int:
        return self.nominals.shape[-2]

    @property
    def q(self) -> int:
        return self.replicates.shape[-2]

    @property
    def k(self) -> int:
        return self.nominals.shape[-1]


@dataclass(frozen=True, eq=False)
class CombineOutput:
    """Combined nominal (..., K), synthesized replicates (..., Q, K), and provenance."""

    nominal: NDArray[np.float64]
    replicates: NDArray[np.float64]
    construction: str
    input_cov: NDArray[np.float64]

    def to_json_dict(self) -> dict:
        return {
            "nominal": self.nominal.tolist(),
            "replicates": self.replicates.tolist(),
            "construction": self.construction,
            "input_cov": self.input_cov.tolist(),
        }


def _kernel_output(kernel: ScalarKernel, y, s, shape: tuple[int, ...], row_axis: int, what: str):
    """Kernel values at (y, s) as an array of ``shape``, data rows on ``row_axis``.

    A kernel that ignores an argument may return a smaller array; it is
    broadcast and copied only then.  Non-finite values are rejected here,
    where the kernel and the data row that produced them are still known.
    """
    out = kernel_eval(kernel, y, s)
    if out.shape != shape:
        try:
            out = np.broadcast_to(out, shape).copy()
        except ValueError:
            raise DomainError(
                f"{kernel.kind} kernel returned {what} of shape {out.shape}, expected {shape}"
            ) from None
    # Any non-finite value makes the sum non-finite, and so can overflow:
    # the sum only screens, and the exact per-row test, which needs a
    # tensor-sized mask, runs only when it fires.
    with np.errstate(over="ignore"):
        total = out.sum()
    if not np.isfinite(total):
        rows_ok = np.isfinite(out).reshape(shape[: row_axis + 1] + (-1,)).all(axis=-1)
        if not rows_ok.all():
            row = tuple(int(i) for i in np.argwhere(~rows_ok)[0])
            where = f"data row {row[-1]}" + (f" of batch {row[:-1]}" if len(row) > 1 else "")
            raise DomainError(f"{kernel.kind} kernel returned non-finite {what} at {where}")
    return out


def transform_stage(
    data: DataBatch, errors: ErrorBatch, spec: TransformSpec, nu
) -> TransformOutput:
    """Evaluate the transformation at the nominal error and at each MC draw.

    ``nu`` must be the mean of the error distribution the batch was drawn
    from; the nominal for vector j is F(Y_j, nu) and replicate (j, q) is
    F(Y_j, S_q) (shared) or F(Y_j, S_{jQ+q}) (unshared).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    k = data.k
    lead = data.rows.shape[:-2]
    if nu.shape != (k,):
        raise DomainError(f"nu must be a length-{k} vector, got shape {nu.shape}")
    if errors.rows.shape[-1] != k:
        raise DomainError(
            f"error vectors have length {errors.rows.shape[-1]}, data has K={k}"
        )
    if errors.rows.shape[:-2] != lead:
        raise DomainError(
            f"error batch leading shape {errors.rows.shape[:-2]} does not match data's {lead}"
        )
    j = data.j
    if errors.shared:
        q = errors.rows.shape[-2]
        s = errors.rows[..., np.newaxis, :, :]  # (..., 1, Q, K) broadcast over j
    else:
        total = errors.rows.shape[-2]
        if total % j != 0:
            raise DomainError(
                f"unshared errors need J*Q rows; {total} rows do not divide by J={j}"
            )
        q = total // j
        s = errors.rows.reshape(*lead, j, q, k)

    y = data.rows
    if spec.t_y is not None:
        if spec.t_y.shape[0] != k:
            raise DomainError("t_y dimension does not match K")
        y = y @ spec.t_y.T
    sv = s
    nu_t = nu
    if spec.t_s is not None:
        if spec.t_s.shape[0] != k:
            raise DomainError("t_s dimension does not match K")
        sv = s @ spec.t_s.T
        nu_t = spec.t_s @ nu

    nominals = _kernel_output(spec.kernel, y, nu_t, (*lead, j, k), len(lead), "nominals")
    replicates = _kernel_output(
        spec.kernel, y[..., np.newaxis, :], sv, (*lead, j, q, k), len(lead), "replicates"
    )
    return TransformOutput(nominals=nominals, replicates=replicates)


def combine_nominal(t: TransformOutput) -> NDArray[np.float64]:
    """Mean of the per-vector nominals."""
    return t.nominals.mean(axis=-2)


def combine_with_noise(t: TransformOutput, z, construction: str) -> CombineOutput:
    """Combine with caller-supplied synthesis noise ``z`` of shape (..., Q, K).

    This is the deterministic core of both constructions; the public
    entry points draw ``z`` from a stream and delegate here.  Useful when
    a test or estimator wants to re-run a combine on fixed draws, and it
    is what the Monte Carlo harness runs, one trial per leading index.
    """
    z = np.asarray(z, dtype=float)
    jj = t.j
    expected = t.nominals.shape[:-2] + (t.q, t.k)
    if z.shape != expected:
        raise DomainError(f"z must have shape (..., Q, K) = {expected}, got {z.shape}")
    if construction == "current":
        input_cov = sample_covariance(t.nominals)
    elif construction == "alternative":
        if t.q < 2:
            raise DomainError("alternative construction requires Q >= 2")
        input_cov = sample_covariance(t.replicates.mean(axis=-2))
    else:
        raise DomainError(f"unknown construction {construction!r}")
    factor = scaled_rotation_factor(input_cov)
    mbar = t.replicates.mean(axis=-3)  # (..., Q, K): mean over j at fixed q
    # factor @ z_q for every q; over a stack of tiny matrices einsum is
    # several times faster than matmul, which makes one BLAS call per matrix
    replicates = mbar + np.einsum("...qk,...lk->...ql", z, factor, optimize=False) / np.sqrt(jj)
    return CombineOutput(
        nominal=combine_nominal(t),
        replicates=replicates,
        construction=construction,
        input_cov=input_cov,
    )


def combine_current(t: TransformOutput, stream: RngStream) -> CombineOutput:
    """Combine stage, current construction.

    The synthesis factor is the scaled rotation factor of the sample
    covariance of the nominals; the noise vectors are standard normal,
    drawn from ``stream`` independently of everything else.
    """
    if t.j < 2:
        raise DomainError("combine requires J > 1")
    z = stream.standard_normal((t.q, t.k))
    return combine_with_noise(t, z, "current")


def combine_alternative(t: TransformOutput, stream: RngStream) -> CombineOutput:
    """Combine stage, alternative construction.

    Identical to :func:`combine_current` except the synthesis factor
    comes from the sample covariance of the per-vector replicate means,
    which shrinks the injected-variance bias from O(1/J) to O(1/(JQ)).
    """
    if t.j < 2:
        raise DomainError("combine requires J > 1")
    z = stream.standard_normal((t.q, t.k))
    return combine_with_noise(t, z, "alternative")
