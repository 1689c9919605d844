"""The two-stage propagation pipeline: Transform then Combine.

The Transform stage evaluates the measurement transformation once at the
nominal error value for each data vector (the "nominals") and once per
Monte Carlo error draw (the "replicates").  Every error draw is shared by
all the data vectors of a batch: it models one systematic error common
to the whole batch.  Combine reads the replicates only through two
means, so Transform returns those instead of the (J, Q) replicate table:
the mean over j at each draw q (the replicate "centres") and the mean
over q for each vector j (the "replicate means").  For the additive,
multiplicative and phase kernels both come from the means of the
kernel's separable factors, without building the table.

The Combine stage merges the per-vector results into a single nominal
plus a synthesized replicate sample: the replicate centres, plus
injected normal noise scaled by a factor of the across-``j`` covariance
— of the nominals ("current" construction) or of the replicate means
("alternative" construction).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError
from .linalg import sample_covariance, scaled_rotation_factor
from .models import _SEPARABLE, ScalarKernel, kernel_eval
from .rng import RngStream

__all__ = [
    "DataBatch",
    "ErrorBatch",
    "TransformOutput",
    "CombineOutput",
    "transform_stage",
    "combine",
    "combine_with_noise",
]

#: Bound, in elements, on the part of a (..., J, Q, K) kernel tensor built at
#: once; a row of the first leading axis is the smallest part.
_TENSOR_ELEMS = 8_000_000

#: Largest array, in float64 values (1 GiB), that one batch or Monte Carlo
#: block may need: a block's data or error draws, or one batch's J·Q·K
#: kernel tensor.  Larger runs are refused before anything is allocated.
_MAX_ELEMS = 1 << 27


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
    """Q error draws, one per row, each shared by every data vector of the
    batch: a common systematic error.

    ``rows`` is (Q, K), or (..., Q, K) with the leading axes of the data
    batch.
    """

    rows: NDArray[np.float64]

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
    """The three reductions of the transformed batch that Combine reads.

    ``nominals`` (..., J, K) holds F(Y_j, nu); ``centres`` (..., Q, K) the
    mean over j of F(Y_j, S_q), the centre of replicate q; and
    ``replicate_means`` (..., J, K) the mean over q of F(Y_j, S_q), the
    replicate mean of vector j.  The (J, Q) table of F(Y_j, S_q) is not
    kept: kernels with a separable form never build it.
    """

    nominals: NDArray[np.float64]
    centres: NDArray[np.float64]
    replicate_means: NDArray[np.float64]

    @property
    def j(self) -> int:
        return self.nominals.shape[-2]

    @property
    def q(self) -> int:
        return self.centres.shape[-2]

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


def _require_size(q: int, j: int, k: int = 1, block_size: int = 1) -> None:
    """Refuse a run whose draws or kernel tensor would exceed ``_MAX_ELEMS``.

    A block of ``block_size`` batches draws ``block_size``·J data and
    ``block_size``·Q error vectors of length K, and one batch of a kernel
    without a separable form builds a J·Q·K tensor.
    """
    need = max(block_size * j, block_size * q, j * q) * k
    _require_fits(need, f"Q = {q} with J = {j}, K = {k} and block size {block_size} needs an "
                  f"array of {need} values")


def _require_fits(need: int, what: str) -> None:
    """Refuse ``what``, which needs ``need`` float64 values, past ``_MAX_ELEMS``."""
    if need > _MAX_ELEMS:
        raise DomainError(f"{what}, more than the limit of {_MAX_ELEMS} (1 GiB of float64)")


def _kernel_values(kernel: ScalarKernel, y, s, shape: tuple[int, ...]):
    """Kernel values at (y, s) as an array of ``shape``.

    A kernel that ignores an argument may return a smaller array; it is
    broadcast and copied only then.
    """
    out = kernel_eval(kernel, y, s)
    if out.shape != shape:
        try:
            out = np.broadcast_to(out, shape).copy()
        except ValueError:
            raise DomainError(
                f"{kernel.kind} kernel returned shape {out.shape}, expected {shape}"
            ) from None
    return out


def _separable_means(factors, y, s):
    """Centres and replicate means of f(y, s) = sum_r g_r(y)·h_r(s) from the
    means of its factors: O((J + Q)·R) work per batch and no (J, Q) table.

    ``factors`` is the kernel's (g, h) pair from ``models._SEPARABLE``;
    ``y`` is (..., J, K) and ``s`` the shared errors (..., Q, K).
    """
    g, h = factors
    centres = replicate_means = None
    for gy, hs in zip(g(y), h(s)):
        term = gy * hs.mean(axis=-2, keepdims=True)
        # a factor is a fresh array, so it is scaled in place: the centres
        # reuse the first rank's (..., Q, K) factor and need no array of their own
        hs *= gy.mean(axis=-2, keepdims=True)
        if centres is None:
            centres, replicate_means = hs, term
        else:
            centres += hs
            replicate_means += term
    return centres, replicate_means


def _tensor_means(kernel: ScalarKernel, y, s):
    """Centres and replicate means through the (..., J, Q, K) kernel tensor.

    ``y`` is (..., J, 1, K) and ``s`` (..., 1, Q, K).  The tensor is built
    for a run of rows of the first leading axis at a time, at most
    ``_TENSOR_ELEMS`` elements (but at least one row), and reduced at once.
    """
    lead, j, q, k = y.shape[:-3], y.shape[-3], s.shape[-2], y.shape[-1]
    centres = np.empty((*lead, q, k))
    replicate_means = np.empty((*lead, j, k))
    rows = lead[0] if lead else 1
    step = max(1, _TENSOR_ELEMS // (math.prod(lead[1:]) * j * q * k))
    for lo in range(0, rows, step):
        part = np.s_[lo:lo + step] if lead else ()
        shape = (*centres[part].shape[:-2], j, q, k)
        tensor = _kernel_values(kernel, y[part], s[part], shape)
        centres[part] = tensor.mean(axis=-3)
        replicate_means[part] = tensor.mean(axis=-2)
    return centres, replicate_means


def _require_finite(kernel: ScalarKernel, what: str, values, rows: str) -> None:
    """Refuse non-finite ``values`` (..., N, K), naming the kernel, the output
    and the first index along axis -2 that holds one (``rows`` says what
    that axis counts)."""
    ok = np.isfinite(values).all(axis=-1)
    if not ok.all():
        bad = [int(i) for i in np.argwhere(~ok)[0]]
        where = f"{rows} {bad[-1]}" + (f" of batch {tuple(bad[:-1])}" if len(bad) > 1 else "")
        raise DomainError(f"{kernel.kind} kernel gave non-finite {what} at {where}")


def transform_stage(
    data: DataBatch, errors: ErrorBatch, kernel: ScalarKernel, nu
) -> TransformOutput:
    """Evaluate the transformation at the nominal error and at each MC draw,
    and reduce the replicates to the means Combine reads.

    ``nu`` must be the mean of the error distribution the batch was drawn
    from; the nominal for vector j is F(Y_j, nu) and replicate (j, q) is
    F(Y_j, S_q), where F applies ``kernel`` componentwise.  A kernel with a
    separable form gets both means from the means of its factors; the phase
    kernel's sin and cos factors come from one tangent of the half angle.
    Any other kernel builds the replicate tensor and reduces it.  Every
    output is checked exactly, so a non-finite kernel value or an
    overflowing mean is refused here, with the kernel and the output named.
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
    j, y, s = data.j, data.rows, errors.rows
    factors = _SEPARABLE.get(kernel.kind)
    # Every non-finite value is refused below; the warnings that made it
    # would only say so twice.
    with np.errstate(all="ignore"):
        nominals = _kernel_values(kernel, y, nu, (*lead, j, k))
        if factors is not None:
            centres, replicate_means = _separable_means(factors, y, s)
        else:
            centres, replicate_means = _tensor_means(
                kernel, y[..., np.newaxis, :], s[..., np.newaxis, :, :]
            )
    _require_finite(kernel, "nominals", nominals, "data row")
    _require_finite(kernel, "replicate means", replicate_means, "data row")
    _require_finite(kernel, "replicate centres", centres, "error draw")
    return TransformOutput(nominals=nominals, centres=centres, replicate_means=replicate_means)


def combine_with_noise(t: TransformOutput, z, construction: str) -> CombineOutput:
    """Combine with caller-supplied synthesis noise ``z`` of shape (..., Q, K).

    The nominal is the mean of the per-vector nominals.  The replicates are
    the replicate centres plus ``z`` through the scaled rotation factor of
    the sample covariance of the nominals ("current") or of the per-vector
    replicate means ("alternative"), over sqrt(J).  The alternative shrinks
    the injected-variance bias from O(1/J) to O(1/(JQ)).  This is the
    deterministic core of :func:`combine` and what the Monte Carlo harness
    runs, one trial per leading index.
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
        input_cov = sample_covariance(t.replicate_means)
    else:
        raise DomainError(f"unknown construction {construction!r}")
    factor = scaled_rotation_factor(input_cov)
    # factor @ z_q for every q; over a stack of tiny matrices einsum is
    # several times faster than matmul, which makes one BLAS call per matrix
    replicates = t.centres + np.einsum("...qk,...lk->...ql", z, factor, optimize=False) / np.sqrt(jj)
    return CombineOutput(
        nominal=t.nominals.mean(axis=-2),
        replicates=replicates,
        construction=construction,
        input_cov=input_cov,
    )


def combine(t: TransformOutput, stream: RngStream, construction: str) -> CombineOutput:
    """Combine stage of one batch: :func:`combine_with_noise` on standard
    normal noise (Q, K) drawn from ``stream`` independently of everything else."""
    return combine_with_noise(t, stream.standard_normal((t.q, t.k)), construction)


# Bound only for perfbench/spans.py, which wraps them by name (ROADMAP item 1).
combine_current = functools.partial(combine, construction="current")
combine_alternative = functools.partial(combine, construction="alternative")
