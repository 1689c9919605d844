"""Small-matrix sample statistics and symmetric eigendecomposition.

Everything here operates on plain numpy arrays: vectors are 1-D arrays,
matrices 2-D, and any leading axes index a stack of independent inputs
(one per Monte Carlo trial, say) that is processed in one call.  Row
dimension is always the observation index (n rows of K components), and
covariance denominators are ``n - 1`` throughout.

The eigensolver is LAPACK's symmetric solver through
``numpy.linalg.eigh``, with a fixed order and sign convention on top so
that every result seeded from an eigenbasis is reproducible.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError, NumericalError

__all__ = [
    "sample_covariance",
    "cross_covariance",
    "sym_eigendecompose",
    "scaled_rotation_factor",
]

#: Eigenvalues of a covariance matrix below -EIG_CLAMP_REL * max|eig|
#: indicate a corrupt (non-PSD beyond rounding) input.
EIG_CLAMP_REL = 1e-10


def _as_rows(x, name: str) -> NDArray[np.float64]:
    a = np.asarray(x, dtype=float)
    if a.ndim < 2:
        raise DomainError(
            f"{name} must be an array (..., n, K) of row observations, got ndim={a.ndim}"
        )
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def sample_covariance(rows) -> NDArray[np.float64]:
    """Sample covariance (denominator n-1) of row observations.

    The result is exactly symmetric: the cross-product matrix is averaged
    with its transpose, which is a bitwise no-op for the diagonal and
    enforces ``C[i, j] == C[j, i]`` for the rest.
    """
    a = _as_rows(rows, "rows")
    n = a.shape[-2]
    if n < 2:
        raise DomainError(f"sample_covariance needs at least two rows, got {n}")
    centered = a - a.mean(axis=-2, keepdims=True)
    c = np.einsum("...nk,...nl->...kl", centered, centered, optimize=False) / (n - 1)
    return 0.5 * (c + np.swapaxes(c, -1, -2))


def cross_covariance(rows_a, rows_b) -> NDArray[np.float64]:
    """Sample cross-covariance of paired rows: Cov[a_i, b_i], denominator n-1.

    ``cross_covariance(a, b)`` equals ``cross_covariance(b, a).T`` exactly
    (same products summed in the same order), which the tests pin down.
    """
    a = _as_rows(rows_a, "rows_a")
    b = _as_rows(rows_b, "rows_b")
    if a.shape[:-1] != b.shape[:-1]:
        raise DomainError(
            f"paired inputs need equal row counts, got shapes {a.shape} and {b.shape}"
        )
    n = a.shape[-2]
    if n < 2:
        raise DomainError(f"cross_covariance needs at least two rows, got {n}")
    ca = a - a.mean(axis=-2, keepdims=True)
    cb = b - b.mean(axis=-2, keepdims=True)
    return np.einsum("...nk,...nl->...kl", ca, cb, optimize=False) / (n - 1)


def _check_symmetric(m, name: str) -> NDArray[np.float64]:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    at = np.swapaxes(a, -1, -2)
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    if np.any(np.abs(a - at).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise DomainError(f"{name} is not symmetric")
    return 0.5 * a + 0.5 * at


def sym_eigendecompose(m) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of a symmetric matrix, or of a stack of them.

    ``m`` has shape (..., K, K); the decomposition is LAPACK's, through
    ``numpy.linalg.eigh``, which solves a whole stack in one call.  A
    LAPACK convergence failure raises :class:`NumericalError`.

    Returns ``(values, vectors)`` as ``numpy.linalg.eigh`` does, (..., K)
    and (..., K, K), but with the eigenvalues sorted descending and their
    eigenvector columns to match; each column is sign-normalized so its
    largest-magnitude component is positive.
    """
    a = _check_symmetric(m, "matrix")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    values = values[..., ::-1].copy()
    vectors = vectors[..., ::-1]
    # Sign convention: make the largest-magnitude component of each column
    # positive so the decomposition (and everything seeded from it) is unique.
    lead = np.abs(vectors).argmax(axis=-2)[..., np.newaxis, :]
    flip = np.take_along_axis(vectors, lead, axis=-2) < 0.0
    return values, np.where(flip, -vectors, vectors)


def scaled_rotation_factor(cov) -> NDArray[np.float64]:
    """Matrix square-root factor ``U @ diag(sqrt(d))`` of a covariance matrix.

    ``cov`` may be a stack (..., K, K); the factor then has the same shape.
    Eigenvalues in ``(-EIG_CLAMP_REL * max|d|, 0)`` are treated as rounding
    noise and clamped to zero; anything more negative means the input is
    not a covariance matrix and raises :class:`NumericalError`.
    """
    d, vectors = sym_eigendecompose(cov)
    floor = -EIG_CLAMP_REL * np.abs(d).max(axis=-1, initial=0.0, keepdims=True)
    below = d < floor
    if below.any():
        i = tuple(np.argwhere(below.any(axis=-1))[0])
        raise NumericalError(
            f"covariance has eigenvalue {d[i].min():.3e} "
            f"below the clamp threshold {floor[i][0]:.3e}"
        )
    np.clip(d, 0.0, None, out=d)
    return vectors * np.sqrt(d)[..., np.newaxis, :]
