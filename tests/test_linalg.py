import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcombine.exceptions import DomainError, NumericalError
from mcombine.linalg import (
    cross_covariance,
    sample_covariance,
    scaled_rotation_factor,
    sym_eigendecompose,
)


def _random_psd(rng, k, rank=None):
    rank = k if rank is None else rank
    a = rng.standard_normal((k, rank))
    return a @ a.T


def _two_pass_covariance(rows):
    # independent textbook implementation: explicit loops, no einsum
    n, k = rows.shape
    mean = rows.sum(axis=0) / n
    acc = np.zeros((k, k))
    for i in range(n):
        d = rows[i] - mean
        acc += np.outer(d, d)
    return acc / (n - 1)


# --------------------------------------------------------------------------
# sample statistics


def test_sample_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    for n, k in [(2, 1), (5, 3), (40, 6)]:
        rows = rng.standard_normal((n, k)) * 3.0 + 1.0
        got = sample_covariance(rows)
        assert np.allclose(got, _two_pass_covariance(rows), rtol=1e-12, atol=1e-12)


def test_sample_covariance_matches_numpy_cov():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((30, 4))
    assert np.allclose(sample_covariance(rows), np.cov(rows, rowvar=False), rtol=1e-12)


def test_sample_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((25, 5)) * 100.0
    c = sample_covariance(rows)
    assert np.array_equal(c, c.T)


def test_sample_covariance_needs_two_rows():
    with pytest.raises(DomainError):
        sample_covariance(np.ones((1, 3)))


def test_cross_covariance_transpose_identity_is_bitwise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 3))
    assert np.array_equal(cross_covariance(x, y), cross_covariance(y, x).T)


def test_cross_covariance_of_self_is_covariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 2))
    assert np.allclose(cross_covariance(x, x), sample_covariance(x), rtol=1e-12)


def test_cross_covariance_rejects_mismatched_rows():
    with pytest.raises(DomainError):
        cross_covariance(np.ones((4, 2)), np.ones((5, 2)))


# --------------------------------------------------------------------------
# eigendecomposition (eigh is the solver, so comparisons with eigh check
# only the order and sign convention added on top; reconstruction and
# orthogonality are the independent checks)


def test_eigendecompose_matches_eigh_eigenvalues():
    rng = np.random.default_rng(6)
    for k in (1, 2, 5, 9):
        m = _random_psd(rng, k)
        values, _ = sym_eigendecompose(m)
        expected = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(values, expected, rtol=1e-10, atol=1e-10)


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(7)
    m = _random_psd(rng, 6)
    values, vectors = sym_eigendecompose(m)
    rebuilt = vectors @ np.diag(values) @ vectors.T
    assert np.allclose(rebuilt, m, rtol=1e-12, atol=1e-12)


def test_eigendecompose_orthonormal_vectors():
    rng = np.random.default_rng(8)
    m = _random_psd(rng, 8)
    _, vectors = sym_eigendecompose(m)
    assert np.allclose(vectors.T @ vectors, np.eye(8), atol=1e-12)


def test_eigendecompose_descending_order():
    rng = np.random.default_rng(9)
    m = _random_psd(rng, 7)
    vals, _ = sym_eigendecompose(m)
    assert np.all(np.diff(vals) <= 1e-12)


def test_eigendecompose_sign_convention():
    # largest-magnitude component of every eigenvector is positive
    rng = np.random.default_rng(10)
    m = _random_psd(rng, 5)
    _, vecs = sym_eigendecompose(m)
    for col in vecs.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_eigendecompose_indefinite_matrix():
    # works on any symmetric matrix, not just PSD
    m = np.array([[0.0, 2.0], [2.0, -3.0]])
    values, _ = sym_eigendecompose(m)
    expected = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)


def test_eigendecompose_diagonal_is_exact():
    values, _ = sym_eigendecompose(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(values, np.array([3.0, 2.0, 1.0]))


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(DomainError):
        sym_eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_eigendecompose_psd_properties(k, seed):
    rng = np.random.default_rng(seed)
    m = _random_psd(rng, k)
    values, vectors = sym_eigendecompose(m)
    scale = max(1.0, float(np.abs(m).max()))
    rebuilt = vectors @ np.diag(values) @ vectors.T
    assert np.abs(rebuilt - m).max() <= 1e-10 * scale
    assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12
    # PSD spectra stay nonnegative up to roundoff
    assert values.min() >= -1e-10 * max(scale, 1.0)


# --------------------------------------------------------------------------
# scaled rotation factor


def test_rotation_factor_squares_back():
    rng = np.random.default_rng(11)
    m = _random_psd(rng, 4)
    f = scaled_rotation_factor(m)
    assert np.allclose(f @ f.T, m, rtol=1e-10, atol=1e-12)


def test_rotation_factor_clips_tiny_negative_eigenvalues():
    # rank-deficient: roundoff can push an eigenvalue slightly below zero
    rng = np.random.default_rng(12)
    m = _random_psd(rng, 5, rank=2)
    f = scaled_rotation_factor(m)
    assert np.allclose(f @ f.T, m, atol=1e-10)
    assert np.all(np.isfinite(f))


def test_rotation_factor_rejects_clearly_negative():
    m = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(NumericalError):
        scaled_rotation_factor(m)


def test_rotation_factor_scalar_case():
    f = scaled_rotation_factor(np.array([[4.0]]))
    assert np.allclose(f, [[2.0]])


# --------------------------------------------------------------------------
# stacks: one call over leading axes equals a loop over the matrices


def _spd_stack():
    rng = np.random.default_rng(13)
    mats = [_random_psd(rng, 3) for _ in range(5)]
    mats.append(np.diag([2.0, 2.0, 1.0]))  # tied eigenvalues
    mats.append(np.diag([1.0, 3.0, 3.0]))
    return np.stack(mats)


def test_stacked_eigendecompose_equals_per_matrix_loop():
    stack = _spd_stack()
    values, vecs = sym_eigendecompose(stack)
    for i, m in enumerate(stack):
        one_values, one_vectors = sym_eigendecompose(m)
        assert np.array_equal(values[i], one_values)
        assert np.array_equal(vecs[i], one_vectors)
    lead = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=-2)[:, None, :], axis=-2)
    assert np.all(lead > 0.0)


def test_stacked_moments_and_factor_equal_per_matrix_loop():
    stack = _spd_stack()
    factors = scaled_rotation_factor(stack)
    rows = np.random.default_rng(14).standard_normal((4, 9, 3))
    covs = sample_covariance(rows)
    for i, m in enumerate(stack):
        assert np.array_equal(factors[i], scaled_rotation_factor(m))
    cross = cross_covariance(rows, rows[::-1])
    for i, r in enumerate(rows):
        assert np.array_equal(covs[i], sample_covariance(r))
        assert np.array_equal(cross[i], cross_covariance(r, rows[::-1][i]))


def test_stacked_factor_names_a_negative_matrix():
    stack = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    with pytest.raises(NumericalError, match="-5.000e-01"):
        scaled_rotation_factor(stack)


def test_lapack_failure_is_a_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        sym_eigendecompose(np.eye(2))


# --------------------------------------------------------------------------
# input checks: each refusal once


INPUT_CHECKS = {
    "rows of one dimension": (lambda: sample_covariance(np.ones(3)), "ndim=1"),
    "non-finite rows": (lambda: sample_covariance([[1.0], [np.inf]]), "rows contains non-finite"),
    "one paired row": (lambda: cross_covariance(np.ones((1, 2)), np.ones((1, 2))),
                       "at least two rows, got 1"),
    "non-square matrix": (lambda: sym_eigendecompose(np.ones((2, 3))), r"got shape \(2, 3\)"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_refuses(case):
    call, fragment = INPUT_CHECKS[case]
    with pytest.raises(DomainError, match=fragment):
        call()
