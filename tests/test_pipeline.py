import numpy as np
import pytest

from mcombine.exceptions import DomainError
from mcombine.linalg import sample_covariance
from mcombine.models import (
    ADDITIVE,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    ScalarKernel,
    TransformSpec,
    kernel_eval,
    sample,
)
from mcombine.pipeline import (
    CombineOutput,
    DataBatch,
    ErrorBatch,
    TransformOutput,
    combine_alternative,
    combine_current,
    combine_nominal,
    combine_with_noise,
    transform_stage,
)
from mcombine.rng import RngStream


def _batch(j=5, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return DataBatch(rng.standard_normal((j, k)))


def _shared_errors(q=7, k=2, seed=1):
    rng = np.random.default_rng(seed)
    return ErrorBatch(rng.standard_normal((q, k)), shared=True)


# --------------------------------------------------------------------------
# batches


def test_data_batch_needs_two_rows():
    with pytest.raises(DomainError):
        DataBatch(np.ones((1, 3)))


def test_data_batch_rejects_nonfinite():
    rows = np.ones((3, 2))
    rows[1, 0] = np.nan
    with pytest.raises(DomainError):
        DataBatch(rows)


def test_batch_shape_properties():
    b = _batch(j=6, k=3)
    assert (b.j, b.k) == (6, 3)


# --------------------------------------------------------------------------
# transform stage


def test_transform_matches_scalar_loop():
    data = _batch(j=4, k=2, seed=2)
    errors = _shared_errors(q=5, k=2, seed=3)
    nu = np.array([0.1, -0.2])
    spec = TransformSpec(kernel=PHASE)
    t = transform_stage(data, errors, spec, nu)
    assert t.nominals.shape == (4, 2)
    assert t.replicates.shape == (4, 5, 2)
    for j in range(4):
        for k in range(2):
            assert t.nominals[j, k] == kernel_eval(PHASE, data.rows[j, k], nu[k])
            for q in range(5):
                assert t.replicates[j, q, k] == kernel_eval(
                    PHASE, data.rows[j, k], errors.rows[q, k]
                )


def test_transform_shared_errors_reused_across_vectors():
    data = _batch(j=3, k=1, seed=4)
    errors = _shared_errors(q=6, k=1, seed=5)
    t = transform_stage(data, errors, TransformSpec(kernel=ADDITIVE), np.zeros(1))
    # same error column added to every data vector
    for j in range(3):
        assert np.allclose(t.replicates[j, :, 0], data.rows[j, 0] + errors.rows[:, 0])


def test_transform_unshared_errors_split_per_vector():
    data = _batch(j=3, k=1, seed=6)
    rows = np.arange(12, dtype=float).reshape(12, 1)
    errors = ErrorBatch(rows, shared=False)
    t = transform_stage(data, errors, TransformSpec(kernel=ADDITIVE), np.zeros(1))
    assert t.replicates.shape == (3, 4, 1)
    for j in range(3):
        assert np.allclose(t.replicates[j, :, 0], data.rows[j, 0] + rows[4 * j : 4 * j + 4, 0])


def test_transform_unshared_requires_divisible_rows():
    data = _batch(j=3, k=1)
    errors = ErrorBatch(np.ones((10, 1)), shared=False)
    with pytest.raises(DomainError):
        transform_stage(data, errors, TransformSpec(kernel=ADDITIVE), np.zeros(1))


def test_transform_applies_linear_premaps():
    data = DataBatch(np.array([[1.0, 2.0], [3.0, 4.0]]))
    errors = ErrorBatch(np.array([[1.0, 1.0]]), shared=True)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = TransformSpec(kernel=ADDITIVE, t_y=swap)
    t = transform_stage(data, errors, spec, np.zeros(2))
    assert np.allclose(t.replicates[0, 0], [3.0, 2.0])
    assert np.allclose(t.replicates[1, 0], [5.0, 4.0])
    # error pre-map: replicate (j, q) is T_y y_j + T_s s_q, nominal T_y y_j + T_s nu
    t_s = np.array([[2.0, 0.0], [1.0, 1.0]])
    spec = TransformSpec(kernel=ADDITIVE, t_y=swap, t_s=t_s)
    errors = ErrorBatch(np.array([[1.0, 2.0], [0.5, -1.0]]), shared=True)
    t = transform_stage(data, errors, spec, np.array([1.0, -1.0]))
    # T_s s = [2, 3] and [1, -0.5]; T_s nu = [2, 0]; T_y y = [2, 1] and [4, 3]
    assert np.array_equal(t.replicates, [[[4.0, 4.0], [3.0, 0.5]], [[6.0, 6.0], [5.0, 2.5]]])
    assert np.array_equal(t.nominals, [[4.0, 1.0], [6.0, 3.0]])
    with pytest.raises(DomainError, match="t_s dimension"):
        transform_stage(data, errors, TransformSpec(kernel=ADDITIVE, t_s=np.eye(3)), np.zeros(2))


def test_transform_nu_length_must_match():
    with pytest.raises(DomainError):
        transform_stage(_batch(), _shared_errors(), TransformSpec(kernel=ADDITIVE), np.zeros(3))


def test_transform_broadcasts_kernel_that_ignores_data():
    # f(y, s) = s returns one row for all J data vectors; the stage still
    # reports J nominals and J replicate rows, so the combine sees J > 1
    spec = TransformSpec(kernel=ScalarKernel("custom", fn=lambda y, s: s))
    data = DataBatch(np.array([[1.0], [2.0], [4.0]]))
    errors = _shared_errors(q=4, k=1, seed=12)
    t = transform_stage(data, errors, spec, np.ones(1))
    assert t.nominals.shape == (3, 1)
    assert t.replicates.shape == (3, 4, 1)
    assert np.array_equal(t.replicates[2], errors.rows)
    t.replicates[0, 0, 0] = 0.0  # a real array, not a read-only broadcast view
    out = combine_current(t, RngStream(1))
    assert np.array_equal(out.input_cov, np.zeros((1, 1)))


@pytest.mark.parametrize("stacked", [False, True])
def test_transform_rejects_non_finite_kernel_output(stacked):
    spec = TransformSpec(kernel=ScalarKernel("custom", fn=lambda y, s: np.log(y) * s))
    rows = np.array([[1.0], [2.0], [-3.0], [-1.0]])
    errors = np.ones((2, 1))
    if stacked:
        rows = np.stack([rows[[0, 1, 1, 1]], rows])
        errors = np.stack([errors, errors])
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        transform_stage(DataBatch(rows), ErrorBatch(errors), spec, np.ones(1))
    message = str(info.value)
    assert "custom kernel" in message
    assert "data row 2" in message
    assert ("batch (1,)" in message) == stacked


def test_transform_accepts_finite_output_whose_sum_overflows():
    data = DataBatch(np.full((3, 1), 1e308))
    t = transform_stage(data, ErrorBatch(np.ones((4, 1))), TransformSpec(kernel=MULTIPLICATIVE), np.ones(1))
    assert np.all(t.replicates == 1e308)


def test_transform_rejects_mismatched_leading_axes():
    data = DataBatch(np.ones((2, 3, 1)))
    errors = ErrorBatch(np.ones((3, 4, 1)))
    with pytest.raises(DomainError):
        transform_stage(data, errors, TransformSpec(kernel=ADDITIVE), np.zeros(1))


# --------------------------------------------------------------------------
# combine stage


def test_combine_nominal_is_row_mean():
    data = _batch(j=5, k=2, seed=7)
    t = transform_stage(data, _shared_errors(seed=8), TransformSpec(kernel=ADDITIVE), np.zeros(2))
    assert np.allclose(combine_nominal(t), t.nominals.mean(axis=0))


def test_combine_with_zero_noise_returns_replicate_means():
    data = _batch(j=4, k=2, seed=9)
    t = transform_stage(data, _shared_errors(q=6, seed=10), TransformSpec(kernel=MULTIPLICATIVE), np.zeros(2))
    z = np.zeros((6, 2))
    out = combine_with_noise(t, z, "current")
    assert np.allclose(out.replicates, t.replicates.mean(axis=0))


def test_combine_current_covariance_identity():
    # with unit noise rows the synthesized covariance contribution is known:
    # replicates = mean + z @ factor.T / sqrt(J) where factor factor^T = cov(nominals)
    data = _batch(j=6, k=2, seed=11)
    t = transform_stage(data, _shared_errors(q=4, seed=12), TransformSpec(kernel=ADDITIVE), np.zeros(2))
    z = np.eye(4, 2)
    out = combine_with_noise(t, z, "current")
    spread = out.replicates - t.replicates.mean(axis=0)
    cov = sample_covariance(t.nominals)
    # rows of spread are rows of factor.T / sqrt(J); their gram recovers cov/J
    gram = spread[:2].T @ spread[:2]
    assert np.allclose(gram, cov / 6.0, atol=1e-12)


def test_combine_alternative_uses_replicate_means():
    data = _batch(j=5, k=2, seed=13)
    t = transform_stage(data, _shared_errors(q=5, seed=14), TransformSpec(kernel=MULTIPLICATIVE), np.zeros(2))
    out = combine_with_noise(t, np.zeros((5, 2)), "alternative")
    assert np.allclose(out.input_cov, sample_covariance(t.replicates.mean(axis=1)))


def test_combine_current_input_cov_is_nominal_cov():
    data = _batch(j=5, k=3, seed=15)
    t = transform_stage(data, _shared_errors(q=4, k=3, seed=16), TransformSpec(kernel=ADDITIVE), np.zeros(3))
    out = combine_current(t, RngStream(0))
    assert np.allclose(out.input_cov, sample_covariance(t.nominals))
    assert out.construction == "current"


def test_combine_alternative_needs_two_error_draws():
    data = _batch(j=3, k=1, seed=17)
    errors = ErrorBatch(np.ones((1, 1)), shared=True)
    t = transform_stage(data, errors, TransformSpec(kernel=ADDITIVE), np.zeros(1))
    with pytest.raises(DomainError):
        combine_alternative(t, RngStream(0))


def test_combine_is_deterministic_per_stream():
    data = _batch(j=4, k=2, seed=18)
    t = transform_stage(data, _shared_errors(q=8, seed=19), TransformSpec(kernel=ADDITIVE), np.zeros(2))
    a = combine_current(t, RngStream(21))
    b = combine_current(t, RngStream(21))
    assert np.array_equal(a.replicates, b.replicates)


def test_combine_json_dict_round_trips_through_lists():
    data = _batch(j=4, k=2, seed=20)
    t = transform_stage(data, _shared_errors(q=3, seed=21), TransformSpec(kernel=ADDITIVE), np.zeros(2))
    out = combine_current(t, RngStream(1))
    d = out.to_json_dict()
    assert np.allclose(np.asarray(d["replicates"]), out.replicates)
    assert d["construction"] == "current"


# --------------------------------------------------------------------------
# statistical sanity: additive pipelines are unbiased for the target spread


def test_additive_mean_of_sample_variances_tracks_target():
    # E[S^2 of replicates] should equal V[Ybar + S] = V[Y]/J + V[S]
    j, q, trials = 4, 40, 3000
    y_dist = Normal(mean=[0.0], cov=[[1.0]])
    s_dist = Normal(mean=[0.0], cov=[[0.5]])
    root = RngStream(99)
    spec = TransformSpec(kernel=ADDITIVE)
    acc = np.empty(trials)
    for t_idx in range(trials):
        sub = root.substream(t_idx)
        data = DataBatch(sample(y_dist, j, sub.substream(0)))
        errors = ErrorBatch(sample(s_dist, q, sub.substream(1)), shared=True)
        t = transform_stage(data, errors, spec, np.zeros(1))
        out = combine_current(t, sub.substream(2))
        acc[t_idx] = out.replicates[:, 0].var(ddof=1)
    target = 1.0 / j + 0.5
    se = acc.std(ddof=1) / np.sqrt(trials)
    assert abs(acc.mean() - target) < 3.0 * se


def test_k2_grand_mean_is_unbiased():
    # vector case: mean over trials of the replicate grand mean matches E[F]
    j, q, trials = 3, 6, 4000
    y_dist = Normal(mean=[1.0, -2.0], cov=[[1.0, 0.3], [0.3, 2.0]])
    s_dist = Normal(mean=[0.5, 0.5], cov=np.eye(2) * 0.25)
    root = RngStream(123)
    spec = TransformSpec(kernel=MULTIPLICATIVE)
    grand = np.empty((trials, 2))
    for t_idx in range(trials):
        sub = root.substream(t_idx)
        data = DataBatch(sample(y_dist, j, sub.substream(0)))
        errors = ErrorBatch(sample(s_dist, q, sub.substream(1)), shared=True)
        t = transform_stage(data, errors, spec, s_dist.mean_vector())
        out = combine_alternative(t, sub.substream(2))
        grand[t_idx] = out.replicates.mean(axis=0)
    expected = y_dist.mean_vector() * s_dist.mean_vector()
    se = grand.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(grand.mean(axis=0) - expected) < 3.0 * se)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("construction", ["current", "alternative"])
def test_stacked_combine_equals_per_batch_loop(shared, construction):
    # K = 3 with pre-maps: every leading index is an independent pipeline run
    rng = np.random.default_rng(20)
    t_count, j, q, k = 5, 4, 6, 3
    rows = rng.standard_normal((t_count, j, k))
    errors = rng.standard_normal((t_count, q if shared else j * q, k))
    z = rng.standard_normal((t_count, q, k))
    nu = np.array([0.1, 0.0, -0.3])
    spec = TransformSpec(kernel=PHASE, t_y=rng.standard_normal((k, k)), t_s=np.eye(k) * 0.5)
    t = transform_stage(DataBatch(rows), ErrorBatch(errors, shared=shared), spec, nu)
    out = combine_with_noise(t, z, construction)
    assert out.replicates.shape == (t_count, q, k)
    for i in range(t_count):
        one_t = transform_stage(DataBatch(rows[i]), ErrorBatch(errors[i], shared=shared), spec, nu)
        one = combine_with_noise(one_t, z[i], construction)
        assert np.array_equal(t.nominals[i], one_t.nominals)
        assert np.array_equal(t.replicates[i], one_t.replicates)
        assert np.array_equal(out.nominal[i], one.nominal)
        assert np.array_equal(out.input_cov[i], one.input_cov)
        assert np.array_equal(out.replicates[i], one.replicates)
