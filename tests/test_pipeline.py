import numpy as np
import pytest

from mcombine.exceptions import DomainError
from mcombine.linalg import sample_covariance
from mcombine.models import (
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    ScalarKernel,
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
    return ErrorBatch(rng.standard_normal((q, k)))


EPS = np.finfo(float).eps

#: Custom kernels with the formulas of the separable named kernels: they take
#: the replicate-tensor path, the independent check on the factored one.
TWIN = {
    "additive": ScalarKernel("custom", fn=lambda y, s: y + s),
    "multiplicative": ScalarKernel("custom", fn=lambda y, s: y * s),
    "phase": ScalarKernel("custom", fn=lambda y, s: np.sin(y + s)),
}


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


def _loop_table(kernel, y, s):
    """F(y_j, s_q) for every (j, q), one scalar kernel call at a time."""
    (j, k), q = y.shape, s.shape[0]
    table = np.empty((j, q, k))
    for a in range(j):
        for b in range(q):
            for c in range(k):
                table[a, b, c] = kernel_eval(kernel, y[a, c], s[b, c])
    return table


def test_transform_matches_scalar_loop():
    data = _batch(j=4, k=2, seed=2)
    errors = _shared_errors(q=5, k=2, seed=3)
    nu = np.array([0.1, -0.2])
    t = transform_stage(data, errors, PHASE, nu)
    assert t.nominals.shape == (4, 2)
    assert t.centres.shape == (5, 2)
    assert t.replicate_means.shape == (4, 2)
    for j in range(4):
        for k in range(2):
            assert t.nominals[j, k] == kernel_eval(PHASE, data.rows[j, k], nu[k])
    # the factored phase kernel rounds differently from sin(y + s): a few eps
    # per unit of argument
    table = _loop_table(PHASE, data.rows, errors.rows)
    tol = 4 * EPS * (np.abs(data.rows).max() + np.abs(errors.rows).max() + 1.0)
    assert np.abs(t.centres - table.mean(axis=0)).max() <= tol
    assert np.abs(t.replicate_means - table.mean(axis=1)).max() <= tol


def test_transform_shared_errors_reused_across_vectors():
    data = _batch(j=3, k=1, seed=4)
    errors = _shared_errors(q=6, k=1, seed=5)
    t = transform_stage(data, errors, ADDITIVE, np.zeros(1))
    # same error column added to every data vector
    table = data.rows[:, None, :] + errors.rows[None, :, :]
    assert np.allclose(t.centres, table.mean(axis=0))
    assert np.allclose(t.replicate_means, table.mean(axis=1))
    for j in range(3):
        assert np.allclose(t.replicate_means[j, 0], data.rows[j, 0] + errors.rows[:, 0].mean())


@pytest.mark.parametrize("kernel", [ADDITIVE, MULTIPLICATIVE, PHASE], ids=lambda kernel: kernel.kind)
@pytest.mark.parametrize("construction", ["current", "alternative"])
def test_factored_kernels_match_the_replicate_tensor(kernel, construction):
    # K = 3, components correlated by a linear map of the draws, and two
    # leading axes; the custom twin builds the (..., J, Q, K) tensor and
    # reduces it.  The maps stay near the identity: a nearly singular input
    # covariance would magnify rounding in its square-root factor.
    rng = np.random.default_rng(31)
    lead, j, q, k = (2, 3), 5, 7, 3
    rows = rng.standard_normal((*lead, j, k))
    s = rng.standard_normal((*lead, q, k))
    z = rng.standard_normal((*lead, q, k))
    nu = np.array([0.2, -0.1, 0.4])
    t_y, t_s = np.eye(k) + 0.3 * rng.standard_normal((2, k, k))
    y, s, nu = rows @ t_y.T, s @ t_s.T, t_s @ nu
    fast = transform_stage(DataBatch(y), ErrorBatch(s), kernel, nu)
    slow = transform_stage(DataBatch(y), ErrorBatch(s), TWIN[kernel.kind], nu)
    assert np.array_equal(fast.nominals, slow.nominals)
    if kernel is PHASE:  # sin y cos s + cos y sin s against sin(y + s)
        tol = 4 * EPS * (np.abs(y).max() + np.abs(s).max() + 1.0)
    else:
        tol = 1e-14 * np.abs(kernel_eval(kernel, y[..., None, :], s[..., None, :, :])).max()
    assert np.abs(fast.centres - slow.centres).max() <= tol
    assert np.abs(fast.replicate_means - slow.replicate_means).max() <= tol
    a = combine_with_noise(fast, z, construction)
    b = combine_with_noise(slow, z, construction)
    assert np.array_equal(a.nominal, b.nominal)
    for name in ("input_cov", "replicates"):
        want = getattr(b, name)
        assert np.abs(getattr(a, name) - want).max() <= 1e-14 * np.abs(want).max(), name


def test_phase_transform_of_errors_near_the_float_limit():
    # errors near 1e300: the half-angle factors stay finite and agree with
    # numpy's own sin and cos of the same arguments.  The tensor path's
    # sin(y + s) loses y beside such an s, so it agrees only within its
    # argument-scaled tolerance.
    rng = np.random.default_rng(32)
    y = rng.standard_normal((2, 5, 2))
    s = rng.uniform(-1e300, 1e300, (2, 7, 2))
    nu = np.array([0.3, -0.2])
    fast = transform_stage(DataBatch(y), ErrorBatch(s), PHASE, nu)
    slow = transform_stage(DataBatch(y), ErrorBatch(s), TWIN["phase"], nu)
    assert all(np.isfinite(a).all() for a in (fast.centres, fast.replicate_means))
    tol = 4 * EPS * (np.abs(y).max() + np.abs(s).max() + 1.0)
    assert np.abs(fast.centres - slow.centres).max() <= tol
    assert np.abs(fast.replicate_means - slow.replicate_means).max() <= tol
    yj, sq = y[..., :, None, :], s[..., None, :, :]
    table = np.sin(yj) * np.cos(sq) + np.cos(yj) * np.sin(sq)
    assert np.abs(fast.centres - table.mean(axis=-3)).max() <= 8 * EPS
    assert np.abs(fast.replicate_means - table.mean(axis=-2)).max() <= 8 * EPS


@pytest.mark.parametrize("kernel", [ADDITIVE, MULTIPLICATIVE, PHASE, EXPONENTIAL], ids=lambda kernel: kernel.kind)
def test_shared_errors_match_the_scalar_loop(kernel):
    # the exponential kernel takes the replicate-tensor path, the others the
    # factored one
    rng = np.random.default_rng(32)
    j, q, k = 4, 6, 2
    y, s = rng.uniform(0.5, 2.0, (j, k)), rng.uniform(0.5, 1.5, (q, k))
    t = transform_stage(DataBatch(y), ErrorBatch(s), kernel, np.ones(k))
    table = _loop_table(kernel, y, s)
    tol = 1e-14 * np.abs(table).max()
    assert np.abs(t.centres - table.mean(axis=0)).max() <= tol
    assert np.abs(t.replicate_means - table.mean(axis=1)).max() <= tol


def test_transform_nu_length_must_match():
    with pytest.raises(DomainError):
        transform_stage(_batch(), _shared_errors(), ADDITIVE, np.zeros(3))


def test_transform_broadcasts_kernel_that_ignores_data():
    # f(y, s) = s returns one row for all J data vectors; the stage still
    # reports J nominals and J replicate means, so the combine sees J > 1
    kernel = ScalarKernel("custom", fn=lambda y, s: s)
    data = DataBatch(np.array([[1.0], [2.0], [4.0]]))
    errors = _shared_errors(q=4, k=1, seed=12)
    t = transform_stage(data, errors, kernel, np.ones(1))
    assert t.nominals.shape == (3, 1)
    assert t.replicate_means.shape == (3, 1)
    assert np.allclose(t.centres, errors.rows)
    assert np.allclose(t.replicate_means, errors.rows.mean())
    t.nominals[0, 0] = 1.0  # a real array, not a read-only broadcast view
    out = combine_current(t, RngStream(1))
    assert np.array_equal(out.input_cov, np.zeros((1, 1)))


@pytest.mark.parametrize("stacked", [False, True])
def test_transform_rejects_non_finite_kernel_output(stacked):
    kernel = ScalarKernel("custom", fn=lambda y, s: np.log(y) * s)
    rows = np.array([[1.0], [2.0], [-3.0], [-1.0]])
    errors = np.ones((2, 1))
    if stacked:
        rows = np.stack([rows[[0, 1, 1, 1]], rows])
        errors = np.stack([errors, errors])
    with np.errstate(invalid="ignore"), pytest.raises(DomainError) as info:
        transform_stage(DataBatch(rows), ErrorBatch(errors), kernel, np.ones(1))
    message = str(info.value)
    assert "custom kernel" in message
    assert "data row 2" in message
    assert ("batch (1,)" in message) == stacked


def test_transform_accepts_finite_output_whose_sum_overflows():
    # the 3 x 4 replicate table sums to 4.8e308, but every mean is finite,
    # on the factored path and on the tensor path
    data = DataBatch(np.full((3, 1), 4e307))
    for kernel in (MULTIPLICATIVE, TWIN[MULTIPLICATIVE.kind]):
        t = transform_stage(data, ErrorBatch(np.ones((4, 1))), kernel, np.ones(1))
        assert np.all(t.nominals == 4e307)
        assert np.allclose(t.centres, 4e307, rtol=1e-15)
        assert np.allclose(t.replicate_means, 4e307, rtol=1e-15)


@pytest.mark.parametrize(
    "kernel, what",
    [(MULTIPLICATIVE, "replicate centres at error draw 0"),
     (TWIN[MULTIPLICATIVE.kind], "replicate means at data row 0")],
    ids=["factored", "tensor"],
)
def test_transform_rejects_an_overflowing_mean(kernel, what):
    # every kernel value is 1e308, but a mean of three or four overflows
    data = DataBatch(np.full((3, 1), 1e308))
    with pytest.raises(DomainError) as info:
        transform_stage(data, ErrorBatch(np.ones((4, 1))), kernel, np.ones(1))
    assert str(info.value) == f"{kernel.kind} kernel gave non-finite {what}"


def test_transform_rejects_mismatched_leading_axes():
    data = DataBatch(np.ones((2, 3, 1)))
    errors = ErrorBatch(np.ones((3, 4, 1)))
    with pytest.raises(DomainError):
        transform_stage(data, errors, ADDITIVE, np.zeros(1))


# --------------------------------------------------------------------------
# combine stage


def test_combine_nominal_is_row_mean():
    data = _batch(j=5, k=2, seed=7)
    t = transform_stage(data, _shared_errors(seed=8), ADDITIVE, np.zeros(2))
    assert np.allclose(combine_nominal(t), t.nominals.mean(axis=0))


def test_combine_with_zero_noise_returns_replicate_means():
    data = _batch(j=4, k=2, seed=9)
    t = transform_stage(data, _shared_errors(q=6, seed=10), MULTIPLICATIVE, np.zeros(2))
    z = np.zeros((6, 2))
    out = combine_with_noise(t, z, "current")
    assert np.array_equal(out.replicates, t.centres)
    table = data.rows[:, None, :] * _shared_errors(q=6, seed=10).rows[None, :, :]
    assert np.allclose(out.replicates, table.mean(axis=0))


def test_combine_current_covariance_identity():
    # with unit noise rows the synthesized covariance contribution is known:
    # replicates = mean + z @ factor.T / sqrt(J) where factor factor^T = cov(nominals)
    data = _batch(j=6, k=2, seed=11)
    t = transform_stage(data, _shared_errors(q=4, seed=12), ADDITIVE, np.zeros(2))
    z = np.eye(4, 2)
    out = combine_with_noise(t, z, "current")
    spread = out.replicates - t.centres
    cov = sample_covariance(t.nominals)
    # rows of spread are rows of factor.T / sqrt(J); their gram recovers cov/J
    gram = spread[:2].T @ spread[:2]
    assert np.allclose(gram, cov / 6.0, atol=1e-12)


def test_combine_alternative_uses_replicate_means():
    data = _batch(j=5, k=2, seed=13)
    t = transform_stage(data, _shared_errors(q=5, seed=14), MULTIPLICATIVE, np.zeros(2))
    out = combine_with_noise(t, np.zeros((5, 2)), "alternative")
    table = data.rows[:, None, :] * _shared_errors(q=5, seed=14).rows[None, :, :]
    assert np.allclose(out.input_cov, sample_covariance(table.mean(axis=1)))
    assert np.array_equal(out.input_cov, sample_covariance(t.replicate_means))


def test_combine_current_input_cov_is_nominal_cov():
    data = _batch(j=5, k=3, seed=15)
    t = transform_stage(data, _shared_errors(q=4, k=3, seed=16), ADDITIVE, np.zeros(3))
    out = combine_current(t, RngStream(0))
    assert np.allclose(out.input_cov, sample_covariance(t.nominals))
    assert out.construction == "current"


def test_combine_alternative_needs_two_error_draws():
    data = _batch(j=3, k=1, seed=17)
    errors = ErrorBatch(np.ones((1, 1)))
    t = transform_stage(data, errors, ADDITIVE, np.zeros(1))
    with pytest.raises(DomainError):
        combine_alternative(t, RngStream(0))


def test_combine_is_deterministic_per_stream():
    data = _batch(j=4, k=2, seed=18)
    t = transform_stage(data, _shared_errors(q=8, seed=19), ADDITIVE, np.zeros(2))
    a = combine_current(t, RngStream(21))
    b = combine_current(t, RngStream(21))
    assert np.array_equal(a.replicates, b.replicates)


def test_combine_json_dict_round_trips_through_lists():
    data = _batch(j=4, k=2, seed=20)
    t = transform_stage(data, _shared_errors(q=3, seed=21), ADDITIVE, np.zeros(2))
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
    acc = np.empty(trials)
    for t_idx in range(trials):
        sub = root.substream(t_idx)
        data = DataBatch(sample(y_dist, j, sub.substream(0)))
        errors = ErrorBatch(sample(s_dist, q, sub.substream(1)))
        t = transform_stage(data, errors, ADDITIVE, np.zeros(1))
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
    grand = np.empty((trials, 2))
    for t_idx in range(trials):
        sub = root.substream(t_idx)
        data = DataBatch(sample(y_dist, j, sub.substream(0)))
        errors = ErrorBatch(sample(s_dist, q, sub.substream(1)))
        t = transform_stage(data, errors, MULTIPLICATIVE, s_dist.mean_vector())
        out = combine_alternative(t, sub.substream(2))
        grand[t_idx] = out.replicates.mean(axis=0)
    expected = y_dist.mean_vector() * s_dist.mean_vector()
    se = grand.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(grand.mean(axis=0) - expected) < 3.0 * se)


@pytest.mark.parametrize("kernel", [PHASE, TWIN["phase"]], ids=lambda kernel: kernel.kind)
@pytest.mark.parametrize("construction", ["current", "alternative"])
def test_stacked_combine_equals_per_batch_loop(kernel, construction):
    # K = 3 with components correlated by a linear map of the draws: every
    # leading index is an independent pipeline run, through the factored path
    # (phase) and the replicate tensor (its twin)
    rng = np.random.default_rng(20)
    t_count, j, q, k = 5, 4, 6, 3
    rows = rng.standard_normal((t_count, j, k))
    errors = rng.standard_normal((t_count, q, k))
    z = rng.standard_normal((t_count, q, k))
    nu = np.array([0.1, 0.0, -0.3])
    t_y, t_s = rng.standard_normal((k, k)), np.eye(k) * 0.5
    rows, errors, nu = rows @ t_y.T, errors @ t_s.T, t_s @ nu
    t = transform_stage(DataBatch(rows), ErrorBatch(errors), kernel, nu)
    out = combine_with_noise(t, z, construction)
    assert out.replicates.shape == (t_count, q, k)
    for i in range(t_count):
        one_t = transform_stage(DataBatch(rows[i]), ErrorBatch(errors[i]), kernel, nu)
        one = combine_with_noise(one_t, z[i], construction)
        assert np.array_equal(t.nominals[i], one_t.nominals)
        assert np.array_equal(t.centres[i], one_t.centres)
        assert np.array_equal(t.replicate_means[i], one_t.replicate_means)
        assert np.array_equal(out.nominal[i], one.nominal)
        assert np.array_equal(out.input_cov[i], one.input_cov)
        assert np.array_equal(out.replicates[i], one.replicates)
