import concurrent.futures
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mcombine import experiments, pipeline
from mcombine.analytics import (
    ScalarScenario,
    bias_factor_current,
    mean_variance_gap,
    relbias_current,
    synthesis_input_variance_gap,
)
from mcombine.exceptions import DomainError
from mcombine.experiments import (
    EstimateResult,
    ExperimentConfig,
    MapSpec,
    _draw_y_s,
    _draw_z,
    _run_blocks,
    bias_factor_current_oracle,
    estimate_combine_bias,
    estimate_mean_variance,
    estimate_target_variance_oracle,
    estimate_vardiff,
    relbias_current_oracle,
    run_map,
    verify_lemma,
)
from mcombine.linalg import cross_covariance, sample_covariance
from mcombine.models import (
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    ScalarKernel,
    TwoPoint,
    Uniform,
    kernel_eval,
)
from mcombine.pipeline import DataBatch, ErrorBatch, combine_with_noise, transform_stage
from mcombine.rng import RngStream

STD_NORMAL = Normal(mean=[0.0], cov=[[1.0]])


def mult_standard(j=4, q=10):
    return ScalarScenario(kernel=MULTIPLICATIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=j, q=q)


def additive_standard(j=4, q=10):
    return ScalarScenario(kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=j, q=q)


def phase_extremal(j=4, q=50):
    return ScalarScenario(
        kernel=PHASE,
        y_dist=TwoPoint(a=[-math.pi / 2.0], b=[math.pi / 2.0], p=0.5),
        s_dist=Uniform(lo=[-math.pi], hi=[math.pi]),
        j=j,
        q=q,
    )


def exponential_scenario(b=8.0, alpha=0.95, j=4, q=10):
    return ScalarScenario(
        kernel=EXPONENTIAL,
        y_dist=Uniform(lo=[0.0], hi=[b]),
        s_dist=Uniform(lo=[1.0 - alpha], hi=[1.0 + alpha]),
        j=j,
        q=q,
    )


def cfg_bias(scenario, construction="current", trials=10_000, seed=0, **kw):
    return ExperimentConfig(
        estimand=f"combine_bias_{construction}",
        trials=trials,
        scenario=scenario,
        master_seed=seed,
        **kw,
    )


# --------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_estimand():
    with pytest.raises(DomainError, match="unknown estimand"):
        ExperimentConfig(estimand="everything", trials=100, scenario=mult_standard())


def test_config_requires_scenario_for_mc_estimands():
    with pytest.raises(DomainError, match="requires a scenario"):
        ExperimentConfig(estimand="combine_bias_current", trials=100)


def test_config_needs_q_at_least_two_for_combine():
    with pytest.raises(DomainError, match="Q >= 2"):
        ExperimentConfig(estimand="mean_variance", trials=100, scenario=mult_standard(q=1))


def test_config_rejects_tiny_trials():
    # below 100 trials the standard errors are too noisy to read z as normal
    for trials in (1, 2, 3, 4, 99):
        with pytest.raises(DomainError, match="at least 100 trials"):
            ExperimentConfig(estimand="combine_bias_current", trials=trials, scenario=mult_standard())
    ExperimentConfig(estimand="combine_bias_current", trials=100, scenario=mult_standard())


@pytest.mark.parametrize(
    "estimand, j, q, block_size",
    [
        ("combine_bias_current", 4, 10**9, 1024),  # block_size * Q draws
        ("mean_variance", 2**16, 2**12, 1),  # one trial's J * Q tensor
        ("target_variance_oracle", 10**9, 10, 1024),  # block_size * J draws
    ],
)
def test_config_refuses_arrays_over_the_size_bound(estimand, j, q, block_size):
    # refused when built, before anything is drawn or allocated
    scenario = additive_standard(j=j, q=q)
    with pytest.raises(DomainError) as info:
        ExperimentConfig(estimand=estimand, trials=100, scenario=scenario, block_size=block_size)
    message = str(info.value)
    for part in (f"Q = {q}", f"J = {j}", f"block size {block_size}", "1 GiB"):
        assert part in message


@pytest.mark.parametrize("estimand", ["combine_bias_current", "lemma_check"])
def test_config_refuses_more_trials_than_the_size_bound(estimand):
    # up to eight per-trial values (lemmas 2 and 3) are held until the
    # blocks are joined; the lemma config is checked before its early return
    scenario = None if estimand == "lemma_check" else additive_standard()
    most = pipeline._MAX_ELEMS // 8
    ExperimentConfig(estimand=estimand, trials=most, scenario=scenario, lemma_id=2)
    with pytest.raises(DomainError, match=f"{most + 1} trials .*1 GiB"):
        ExperimentConfig(estimand=estimand, trials=most + 1, scenario=scenario, lemma_id=2)


def test_config_lemma_id_bounds():
    with pytest.raises(DomainError):
        ExperimentConfig(estimand="lemma_check", trials=100, lemma_id=6)


def test_result_zscore_definition():
    r = EstimateResult(point=1.5, std_error=0.25, trials=10, analytic_reference=1.0)
    assert r.z_score == (r.point - r.analytic_reference) / r.std_error
    bare = EstimateResult(point=1.0, std_error=0.1, trials=10)
    with pytest.raises(DomainError):
        bare.max_abs_z()
    # the z-score is derived from the result's own fields
    assert bare.z_score is None and bare.to_json_dict()["z_score"] is None
    exact = EstimateResult(point=0.5, std_error=0.0, trials=10, analytic_reference=0.5)
    assert (exact.z_score, exact.max_abs_z()) == (0.0, 0.0)
    miss = EstimateResult(point=0.5, std_error=0.0, trials=10, analytic_reference=0.25)
    assert miss.z_score == math.inf
    arr = EstimateResult(
        point=np.array([[1.5, 2.0], [3.0, 0.0]]),
        std_error=np.array([[0.25, 0.0], [0.0, 0.5]]),
        trials=10,
        analytic_reference=np.array([[1.0, 2.0], [1.0, 1.0]]),
    )
    assert arr.z_score.tolist() == [[2.0, 0.0], [math.inf, -2.0]]
    assert arr.to_json_dict()["z_score"] == [[2.0, 0.0], [math.inf, -2.0]]
    assert arr.max_abs_z() == math.inf


# --------------------------------------------------------------------------
# determinism and scheduling invariance


def test_identical_config_bitwise_identical_result():
    cfg = cfg_bias(mult_standard(), "alternative", trials=4_000, seed=12)
    a = estimate_combine_bias(cfg)
    b = estimate_combine_bias(cfg)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_worker_count_does_not_change_results():
    base = dict(trials=6_000, seed=3, block_size=512)
    serial = estimate_combine_bias(cfg_bias(mult_standard(), "current", **base, workers=1))
    pooled = estimate_combine_bias(cfg_bias(mult_standard(), "current", **base, workers=4))
    assert json.dumps(serial.to_json_dict()) == json.dumps(pooled.to_json_dict())


def test_worker_count_invariance_for_lemmas_and_vardiff():
    lemma_kw = dict(estimand="lemma_check", trials=4_000, master_seed=5, lemma_id=2)
    a = verify_lemma(ExperimentConfig(**lemma_kw, workers=1))
    b = verify_lemma(ExperimentConfig(**lemma_kw, workers=3))
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    vd = dict(estimand="vardiff_reldiff", trials=4_000, scenario=mult_standard(), master_seed=6)
    c = estimate_vardiff(ExperimentConfig(**vd, workers=1))
    d = estimate_vardiff(ExperimentConfig(**vd, workers=2))
    assert json.dumps(c.to_json_dict()) == json.dumps(d.to_json_dict())


def test_per_trial_draws_are_fixed_by_trial_index():
    # extending the trial count must not disturb earlier trials' statistics
    current = (experiments._combine_block, ("current",), False)
    short = _run_blocks(cfg_bias(mult_standard(), "current", trials=700, seed=9, block_size=256), *current)
    longer = _run_blocks(cfg_bias(mult_standard(), "current", trials=1_500, seed=9, block_size=256), *current)
    assert np.array_equal(short[0], longer[0][:700])


def test_salt_separates_sweep_points():
    a = estimate_combine_bias(cfg_bias(mult_standard(), "current", trials=2_000, seed=1, salt=0))
    b = estimate_combine_bias(cfg_bias(mult_standard(), "current", trials=2_000, seed=1, salt=1))
    assert a.point != b.point


# --------------------------------------------------------------------------
# estimators versus analytic references


def test_combine_bias_alternative_tracks_one_over_q():
    res = estimate_combine_bias(cfg_bias(mult_standard(q=100), "alternative", trials=10_000, seed=42))
    assert res.analytic_reference == pytest.approx(0.01, rel=1e-12)
    assert abs(res.z_score) <= 3.0


def test_combine_bias_additive_is_unbiased():
    for construction in ("current", "alternative"):
        res = estimate_combine_bias(
            cfg_bias(additive_standard(j=3, q=6), construction, trials=8_000, seed=7)
        )
        assert res.analytic_reference == 0.0
        assert abs(res.z_score) <= 3.0


def test_combine_bias_phase_extremal_is_two():
    res = estimate_combine_bias(cfg_bias(phase_extremal(), "current", trials=20_000, seed=2))
    assert res.analytic_reference == pytest.approx(2.0)
    assert abs(res.z_score) <= 3.0


def test_combine_bias_exponential_has_mc_reference():
    # psi < 0 for b=8: the current construction underestimates
    res = estimate_combine_bias(cfg_bias(exponential_scenario(), "current", trials=20_000, seed=4))
    assert res.analytic_reference < 0.0
    assert abs(res.z_score) <= 3.0


@pytest.mark.parametrize(
    "y_dist",
    [
        Uniform(lo=[0.0], hi=[0.0]),
        TwoPoint(a=[0.0], b=[0.0]),
        Normal(mean=[0.0], cov=[[0.0]]),
    ],
    ids=["uniform", "two_point", "normal"],
)
def test_combine_bias_exponential_zero_point_mass_fails_fast(y_dist):
    # data stuck at 0 give f = 0 under y**s, so the target variance is 0
    sc = ScalarScenario(
        kernel=EXPONENTIAL, y_dist=y_dist, s_dist=Uniform(lo=[0.05], hi=[1.95]), j=4, q=10
    )
    with pytest.raises(DomainError):
        estimate_combine_bias(cfg_bias(sc, "current", trials=1_000))


def test_combine_bias_exponential_samples_an_atom_at_zero_as_given():
    # the named kernel and an opaque y**s twin see the same draws, zeros included
    y_dist, s_dist = TwoPoint(a=[0.0], b=[2.0]), Uniform(lo=[0.05], hi=[1.95])
    twin = ScalarKernel("custom", fn=lambda y, s: y**s)
    named, custom = (
        estimate_combine_bias(
            cfg_bias(ScalarScenario(kernel=kernel, y_dist=y_dist, s_dist=s_dist, j=4, q=10),
                     trials=2_000, seed=3)
        )
        for kernel in (EXPONENTIAL, twin)
    )
    assert named.point == custom.point and named.std_error == custom.std_error
    assert named.extras == custom.extras


def test_combine_bias_custom_kernel_uses_oracle_target():
    # additive twin expressed as an opaque callable: no closed forms anywhere
    twin = ScalarKernel("custom", fn=lambda y, s: y + s)
    sc = ScalarScenario(kernel=twin, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=10)
    res = estimate_combine_bias(cfg_bias(sc, "current", trials=20_000, seed=8))
    assert res.analytic_reference is None
    assert res.extras["target_variance"] == pytest.approx(1.0 / 4.0 + 1.0, rel=0.05)
    # unbiased like its named twin: the point estimate sits near zero
    assert abs(res.point) <= 4.0 * res.std_error


def test_combine_bias_custom_kernel_ignoring_data():
    # f(y, s) = s: every data vector gives the same transform, so the
    # nominal spread is exactly zero and the current construction is unbiased
    sc = ScalarScenario(
        kernel=ScalarKernel("custom", fn=lambda y, s: s), y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=3, q=10
    )
    res = estimate_combine_bias(cfg_bias(sc, "current", trials=4_000, seed=9))
    assert np.isfinite(res.point)
    assert res.extras["target_variance"] == pytest.approx(1.0, rel=0.1)
    assert abs(res.point) <= 4.0 * res.std_error


def test_combine_bias_non_finite_custom_kernel_fails():
    log_kernel = ScalarKernel("custom", fn=lambda y, s: np.log(y) * s)
    sc = ScalarScenario(kernel=log_kernel, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=3, q=10)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="custom kernel.*data row"):
        estimate_combine_bias(cfg_bias(sc, "current", trials=1_000))


ZERO_TARGET = "target variance is not positive (0.0); relative bias undefined"


def test_combine_bias_zero_analytic_target_fails_before_sampling(monkeypatch):
    # V[f] = 0 when the data law is a point mass at 0 under f(y, s) = y*s
    point_mass = Normal(mean=[0.0], cov=[[0.0]])
    sc = ScalarScenario(kernel=MULTIPLICATIVE, y_dist=point_mass, s_dist=STD_NORMAL, j=4, q=3)
    with pytest.raises(DomainError) as analytic:
        relbias_current(sc)

    def no_blocks(*args, **kwargs):
        raise AssertionError("sampled before checking the target variance")

    monkeypatch.setattr(experiments, "_run_blocks", no_blocks)
    with pytest.raises(DomainError) as harness:
        estimate_combine_bias(cfg_bias(sc, "current", trials=100))
    assert str(harness.value) == str(analytic.value) == ZERO_TARGET


def test_combine_bias_zero_oracle_target_fails():
    # no closed form for a custom kernel, and the oracle's batch means are all 0
    zero = ScalarKernel("custom", fn=lambda y, s: 0.0 * (y + s))
    sc = ScalarScenario(kernel=zero, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=3)
    with pytest.raises(DomainError) as harness:
        estimate_combine_bias(cfg_bias(sc, "alternative", trials=100))
    assert str(harness.value) == ZERO_TARGET


class _PoolSizes(list):
    """Each pool's size; ``payloads`` holds each pool's list of map payloads."""

    def __init__(self):
        super().__init__()
        self.payloads = []


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces ProcessPoolExecutor: records each pool's size and the
    payloads it maps, runs in-process."""
    sizes = _PoolSizes()

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            sizes.payloads.append(list(payloads))
            return list(map(fn, sizes.payloads[-1]))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_each_worker_runs_one_contiguous_run_of_blocks(recording_pool, monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(
        estimand="mean_variance", trials=1_000, scenario=mult_standard(), block_size=64, workers=3
    )
    args = (experiments._combine_block, ("current", "alternative"), True)
    pooled = _run_blocks(cfg, *args)
    assert recording_pool == [3]
    (runs,) = recording_pool.payloads
    assert len(runs) == 3
    assert all(isinstance(r, range) and r.step == 1 and len(r) > 0 for r in runs)
    assert [b for r in runs for b in r] == list(range(16))  # every block once, in order
    assert max(map(len, runs)) - min(map(len, runs)) <= 1
    serial = _run_blocks(replace(cfg, workers=1), *args)
    assert recording_pool == [3]
    assert len(pooled) == len(serial) == 2
    for p, s in zip(pooled, serial):
        assert p.shape == (1_000,) and p.tobytes() == s.tobytes()


def test_pool_is_bounded_by_cpu_count(recording_pool, monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(
        estimand="vardiff_reldiff", trials=640, scenario=mult_standard(), block_size=64, workers=10_000
    )
    pooled = estimate_vardiff(cfg)
    assert recording_pool == [3]
    serial = estimate_vardiff(replace(cfg, workers=1))
    assert recording_pool == [3]
    assert json.dumps(pooled.to_json_dict()) == json.dumps(serial.to_json_dict())
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)  # unknown: run serially
    assert json.dumps(estimate_vardiff(cfg).to_json_dict()) == json.dumps(serial.to_json_dict())
    assert recording_pool == [3]


def test_embedded_oracle_runs_on_the_pool(recording_pool, monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    twin = ScalarKernel("custom", fn=lambda y, s: y + s)
    sc = ScalarScenario(kernel=twin, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=10)
    cfg = cfg_bias(sc, "current", trials=1_000, seed=8, block_size=256, workers=2)
    pooled = estimate_combine_bias(cfg)
    assert recording_pool == [2]  # one pass estimates the statistic and the target
    serial = estimate_combine_bias(replace(cfg, workers=1))
    assert json.dumps(pooled.to_json_dict()) == json.dumps(serial.to_json_dict())
    # the target is the variance of the trials' first replicate centres
    draws = [_draw_y_s(cfg, b) for b in range(4)]
    fbar = np.concatenate([(y + s[:, :1]).mean(axis=1) for y, s in draws])
    assert pooled.extras["target_variance"] == pytest.approx(fbar.var(ddof=1), rel=1e-12)


#: Custom twins of two named kernels: the same values, but no analytic
#: target, so the bias estimate takes its target from the trials.
TARGET_FROM_TRIALS = {
    "mult": replace(mult_standard(j=4, q=10), kernel=ScalarKernel("custom", fn=lambda y, s: y * s)),
    "phase": replace(phase_extremal(j=4, q=10),
                     kernel=ScalarKernel("custom", fn=lambda y, s: np.sin(y + s))),
}


@pytest.mark.parametrize("scenario", TARGET_FROM_TRIALS.values(), ids=TARGET_FROM_TRIALS)
def test_bias_standard_errors_with_a_target_from_the_trials_are_calibrated(scenario):
    # 200 independent runs: the mean SE of the ratio, whose numerator and
    # denominator come from the same trials, matches the spread of the points
    runs = [estimate_combine_bias(cfg_bias(scenario, trials=2_000, seed=20261020, salt=salt))
            for salt in range(200)]
    assert {r.analytic_reference for r in runs} == {None}
    points = np.array([r.point for r in runs])
    ses = np.array([r.std_error for r in runs])
    assert 0.8 <= points.std(ddof=1) / ses.mean() <= 1.2


@pytest.mark.parametrize("scenario", [mult_standard(q=30), phase_extremal(q=30),
                                      exponential_scenario(q=30)], ids=["mult", "phase", "exponential"])
def test_target_oracle_draws_one_error_per_trial(scenario, monkeypatch):
    # whatever the scenario's Q, a trial draws J data values and one error,
    # from the error stream of its block, and averages f over its batch; the
    # partial last block draws only its own 100 trials' values, the first
    # values of the streams a full block would draw
    drawn = []
    sample = experiments.models.sample

    def recording_sample(spec, n, stream):
        drawn.append((spec, n))
        return sample(spec, n, stream)

    monkeypatch.setattr(experiments.models, "sample", recording_sample)
    cfg = ExperimentConfig(estimand="target_variance_oracle", trials=700, scenario=scenario,
                           master_seed=9, block_size=300)
    res = estimate_target_variance_oracle(cfg)
    j = scenario.j
    assert drawn == [(law, rows * n) for rows in (300, 300, 100)
                     for law, n in ((scenario.y_dist, j), (scenario.s_dist, 1))]
    fbar, root = [], RngStream(9)
    for b in range(3):
        y = sample(scenario.y_dist, 300 * j, root.substream(0, 0, b, 0)).reshape(300, j)
        s = sample(scenario.s_dist, 300, root.substream(0, 0, b, 1)).reshape(300, 1)
        fbar.append(kernel_eval(scenario.kernel, y, s).mean(axis=1)[: 700 - 300 * b])
    fbar = np.concatenate(fbar)
    assert res.trials == 700
    assert res.point == pytest.approx(fbar.var(ddof=1), rel=1e-12)
    assert res.extras["mean"] == pytest.approx(fbar.mean(), rel=1e-12, abs=1e-12)


HARNESS_CONSTRUCTIONS = {
    "combine_bias_current": ("current",),
    "vardiff_reldiff": ("current", "alternative"),
    "mean_variance": ("current", "alternative"),
}


@pytest.mark.parametrize(
    "scenario",
    [phase_extremal(j=3, q=7), mult_standard(j=5, q=4), exponential_scenario(j=3, q=6)],
    ids=["phase", "mult", "exponential"],
)
@pytest.mark.parametrize("estimand", sorted(HARNESS_CONSTRUCTIONS))
@pytest.mark.parametrize("tensor_elems", [None, 50], ids=["one_chunk", "row_chunks"])
def test_harness_statistic_is_the_pipeline_combine(scenario, estimand, tensor_elems, monkeypatch):
    # one trial of the harness == one 2-D pipeline run on that trial's draws;
    # the exponential kernel's row chunks run through the replicate tensor
    if tensor_elems is not None:
        monkeypatch.setattr(pipeline, "_TENSOR_ELEMS", tensor_elems)
    cfg = ExperimentConfig(estimand=estimand, trials=700, scenario=scenario, master_seed=3, block_size=300)
    constructions = HARNESS_CONSTRUCTIONS[estimand]
    per_trial = _run_blocks(cfg, experiments._combine_block, constructions, estimand == "mean_variance")
    nu = scenario.s_dist.mean_vector()
    for trial in (0, 1, 299, 300, 650, 699):
        block, row = divmod(trial, cfg.block_size)
        y, s = _draw_y_s(cfg, block)
        z = _draw_z(cfg, block)
        t = transform_stage(DataBatch(y[row][:, None]), ErrorBatch(s[row][:, None]), scenario.kernel, nu)
        assert len(per_trial) == len(HARNESS_CONSTRUCTIONS[estimand])
        for construction, stat in zip(HARNESS_CONSTRUCTIONS[estimand], per_trial):
            m = combine_with_noise(t, z[row][:, None], construction).replicates[:, 0]
            want = m.mean() if estimand == "mean_variance" else m.var(ddof=1)
            assert stat[trial] == want


def test_target_oracle_examples():
    res = estimate_target_variance_oracle(
        ExperimentConfig(estimand="target_variance_oracle", trials=40_000, scenario=mult_standard(), master_seed=1)
    )
    assert res.analytic_reference == pytest.approx(0.25)
    assert abs(res.z_score) <= 3.0

    res = estimate_target_variance_oracle(
        ExperimentConfig(estimand="target_variance_oracle", trials=40_000, scenario=phase_extremal(), master_seed=2)
    )
    assert res.analytic_reference == pytest.approx(0.125)
    assert abs(res.z_score) <= 3.0

    res = estimate_target_variance_oracle(
        ExperimentConfig(estimand="target_variance_oracle", trials=40_000, scenario=additive_standard(), master_seed=3)
    )
    assert res.analytic_reference == pytest.approx(1.25)
    assert abs(res.z_score) <= 3.0


def test_target_oracle_reads_only_the_scenario():
    # any Monte Carlo config with a scenario gives the same oracle estimate
    kw = dict(trials=1_000, scenario=mult_standard(), master_seed=4)
    own = estimate_target_variance_oracle(ExperimentConfig(estimand="target_variance_oracle", **kw))
    other = estimate_target_variance_oracle(ExperimentConfig(estimand="vardiff_reldiff", **kw))
    assert json.dumps(own.to_json_dict()) == json.dumps(other.to_json_dict())
    lemma = ExperimentConfig(estimand="lemma_check", trials=100, lemma_id=1)
    with pytest.raises(DomainError, match="requires a scenario"):
        estimate_target_variance_oracle(lemma)


def test_mean_variance_additive_no_gap():
    res = estimate_mean_variance(
        ExperimentConfig(estimand="mean_variance", trials=20_000, scenario=additive_standard(), master_seed=5)
    )
    assert res.analytic_reference == 0.0
    assert abs(res.z_score) <= 3.0


def test_mean_variance_multiplicative_gap():
    res = estimate_mean_variance(
        ExperimentConfig(estimand="mean_variance", trials=60_000, scenario=mult_standard(j=4, q=10), master_seed=6)
    )
    assert res.analytic_reference == pytest.approx(-1.0 / 400.0, rel=1e-12)
    assert abs(res.z_score) <= 3.0


def test_mean_variance_phase_gap_cross_check():
    sc = phase_extremal(j=4, q=50)
    res = estimate_mean_variance(
        ExperimentConfig(estimand="mean_variance", trials=60_000, scenario=sc, master_seed=7)
    )
    assert res.analytic_reference == pytest.approx(mean_variance_gap(sc), rel=1e-9)
    assert abs(res.z_score) <= 3.0


def test_vardiff_additive_is_rounding_noise():
    res = estimate_vardiff(
        ExperimentConfig(estimand="vardiff_reldiff", trials=20_000, scenario=additive_standard(q=5), master_seed=8)
    )
    # the two constructions coincide analytically; only float noise remains
    assert abs(res.point) <= 3.0 * res.std_error + 1e-12


def test_rounding_noise_points_are_exactly_zero():
    # `vardiff --model additive --q 5 --seed 5 --trials 20000` once reported
    # a reldiff of -1.33e-16 with SE 5.97e-18, z = -22, from rounding alone
    cfg = ExperimentConfig(estimand="vardiff_reldiff", trials=20_000, scenario=additive_standard(q=5), master_seed=5)
    res = estimate_vardiff(cfg)
    assert (res.point, res.std_error, res.z_score) == (0.0, 0.0, 0.0)
    assert (res.extras["var_diff_alternative_minus_current"], res.extras["var_diff_se"]) == (0.0, 0.0)
    res = estimate_mean_variance(replace(cfg, estimand="mean_variance"))
    assert (res.point, res.std_error, res.z_score) == (0.0, 0.0, 0.0)


def test_vardiff_of_two_constant_statistics_is_zero():
    # a constant kernel gives both constructions zero-variance replicates in
    # every trial: V[S²] is 0 for both, and their relative difference 0/0 is
    # reported as 0 with SE 0, not as NaN
    constant = ScalarKernel("custom", fn=lambda y, s: 0.0 * (y + s) + 3.0)
    sc = ScalarScenario(kernel=constant, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=3)
    res = estimate_vardiff(ExperimentConfig(estimand="vardiff_reldiff", trials=200, scenario=sc, master_seed=2))
    assert (res.point, res.std_error, res.trials, res.analytic_reference) == (0.0, 0.0, 200, None)
    assert set(res.extras.values()) == {0.0}


@pytest.mark.parametrize(
    "scenario",
    [phase_extremal(q=5), mult_standard(q=5), exponential_scenario(q=5)],
    ids=["phase", "mult", "exponential"],
)
def test_real_differences_are_not_rounded_to_zero(scenario):
    cfg = ExperimentConfig(estimand="vardiff_reldiff", trials=2_000, scenario=scenario, master_seed=5)
    both = (experiments._combine_block, ("current", "alternative"))
    s2c, s2a = _run_blocks(cfg, *both, False)
    vc, va = s2c.var(ddof=1), s2a.var(ddof=1)
    res = estimate_vardiff(cfg)
    assert res.point == pytest.approx((vc - va) / (vc + va), rel=1e-12, abs=0.0)
    assert res.std_error > 0.0
    assert res.extras["var_diff_alternative_minus_current"] != 0.0
    assert res.extras["var_diff_se"] > 0.0
    cfg = replace(cfg, estimand="mean_variance")
    a, b = _run_blocks(cfg, *both, True)
    want = a.var(ddof=1) - b.var(ddof=1)
    res = estimate_mean_variance(cfg)
    assert res.point == pytest.approx(want, rel=1e-12, abs=0.0)
    assert res.std_error > 0.0


def test_vardiff_standard_errors_are_calibrated():
    # 200 independent runs of one scenario: the mean SE matches the spread
    # of the points, and the SE itself varies little from run to run
    runs = [
        estimate_vardiff(
            ExperimentConfig(
                estimand="vardiff_reldiff",
                trials=2_000,
                scenario=phase_extremal(j=4, q=10),
                master_seed=20261018,
                salt=salt,
            )
        )
        for salt in range(200)
    ]
    for point_of, se_of in (
        (lambda r: r.point, lambda r: r.std_error),
        (lambda r: r.extras["var_diff_alternative_minus_current"], lambda r: r.extras["var_diff_se"]),
    ):
        points = np.array([point_of(r) for r in runs])
        ses = np.array([se_of(r) for r in runs])
        assert 0.8 <= points.std(ddof=1) / ses.mean() <= 1.25
        assert ses.std(ddof=1) / ses.mean() < 0.08


def test_vardiff_multiplicative_matches_closed_form_at_nonzero_mean():
    # nu != 0 makes the 1/Q term dominate, where the large-Q form is accurate
    sc = ScalarScenario(
        kernel=MULTIPLICATIVE,
        y_dist=Normal(mean=[1.0], cov=[[1.0]]),
        s_dist=Normal(mean=[1.0], cov=[[0.5]]),
        j=4,
        q=100,
    )
    res = estimate_vardiff(
        ExperimentConfig(estimand="vardiff_reldiff", trials=60_000, scenario=sc, master_seed=9)
    )
    got = res.extras["var_diff_alternative_minus_current"]
    se = res.extras["var_diff_se"]
    assert abs(got - synthesis_input_variance_gap(sc) / sc.j**2) <= 3.0 * se


def test_vardiff_exponential_current_less_variable():
    res = estimate_vardiff(
        ExperimentConfig(estimand="vardiff_reldiff", trials=30_000, scenario=exponential_scenario(q=50), master_seed=10)
    )
    assert res.point < 0.0
    assert res.point + 3.0 * res.std_error < 0.0


# --------------------------------------------------------------------------
# lemma suite


def test_lemma1_with_common_term():
    res = verify_lemma(ExperimentConfig(estimand="lemma_check", trials=40_000, master_seed=11, lemma_id=1))
    assert res.max_abs_z() <= 3.5
    assert np.asarray(res.point).shape == (2, 2)


def test_lemmas_2_to_4_difference_near_zero():
    for lid in (2, 3, 4):
        res = verify_lemma(ExperimentConfig(estimand="lemma_check", trials=40_000, master_seed=12, lemma_id=lid))
        assert res.max_abs_z() <= 3.5, f"lemma {lid}"


@pytest.mark.parametrize("lid", [2, 3, 4])
def test_lemmas_2_to_4_take_point_and_se_from_one_pass(monkeypatch, lid):
    # the point is the mean of the influence values that give the SE; it
    # matches the whole-run (cross-)covariances without a second pass
    cfg = ExperimentConfig(estimand="lemma_check", trials=2_000, master_seed=12, lemma_id=lid)
    arrays = experiments._run_blocks(cfg, experiments._lemma_block, experiments._lemma_plan(cfg))
    if lid == 2:
        x, a, bbt = arrays
        whole_run = sample_covariance(x) - sample_covariance(a) - bbt.mean(axis=0)
    elif lid == 3:
        x1, x2, a1, a2 = arrays
        whole_run = cross_covariance(x1, x2) - cross_covariance(a1, a2)
    else:
        f1, f2, m = arrays
        whole_run = cross_covariance(f1, f2) - sample_covariance(m)

    def second_pass(*args):
        raise AssertionError("a whole-run covariance pass")

    monkeypatch.setattr(experiments, "sample_covariance", second_pass)
    monkeypatch.setattr(experiments, "cross_covariance", second_pass)
    res = verify_lemma(cfg)
    assert np.allclose(res.point, whole_run, rtol=0.0, atol=1e-12)
    assert res.max_abs_z() <= 5.0


def test_verify_lemma_refuses_a_config_of_another_estimand():
    cfg = ExperimentConfig(estimand="vardiff_reldiff", trials=100, scenario=mult_standard(), lemma_id=1)
    with pytest.raises(DomainError, match="not a lemma_check config"):
        verify_lemma(cfg)


def test_lemma5_formula_for_dispersed_means():
    for u2, n in ((0.0, 2), (2.0, 11), (0.5, 4)):
        res = verify_lemma(
            ExperimentConfig(
                estimand="lemma_check", trials=60_000, master_seed=13, lemma_id=5, lemma_u2=u2, lemma_n=n
            )
        )
        assert res.max_abs_z() <= 3.5, (u2, n)


# --------------------------------------------------------------------------
# analytic maps


def test_additive_map_is_identically_zero():
    spec = MapSpec(kernel=ADDITIVE, lo=0.0, hi=4.0, n=9)
    result = run_map(spec)
    assert np.allclose(result.values[np.triu_indices(spec.n)], 0.0)


def test_map_single_cell_equals_direct_call():
    spec = MapSpec(kernel=EXPONENTIAL, alpha=0.95, lo=2.0, hi=2.0, n=1)
    grid = run_map(spec)
    direct = bias_factor_current(
        ScalarScenario(
            kernel=EXPONENTIAL,
            y_dist=Uniform(lo=[2.0], hi=[2.0]),
            s_dist=Uniform(lo=[0.05], hi=[1.95]),
            j=2,
            q=2,
        )
    )
    assert grid.values[0, 0] == direct


def test_map_cells_match_direct_calls():
    spec = MapSpec(kernel=EXPONENTIAL, alpha=0.95, lo=0.0, hi=8.0, n=5, j=2)
    grid = run_map(spec, relative=True)
    for i, a in enumerate(grid.grid):
        for jdx, b in enumerate(grid.grid):
            if a > b:
                assert math.isnan(grid.values[i, jdx])
                continue
            sc = ScalarScenario(
                kernel=EXPONENTIAL,
                y_dist=Uniform(lo=[a], hi=[b]),
                s_dist=Uniform(lo=[0.05], hi=[1.95]),
                j=2,
                q=2,
            )
            try:
                expected = relbias_current(sc)
            except DomainError:
                assert math.isnan(grid.values[i, jdx])
                continue
            assert grid.values[i, jdx] == expected


def test_map_undefined_cells_are_nan():
    spec = MapSpec(kernel=EXPONENTIAL, alpha=0.95, lo=0.0, hi=1.0, n=2)
    grid = run_map(spec)
    # Unif[0, 0] is the point mass at zero, where k(0) = 0
    at_zero = ScalarScenario(kernel=EXPONENTIAL, y_dist=Uniform(lo=[0.0], hi=[0.0]),
                             s_dist=Uniform(lo=[0.05], hi=[1.95]), j=2, q=2)
    assert grid.values[0, 0] == bias_factor_current(at_zero) == 0.0
    assert math.isnan(grid.values[1, 0])  # below the diagonal


#: A dozen (i, k) cells of the default 0:8:161 grid: (0, 0), width-0.05
#: cells (1.55–1.6 and 4.7–4.75 straddle π/2 and 3π/2), diagonal cells and
#: wide ones.
DEFAULT_GRID_CELLS = ((0, 0), (0, 1), (31, 32), (62, 63), (94, 95), (100, 101), (159, 160),
                      (80, 80), (160, 160), (0, 160), (10, 150), (40, 120))


@pytest.mark.parametrize("relative", [False, True], ids=["psi_map", "relbias_map"])
@pytest.mark.parametrize("kernel", [PHASE, EXPONENTIAL, ADDITIVE, MULTIPLICATIVE],
                         ids=lambda kernel: kernel.kind)
def test_map_cells_are_the_direct_calls_bitwise(kernel, relative):
    # a < 0, a = 0, the diagonal, and a = b = 0 and (1, 1) (both zero
    # exponential targets) all sit on the small grid; a map row is one
    # array evaluation over endpoint terms taken once per grid value, or of
    # the closed-form target for additive and multiplicative, whose target
    # is 0 on Unif[0, 0]
    alpha = 0.95
    if kernel is EXPONENTIAL:
        s_dist = Uniform(lo=[1.0 - alpha], hi=[1.0 + alpha])
    elif kernel is PHASE:
        s_dist = Uniform(lo=[-alpha], hi=[alpha])
    else:
        s_dist = Normal(mean=[0.0], cov=[[1.0]])
    direct = relbias_current if relative else bias_factor_current

    def check(grid, i, k, j):
        # True when the direct call raises, and the cell is NaN
        a, b, got = grid.grid[i], grid.grid[k], grid.values[i, k]
        if a > b:
            assert math.isnan(got)
            return False
        sc = ScalarScenario(kernel=kernel, y_dist=Uniform(lo=[a], hi=[b]), s_dist=s_dist, j=j, q=2)
        try:
            want = direct(sc)
        except DomainError:
            assert math.isnan(got), (a, b)
            return True
        assert got == want, (a, b, got, want)
        return False

    grid = run_map(MapSpec(kernel=kernel, alpha=alpha, lo=-0.5, hi=2.0, n=6, j=3), relative=relative)
    raised = sum(check(grid, i, k, 3) for i in range(6) for k in range(6))
    zero_target = int(relative and kernel is MULTIPLICATIVE)  # the cell (0, 0)
    # exponential: the six cells of the row a = -0.5, and in the relbias map (0, 0) and (1, 1)
    assert raised == {EXPONENTIAL: 8 if relative else 6}.get(kernel, zero_target)
    grid = run_map(MapSpec(kernel=kernel, alpha=alpha), relative=relative)
    raised = sum(check(grid, i, k, 2) for i, k in DEFAULT_GRID_CELLS)
    # (0, 0) under exponential relbias
    assert raised == {EXPONENTIAL: int(relative)}.get(kernel, zero_target)


@pytest.mark.parametrize(
    "kernel, alpha",
    [(k, a) for k, alphas in ((EXPONENTIAL, (1.5, 0.0, -0.5, math.nan)),
                              (PHASE, (0.0, -1.0, math.inf, math.nan))) for a in alphas],
    ids=lambda v: v.kind if isinstance(v, ScalarKernel) else str(v),
)
def test_map_spec_rejects_alpha_outside_the_kernel_range(kernel, alpha):
    with pytest.raises(DomainError, match="alpha"):
        MapSpec(kernel=kernel, alpha=alpha)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_map_spec_rejects_non_finite_grid(lo, hi):
    # linspace would spread NaN or inf over the grid and write a garbage map
    with pytest.raises(DomainError, match="finite"):
        MapSpec(kernel=PHASE, lo=lo, hi=hi, n=3)


@pytest.mark.parametrize("lo, hi, n", [(1.0, 1.0, 3), (1.0, 1.0 + 2.0**-52, 4), (0.0, 5e-324, 3)])
def test_map_spec_refuses_repeated_grid_values(lo, hi, n):
    # a repeated value would write the same cell (a, b) more than once
    with pytest.raises(DomainError, match="strictly increasing"):
        MapSpec(kernel=PHASE, lo=lo, hi=hi, n=n)
    MapSpec(kernel=PHASE, lo=lo, hi=lo, n=1)


def test_map_spec_alpha_ranges_and_kernels():
    MapSpec(kernel=EXPONENTIAL, alpha=1.0)
    MapSpec(kernel=PHASE, alpha=4.0)
    MapSpec(kernel=ADDITIVE, alpha=7.0)  # standard normal errors; alpha unused
    with pytest.raises(DomainError, match="custom"):
        MapSpec(kernel=ScalarKernel("custom", fn=lambda y, s: y * s))


def test_map_memory_stays_one_row_at_a_time():
    # A full-grid (13,041 cells x 256 nodes) float tensor is 26.7 MB; one
    # row of the default exponential relbias map, with the two (161, 256)
    # endpoint-term tables, peaks at about 2.6 MB.
    spec = MapSpec(kernel=EXPONENTIAL)
    tracemalloc.start()
    try:
        run_map(spec, relative=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_separable_block_builds_no_replicate_tensor():
    # One (1024, 4, 300) float tensor is 9.8 MB; the phase kernel's block
    # holds a few (1024, 300) arrays at a time instead (about 7.6 MB).
    cfg = ExperimentConfig(
        estimand="vardiff_reldiff", trials=1024, scenario=phase_extremal(j=4, q=300), block_size=1024
    )
    tracemalloc.start()
    try:
        experiments._combine_block(cfg, 0, ("current", "alternative"), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 4 * 300 * 8, peak


# --------------------------------------------------------------------------
# Monte Carlo oracles for the quadrature paths


def test_psi_oracle_agrees_with_quadrature():
    sc = exponential_scenario(b=6.0, q=2)
    value, se = bias_factor_current_oracle(sc, 400_000, RngStream(14))
    assert abs(value - bias_factor_current(sc)) <= 3.0 * se


def test_psi_oracle_holds_few_arrays_of_its_draws():
    # the centred squares are formed in place: at 200,000 draws the traced
    # peak stays under five arrays of the draws' size (it was 11.9 MB, seven
    # and a half, when each step made a new array)
    sc = exponential_scenario(b=6.0, q=2)
    draws = 200_000
    tracemalloc.start()
    try:
        bias_factor_current_oracle(sc, draws, RngStream(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * draws * 8, peak


def test_psi_oracle_phase():
    sc = ScalarScenario(
        kernel=PHASE, y_dist=Uniform(lo=[-1.0], hi=[2.0]), s_dist=Uniform(lo=[-0.8], hi=[0.8]), j=3, q=2
    )
    value, se = bias_factor_current_oracle(sc, 400_000, RngStream(15))
    assert abs(value - bias_factor_current(sc)) <= 3.0 * se


def test_relbias_oracle_agrees_with_quadrature():
    sc = exponential_scenario(b=8.0, alpha=0.95, j=2, q=2)
    value, se = relbias_current_oracle(sc, 400_000, RngStream(16))
    assert abs(value - relbias_current(sc)) <= 3.0 * se


# --------------------------------------------------------------------------
# statistical regression sweep: |z| <= 3 for at least 99% of 100 seeded configs


def _sweep_configs():
    rng = np.random.default_rng(20260817)
    configs = []
    for i in range(30):  # multiplicative combine bias, both constructions
        sc = ScalarScenario(
            kernel=MULTIPLICATIVE,
            y_dist=Normal(mean=[rng.uniform(-1, 1)], cov=[[rng.uniform(0.3, 2.0)]]),
            s_dist=Normal(mean=[rng.uniform(-1, 1)], cov=[[rng.uniform(0.3, 2.0)]]),
            j=int(rng.integers(2, 7)),
            q=int(rng.integers(3, 40)),
        )
        construction = "current" if i % 2 else "alternative"
        configs.append(cfg_bias(sc, construction, trials=2_500, seed=100 + i))
    for i in range(20):  # additive combine bias
        sc = ScalarScenario(
            kernel=ADDITIVE,
            y_dist=Normal(mean=[rng.uniform(-2, 2)], cov=[[rng.uniform(0.2, 3.0)]]),
            s_dist=Uniform(lo=[-rng.uniform(0.5, 2.0)], hi=[rng.uniform(0.5, 2.0)]),
            j=int(rng.integers(2, 7)),
            q=int(rng.integers(3, 40)),
        )
        configs.append(cfg_bias(sc, "alternative" if i % 2 else "current", trials=2_500, seed=200 + i))
    for i in range(20):  # target-variance oracle
        kernel = MULTIPLICATIVE if i % 2 else ADDITIVE
        sc = ScalarScenario(
            kernel=kernel,
            y_dist=Normal(mean=[rng.uniform(-1, 1)], cov=[[rng.uniform(0.3, 2.0)]]),
            s_dist=Normal(mean=[rng.uniform(-1, 1)], cov=[[rng.uniform(0.3, 2.0)]]),
            j=int(rng.integers(2, 7)),
            q=int(rng.integers(2, 40)),
        )
        configs.append(
            ExperimentConfig(estimand="target_variance_oracle", trials=2_500, scenario=sc, master_seed=300 + i)
        )
    for i in range(15):  # mean-variance gap
        sc = mult_standard(j=int(rng.integers(2, 6)), q=int(rng.integers(3, 20)))
        configs.append(
            ExperimentConfig(estimand="mean_variance", trials=2_500, scenario=sc, master_seed=400 + i)
        )
    for i in range(15):  # lemma 5 closed form
        configs.append(
            ExperimentConfig(
                estimand="lemma_check",
                trials=2_500,
                master_seed=500 + i,
                lemma_id=5,
                lemma_u2=float(rng.uniform(0.0, 3.0)),
                lemma_n=int(rng.integers(2, 12)),
            )
        )
    return configs


def test_regression_sweep_z_scores():
    configs = _sweep_configs()
    assert len(configs) == 100
    bad = 0
    worst = 0.0
    for cfg in configs:
        if cfg.estimand == "lemma_check":
            res = verify_lemma(cfg)
        elif cfg.estimand == "target_variance_oracle":
            res = estimate_target_variance_oracle(cfg)
        elif cfg.estimand == "mean_variance":
            res = estimate_mean_variance(cfg)
        else:
            res = estimate_combine_bias(cfg)
        assert res.analytic_reference is not None
        z = res.max_abs_z()
        worst = max(worst, z)
        if z > 3.0:
            bad += 1
    assert bad <= 1, f"{bad} configs exceeded |z|=3 (worst {worst:.2f})"


# --------------------------------------------------------------------------
# input checks: each refusal once, with no sampling


def _cfg(estimand, **kw):
    if estimand == "lemma_check":
        return ExperimentConfig(estimand=estimand, trials=100, lemma_id=5, **kw)
    return ExperimentConfig(estimand=estimand, trials=100, scenario=mult_standard(), **kw)


INPUT_CHECKS = {
    "map grid without points": (lambda: MapSpec(kernel=PHASE, n=0), "at least one point"),
    "map grid reversed": (lambda: MapSpec(kernel=PHASE, lo=2.0, hi=1.0), "interval is reversed"),
    "map batch of one": (lambda: MapSpec(kernel=PHASE, j=1), "need J > 1"),
    "block size zero": (lambda: _cfg("combine_bias_current", block_size=0), "block_size must be"),
    "no workers": (lambda: _cfg("combine_bias_current", workers=0), "workers must be positive"),
    "lemma n below two": (lambda: _cfg("lemma_check", lemma_n=1), "needs N >= 2"),
    "lemma u2 negative": (lambda: _cfg("lemma_check", lemma_u2=-0.5), "needs u2 >= 0"),
    "lemma u2 nan": (lambda: _cfg("lemma_check", lemma_u2=math.nan), "needs u2 >= 0"),
    "lemma u2 inf": (lambda: _cfg("lemma_check", lemma_u2=math.inf), "needs u2 >= 0"),
    "bias of another estimand": (lambda: estimate_combine_bias(_cfg("mean_variance")),
                                 "not a combine-bias estimand"),
    "mean variance of another estimand": (lambda: estimate_mean_variance(_cfg("vardiff_reldiff")),
                                          "not a mean_variance config"),
    "vardiff of another estimand": (lambda: estimate_vardiff(_cfg("mean_variance")),
                                    "not a vardiff config"),
    "psi oracle of one draw": (lambda: bias_factor_current_oracle(mult_standard(), 1, RngStream(0)),
                               "at least two draws"),
    "relbias oracle of one draw a chunk": (
        lambda: relbias_current_oracle(mult_standard(), 19, RngStream(0)), "two draws per chunk"
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_refuses(case, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled before the check")

    monkeypatch.setattr(experiments, "_run_blocks", no_work)
    monkeypatch.setattr(experiments.models, "sample", no_work)
    call, fragment = INPUT_CHECKS[case]
    with pytest.raises(DomainError, match=fragment):
        call()
