"""Seeded Monte Carlo experiment harness.

Estimates every quantity the analytics module predicts — construction
biases, the target variance, grand-mean variances, and the variability
of the two constructions' sample variances — plus empirical checks of
the five supporting lemmas, and pure-quadrature parameter maps.

Reproducibility protocol
------------------------
Trials are generated in fixed-size blocks.  Block ``b`` of an experiment
draws from substreams with derivation path

    master_seed -> (salt, stage, b, role)

where ``salt`` distinguishes points of a sweep, ``stage`` separates the
main experiment (0) from an embedded oracle (1), and ``role`` is 0 for
data draws, 1 for error draws, 2 for synthesis noise.  Trial ``t`` lives
at row ``t % block_size`` of block ``t // block_size``, so its draws are
a fixed function of the trial index: results are bitwise identical for
any worker count and any trial execution order.  Both stages run their
blocks through the same scheduler, on a pool of at most ``workers``
processes (no more than there are blocks or CPUs).  Per-trial statistics
are reduced in ascending trial order.

Each trial of a combine estimand is one run of the pipeline users run on
data: the block's trials form the leading axis of a single
:func:`~mcombine.pipeline.transform_stage` and
:func:`~mcombine.pipeline.combine_with_noise` call (K = 1), and draws
come from :func:`~mcombine.models.sample`.

Every standard error is the across-trial spread of per-trial influence
values over the square root of the trial count.  Each estimator is a
smooth function of trial means, so the delta method gives those values:
the per-trial statistic itself for a mean, ``n/(n−1)·(x − x̄)(y − ȳ)ᵀ``
for a sample (cross-)covariance, and their linear combination by the
gradient for a ratio (an analytic denominator is treated as fixed).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterator

import numpy as np
from numpy.typing import NDArray

# The sampler and the pipeline stages are called through their modules, so
# that a tracer wrapping module attributes (perfbench/spans.py) sees the
# harness's calls as well as the pipeline's.
from . import analytics, models, pipeline
from .analytics import ScalarScenario
from .exceptions import DomainError
from .linalg import cross_covariance, sample_covariance
from .models import DistSpec, Normal, ScalarKernel, TransformSpec, Uniform, kernel_eval
from .pipeline import DataBatch, ErrorBatch
from .rng import RngStream

__all__ = [
    "ESTIMANDS",
    "MapSpec",
    "ExperimentConfig",
    "EstimateResult",
    "MapResult",
    "estimate_combine_bias",
    "estimate_target_variance_oracle",
    "estimate_mean_variance",
    "estimate_vardiff",
    "verify_lemma",
    "run_map",
    "bias_factor_current_oracle",
    "relbias_current_oracle",
]

ESTIMANDS = (
    "combine_bias_current",
    "combine_bias_alternative",
    "mean_variance",
    "vardiff_reldiff",
    "target_variance_oracle",
    "lemma_check",
    "psi_map",
    "relbias_map",
)

_ROLE_Y, _ROLE_S, _ROLE_Z = 0, 1, 2
_STAGE_MAIN, _STAGE_ORACLE = 0, 1

#: Relative size below which a difference of two estimates that coincide
#: is rounding noise: it is reported as exactly 0.0, so its z-score is 0.
_ROUNDING = 1e-12

#: Row-chunk threshold for the (trials, J, Q) kernel tensor, in elements.
_TENSOR_ELEMS = 8_000_000


@dataclass(frozen=True)
class MapSpec:
    """Grid description for the pure-analytics parameter maps.

    The data law at cell (a, b) is Unif[a, b]; the error law is fixed by
    the kernel: Unif[1−alpha, 1+alpha] for exponential, Unif(−alpha, alpha)
    for phase, standard normal otherwise (where the map is identically
    zero anyway).  ``j`` only affects relative-bias maps.
    """

    kernel: ScalarKernel
    alpha: float = 0.95
    lo: float = 0.0
    hi: float = 8.0
    n: int = 161
    j: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("map grid needs at least one point per axis")
        if self.hi < self.lo:
            raise DomainError("map grid interval is reversed")
        if self.j < 2:
            raise DomainError("relative-bias maps need J > 1")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A complete, seeded description of one experiment.

    Monte Carlo estimands need ``trials >= 100``: below that the
    standard errors are too noisy for their z-scores to be read as normal
    (the lemma 1 check, an identity that holds exactly, exceeds |z| = 5 in
    one run in ten at 4 trials; lemmas 1–4 never did at 100).
    ``workers`` bounds the process pool; the results do not depend on it.
    """

    estimand: str
    trials: int = 10_000
    scenario: ScalarScenario | None = None
    master_seed: int = 0
    salt: int = 0
    block_size: int = 1024
    workers: int = 1
    lemma_id: int | None = None
    lemma_u2: float = 0.0
    lemma_n: int = 2
    lemma_common: bool = True
    map: MapSpec | None = None

    def __post_init__(self):
        if self.estimand not in ESTIMANDS:
            raise DomainError(f"unknown estimand {self.estimand!r}; expected one of {ESTIMANDS}")
        if self.estimand in ("psi_map", "relbias_map"):
            if self.map is None:
                raise DomainError(f"{self.estimand} requires a MapSpec")
            return
        if self.trials < 100:
            raise DomainError(f"need at least 100 trials, got {self.trials}")
        if self.block_size < 1:
            raise DomainError("block_size must be positive")
        if self.workers < 1:
            raise DomainError("workers must be positive")
        if self.estimand == "lemma_check":
            if self.lemma_id not in (1, 2, 3, 4, 5):
                raise DomainError(f"lemma_id must be 1..5, got {self.lemma_id}")
            if self.lemma_n < 2:
                raise DomainError("lemma 5 needs N >= 2")
            if self.lemma_u2 < 0.0:
                raise DomainError("lemma 5 needs u2 >= 0")
            return
        if self.scenario is None:
            raise DomainError(f"{self.estimand} requires a scenario")
        if self.estimand != "target_variance_oracle" and self.scenario.q < 2:
            raise DomainError("combine estimands need Q >= 2 (sample variance over replicates)")


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """A point estimate with its standard error and optional reference."""

    point: float | NDArray[np.float64]
    std_error: float | NDArray[np.float64]
    trials: int
    analytic_reference: float | NDArray[np.float64] | None = None
    z_score: float | NDArray[np.float64] | None = None
    extras: dict[str, float] | None = None

    def max_abs_z(self) -> float:
        if self.z_score is None:
            raise DomainError("result has no reference, hence no z-score")
        return float(np.max(np.abs(self.z_score)))

    def to_json_dict(self) -> dict[str, Any]:
        def conv(v):
            if v is None:
                return None
            if isinstance(v, np.ndarray):
                return v.tolist()
            return float(v)

        out = {
            "point": conv(self.point),
            "std_error": conv(self.std_error),
            "trials": self.trials,
            "analytic_reference": conv(self.analytic_reference),
            "z_score": conv(self.z_score),
        }
        if self.extras is not None:
            out["extras"] = {k: float(v) for k, v in self.extras.items()}
        return out


def _zscore(point, se, reference):
    if reference is None:
        return None
    p = np.asarray(point, dtype=float)
    s = np.asarray(se, dtype=float)
    r = np.asarray(reference, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0.0, (p - r) / np.where(s > 0.0, s, 1.0), np.where(p == r, 0.0, np.inf))
    if z.ndim == 0:
        return float(z)
    return z


# --------------------------------------------------------------------------
# Block generation


def _block_rows(cfg: ExperimentConfig, block: int) -> int:
    start = block * cfg.block_size
    return min(cfg.block_size, cfg.trials - start)


def _n_blocks(cfg: ExperimentConfig) -> int:
    return -(-cfg.trials // cfg.block_size)


def _stream(cfg: ExperimentConfig, stage: int, block: int, role: int) -> RngStream:
    return RngStream(cfg.master_seed).substream(cfg.salt, stage, block, role)


def _draw_y_s_z(cfg: ExperimentConfig, stage: int, block: int, *, with_z: bool,
                s_cols: int | None = None):
    """Draw one block's worth of data/error/noise arrays (full block, then slice)."""
    sc = cfg.scenario
    rows = _block_rows(cfg, block)
    bs = cfg.block_size
    reject = sc.kernel.kind == "exponential"
    y = models.sample(sc.y_dist, bs * sc.j, _stream(cfg, stage, block, _ROLE_Y),
                      reject_zero=reject)
    q = sc.q if s_cols is None else s_cols
    s = models.sample(sc.s_dist, bs * q, _stream(cfg, stage, block, _ROLE_S))
    y = y.reshape(bs, sc.j)[:rows]
    s = s.reshape(bs, q)[:rows]
    if not with_z:
        return y, s, None
    z = _stream(cfg, stage, block, _ROLE_Z).gen.standard_normal((bs, q))[:rows]
    return y, s, z


_CONSTRUCTIONS = {
    "combine_bias_current": ("current",),
    "combine_bias_alternative": ("alternative",),
    "vardiff_reldiff": ("current", "alternative"),
    "mean_variance": ("current", "alternative"),
}


def _combine_block(cfg: ExperimentConfig, block: int, stage: int) -> tuple[NDArray, ...]:
    """Per-trial statistics for one block of a combine-type estimand.

    Each trial is one K = 1 pipeline run: the block's trials form the
    leading axis of one :func:`~mcombine.pipeline.transform_stage` and one
    :func:`~mcombine.pipeline.combine_with_noise` call per construction
    (per row chunk, to bound the (trials, J, Q) kernel tensor).  The
    statistic is the sample variance of the synthesized replicates, or
    their mean for ``mean_variance``.  The target-variance oracle instead
    returns each trial's batch mean of f over J data draws sharing one error
    draw, from the stage's own streams.
    """
    sc = cfg.scenario
    estimand = cfg.estimand
    if estimand == "target_variance_oracle":
        y, s, _ = _draw_y_s_z(cfg, stage, block, with_z=False, s_cols=1)
        fbar = kernel_eval(sc.kernel, y, s).mean(axis=1)
        return (fbar,)
    if estimand not in _CONSTRUCTIONS:
        raise DomainError(f"not a combine estimand: {estimand}")
    y, s, z = _draw_y_s_z(cfg, stage, block, with_z=True)
    spec = TransformSpec(kernel=sc.kernel)
    nu = sc.s_dist.mean_vector()
    constructions = _CONSTRUCTIONS[estimand]
    stats: list[list[NDArray]] = [[] for _ in constructions]
    rows = y.shape[0]
    step = max(1, _TENSOR_ELEMS // (sc.j * sc.q))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        data, errors = DataBatch(y[lo:hi, :, None]), ErrorBatch(s[lo:hi, :, None])
        t = pipeline.transform_stage(data, errors, spec, nu)
        # Arrays are dropped as soon as they are dead: the error draws after
        # the last transform, each construction's replicates once reduced.
        # Holding them raised a block's peak memory past the point where the
        # allocator hands the heap back to the OS after every block, and the
        # next block faulted it back in: about 3,000 page faults a block at
        # J = 4, Q = 300, a third of the block's time.
        if hi == rows:
            del s, errors
        for out, construction in zip(stats, constructions):
            m = pipeline.combine_with_noise(t, z[lo:hi, :, None], construction).replicates[..., 0]
            out.append(m.mean(axis=1) if estimand == "mean_variance" else m.var(axis=1, ddof=1))
            del m
    return tuple(np.concatenate(out) for out in stats)


# --------------------------------------------------------------------------
# Lemma instance generators

_PARAM_ROLE = 255


def _random_spd_factor(gen: np.random.Generator, k: int) -> NDArray[np.float64]:
    a = gen.standard_normal((k, k))
    spd = a @ a.T / k + 0.3 * np.eye(k)
    vals, vecs = np.linalg.eigh(spd)
    return vecs * np.sqrt(vals)


def _lemma_plan(cfg: ExperimentConfig) -> dict[str, Any]:
    gen = _stream(cfg, _STAGE_MAIN, 0, _PARAM_ROLE).gen
    lid = cfg.lemma_id
    k = 2
    if lid == 1:
        fw = _random_spd_factor(gen, k)
        # Sample covariance of J vectors sharing a common additive term is
        # unbiased for the marginal covariance *minus* the cross-covariance,
        # so the common part drops out of the expectation either way.
        fc = _random_spd_factor(gen, k) if cfg.lemma_common else np.zeros((k, k))
        return {"k": k, "j": 4, "fw": fw, "fc": fc, "reference": fw @ fw.T}
    if lid in (2, 3):
        return {"k": k, "c0": 1.0, "c1": 0.5}
    if lid == 4:
        fy = _random_spd_factor(gen, k)
        nu = np.array([0.7, -1.1])
        fs = _random_spd_factor(gen, k)
        mu = np.array([0.3, -0.2])
        return {"k": k, "mu": mu, "fy": fy, "nu": nu, "fs": fs}
    if lid == 5:
        n = cfg.lemma_n
        if cfg.lemma_u2 == 0.0:
            mu = np.zeros(n)
        else:
            base = np.linspace(-1.0, 1.0, n)
            base -= base.mean()
            raw = float(base @ base) / (n - 1)
            mu = base * math.sqrt(cfg.lemma_u2 / raw)
        return {"n": n, "sigma": 1.0, "mu": mu}
    raise DomainError(f"lemma_id must be 1..5, got {lid}")


def _lemma_block(cfg: ExperimentConfig, plan: dict[str, Any], block: int) -> tuple[NDArray, ...]:
    rows = _block_rows(cfg, block)
    bs = cfg.block_size
    lid = cfg.lemma_id
    g0 = _stream(cfg, _STAGE_MAIN, block, 0).gen
    g1 = _stream(cfg, _STAGE_MAIN, block, 1).gen
    g2 = _stream(cfg, _STAGE_MAIN, block, 2).gen
    g3 = _stream(cfg, _STAGE_MAIN, block, 3).gen
    k = plan.get("k", 0)
    if lid == 1:
        j = plan["j"]
        w = g0.standard_normal((bs, j, k))[:rows] @ plan["fw"].T
        c = g1.standard_normal((bs, 1, k))[:rows] @ plan["fc"].T
        x = w + c
        xc = x - x.mean(axis=1, keepdims=True)
        cov = np.einsum("bjk,bjl->bkl", xc, xc) / (j - 1)
        return (cov,)
    if lid == 2:
        w = g0.standard_normal((bs, k))[:rows]
        a = w + 0.5 * w**2
        bmat = plan["c0"] * np.eye(k)[None, :, :] + plan["c1"] * w[:, :, None] * w[:, None, :]
        z = g1.standard_normal((bs, k))[:rows]
        x = a + np.einsum("bkl,bl->bk", bmat, z)
        bbt = np.einsum("bkl,bml->bkm", bmat, bmat)
        return (x, a, bbt)
    if lid == 3:
        w = g0.standard_normal((bs, k))[:rows]
        a1 = w + g1.standard_normal((bs, k))[:rows]
        a2 = 0.5 * w + g2.standard_normal((bs, k))[:rows]
        bmat = plan["c0"] * np.eye(k)[None, :, :] + plan["c1"] * w[:, :, None] * w[:, None, :]
        z12 = g3.standard_normal((bs, 2, k))[:rows]
        x1 = a1 + np.einsum("bkl,bl->bk", bmat, z12[:, 0, :])
        x2 = a2 + np.einsum("bkl,bl->bk", bmat, z12[:, 1, :])
        return (x1, x2, a1, a2)
    if lid == 4:
        y = plan["mu"] + g0.standard_normal((bs, k))[:rows] @ plan["fy"].T
        s1 = plan["nu"] + g1.standard_normal((bs, k))[:rows] @ plan["fs"].T
        s2 = plan["nu"] + g2.standard_normal((bs, k))[:rows] @ plan["fs"].T
        f1 = y * s1
        f2 = y * s2
        m = y * plan["nu"]
        return (f1, f2, m)
    if lid == 5:
        n = plan["n"]
        x = plan["mu"] + plan["sigma"] * g0.standard_normal((bs, n))[:rows]
        return (x.var(axis=1, ddof=1),)
    raise DomainError(f"lemma_id must be 1..5, got {lid}")


# --------------------------------------------------------------------------
# Block scheduling


def _worker_blocks(payload) -> list[tuple[NDArray, ...]]:
    cfg, plan, stage, blocks = payload
    if cfg.estimand == "lemma_check":
        return [_lemma_block(cfg, plan, b) for b in blocks]
    return [_combine_block(cfg, b, stage) for b in blocks]


def _run_blocks(
    cfg: ExperimentConfig, plan: dict[str, Any] | None = None, stage: int = _STAGE_MAIN
) -> tuple[NDArray, ...]:
    """Evaluate all blocks and concatenate per-trial arrays in ascending
    trial order.  The pool has at most ``workers`` processes, one per block
    and one per CPU; results do not depend on its size."""
    nb = _n_blocks(cfg)
    n_workers = min(cfg.workers, nb, os.cpu_count() or 1)
    if n_workers <= 1:
        pieces = _worker_blocks((cfg, plan, stage, range(nb)))
    else:
        groups: list[list[int]] = [[] for _ in range(n_workers)]
        for b in range(nb):
            groups[b % n_workers].append(b)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_worker_blocks, [(cfg, plan, stage, g) for g in groups]))
        by_index: dict[int, tuple[NDArray, ...]] = {}
        for g, res in zip(groups, results):
            for b, arrs in zip(g, res):
                by_index[b] = arrs
        pieces = [by_index[b] for b in range(nb)]
    n_arrays = len(pieces[0])
    return tuple(np.concatenate([p[i] for p in pieces], axis=0) for i in range(n_arrays))


def _mean_with_se(values: NDArray) -> tuple[Any, Any]:
    """Mean of per-trial influence values over the trial axis (axis 0),
    with its standard error."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _covariance_values(x: NDArray, y: NDArray) -> NDArray:
    """Per-trial influence values of the sample (cross-)covariance of
    ``x`` and ``y`` over axis 0, ``n/(n−1)·(x − x̄)(y − ȳ)ᵀ``: their mean
    is the statistic.  Trials hold scalars (T,) or vectors (T, K)."""
    xc = x - x.mean(axis=0)
    yc = xc if y is x else y - y.mean(axis=0)
    values = np.einsum("tk,tl->tkl", xc, yc) if x.ndim == 2 else xc * yc
    values *= x.shape[0] / (x.shape[0] - 1.0)
    return values


# --------------------------------------------------------------------------
# Public estimators


def _reference_relbias(cfg: ExperimentConfig) -> float | None:
    try:
        if cfg.estimand == "combine_bias_current":
            return analytics.relbias_current(cfg.scenario)
        return analytics.relbias_alternative(cfg.scenario)
    except DomainError:
        return None


def estimate_combine_bias(cfg: ExperimentConfig) -> EstimateResult:
    """Relative bias of one construction's replicate sample variance.

    Runs ``trials`` independent pipelines, averages the per-trial sample
    variance of the synthesized replicates, and normalizes against the
    target variance — analytic when the scenario supports it, otherwise
    an embedded Monte Carlo oracle on the oracle stage's streams, run on
    the same ``workers`` pool.  A target variance that is not positive
    raises :class:`DomainError`.
    """
    if cfg.estimand not in ("combine_bias_current", "combine_bias_alternative"):
        raise DomainError(f"not a combine-bias estimand: {cfg.estimand}")
    try:
        target = analytics.target_variance(cfg.scenario)
    except DomainError:
        target = None  # no analytic target: the embedded oracle estimates it
    else:
        analytics._require_positive_target(target)
    (s2,) = _run_blocks(cfg)
    n = s2.size
    mean_s2, se_s2 = map(float, _mean_with_se(s2))
    if target is None:
        oracle_cfg = replace(cfg, estimand="target_variance_oracle")
        (fbar,) = _run_blocks(oracle_cfg, stage=_STAGE_ORACLE)
        target, target_se = map(float, _mean_with_se(_covariance_values(fbar, fbar)))
        analytics._require_positive_target(target)
        se = math.hypot(se_s2 / target, mean_s2 * target_se / target**2)
    else:
        se = se_s2 / target
    point = mean_s2 / target - 1.0
    reference = _reference_relbias(cfg)
    return EstimateResult(
        point=point,
        std_error=se,
        trials=n,
        analytic_reference=reference,
        z_score=_zscore(point, se, reference),
        extras={"mean_sample_variance": mean_s2, "target_variance": target},
    )


def estimate_target_variance_oracle(cfg: ExperimentConfig) -> EstimateResult:
    """Brute-force estimate of the target variance V[mean_j f(Y_j, S)].

    Independent of both constructions: each trial draws a fresh data
    batch and a single shared error, and the variance is taken across
    trials of the batch-mean transform value.
    """
    if cfg.estimand != "target_variance_oracle":
        cfg = replace(cfg, estimand="target_variance_oracle")
    (fbar,) = _run_blocks(cfg)
    point, se = map(float, _mean_with_se(_covariance_values(fbar, fbar)))
    try:
        reference = analytics.target_variance(cfg.scenario)
    except DomainError:
        reference = None
    return EstimateResult(
        point=point,
        std_error=se,
        trials=fbar.size,
        analytic_reference=reference,
        z_score=_zscore(point, se, reference),
        extras={"mean": float(fbar.mean())},
    )


def estimate_mean_variance(cfg: ExperimentConfig) -> EstimateResult:
    """Difference of the grand-mean variances of the two constructions.

    Per trial, both constructions are built from common data, error, and
    noise draws (paired design); the point estimate is
    V[grand mean, current] − V[grand mean, alternative] with an
    influence-based SE that respects the pairing.  A point within
    rounding of zero (1e-12 of the sum of the two variances) is reported
    as exactly 0.0, as for the additive kernel, where the two grand means
    coincide.
    """
    if cfg.estimand != "mean_variance":
        raise DomainError(f"not a mean_variance config: {cfg.estimand}")
    a, b = _run_blocks(cfg)
    n = a.size
    ga = _covariance_values(a, a)
    gb = _covariance_values(b, b)
    var_a, var_b = float(ga.mean()), float(gb.mean())
    point, se = map(float, _mean_with_se(ga - gb))
    if abs(point) <= _ROUNDING * (var_a + var_b):
        point = 0.0
    try:
        reference = analytics.mean_variance_gap(cfg.scenario)
    except DomainError:
        reference = None
    return EstimateResult(
        point=point,
        std_error=se,
        trials=n,
        analytic_reference=reference,
        z_score=_zscore(point, se, reference),
        extras={
            "grand_mean_current": float(a.mean()),
            "grand_mean_alternative": float(b.mean()),
            "var_current": var_a,
            "var_alternative": var_b,
        },
    )


def estimate_vardiff(cfg: ExperimentConfig) -> EstimateResult:
    """Normalized difference of the variabilities of the two constructions'
    sample variances:

        (V[S²_current] − V[S²_alternative]) / (V[S²_current] + V[S²_alternative])

    estimated across trials.  Its SE comes from the per-trial influence
    values 2(V_a·g_c − V_c·g_a)/(V_c + V_a)², where g_c and g_a are the
    two sample variances' own influence values.  A point within 1e-12 of
    zero is reported as exactly 0.0, as for the additive kernel, where
    the two constructions coincide.
    """
    if cfg.estimand != "vardiff_reldiff":
        raise DomainError(f"not a vardiff config: {cfg.estimand}")
    s2c, s2a = _run_blocks(cfg)
    n = s2c.size
    gc = _covariance_values(s2c, s2c)
    ga = _covariance_values(s2a, s2a)
    vc, va = float(gc.mean()), float(ga.mean())
    denom = vc + va
    if denom == 0.0:  # both statistics constant across trials
        point, se = 0.0, 0.0
    else:
        point = (vc - va) / denom
        se = float(_mean_with_se(2.0 * (va * gc - vc * ga) / denom**2)[1])
        if abs(point) <= _ROUNDING:
            point = 0.0
    # raw variability difference (alternative minus current) with its own SE,
    # comparable to the closed large-Q form for the multiplicative kernel
    diff, diff_se = map(float, _mean_with_se(ga - gc))
    # Only the additive kernel makes the two constructions' variabilities
    # agree at finite Q; elsewhere the difference merely decays with Q.
    reference = 0.0 if cfg.scenario.kernel.kind == "additive" else None
    return EstimateResult(
        point=point,
        std_error=se,
        trials=n,
        analytic_reference=reference,
        z_score=_zscore(point, se, reference),
        extras={
            "var_s2_current": vc,
            "var_s2_alternative": va,
            "var_diff_alternative_minus_current": diff,
            "var_diff_se": diff_se,
        },
    )


def verify_lemma(lemma_id: int, cfg: ExperimentConfig) -> EstimateResult:
    """Empirical two-sided check of one supporting lemma.

    Builds randomized instances satisfying the lemma's hypotheses,
    estimates both sides, and reports the difference with z-scores
    (reference 0), except lemma 5 where the reference is the closed-form
    variance of the sample variance.  Lemmas 2–4 take their point from
    whole-run (cross-)covariances and their SE from the per-trial
    influence values of the same difference.
    """
    if cfg.estimand != "lemma_check" or cfg.lemma_id != lemma_id:
        cfg = replace(cfg, estimand="lemma_check", lemma_id=lemma_id)
    plan = _lemma_plan(cfg)
    arrays = _run_blocks(cfg, plan)
    n = arrays[0].shape[0]
    extras = None
    if lemma_id == 1:
        (covs,) = arrays
        point, se = _mean_with_se(covs)
        reference = plan["reference"]
    elif lemma_id == 5:
        (s2,) = arrays
        point, se = map(float, _mean_with_se(_covariance_values(s2, s2)))
        reference = analytics.var_of_sample_variance_normal(
            plan["sigma"] ** 2, cfg.lemma_u2, cfg.lemma_n
        )
        extras = {"mean_sample_variance": float(s2.mean())}
    else:
        if lemma_id == 2:
            x, a, bbt = arrays
            point = sample_covariance(x) - sample_covariance(a) - bbt.mean(axis=0)
            values = _covariance_values(x, x) - _covariance_values(a, a) - bbt
        elif lemma_id == 3:
            x1, x2, a1, a2 = arrays
            point = cross_covariance(x1, x2) - cross_covariance(a1, a2)
            values = _covariance_values(x1, x2) - _covariance_values(a1, a2)
        else:  # lemma 4: the config admits only ids 1..5
            f1, f2, m = arrays
            point = cross_covariance(f1, f2) - sample_covariance(m)
            values = _covariance_values(f1, f2) - _covariance_values(m, m)
        se = _mean_with_se(values)[1]
        reference = np.zeros_like(point)
    return EstimateResult(point, se, n, reference, _zscore(point, se, reference), extras)


# --------------------------------------------------------------------------
# Analytic parameter maps


@dataclass(frozen=True, eq=False)
class MapResult:
    """Grid of analytic values over data-support cells (a, b), a <= b."""

    estimand: str
    spec: MapSpec
    a_values: NDArray[np.float64]
    b_values: NDArray[np.float64]
    values: NDArray[np.float64]

    def rows(self) -> Iterator[tuple[float, float, float]]:
        for i, a in enumerate(self.a_values):
            for jdx, b in enumerate(self.b_values):
                if a <= b:
                    yield float(a), float(b), float(self.values[i, jdx])


def _map_error_dist(spec: MapSpec) -> DistSpec:
    kind = spec.kernel.kind
    if kind == "exponential":
        return Uniform(lo=[1.0 - spec.alpha], hi=[1.0 + spec.alpha])
    if kind == "phase":
        return Uniform(lo=[-spec.alpha], hi=[spec.alpha])
    return Normal(mean=[0.0], cov=[[1.0]])


def run_map(cfg: ExperimentConfig) -> MapResult:
    """Evaluate the analytic bias factor (psi_map) or current-construction
    relative bias (relbias_map) over a (a, b) grid of uniform data laws.

    Pure quadrature, no sampling; cells outside the a <= b triangle or
    where the quantity is undefined hold NaN.
    """
    if cfg.estimand not in ("psi_map", "relbias_map"):
        raise DomainError(f"not a map estimand: {cfg.estimand}")
    spec = cfg.map
    grid = np.linspace(spec.lo, spec.hi, spec.n)
    s_dist = _map_error_dist(spec)
    values = np.full((spec.n, spec.n), np.nan)
    for i, a in enumerate(grid):
        for jdx in range(i, spec.n):
            b = grid[jdx]
            try:
                scenario = ScalarScenario(
                    kernel=spec.kernel,
                    y_dist=Uniform(lo=[a], hi=[b]),
                    s_dist=s_dist,
                    j=spec.j,
                    q=2,
                )
                if cfg.estimand == "psi_map":
                    values[i, jdx] = analytics.bias_factor_current(scenario)
                else:
                    values[i, jdx] = analytics.relbias_current(scenario)
            except DomainError:
                values[i, jdx] = np.nan
    return MapResult(
        estimand=cfg.estimand, spec=spec, a_values=grid, b_values=grid.copy(), values=values
    )


# --------------------------------------------------------------------------
# Independent Monte Carlo oracles (for validating the quadrature paths)


def bias_factor_current_oracle(
    scenario: ScalarScenario, trials: int, stream: RngStream
) -> tuple[float, float]:
    """MC estimate (value, SE) of the current-construction bias factor.

    Draws data values and compares the sample variance of the nominal
    transform against the sample variance of the exact conditional mean;
    the pairing (same draws) cancels most of the noise.
    """
    if trials < 2:
        raise DomainError("oracle needs at least two draws")
    reject = scenario.kernel.kind == "exponential"
    nu = float(scenario.s_dist.mean_vector()[0])
    y = models.sample(scenario.y_dist, trials, stream.substream(_ROLE_Y), reject_zero=reject)[:, 0]
    f_nom = kernel_eval(scenario.kernel, y, np.asarray(nu))
    m = analytics.conditional_mean_given_y(scenario, y)
    gf = f_nom - f_nom.mean()
    gm = m - m.mean()
    scale = trials / (trials - 1.0)
    d = gf**2 - gm**2
    point = scale * float(d.mean())
    se = scale * float(d.std(ddof=1)) / math.sqrt(trials)
    return point, se


def relbias_current_oracle(
    scenario: ScalarScenario, trials: int, stream: RngStream, chunks: int = 10
) -> tuple[float, float]:
    """MC estimate (value, SE) of the current construction's relative bias.

    Each chunk draws (Y, Y', S) triples sharing the error draw, estimates
    the target variance from the variance/cross-covariance split and the
    bias factor from independent data draws, and forms the ratio; the
    point is the chunk mean and the SE the chunk spread.
    """
    if chunks < 2 or trials < 2 * chunks:
        raise DomainError("oracle needs at least two chunks of two draws")
    reject = scenario.kernel.kind == "exponential"
    jj = float(scenario.j)
    nu = float(scenario.s_dist.mean_vector()[0])
    per = trials // chunks
    vals = []
    for c in range(chunks):
        gy = stream.substream(c, 0)
        gs = stream.substream(c, 1)
        y1, y2, y3 = (
            models.sample(scenario.y_dist, per, gy, reject_zero=reject)[:, 0] for _ in range(3)
        )
        s = models.sample(scenario.s_dist, per, gs)[:, 0]
        f1 = kernel_eval(scenario.kernel, y1, s)
        f2 = kernel_eval(scenario.kernel, y2, s)
        g1 = f1 - f1.mean()
        g2 = f2 - f2.mean()
        var_f = float(g1 @ g1) / (per - 1)
        cov_f = float(g1 @ g2) / (per - 1)
        target = var_f / jj + (jj - 1.0) / jj * cov_f
        f_nom = kernel_eval(scenario.kernel, y3, np.asarray(nu))
        m = analytics.conditional_mean_given_y(scenario, y3)
        psi_hat = float(f_nom.var(ddof=1)) - float(m.var(ddof=1))
        vals.append(psi_hat / jj / target)
    arr = np.array(vals)
    return float(arr.mean()), float(arr.std(ddof=1)) / math.sqrt(chunks)
