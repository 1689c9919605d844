"""Seeded Monte Carlo experiment harness.

Estimates every quantity the analytics module predicts — construction
biases, the target variance, grand-mean variances, and the variability
of the two constructions' sample variances — plus empirical checks of
the five supporting lemmas.  An :class:`ExperimentConfig` describes one
such seeded run, and its estimand names the one estimator that accepts
it.  The analytic parameter maps sample nothing: :func:`run_map`
takes only the grid's :class:`MapSpec`.

Reproducibility protocol
------------------------
Trials are generated in fixed-size blocks.  Block ``b`` of an experiment
draws from substreams with derivation path

    master_seed -> (salt, 0, b, role)

where ``salt`` distinguishes points of a sweep, the fixed 0 keeps the
seeded draws of earlier releases, and ``role`` is 0 for data draws, 1 for
error draws, 2 for synthesis noise.  Trial ``t`` lives at row
``t % block_size`` of block ``t // block_size``, so its draws are a fixed
function of the trial index: results are bitwise identical for any worker
count and any trial execution order.  Every estimate is one pass of one
runner, which maps a block function over the blocks on a pool of at most
``workers`` processes (no more than there are blocks or CPUs).  Each
worker evaluates one contiguous run of blocks and the runs come back in
block order, so the per-trial arrays concatenate directly; per-trial
statistics are reduced in ascending trial order.

Each trial of a combine estimand is one run of the pipeline users run on
data: the block's trials form the leading axis of a single
:func:`~mcombine.pipeline.transform_stage` and
:func:`~mcombine.pipeline.combine_with_noise` call (K = 1), and draws
come from :func:`~mcombine.models.sample`.  A target variance with no
closed form is the variance of the trials' first replicate centres.

Every standard error is the across-trial spread of per-trial influence
values over the square root of the trial count.  Each estimator is a
smooth function of trial means, so the delta method gives those values:
the per-trial statistic itself for a mean, ``n/(n−1)·(x − x̄)(y − ȳ)ᵀ``
for a sample (cross-)covariance, and their linear combination by the
gradient for a ratio (an analytic denominator is treated as fixed).
Each lemma check's point is the mean of its influence values, so a
point and its SE come from one pass over the trials.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

# The sampler and the pipeline stages are called through their modules, so
# that a tracer wrapping module attributes (perfbench/spans.py) sees the
# harness's calls as well as the pipeline's.
from . import analytics, models, pipeline
from .analytics import ScalarScenario
from .exceptions import DomainError
# cross_covariance: bound only for perfbench/spans.py, which wraps it here (ROADMAP item 1)
from .linalg import cross_covariance, sample_covariance
from .models import Normal, ScalarKernel, kernel_eval
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
)

_ROLE_Y, _ROLE_S, _ROLE_Z = 0, 1, 2

#: Relative size below which a difference of two estimates that coincide
#: is rounding noise: it and its standard error are reported as exactly 0.0,
#: so its z-score is 0.
_ROUNDING = 1e-12

#: Largest lemma 5 u2: its means reach |mu| <= sqrt(3·u2) < 2^28, where
#: float64 spacing is at most 2^-25, so the unit-variance noise keeps about
#: half its bits.  Past it the check drifts: |z| = 69 at u2 = 1e32.
_MAX_LEMMA_U2 = 1e16


@dataclass(frozen=True)
class MapSpec:
    """Grid description for the pure-analytics parameter maps.

    The data law at cell (a, b) is Unif[a, b]; analytics._kernel_error_law
    builds the error law: Unif[1−alpha, 1+alpha] for exponential (alpha in
    (0, 1]), Unif(−alpha, alpha) for phase (alpha > 0, finite), standard
    normal for additive and multiplicative (alpha unused; the factor is
    identically zero).  ``j`` only affects relative-bias maps.  The grid's ends and
    span hi − lo must be finite, its n × n values must fit in 1 GiB of
    float64, and a grid of n > 1 points must be strictly increasing, so
    its cells a <= b are the index triangle i <= k, with spacings whose
    squares do not underflow.  Custom kernels have no analytic map.
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
        cells = self.n * self.n
        pipeline._require_fits(cells, f"a {self.n}x{self.n} map grid holds {cells} values")
        # an infinite or NaN end also makes the span non-finite
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(f"map grid needs finite ends and span, got {self.lo}:{self.hi}")
        if self.hi < self.lo:
            raise DomainError("map grid interval is reversed")
        if self.n > 1:
            gap = float(np.diff(np.linspace(self.lo, self.hi, self.n)).min())
            # a cell's target variance divides by its width squared
            tiny = np.finfo(float).tiny
            if gap * gap < tiny:
                raise DomainError(
                    f"map grid {self.lo}:{self.hi}:{self.n} has spacing {gap:g}; a grid of more "
                    f"than one point needs strictly increasing values at least "
                    f"{math.sqrt(tiny):.3g} apart, or a cell's width squared underflows float64"
                )
        if self.j < 2:
            raise DomainError("relative-bias maps need J > 1")
        kind = self.kernel.kind
        if kind == "custom":
            raise DomainError("analytic maps need a named kernel, not a custom one")
        analytics._kernel_error_law(kind, self.alpha)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A complete, seeded description of one Monte Carlo experiment.

    Every estimand needs ``trials >= 100``: below that the standard errors
    are too noisy for their z-scores to be read as normal (the lemma 1
    check, an identity that holds exactly, exceeds |z| = 5 in one run in
    ten at 4 trials; lemmas 1–4 never did at 100).
    ``workers`` bounds the process pool; the results do not depend on it.
    A scenario's block draws (``block_size``·J and ``block_size``·Q values),
    one trial's J·Q kernel tensor, a lemma block's draws
    (``block_size``·max(8, N): lemma 1's J·K values a trial, lemma 5's N)
    and the run's per-trial values (at most eight a trial, in lemmas 2 and
    3) must each fit in 1 GiB of float64; a larger run is refused here,
    before anything is allocated.
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

    def __post_init__(self):
        if self.estimand not in ESTIMANDS:
            raise DomainError(f"unknown estimand {self.estimand!r}; expected one of {ESTIMANDS}")
        if self.trials < 100:
            raise DomainError(f"need at least 100 trials, got {self.trials}")
        values = 8 * self.trials
        pipeline._require_fits(values, f"{self.trials} trials keep up to {values} per-trial values")
        if self.block_size < 1:
            raise DomainError("block_size must be positive")
        if self.workers < 1:
            raise DomainError("workers must be positive")
        if self.estimand == "lemma_check":
            if self.lemma_id not in (1, 2, 3, 4, 5):
                raise DomainError(f"lemma_id must be 1..5, got {self.lemma_id}")
            if self.lemma_n < 2:
                raise DomainError("lemma 5 needs N >= 2")
            if not (0.0 <= self.lemma_u2 <= _MAX_LEMMA_U2):
                raise DomainError(f"lemma 5 needs u2 >= 0 and at most {_MAX_LEMMA_U2:g}, "
                                  f"got {self.lemma_u2}")
            need = self.block_size * max(8, self.lemma_n)
            pipeline._require_fits(need, f"a lemma block of {self.block_size} trials draws up to "
                                   f"{need} values (max(8, N) a trial, N = {self.lemma_n})")
            return
        if self.scenario is None:
            raise DomainError(f"{self.estimand} requires a scenario")
        pipeline._require_size(self.scenario.q, self.scenario.j, block_size=self.block_size)
        if self.estimand != "target_variance_oracle" and self.scenario.q < 2:
            raise DomainError("combine estimands need Q >= 2 (sample variance over replicates)")


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """A point estimate with its standard error and optional reference."""

    point: float | NDArray[np.float64]
    std_error: float | NDArray[np.float64]
    trials: int
    analytic_reference: float | NDArray[np.float64] | None = None
    extras: dict[str, float] | None = None

    @property
    def z_score(self) -> float | NDArray[np.float64] | None:
        """(point − reference) / SE; with a zero SE it is 0 where point and
        reference agree exactly and inf where they do not.  None without a
        reference."""
        if self.analytic_reference is None:
            return None
        p = np.asarray(self.point, dtype=float)
        s = np.asarray(self.std_error, dtype=float)
        r = np.asarray(self.analytic_reference, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = np.where(p == r, 0.0, np.inf)
            z = np.where(s > 0.0, (p - r) / np.where(s > 0.0, s, 1.0), exact)
        return float(z) if z.ndim == 0 else z

    def max_abs_z(self) -> float:
        z = self.z_score
        if z is None:
            raise DomainError("result has no reference, hence no z-score")
        return float(np.max(np.abs(z)))

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


# --------------------------------------------------------------------------
# Block generation


def _block_rows(cfg: ExperimentConfig, block: int) -> int:
    start = block * cfg.block_size
    return min(cfg.block_size, cfg.trials - start)


def _n_blocks(cfg: ExperimentConfig) -> int:
    return -(-cfg.trials // cfg.block_size)


def _stream(cfg: ExperimentConfig, block: int, role: int) -> RngStream:
    return RngStream(cfg.master_seed).substream(cfg.salt, 0, block, role)


def _draw_y_s(cfg: ExperimentConfig, block: int):
    """Draw one block's data and error arrays (full block, then slice)."""
    sc = cfg.scenario
    rows = _block_rows(cfg, block)
    bs = cfg.block_size
    y = models.sample(sc.y_dist, bs * sc.j, _stream(cfg, block, _ROLE_Y))
    s = models.sample(sc.s_dist, bs * sc.q, _stream(cfg, block, _ROLE_S))
    return y.reshape(bs, sc.j)[:rows], s.reshape(bs, sc.q)[:rows]


def _draw_z(cfg: ExperimentConfig, block: int) -> NDArray:
    """Draw one block's synthesis noise (full block, then slice)."""
    gen = _stream(cfg, block, _ROLE_Z).gen
    return gen.standard_normal((cfg.block_size, cfg.scenario.q))[: _block_rows(cfg, block)]


def _sample_variance_in_place(m: NDArray) -> NDArray:
    """``m.var(axis=1, ddof=1)`` by numpy's own operations, in ``m``'s memory."""
    m -= m.mean(axis=1, keepdims=True)
    np.square(m, out=m)
    return m.sum(axis=1) / (m.shape[1] - 1)


def _combine_block(
    cfg: ExperimentConfig, block: int, constructions: tuple[str | None, ...], mean: bool
) -> tuple[NDArray, ...]:
    """Per-trial statistics for one block, one array per construction.

    Each trial is one K = 1 pipeline run: the block's trials form the
    leading axis of one :func:`~mcombine.pipeline.transform_stage` call and
    one :func:`~mcombine.pipeline.combine_with_noise` call per
    construction.  The statistic is the sample variance of the synthesized
    replicates, or their mean when ``mean`` is set.  For None it is the
    first replicate centre, a draw of the batch mean; it needs no noise.
    """
    sc = cfg.scenario
    y, s = _draw_y_s(cfg, block)
    t = pipeline.transform_stage(DataBatch(y[..., None]), ErrorBatch(s[..., None]), sc.kernel,
                                 sc.s_dist.mean_vector())
    # Each block-sized array lives only while it is needed: the error draws
    # until the transform, the noise from the first combine on, and one
    # construction's replicates at a time, whose variance is taken in their
    # own memory.  Holding more raised a block's peak memory past the point
    # where the allocator hands the heap back to the OS after every block,
    # and the next block faulted it back in: about 3,000 page faults a block
    # at J = 4, Q = 300, a third of the block's time.
    del s
    z = _draw_z(cfg, block)[..., None] if any(constructions) else None
    stats = []
    for construction in constructions:
        if construction is None:
            stats.append(t.centres[:, 0, 0].copy())
            continue
        m = pipeline.combine_with_noise(t, z, construction).replicates[..., 0]
        stats.append(m.mean(axis=1) if mean else _sample_variance_in_place(m))
        del m
    return tuple(stats)


# --------------------------------------------------------------------------
# Lemma instance generators

_PARAM_ROLE = 255


def _random_covariance(gen: np.random.Generator, k: int) -> NDArray[np.float64]:
    a = gen.standard_normal((k, k))
    return a @ a.T / k + 0.3 * np.eye(k)


def _lemma_plan(cfg: ExperimentConfig) -> dict[str, Any]:
    gen = _stream(cfg, 0, _PARAM_ROLE).gen
    lid = cfg.lemma_id
    k = 2
    if lid == 1:
        w = Normal(mean=np.zeros(k), cov=_random_covariance(gen, k))
        # Sample covariance of J vectors sharing a common additive term is
        # unbiased for the marginal covariance *minus* the cross-covariance,
        # so the common part drops out of the expectation.
        common = Normal(mean=np.zeros(k), cov=_random_covariance(gen, k))
        return {"j": 4, "w": w, "c": common, "reference": w.cov}
    if lid in (2, 3):
        return {"k": k, "c0": 1.0, "c1": 0.5, "reference": np.zeros((k, k))}
    if lid == 4:
        y = Normal(mean=[0.3, -0.2], cov=_random_covariance(gen, k))
        s = Normal(mean=[0.7, -1.1], cov=_random_covariance(gen, k))
        return {"y": y, "s": s, "reference": np.zeros((k, k))}
    # lemma 5: the config admits only ids 1..5
    n = cfg.lemma_n
    if cfg.lemma_u2 == 0.0:
        mu = np.zeros(n)
    else:
        base = np.linspace(-1.0, 1.0, n)
        base -= base.mean()
        raw = float(base @ base) / (n - 1)
        mu = base * math.sqrt(cfg.lemma_u2 / raw)
    sigma = 1.0
    reference = analytics.var_of_sample_variance_normal(sigma**2, cfg.lemma_u2, n)
    return {"n": n, "sigma": sigma, "mu": mu, "reference": reference}


def _lemma_block(cfg: ExperimentConfig, block: int, plan: dict[str, Any]) -> tuple[NDArray, ...]:
    rows = _block_rows(cfg, block)
    bs = cfg.block_size
    lid = cfg.lemma_id
    # A stream opens on its first draw, so each lemma opens only the roles it uses.
    st = [_stream(cfg, block, role) for role in range(4)]
    if lid == 1:
        j = plan["j"]
        w = models.sample(plan["w"], bs * j, st[0]).reshape(bs, j, -1)[:rows]
        c = models.sample(plan["c"], bs, st[1])[:rows, None, :]
        return (sample_covariance(w + c),)
    k = plan.get("k", 0)
    if lid == 2:
        w = st[0].gen.standard_normal((bs, k))[:rows]
        a = w + 0.5 * w**2
        bmat = plan["c0"] * np.eye(k)[None, :, :] + plan["c1"] * w[:, :, None] * w[:, None, :]
        z = st[1].gen.standard_normal((bs, k))[:rows]
        x = a + np.einsum("bkl,bl->bk", bmat, z)
        bbt = np.einsum("bkl,bml->bkm", bmat, bmat)
        return (x, a, bbt)
    if lid == 3:
        w = st[0].gen.standard_normal((bs, k))[:rows]
        a1 = w + st[1].gen.standard_normal((bs, k))[:rows]
        a2 = 0.5 * w + st[2].gen.standard_normal((bs, k))[:rows]
        bmat = plan["c0"] * np.eye(k)[None, :, :] + plan["c1"] * w[:, :, None] * w[:, None, :]
        z12 = st[3].gen.standard_normal((bs, 2, k))[:rows]
        x1 = a1 + np.einsum("bkl,bl->bk", bmat, z12[:, 0, :])
        x2 = a2 + np.einsum("bkl,bl->bk", bmat, z12[:, 1, :])
        return (x1, x2, a1, a2)
    if lid == 4:
        y = models.sample(plan["y"], bs, st[0])[:rows]
        s1 = models.sample(plan["s"], bs, st[1])[:rows]
        s2 = models.sample(plan["s"], bs, st[2])[:rows]
        return (y * s1, y * s2, y * plan["s"].mean)
    # lemma 5
    x = plan["mu"] + plan["sigma"] * st[0].gen.standard_normal((bs, plan["n"]))[:rows]
    return (x.var(axis=1, ddof=1),)


# --------------------------------------------------------------------------
# Block scheduling


def _map_blocks(cfg: ExperimentConfig, fn: Callable, args: tuple, blocks: range) -> list[tuple]:
    return [fn(cfg, b, *args) for b in blocks]


def _run_blocks(cfg: ExperimentConfig, fn: Callable, *args) -> tuple[NDArray, ...]:
    """Evaluate ``fn(cfg, block, *args)`` for every block and concatenate
    its per-trial arrays in ascending trial order.

    The pool has at most ``workers`` processes, no more than there are
    blocks or CPUs.  Each worker evaluates one contiguous run of blocks;
    ``map`` returns the runs in block order, so the results concatenate as
    they come and do not depend on the pool size.
    """
    nb = _n_blocks(cfg)
    n_workers = min(cfg.workers, nb, os.cpu_count() or 1)
    edges = [nb * w // n_workers for w in range(n_workers + 1)]
    runs = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    work = partial(_map_blocks, cfg, fn, args)
    if n_workers <= 1:
        pieces = work(runs[0])
    else:
        # imported here: ``multiprocessing`` would slow every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            pieces = [p for run in pool.map(work, runs) for p in run]
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


def _mean_with_se(values: NDArray) -> tuple[Any, Any]:
    """Mean of per-trial influence values over the trial axis (axis 0),
    with its standard error."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def _zero_rounding_noise(point: float, se: float, scale: float) -> tuple[float, float]:
    """``point`` and ``se``, each written as exactly 0.0 where it is within
    ``_ROUNDING`` of zero on the point's ``scale``."""
    limit = _ROUNDING * scale
    return tuple(0.0 if abs(v) <= limit else v for v in (point, se))


def _covariance_values(x: NDArray, y: NDArray) -> NDArray:
    """Per-trial influence values of the sample (cross-)covariance of
    ``x`` and ``y`` over axis 0, ``n/(n−1)·(x − x̄)(y − ȳ)ᵀ``: their mean
    is the statistic.  Trials hold scalars (T,) or vectors (T, K)."""
    xc = x - x.mean(axis=0)
    yc = xc if y is x else y - y.mean(axis=0)
    values = np.einsum("tk,tl->tkl", xc, yc) if x.ndim == 2 else xc * yc
    values *= x.shape[0] / (x.shape[0] - 1.0)
    return values


#: Each lemma's per-trial influence values from its :func:`_lemma_block`
#: arrays; their mean is the lemma's point.
_LEMMA_VALUES: dict[int, Callable[..., NDArray]] = {
    1: lambda covs: covs,
    2: lambda x, a, bbt: _covariance_values(x, x) - _covariance_values(a, a) - bbt,
    3: lambda x1, x2, a1, a2: _covariance_values(x1, x2) - _covariance_values(a1, a2),
    4: lambda f1, f2, m: _covariance_values(f1, f2) - _covariance_values(m, m),
    5: lambda s2: _covariance_values(s2, s2),
}


# --------------------------------------------------------------------------
# Public estimators


def _analytic(fn: Callable[[ScalarScenario], Any], scenario: ScalarScenario) -> Any:
    """``fn(scenario)``, or None where the scenario has no analytic value."""
    try:
        return fn(scenario)
    except DomainError:
        return None


def estimate_combine_bias(cfg: ExperimentConfig) -> EstimateResult:
    """Relative bias of one construction's replicate sample variance.

    Runs ``trials`` independent pipelines, averages the per-trial sample
    variance of the synthesized replicates, and normalizes against the
    target variance — analytic when the scenario supports it, otherwise
    the variance across trials of each trial's first replicate centre,
    from the same pass.  A target variance that is not positive raises
    :class:`DomainError`.
    """
    construction = cfg.estimand.removeprefix("combine_bias_")
    if construction not in ("current", "alternative"):
        raise DomainError(f"not a combine-bias estimand: {cfg.estimand}")
    target = _analytic(analytics.target_variance, cfg.scenario)
    if target is not None:
        analytics._require_positive_target(target)
        (s2,) = _run_blocks(cfg, _combine_block, (construction,), False)
        mean_s2, se = map(float, _mean_with_se(s2))
        se /= target
    else:  # no analytic target: the trials' own replicate centres estimate it
        s2, fbar = _run_blocks(cfg, _combine_block, (construction, None), False)
        g = _covariance_values(fbar, fbar)
        mean_s2, target = float(s2.mean()), float(g.mean())
        analytics._require_positive_target(target)
        se = float(_mean_with_se(s2 / target - mean_s2 * g / target**2)[1])
    relbias = (
        analytics.relbias_current if construction == "current" else analytics.relbias_alternative
    )
    return EstimateResult(
        point=mean_s2 / target - 1.0,
        std_error=se,
        trials=s2.size,
        analytic_reference=_analytic(relbias, cfg.scenario),
        extras={"mean_sample_variance": mean_s2, "target_variance": target},
    )


def estimate_target_variance_oracle(cfg: ExperimentConfig) -> EstimateResult:
    """Brute-force estimate of the target variance V[mean_j f(Y_j, S)].

    Independent of both constructions: each trial draws a fresh data
    batch and a single shared error, and the variance is taken across
    trials of the batch mean, the replicate centre of a Q = 1 transform.
    """
    if cfg.scenario is None:
        raise DomainError("target_variance_oracle requires a scenario")
    one = replace(cfg, estimand="target_variance_oracle", scenario=replace(cfg.scenario, q=1))
    (fbar,) = _run_blocks(one, _combine_block, (None,), False)
    point, se = map(float, _mean_with_se(_covariance_values(fbar, fbar)))
    return EstimateResult(
        point=point,
        std_error=se,
        trials=fbar.size,
        analytic_reference=_analytic(analytics.target_variance, cfg.scenario),
        extras={"mean": float(fbar.mean())},
    )


def estimate_mean_variance(cfg: ExperimentConfig) -> EstimateResult:
    """Difference of the grand-mean variances of the two constructions.

    Per trial, both constructions are built from common data, error, and
    noise draws (paired design); the point estimate is
    V[grand mean, current] − V[grand mean, alternative] with an
    influence-based SE that respects the pairing.  A point or SE within
    rounding of zero (1e-12 of the sum of the two variances) is reported
    as exactly 0.0, as for the additive kernel, where the two grand means
    coincide.
    """
    if cfg.estimand != "mean_variance":
        raise DomainError(f"not a mean_variance config: {cfg.estimand}")
    a, b = _run_blocks(cfg, _combine_block, ("current", "alternative"), True)
    n = a.size
    ga = _covariance_values(a, a)
    gb = _covariance_values(b, b)
    var_a, var_b = float(ga.mean()), float(gb.mean())
    point, se = _zero_rounding_noise(*map(float, _mean_with_se(ga - gb)), var_a + var_b)
    return EstimateResult(
        point=point,
        std_error=se,
        trials=n,
        analytic_reference=_analytic(analytics.mean_variance_gap, cfg.scenario),
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
    two sample variances' own influence values.  A point or SE within
    1e-12 of zero is reported as exactly 0.0, as for the additive kernel,
    where the two constructions coincide; so are the raw difference
    V_a − V_c in ``extras`` and its SE, on the scale V_c + V_a.
    """
    if cfg.estimand != "vardiff_reldiff":
        raise DomainError(f"not a vardiff config: {cfg.estimand}")
    s2c, s2a = _run_blocks(cfg, _combine_block, ("current", "alternative"), False)
    n = s2c.size
    gc = _covariance_values(s2c, s2c)
    ga = _covariance_values(s2a, s2a)
    vc, va = float(gc.mean()), float(ga.mean())
    denom = vc + va
    if denom == 0.0:  # both statistics constant across trials
        point, se = 0.0, 0.0
    else:
        se = float(_mean_with_se(2.0 * (va * gc - vc * ga) / denom**2)[1])
        point, se = _zero_rounding_noise((vc - va) / denom, se, 1.0)
    # raw variability difference (alternative minus current) with its own SE,
    # comparable to the closed large-Q form for the multiplicative kernel
    diff, diff_se = _zero_rounding_noise(*map(float, _mean_with_se(ga - gc)), vc + va)
    # Only the additive kernel makes the two constructions' variabilities
    # agree at finite Q; elsewhere the difference merely decays with Q.
    reference = 0.0 if cfg.scenario.kernel.kind == "additive" else None
    return EstimateResult(
        point=point,
        std_error=se,
        trials=n,
        analytic_reference=reference,
        extras={
            "var_s2_current": vc,
            "var_s2_alternative": va,
            "var_diff_alternative_minus_current": diff,
            "var_diff_se": diff_se,
        },
    )


def verify_lemma(cfg: ExperimentConfig) -> EstimateResult:
    """Empirical two-sided check of supporting lemma ``cfg.lemma_id``.

    Builds randomized instances satisfying the lemma's hypotheses and
    reports the estimated difference of both sides (reference 0), except
    lemmas 1 and 5, which estimate one side against its closed form.  The
    point is the mean of the lemma's per-trial influence values and the SE
    their spread over the square root of the trial count.
    """
    if cfg.estimand != "lemma_check":
        raise DomainError(f"not a lemma_check config: {cfg.estimand}")
    plan = _lemma_plan(cfg)
    arrays = _run_blocks(cfg, _lemma_block, plan)
    point, se = _mean_with_se(_LEMMA_VALUES[cfg.lemma_id](*arrays))
    extras = {"mean_sample_variance": float(arrays[0].mean())} if cfg.lemma_id == 5 else None
    return EstimateResult(point, se, arrays[0].shape[0], plan["reference"], extras)


# --------------------------------------------------------------------------
# Analytic parameter maps


@dataclass(frozen=True, eq=False)
class MapResult:
    """Analytic values over data-support cells (a, b), a <= b: cell
    ``values[i, k]`` has a = ``grid[i]`` and b = ``grid[k]``."""

    grid: NDArray[np.float64]
    values: NDArray[np.float64]


def run_map(spec: MapSpec, *, relative: bool = False) -> MapResult:
    """Evaluate the analytic bias factor, or with ``relative`` the
    current-construction relative bias, over the (a, b) grid of uniform
    data laws that ``spec`` describes.

    No sampling.  The relative bias's endpoint terms (cos and sin, or
    powers, at each error node) are taken once per grid value, and the
    target variance's node sums take one difference of two rows of them
    per term, not the conditional moments cell by cell; the phase
    factor's V[sin Y] is a closed form, taken for the whole grid in one
    evaluation.  Row a is one array evaluation
    over its cells b >= a, through the code
    the scenario functions run on a single cell, so every cell equals the
    matching :func:`~mcombine.analytics.bias_factor_current` or
    :func:`~mcombine.analytics.relbias_current` call bit for bit.  NaN
    marks the cells below the diagonal and the cells where that call
    raises: exponential supports with a < 0, and relative biases over a
    target variance <= 0.
    """
    grid = np.linspace(spec.lo, spec.hi, spec.n)
    law = analytics._kernel_error_law(spec.kernel.kind, spec.alpha)
    values = analytics._current_on_uniform_grid(spec.kernel, law, spec.j, grid, relative=relative)
    return MapResult(grid=grid, values=values)


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
    nu = float(scenario.s_dist.mean_vector()[0])
    y = models.sample(scenario.y_dist, trials, stream.substream(_ROLE_Y))[:, 0]
    # the conditional mean's temporaries are freed before f_nom exists
    m = analytics.conditional_mean_given_y(scenario, y)
    f_nom = kernel_eval(scenario.kernel, y, np.asarray(nu))
    del y
    # centred and squared in place, with no further arrays of the draws' size
    for v in (f_nom, m):
        v -= v.mean()
        v *= v
    d = np.subtract(f_nom, m, out=f_nom)
    d *= trials / (trials - 1.0)
    point, se = map(float, _mean_with_se(d))
    return point, se


#: Chunks the relative-bias oracle splits its draws into; its SE is their spread.
_ORACLE_CHUNKS = 10


def relbias_current_oracle(
    scenario: ScalarScenario, trials: int, stream: RngStream
) -> tuple[float, float]:
    """MC estimate (value, SE) of the current construction's relative bias.

    Each of ``_ORACLE_CHUNKS`` chunks draws (Y, Y', S) triples sharing the
    error draw, estimates the target variance from the variance/cross-
    covariance split and the bias factor from independent data draws, and
    forms the ratio; the point is the chunk mean and the SE the chunk spread.
    """
    if trials < 2 * _ORACLE_CHUNKS:
        raise DomainError("oracle needs at least two draws per chunk")
    jj = float(scenario.j)
    nu = float(scenario.s_dist.mean_vector()[0])
    per = trials // _ORACLE_CHUNKS
    vals = []
    for c in range(_ORACLE_CHUNKS):
        gy = stream.substream(c, 0)
        gs = stream.substream(c, 1)
        y1, y2, y3 = (models.sample(scenario.y_dist, per, gy)[:, 0] for _ in range(3))
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
    return float(arr.mean()), float(arr.std(ddof=1)) / math.sqrt(_ORACLE_CHUNKS)
