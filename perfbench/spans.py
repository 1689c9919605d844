"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the package's public functions at the names their
callers bind them by (``experiments.kernel_eval``, ``pipeline.
scaled_rotation_factor``, ``analytics.sample`` ...), and the distribution
classes by their ``__init__``, so ``isinstance`` keeps working.  Each call
becomes a span (name, start, end, parent) kept in memory; a layer's self
time is its spans' duration minus that of their child spans.  Nothing under
``src/`` changes, and the wrappers are removed again after every traced pass.
"""

from __future__ import annotations

import functools
import math
import statistics
from time import perf_counter
from typing import Any, Callable

import numpy as np

from mcombine import analytics, cli, experiments, linalg, models, pipeline, rng
from mcombine.analytics import ScalarScenario
from mcombine.experiments import ExperimentConfig

#: Matrix sizes reported by ``linalg.eig_ms.K*``.
EIG_SIZES = (2, 8, 32, 64)

#: At most this many distinct draw shapes are replayed for the RNG cost.
REPLAY_SHAPES = 16

Count = Callable[[tuple, Any], tuple[int, int]]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, outermost of its name, n, m)
        self.spans: list[tuple | None] = []
        #: Shapes of the RNG draws the traced calls made, for the replay.
        self.shapes: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Count | None = None) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            level = depth.get(name, 0)
            depth[name] = level + 1
            stack.append(idx)
            out, ok = None, False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = level
                n, m = count(args, out) if count is not None and ok else (0, 0)
                spans[idx] = (name, start, end, parent, level == 0, n, m)

        return traced

    def _targets(self) -> list[tuple[Any, str, str, Count | None]]:
        shapes = self.shapes

        def estimate(args, out):
            cfg = next(a for a in args if isinstance(a, ExperimentConfig))
            if cfg.scenario is not None:
                sc = cfg.scenario
                shapes.extend([(cfg.block_size, sc.j), (cfg.block_size, sc.q)])
            return cfg.trials, -(-cfg.trials // cfg.block_size)

        def run_map(args, out):
            n = out.values.shape[0]
            return n * (n + 1) // 2, int(np.isnan(np.triu(out.values)).sum())

        def sample(args, out):
            shapes.append(out.shape)
            return out.size, 0

        def combine(args, out):
            shapes.append(out.replicates.shape)
            return 0, 0

        def size(args, out):
            return int(np.size(out)), 0

        def order(args, out):
            return int(np.shape(args[0])[0]), 0

        E, A, M, P, L = experiments, analytics, models, pipeline, linalg
        targets = [(cli, "main", "cli.main", None)]
        for fn in ("estimate_combine_bias", "estimate_mean_variance", "estimate_vardiff",
                   "verify_lemma", "estimate_target_variance_oracle"):
            targets.append((E, fn, "experiments.estimate", estimate))
        targets += [
            (E, "run_map", "experiments.run_map", run_map),
            (A, "bias_factor_alternative", "analytics.phi", None),
            (A, "target_variance", "analytics.target_variance", None),
            (A, "bias_factor_current", "analytics.bias_factor_current", None),
            (A, "gauss_legendre", "analytics.quad", None),
            (A, "sample", "models.sample", sample),
            (M, "sample", "models.sample", sample),
            (E, "kernel_eval", "models.kernel_eval", size),
            (P, "kernel_eval", "models.kernel_eval", size),
            (M, "kernel_eval", "models.kernel_eval", size),
            (M.Normal, "__init__", "models.dist_ctor", None),
            (M.Uniform, "__init__", "models.dist_ctor", None),
            (M.TwoPoint, "__init__", "models.dist_ctor", None),
            (L, "sym_eigendecompose", "linalg.eig", order),
            (L, "scaled_rotation_factor", "linalg.factor", None),
            (P, "scaled_rotation_factor", "linalg.factor", None),
            (M, "scaled_rotation_factor", "linalg.factor", None),
            (L, "sample_covariance", "linalg.cov", None),
            (L, "cross_covariance", "linalg.cov", None),
            (P, "sample_covariance", "linalg.cov", None),
            (E, "sample_covariance", "linalg.cov", None),
            (E, "cross_covariance", "linalg.cov", None),
            (P, "transform_stage", "pipeline.transform", None),
            (P, "combine_current", "pipeline.combine", combine),
            (P, "combine_alternative", "pipeline.combine", combine),
            (P, "combine_with_noise", "pipeline.combine", None),
        ]
        return targets

    def install(self) -> None:
        for owner, attr, name, count in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        # A stream opens (seeds its generator) on the first access of .gen.
        prop = rng.RngStream.__dict__["gen"]
        opened = self._wrap("rng.open", prop.fget)
        self._saved.append((rng.RngStream, "gen", prop))
        rng.RngStream.gen = property(lambda s: opened(s) if s._gen is None else s._gen)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[tuple], list[tuple[int, int]]]:
        """Return and forget the spans and draw shapes recorded so far."""
        spans, shapes = list(self.spans), list(self.shapes)
        self.spans.clear()
        self.shapes.clear()
        return spans, shapes


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and outermost duration, self time, n, m."""
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, outer, n, m) in enumerate(spans):
        d = end - start
        a = agg.setdefault(name, dict(calls=0, total=0.0, outer=0.0, self=0.0, n=0, m=0))
        a["calls"] += 1
        a["total"] += d
        a["outer"] += d if outer else 0.0
        a["self"] += d - child[i]
        a["n"] += n
        a["m"] += m
    return agg


def layer_metrics(spans: list[tuple], agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, given its :func:`aggregate`."""
    empty = dict(calls=0, total=0.0, outer=0.0, self=0.0, n=0, m=0)

    def get(name: str, key: str) -> float:
        return agg.get(name, empty)[key]

    def per_call(name: str, scale: float) -> float:
        calls = get(name, "calls")
        return get(name, "total") / calls * scale if calls else 0.0

    eig: dict[int, list[float]] = {}
    for name, start, end, _, _, n, _ in spans:
        if name == "linalg.eig":
            eig.setdefault(n, []).append((end - start) * 1e3)
    out = {
        "rng.streams_opened": get("rng.open", "calls"),
        "rng.open_us": per_call("rng.open", 1e6),
        "models.kernel_eval_s": get("models.kernel_eval", "total"),
        "models.kernel_elems": get("models.kernel_eval", "n"),
        "models.dist_ctor_s": get("models.dist_ctor", "total"),
        "models.dist_ctor_calls": get("models.dist_ctor", "calls"),
        "models.sample_s": get("models.sample", "outer"),
        "linalg.eig_calls": get("linalg.eig", "calls"),
        "linalg.cov_s": get("linalg.cov", "total"),
        "pipeline.transform_s": get("pipeline.transform", "total"),
        "pipeline.combine_self_s": get("pipeline.combine", "self"),
        "analytics.phi_s": get("analytics.phi", "outer"),
        "analytics.phi_calls": get("analytics.phi", "calls"),
        "analytics.target_variance_us": per_call("analytics.target_variance", 1e6),
        "analytics.bias_factor_current_us": per_call("analytics.bias_factor_current", 1e6),
        "analytics.quad_calls": get("analytics.quad", "calls"),
        "experiments.estimate_self_s": get("experiments.estimate", "self"),
        "experiments.trials": get("experiments.estimate", "n"),
        "experiments.blocks": get("experiments.estimate", "m"),
        "experiments.run_map_self_s": get("experiments.run_map", "self"),
        "experiments.map_cells": get("experiments.run_map", "n"),
        "experiments.map_nan_cells": get("experiments.run_map", "m"),
        "cli.self_s": get("cli.main", "self"),
    }
    for k in EIG_SIZES:
        out[f"linalg.eig_ms.K{k}"] = statistics.fmean(eig[k]) if k in eig else 0.0
    return out


def replay_draw_ns(shapes: list[tuple[int, int]], seed: int, repeats: int = 3) -> float:
    """Median cost per value of drawing the traced shapes through ``RngStream``.

    The harness draws from bare numpy generators that no wrapper reaches, so
    its block shapes are replayed here, each as one uniform and one normal
    draw from a freshly opened stream (opening is not timed).
    """
    costs = []
    for i, shape in enumerate(sorted(set(shapes))[:REPLAY_SHAPES]):
        for r in range(repeats):
            stream = rng.RngStream(seed).substream(1 << 40, i, r)
            stream.gen
            start = perf_counter()
            stream.random(shape)
            stream.standard_normal(shape)
            costs.append((perf_counter() - start) * 1e9 / (2 * math.prod(shape)))
    return statistics.median(costs) if costs else 0.0


def pool_overhead_ms(seed: int, repeats: int = 3) -> float:
    """A two-block vardiff estimate at two workers minus the same at one."""
    scenario = ScalarScenario(
        kernel=models.PHASE,
        y_dist=models.TwoPoint(a=[-math.pi / 2], b=[math.pi / 2]),
        s_dist=models.Uniform(lo=[-math.pi], hi=[math.pi]),
        j=4,
        q=10,
    )

    def once(workers: int) -> float:
        cfg = ExperimentConfig(estimand="vardiff_reldiff", trials=2048, scenario=scenario,
                               master_seed=seed, block_size=1024, workers=workers)
        start = perf_counter()
        experiments.estimate_vardiff(cfg)
        return perf_counter() - start

    return statistics.median((once(2) - once(1)) * 1e3 for _ in range(repeats))
