"""Command-line front end: run experiments and write CSV/JSON artifacts.

Subcommands
-----------
pipeline      run one transform+combine pass over a data CSV, emit JSON
bias-sweep    relative bias of a construction across a range of Q values
psi-map       analytic bias-factor grid over uniform data supports
relbias-map   analytic relative-bias grid over uniform data supports
vardiff       normalized variability difference of the two constructions
lemmas        empirical checks of the five supporting identities
mean-var      grand-mean variance difference of the two constructions

Every flag can instead be supplied through ``--config FILE`` (a JSON
object whose keys are the flag names with dashes replaced by
underscores); explicit command-line flags win over config-file values.

Ranges (for ``--q`` and ``--grid``) use ``lo:hi:N`` for N linearly spaced
values, ``lo:hi:logN`` for N logarithmically spaced values, or a comma
list like ``5,50,500``.

Exit status: 0 success, 1 configuration error, 2 numerical failure.
All output floats are printed with 17 significant digits, so artifacts
are round-trip safe and byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import analytics, experiments, models, pipeline
from .exceptions import DomainError, NumericalError
from .experiments import ExperimentConfig, MapSpec
from .models import Normal, TwoPoint, Uniform
from .rng import RngStream

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 0

_RANGE_HELP = "range: lo:hi:N (linear), lo:hi:logN (log-spaced), or comma list"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the artifact contract
    # reserves 2 for numerical failures, so remap to a config error.
    def error(self, message):
        raise DomainError(message)


# --------------------------------------------------------------------------
# Small parsing/formatting helpers


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _parse_range(value) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    text = str(value).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"bad range {text!r}; expected lo:hi:N or lo:hi:logN")
        lo, hi, count = parts
        log = count.startswith("log")
        count = count[3:] if log else count
        try:
            lo_f, hi_f, n = float(lo), float(hi), int(count)
        except ValueError:
            raise DomainError(f"bad range {text!r}; expected numeric lo:hi:N") from None
        if n < 1:
            raise DomainError(f"range {text!r} needs at least one point")
        if log:
            if lo_f <= 0 or hi_f <= 0:
                raise DomainError(f"log range {text!r} needs positive endpoints")
            return list(np.geomspace(lo_f, hi_f, n))
        return list(np.linspace(lo_f, hi_f, n))
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"bad range {text!r}") from None


def _q_values(value) -> list[int]:
    qs: list[int] = []
    for v in _parse_range(value):
        q = int(round(v))
        if q < 2:
            raise DomainError(f"Q values must be >= 2, got {q}")
        if not qs or qs[-1] != q:
            qs.append(q)
    return qs


def _grid_triple(value) -> tuple[float, float, int]:
    text = str(value).strip()
    parts = text.split(":")
    if len(parts) != 3 or parts[2].startswith("log"):
        raise DomainError(f"bad grid {text!r}; expected lo:hi:N")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"bad grid {text!r}; expected numeric lo:hi:N") from None


def _load_dist(value) -> models.DistSpec:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad distribution JSON: {exc}") from None
    return models.dist_from_json(value)


def _check_choice(name: str, value, choices: Sequence[str]) -> str:
    if value not in choices:
        raise DomainError(f"--{name} must be one of {', '.join(choices)}; got {value!r}")
    return value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_clean(obj):
    """NaN is not valid JSON; emit null instead."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(_json_clean(payload), indent=2, allow_nan=False) + "\n")


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    _write_text(path, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Config-file merging


def _merge_config(ns: argparse.Namespace, parser_dests: set[str]) -> None:
    if getattr(ns, "config", None) is None:
        return
    try:
        with open(ns.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    for key, value in data.items():
        if key == "config" or key not in parser_dests:
            raise DomainError(f"unknown config key {key!r} for this subcommand")
        if getattr(ns, key) is None:
            setattr(ns, key, value)


def _resolve(ns: argparse.Namespace, key: str, default):
    value = getattr(ns, key, None)
    return default if value is None else value


def _require_out(ns: argparse.Namespace) -> str:
    out = getattr(ns, "out", None)
    if out is None:
        raise DomainError("missing --out (or 'out' in the config file)")
    return str(out)


# --------------------------------------------------------------------------
# Scenario assembly shared by the MC subcommands


def _default_dists(model: str, alpha) -> tuple[models.DistSpec, models.DistSpec]:
    if model in ("additive", "multiplicative"):
        std = Normal(mean=[0.0], cov=[[1.0]])
        return std, std
    if model == "phase":
        half = math.pi if alpha is None else float(alpha)
        return (
            TwoPoint(a=[-math.pi / 2.0], b=[math.pi / 2.0], p=0.5),
            Uniform(lo=[-half], hi=[half]),
        )
    if model == "exponential":
        a = 0.95 if alpha is None else float(alpha)
        return Uniform(lo=[0.0], hi=[8.0]), Uniform(lo=[1.0 - a], hi=[1.0 + a])
    raise DomainError(f"unknown model {model!r}")


def _build_scenario(ns: argparse.Namespace, j: int, q: int) -> analytics.ScalarScenario:
    model = getattr(ns, "model", None)
    if model is None:
        raise DomainError("missing --model")
    alpha = getattr(ns, "alpha", None)
    if alpha is not None and getattr(ns, "s_dist", None) is not None:
        raise DomainError("--alpha and --s-dist are mutually exclusive")
    y_default, s_default = _default_dists(model, alpha)
    y_dist = _load_dist(ns.y_dist) if getattr(ns, "y_dist", None) is not None else y_default
    s_dist = _load_dist(ns.s_dist) if getattr(ns, "s_dist", None) is not None else s_default
    return analytics.ScalarScenario(
        kernel=models.kernel_from_json(model), y_dist=y_dist, s_dist=s_dist, j=j, q=q
    )


def _common_mc(ns: argparse.Namespace, default_trials: int):
    return (
        int(_resolve(ns, "trials", default_trials)),
        int(_resolve(ns, "seed", DEFAULT_SEED)),
        int(_resolve(ns, "workers", 1)),
        int(_resolve(ns, "block_size", 1024)),
        _check_choice("format", _resolve(ns, "format", "csv"), ("csv", "json")),
    )


# --------------------------------------------------------------------------
# Subcommand runners


#: Q-sweep subcommands: (artifact column, default trials, estimand, estimator
#: name).  bias-sweep's estimand follows --construction.  The estimator is
#: looked up on ``experiments`` at each call, so a wrapper installed on the
#: module (perfbench/spans.py) sees it.
_SWEEPS = {
    "bias-sweep": ("relbias", 10_000, None, "estimate_combine_bias"),
    "vardiff": ("reldiff", 100_000, "vardiff_reldiff", "estimate_vardiff"),
    "mean-var": ("diff", 10_000, "mean_variance", "estimate_mean_variance"),
}


def _run_sweep(ns, cmd: str) -> int:
    """One seeded estimate per Q value (salt = index), written as one artifact."""
    column, default_trials, estimand, estimator = _SWEEPS[cmd]
    label = f"{cmd} {ns.model}"
    if estimand is None:
        construction = _check_choice(
            "construction", _resolve(ns, "construction", "current"), ("current", "alternative")
        )
        estimand = f"combine_bias_{construction}"
        label += f" {construction}"
    trials, seed, workers, block_size, fmt = _common_mc(ns, default_trials)
    j = int(_resolve(ns, "j", 4))
    qs = _q_values(_resolve(ns, "q", "10"))
    results = []
    for idx, q in enumerate(qs):
        cfg = ExperimentConfig(
            estimand=estimand,
            trials=trials,
            scenario=_build_scenario(ns, j, q),
            master_seed=seed,
            salt=idx,
            block_size=block_size,
            workers=workers,
        )
        results.append((q, getattr(experiments, estimator)(cfg)))
    out = _require_out(ns)
    if fmt == "json":
        _write_json(out, [{"q": q, **res.to_json_dict()} for q, res in results])
    else:
        rows = [
            (_fmt(q), _fmt(res.point), _fmt(res.std_error), _fmt(res.analytic_reference))
            for q, res in results
        ]
        _write_csv(out, ("q", column, "std_error", "analytic_reference"), rows)
    q, last = results[-1]
    print(
        f"{label}: {len(qs)} Q values -> {out} "
        f"({column}[Q={q}] = {last.point:.6g} +/- {last.std_error:.6g})"
    )
    return 0


def _run_map(ns, estimand: str) -> int:
    model = getattr(ns, "model", None)
    if model is None:
        raise DomainError("missing --model")
    lo, hi, n = _grid_triple(_resolve(ns, "grid", "0:8:161"))
    alpha = float(_resolve(ns, "alpha", 0.95))
    j = int(_resolve(ns, "j", 2))
    fmt = _check_choice("format", _resolve(ns, "format", "csv"), ("csv", "json"))
    spec = MapSpec(kernel=models.kernel_from_json(model), alpha=alpha, lo=lo, hi=hi, n=n, j=j)
    grid = experiments.run_map(ExperimentConfig(estimand=estimand, map=spec))
    out = _require_out(ns)
    column = "psi" if estimand == "psi_map" else "relbias"
    if fmt == "json":
        payload = {
            "a_values": grid.a_values.tolist(),
            "b_values": grid.b_values.tolist(),
            column: grid.values.tolist(),
        }
        _write_json(out, payload)
    else:
        rows = [(_fmt(a), _fmt(b), _fmt(v)) for a, b, v in grid.rows()]
        _write_csv(out, ("a", "b", column), rows)
    cells = n * (n + 1) // 2
    print(f"{estimand.replace('_', '-')} {model}: {n}x{n} grid ({cells} cells) -> {out}")
    return 0


def _run_lemmas(ns) -> int:
    trials, seed, workers, block_size, fmt = _common_mc(ns, 100_000)
    raw = _resolve(ns, "id", "all")
    if isinstance(raw, int):
        ids = [raw]
    elif str(raw).strip() == "all":
        ids = [1, 2, 3, 4, 5]
    else:
        try:
            ids = [int(tok) for tok in str(raw).split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"bad --id {raw!r}; expected 'all' or a comma list") from None
    u2 = float(_resolve(ns, "u2", 0.0))
    n_obs = int(_resolve(ns, "n", 2))
    results = {}
    for lid in ids:
        cfg = ExperimentConfig(
            estimand="lemma_check",
            trials=trials,
            master_seed=seed,
            salt=lid,
            block_size=block_size,
            workers=workers,
            lemma_id=lid,
            lemma_u2=u2,
            lemma_n=n_obs,
        )
        results[lid] = experiments.verify_lemma(lid, cfg)
    out = _require_out(ns)
    if fmt == "json":
        _write_json(out, {str(lid): res.to_json_dict() for lid, res in results.items()})
    else:
        rows = []
        for lid, res in results.items():
            point = np.atleast_2d(np.asarray(res.point, dtype=float))
            se = np.atleast_2d(np.asarray(res.std_error, dtype=float))
            ref = np.atleast_2d(np.asarray(res.analytic_reference, dtype=float))
            z = np.atleast_2d(np.asarray(res.z_score, dtype=float))
            for r in range(point.shape[0]):
                for c in range(point.shape[1]):
                    rows.append(
                        (
                            str(lid),
                            str(r),
                            str(c),
                            _fmt(point[r, c]),
                            _fmt(se[r, c]),
                            _fmt(ref[r, c]),
                            _fmt(z[r, c]),
                        )
                    )
        _write_csv(
            out,
            ("lemma", "row", "col", "point", "std_error", "analytic_reference", "z_score"),
            rows,
        )
    worst = max(res.max_abs_z() for res in results.values())
    print(f"lemmas {','.join(map(str, ids))}: trials={trials} max|z| = {worst:.3g} -> {out}")
    return 0


def _read_data_csv(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DomainError(f"data CSV {path!r} is empty") from None
            expected = [f"y_{i + 1}" for i in range(len(header))]
            if [h.strip() for h in header] != expected:
                raise DomainError(
                    f"data CSV header must be {','.join(expected)}; got {','.join(header)}"
                )
            rows = []
            for line in reader:
                if not line:
                    continue
                try:
                    rows.append([float(tok) for tok in line])
                except ValueError:
                    raise DomainError(f"non-numeric data row: {line}") from None
    except OSError as exc:
        raise DomainError(f"cannot read data CSV: {exc}") from None
    if len(rows) < 2:
        raise DomainError("data CSV needs at least two measurement rows")
    widths = {len(r) for r in rows}
    if widths != {len(header)}:
        raise DomainError("data CSV rows have inconsistent lengths")
    return np.asarray(rows, dtype=float)


def _run_pipeline(ns) -> int:
    model = getattr(ns, "model", None)
    if model is None:
        raise DomainError("missing --model")
    if getattr(ns, "data", None) is None:
        raise DomainError("missing --data")
    construction = _check_choice(
        "construction", _resolve(ns, "construction", "current"), ("current", "alternative")
    )
    _check_choice("format", _resolve(ns, "format", "json"), ("json",))
    seed = int(_resolve(ns, "seed", DEFAULT_SEED))
    q = int(_resolve(ns, "q", 100))
    rows = _read_data_csv(str(ns.data))
    k = rows.shape[1]
    nu_flag = getattr(ns, "nu", None)
    s_dist_flag = getattr(ns, "s_dist", None)
    if s_dist_flag is not None:
        s_dist = _load_dist(s_dist_flag)
        if s_dist.k != k:
            raise DomainError(f"--s-dist has {s_dist.k} components but data has {k}")
        nu = s_dist.mean_vector()
        if nu_flag is not None and abs(float(nu_flag) - float(nu[0])) > 1e-12:
            raise DomainError("--nu conflicts with the mean of --s-dist")
    else:
        nu_scalar = 0.0 if nu_flag is None else float(nu_flag)
        nu = np.full(k, nu_scalar)
        s_dist = Normal(mean=nu, cov=np.eye(k))
    data = pipeline.DataBatch(rows)
    spec = models.TransformSpec(kernel=models.kernel_from_json(model))
    root = RngStream(seed)
    s_rows = models.sample(s_dist, q, root.substream(0))
    errors = pipeline.ErrorBatch(s_rows, shared=True)
    t = pipeline.transform_stage(data, errors, spec, nu)
    if construction == "current":
        combined = pipeline.combine_current(t, root.substream(1))
    else:
        combined = pipeline.combine_alternative(t, root.substream(1))
    out = _require_out(ns)
    payload = {
        "model": model,
        "construction": construction,
        "seed": seed,
        "j": int(rows.shape[0]),
        "k": k,
        "q": q,
        "nu": nu.tolist(),
        **combined.to_json_dict(),
    }
    _write_json(out, payload)
    print(f"pipeline {model} {construction}: J={rows.shape[0]} K={k} Q={q} -> {out}")
    return 0


# --------------------------------------------------------------------------
# Parser assembly


def _add_common(sub: argparse.ArgumentParser, *, trials_default: int) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags override its keys")
    sub.add_argument("--out", help="output artifact path")
    sub.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    sub.add_argument("--trials", type=int, help=f"MC trials (default {trials_default})")
    sub.add_argument("--workers", type=int, help="worker processes (default 1)")
    sub.add_argument("--block-size", type=int, help="trials per RNG block (default 1024)")
    sub.add_argument("--format", help="artifact format: csv or json (default csv)")


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--model", help="error kernel: additive, multiplicative, phase, or exponential"
    )
    sub.add_argument("--j", type=int, help="data vectors per batch (default 4)")
    sub.add_argument("--q", help=f"error draws per batch; {_RANGE_HELP}")
    sub.add_argument("--y-dist", help="data law as JSON (default depends on --model)")
    sub.add_argument("--s-dist", help="error law as JSON (default depends on --model)")
    sub.add_argument(
        "--alpha",
        type=float,
        help="error half-width for phase/exponential defaults (excludes --s-dist)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mcombine",
        description=__doc__.split("\n\n")[0],
        epilog=f"Q/grid {_RANGE_HELP}. Exit codes: 0 ok, 1 config error, 2 numerical failure.",
    )
    subs = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = subs.add_parser("pipeline", help="run one transform+combine pass over a data CSV")
    p.add_argument("--config", help="JSON config file; explicit flags override its keys")
    p.add_argument("--data", help="input CSV with header y_1,...,y_K")
    p.add_argument("--model", help="error kernel name")
    p.add_argument("--nu", type=float, help="nominal error value (default 0)")
    p.add_argument("--s-dist", help="error law as JSON (default normal(nu, identity))")
    p.add_argument("--q", type=int, help="MC error draws (default 100)")
    p.add_argument("--construction", help="current or alternative (default current)")
    p.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--format", help="json (the only pipeline format)")
    p.add_argument("--out", help="output JSON path")

    b = subs.add_parser("bias-sweep", help="construction relative bias across Q values")
    _add_common(b, trials_default=10_000)
    _add_scenario_flags(b)
    b.add_argument("--construction", help="current or alternative (default current)")

    for name, estimand in (("psi-map", "psi_map"), ("relbias-map", "relbias_map")):
        m = subs.add_parser(name, help=f"analytic {estimand.replace('_', ' ')} over (a,b) grid")
        m.add_argument("--config", help="JSON config file; explicit flags override its keys")
        m.add_argument("--model", help="error kernel name")
        m.add_argument("--alpha", type=float, help="error half-width (default 0.95)")
        m.add_argument("--grid", help="data-support grid lo:hi:N (default 0:8:161)")
        m.add_argument("--j", type=int, help="batch size for relbias maps (default 2)")
        m.add_argument("--format", help="csv or json (default csv)")
        m.add_argument("--out", help="output path")

    v = subs.add_parser("vardiff", help="variability difference of the constructions")
    _add_common(v, trials_default=100_000)
    _add_scenario_flags(v)

    le = subs.add_parser("lemmas", help="empirical checks of the supporting identities")
    _add_common(le, trials_default=100_000)
    le.add_argument("--id", help="lemma id 1..5, comma list, or 'all' (default all)")
    le.add_argument("--u2", type=float, help="mean dispersion for lemma 5 (default 0)")
    le.add_argument("--n", type=int, help="observations per lemma-5 instance (default 2)")

    mv = subs.add_parser("mean-var", help="grand-mean variance difference across Q values")
    _add_common(mv, trials_default=10_000)
    _add_scenario_flags(mv)

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "pipeline": _run_pipeline,
    **{cmd: functools.partial(_run_sweep, cmd=cmd) for cmd in _SWEEPS},
    "psi-map": lambda ns: _run_map(ns, "psi_map"),
    "relbias-map": lambda ns: _run_map(ns, "relbias_map"),
    "lemmas": _run_lemmas,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.cmd is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        _merge_config(ns, set(vars(ns)) - {"cmd"})
        return _DISPATCH[ns.cmd](ns)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
