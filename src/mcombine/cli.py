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

Each flag is declared once, in ``build_parser``: its default (shown by
``--help``), its converter and its allowed values.  Every flag can
instead be supplied through ``--config FILE`` (a JSON object whose keys
are the flag names with dashes replaced by underscores); each value goes
through its flag's own converter and choices, and explicit command-line
flags win over config-file values.  A missing ``--out`` (or ``--model``,
or pipeline's ``--data``) exits 1 before any work.

Ranges for ``--q`` use ``lo:hi:N`` for N linearly spaced values,
``lo:hi:logN`` for N logarithmically spaced values, or a comma list like
``5,50,500``; ``--grid`` takes ``lo:hi:N`` only.

Exit status: 0 success, 1 configuration error, 2 numerical failure.
``main(argv)`` returns that status, so it can also be called in-process:
it builds its parser once per process, on the first call, and keeps no
state between calls.
Sizes are checked before anything is allocated: a run whose arrays
would pass 1 GiB of float64 exits 1, be it a ``--q``, a ``--grid`` or a
lemma block of ``--block-size``·max(8, ``--n``) draws.
CSV artifacts print floats with 17 significant digits.  JSON artifacts
hold one top-level item per line, each in the stdlib encoder's form
(Python's shortest round-trip ``repr``); a map cell with no value is
``null``, and any other NaN or infinity exits 1.  Either way artifacts
are round-trip safe and byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat

import numpy as np

from . import analytics, experiments, models, pipeline
from .exceptions import DomainError, NumericalError
from .experiments import ExperimentConfig, MapSpec
from .models import Normal, TwoPoint, Uniform
from .rng import RngStream

__all__ = ["main", "build_parser"]

_RANGE_HELP = "range: lo:hi:N (linear), lo:hi:logN (log-spaced), or comma list"


class _Formatter(argparse.HelpFormatter):
    # --help shows the default of every flag that has one
    def _get_help_string(self, action):
        if action.default is None or action.default == argparse.SUPPRESS:
            return action.help
        return f"{action.help} (default %(default)s)"


#: argparse's action and type registries, which it would copy into every
#: parser; every parser and group here reads this one.  The parser ``main``
#: keeps for the process then holds no per-subcommand copy (a 568-byte
#: C-heap block each, which raised the peak RSS of later work).
_REGISTRIES = argparse.ArgumentParser(add_help=False)._registries


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, **kwargs)
        for container in (self, *self._action_groups):
            container._registries = _REGISTRIES

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
    text = str(value).strip()
    if isinstance(value, (int, float)):
        values = [float(value)]
    elif isinstance(value, (list, tuple)):
        values = [float(v) for v in value]
    elif ":" in text:
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
        # a finite width also keeps numpy's spacing arithmetic from overflowing
        if not math.isfinite(hi_f - lo_f):
            raise DomainError(f"range {text!r} needs finite endpoints")
        if log:
            if lo_f <= 0 or hi_f <= 0:
                raise DomainError(f"log range {text!r} needs positive endpoints")
            return list(np.geomspace(lo_f, hi_f, n))
        return list(np.linspace(lo_f, hi_f, n))
    else:
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"bad range {text!r}") from None
    if not values:
        raise DomainError(f"range {value!r} names no value")
    if not all(map(math.isfinite, values)):
        raise DomainError(f"range values must be finite, got {value!r}")
    return values


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


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in turn: an iterator's chunks are made as they are written."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunks)


def _write_json(path: str, payload) -> None:
    """``payload`` (a dict with string keys, or a list) as one top-level item per line.

    Each item is in the stdlib encoder's default form.  A float array is
    written a row at a time as the ``repr`` of the row's list, which for
    finite floats is the encoder's text: ``", "`` separators and float
    ``repr``.  A matrix given as an iterator of rows is encoded a row at a
    time as it is written.  Either way only one row's text is held at a
    time.  NaN and infinities raise ``ValueError``; in any item but such an
    iterator, before the file is opened.
    """
    encode = json.JSONEncoder(allow_nan=False).encode

    def item(value) -> Iterable[str]:
        if isinstance(value, np.ndarray):
            if not np.isfinite(value).all():
                raise ValueError("Out of range float values are not JSON compliant")
            rows = (repr(row.tolist()) for row in value)
        elif isinstance(value, Iterator):
            rows = map(encode, value)
        else:
            return [encode(value)]
        seps = chain([""], repeat(", "))
        return chain(["["], (sep + row for sep, row in zip(seps, rows)), ["]"])

    if isinstance(payload, dict):
        items = [chain([f"{encode(key)}: "], item(value)) for key, value in payload.items()]
        brackets = "{}"
    else:
        items = list(map(item, payload))
        brackets = "[]"
    seps = chain([brackets[0] + "\n  "], repeat(",\n  "))
    body = chain.from_iterable(chain([sep], chunks) for sep, chunks in zip(seps, items))
    _write_text(path, chain(body, ["\n" + brackets[1] + "\n"]))


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    _write_text(path, ["\n".join(lines) + "\n"])


# --------------------------------------------------------------------------
# Config files


def _convert(key: str, value, action: argparse.Action):
    """A config value through its flag's converter and choices, as if typed as the flag.

    Booleans and other JSON types are refused where a number or path is
    meant, and so is a non-integral number where an integer is meant.
    """
    convert, got = action.type, json.dumps(value)
    if convert is not None:
        fraction = convert is int and isinstance(value, float) and not value.is_integer()
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)) or fraction:
                raise ValueError
            value = convert(value)
        except (ValueError, OverflowError):
            need = f"needs a value of type {convert.__name__}"
            raise DomainError(f"config key {key!r} {need}, got {got}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(action.choices)
        raise DomainError(f"config key {key!r} must be one of {choices}; got {got}")
    return value


def _read_config(path: str, sub: argparse.ArgumentParser) -> argparse.Namespace:
    """The config file as a namespace of converted values, keyed by flag dest."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    ns = argparse.Namespace()
    for key, value in data.items():
        if key not in actions:
            raise DomainError(f"unknown config key {key!r} for this subcommand")
        setattr(ns, key, _convert(key, value, actions[key]))
    return ns


# --------------------------------------------------------------------------
# Scenario assembly shared by the MC subcommands


def _default_dists(model: str, alpha: float | None) -> tuple[models.DistSpec, models.DistSpec]:
    if model == "phase":
        y_dist, half = TwoPoint(a=[-math.pi / 2.0], b=[math.pi / 2.0], p=0.5), math.pi
    elif model == "exponential":
        y_dist, half = Uniform(lo=[0.0], hi=[8.0]), MapSpec.alpha
    else:
        y_dist, half = Normal(mean=[0.0], cov=[[1.0]]), None
    s_dist = analytics._kernel_error_law(model, half if alpha is None else alpha)
    return y_dist, s_dist


def _build_scenario(ns: argparse.Namespace, q: int) -> analytics.ScalarScenario:
    if ns.alpha is not None and ns.s_dist is not None:
        raise DomainError("--alpha and --s-dist are mutually exclusive")
    if ns.alpha is not None and ns.model in ("additive", "multiplicative"):
        raise DomainError(f"--alpha shapes only the phase and exponential error laws, not {ns.model}")
    y_default, s_default = _default_dists(ns.model, ns.alpha)
    y_dist = y_default if ns.y_dist is None else _load_dist(ns.y_dist)
    s_dist = s_default if ns.s_dist is None else _load_dist(ns.s_dist)
    return analytics.ScalarScenario(
        kernel=models.kernel_from_json(ns.model), y_dist=y_dist, s_dist=s_dist, j=ns.j, q=q
    )


# --------------------------------------------------------------------------
# Subcommand runners


#: Q-sweep subcommands: (artifact column, estimand, estimator name).
#: bias-sweep's estimand follows --construction.  The estimator is looked
#: up on ``experiments`` at each call, so a wrapper installed on the
#: module (perfbench/spans.py) sees it.
_SWEEPS = {
    "bias-sweep": ("relbias", None, "estimate_combine_bias"),
    "vardiff": ("reldiff", "vardiff_reldiff", "estimate_vardiff"),
    "mean-var": ("diff", "mean_variance", "estimate_mean_variance"),
}


def _run_sweep(ns, cmd: str) -> int:
    """One seeded estimate per Q value (salt = index), written as one artifact."""
    column, estimand, estimator = _SWEEPS[cmd]
    label = f"{cmd} {ns.model}"
    if estimand is None:
        estimand = f"combine_bias_{ns.construction}"
        label += f" {ns.construction}"
    qs = _q_values(ns.q)
    # every Q value's config is checked before the first estimate runs
    cfgs = [
        ExperimentConfig(
            estimand=estimand,
            trials=ns.trials,
            scenario=_build_scenario(ns, q),
            master_seed=ns.seed,
            salt=idx,
            block_size=ns.block_size,
            workers=ns.workers,
        )
        for idx, q in enumerate(qs)
    ]
    results = [(cfg.scenario.q, getattr(experiments, estimator)(cfg)) for cfg in cfgs]
    if ns.format == "json":
        _write_json(ns.out, [{"q": q, **res.to_json_dict()} for q, res in results])
    else:
        rows = [
            (_fmt(q), _fmt(res.point), _fmt(res.std_error), _fmt(res.analytic_reference))
            for q, res in results
        ]
        _write_csv(ns.out, ("q", column, "std_error", "analytic_reference"), rows)
    q, last = results[-1]
    print(
        f"{label}: {len(qs)} Q values -> {ns.out} "
        f"({column}[Q={q}] = {last.point:.6g} +/- {last.std_error:.6g})"
    )
    return 0


#: Map subcommands: the bias factor and the current construction's relative bias.
_MAPS = ("psi-map", "relbias-map")


def _run_map(ns, cmd: str) -> int:
    lo, hi, n = _grid_triple(ns.grid)
    kernel = models.kernel_from_json(ns.model)
    relative = cmd == "relbias-map"
    # psi-map takes no --j
    spec = MapSpec(kernel=kernel, alpha=ns.alpha, lo=lo, hi=hi, n=n,
                   j=ns.j if relative else MapSpec.j)
    result = experiments.run_map(spec, relative=relative)
    column = "relbias" if relative else "psi"
    # both writers hold one grid row's text at a time, never the whole map's
    if ns.format == "json":
        if np.isinf(result.values).any():  # refused before the file is opened
            raise ValueError("Out of range float values are not JSON compliant")
        # undefined cells are null, so no NaN reaches the writer
        rows = ([None if math.isnan(v) else v for v in row.tolist()] for row in result.values)
        coords = result.grid.tolist()
        payload = {"a_values": coords, "b_values": coords, column: rows}
        _write_json(ns.out, payload)
    else:
        # each grid coordinate is formatted once, and each row a = a_i of
        # cells (a, b_k, value), k >= i, by one %-format ('%.17g' is _fmt)
        coord_text = list(map(_fmt, result.grid.tolist()))

        def lines() -> Iterator[str]:
            yield f"a,b,{column}\n"
            for i, a in enumerate(coord_text):
                flat = [None] * (2 * (n - i))
                flat[::2] = coord_text[i:]
                flat[1::2] = result.values[i, i:].tolist()
                yield (a + ",%s,%.17g\n") * (n - i) % tuple(flat)

        _write_text(ns.out, lines())
    cells = n * (n + 1) // 2
    print(f"{cmd} {ns.model}: {n}x{n} grid ({cells} cells) -> {ns.out}")
    return 0


def _lemma_ids(raw) -> list[int]:
    # a config's JSON number goes through its text; JSON true ("True") is refused
    if str(raw).strip() == "all":
        return [1, 2, 3, 4, 5]
    try:
        ids = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"bad --id {raw!r}; expected 'all' or a comma list") from None
    if not ids:
        raise DomainError(f"bad --id {raw!r}; it names no lemma")
    return ids


def _run_lemmas(ns) -> int:
    ids = _lemma_ids(ns.id)
    # every lemma's config is checked before the first check runs
    cfgs = [
        ExperimentConfig(
            estimand="lemma_check",
            trials=ns.trials,
            master_seed=ns.seed,
            salt=lid,
            block_size=ns.block_size,
            workers=ns.workers,
            lemma_id=lid,
            lemma_u2=ns.u2,
            lemma_n=ns.n,
        )
        for lid in ids
    ]
    results = {cfg.lemma_id: experiments.verify_lemma(cfg) for cfg in cfgs}
    if ns.format == "json":
        _write_json(ns.out, {str(lid): res.to_json_dict() for lid, res in results.items()})
    else:
        rows = []
        for lid, res in results.items():
            # point, SE, reference and z as matrices: a scalar is 1x1, a vector one row
            values = (res.point, res.std_error, res.analytic_reference, res.z_score)
            table = np.array(values, dtype=float)
            table = table.reshape(4, *np.atleast_2d(table[0]).shape)
            for r, c in np.ndindex(table.shape[1:]):
                rows.append((str(lid), str(r), str(c), *map(_fmt, table[:, r, c])))
        _write_csv(
            ns.out,
            ("lemma", "row", "col", "point", "std_error", "analytic_reference", "z_score"),
            rows,
        )
    worst = max(res.max_abs_z() for res in results.values())
    print(f"lemmas {','.join(map(str, ids))}: trials={ns.trials} max|z| = {worst:.3g} -> {ns.out}")
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
                if not line or (len(line) == 1 and not line[0].strip()):  # a blank line
                    continue
                try:
                    rows.append(list(map(float, line)))
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
    rows = _read_data_csv(ns.data)
    k = rows.shape[1]
    pipeline._require_size(ns.q, rows.shape[0], k)
    if ns.s_dist is not None:
        s_dist = _load_dist(ns.s_dist)
        if s_dist.k != k:
            raise DomainError(f"--s-dist has {s_dist.k} components but data has {k}")
        nu = s_dist.mean_vector()
        if ns.nu is not None and np.any(np.abs(ns.nu - nu) > 1e-12):
            raise DomainError("--nu conflicts with the mean of --s-dist")
    else:
        nu = np.full(k, 0.0 if ns.nu is None else ns.nu)
        s_dist = Normal(mean=nu, cov=np.eye(k))
    data = pipeline.DataBatch(rows)
    kernel = models.kernel_from_json(ns.model)
    root = RngStream(ns.seed)
    s_rows = models.sample(s_dist, ns.q, root.substream(0))
    errors = pipeline.ErrorBatch(s_rows)
    t = pipeline.transform_stage(data, errors, kernel, nu)
    combined = pipeline.combine(t, root.substream(1), ns.construction)
    payload = {
        "model": ns.model,
        "construction": ns.construction,
        "seed": ns.seed,
        "j": int(rows.shape[0]),
        "k": k,
        "q": ns.q,
        "nu": nu.tolist(),
        "nominal": combined.nominal.tolist(),
        "replicates": combined.replicates,
        "construction": combined.construction,
        "input_cov": combined.input_cov,
    }
    _write_json(ns.out, payload)
    print(f"pipeline {ns.model} {ns.construction}: J={rows.shape[0]} K={k} Q={ns.q} -> {ns.out}")
    return 0


# --------------------------------------------------------------------------
# Parser assembly

def _add_io(sub: argparse.ArgumentParser, formats: tuple[str, ...] = ("csv", "json")) -> None:
    """The flags every subcommand takes: its config file and its artifact."""
    sub.add_argument("--config", help="JSON config file; explicit flags override its keys")
    sub.add_argument("--out", type=str, help="output artifact path (required)")
    sub.add_argument("--format", default=formats[0], choices=formats, help="artifact format")


def _add_mc(sub: argparse.ArgumentParser, *, trials: int) -> None:
    """The flags of the Monte Carlo subcommands."""
    _add_io(sub)
    cfg = ExperimentConfig  # its field defaults are the flags' defaults
    sub.add_argument("--seed", type=int, default=cfg.master_seed, help="master seed")
    sub.add_argument("--trials", type=int, default=trials, help="MC trials")
    sub.add_argument("--workers", type=int, default=cfg.workers, help="worker processes")
    sub.add_argument("--block-size", type=int, default=cfg.block_size, help="trials per RNG block")


def _add_construction(sub: argparse.ArgumentParser) -> None:
    choices = ("current", "alternative")
    sub.add_argument(
        "--construction", default=choices[0], choices=choices, help="replicate construction"
    )


def _add_model(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=models._KERNEL_NAMES, help="error kernel (required)")


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    _add_model(sub)
    sub.add_argument("--j", type=int, default=4, help="data vectors per batch")
    sub.add_argument("--q", default="10", help=f"error draws per batch; {_RANGE_HELP}")
    sub.add_argument("--y-dist", help="data law as JSON (default depends on --model)")
    sub.add_argument("--s-dist", help="error law as JSON (default depends on --model)")
    sub.add_argument(
        "--alpha",
        type=float,
        help="error half-width of the phase (0, inf) or exponential (0, 1] default error "
        "law, as in the maps; refused for additive/multiplicative and with --s-dist",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mcombine",
        description=__doc__.split("\n\n")[0],
        epilog=f"Q/grid {_RANGE_HELP}. Exit codes: 0 ok, 1 config error, 2 numerical failure.",
    )
    subs = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = subs.add_parser("pipeline", help="run one transform+combine pass over a data CSV")
    _add_io(p, formats=("json",))
    p.add_argument("--data", type=str, help="input CSV with header y_1,...,y_K (required)")
    _add_model(p)
    p.add_argument("--nu", type=float, help="nominal error value (default: --s-dist mean, else 0)")
    p.add_argument("--s-dist", help="error law as JSON (default normal(nu, identity))")
    p.add_argument("--q", type=int, default=100, help="MC error draws")
    _add_construction(p)
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed, help="master seed")

    b = subs.add_parser("bias-sweep", help="construction relative bias across Q values")
    _add_mc(b, trials=10_000)
    _add_scenario_flags(b)
    _add_construction(b)

    for name in _MAPS:
        m = subs.add_parser(name, help=f"analytic {name.replace('-', ' ')} over (a,b) grid")
        _add_io(m)
        _add_model(m)
        m.add_argument(
            "--alpha", type=float, default=MapSpec.alpha,
            help="error half-width; phase and exponential only (additive and multiplicative "
            "maps ignore it)",
        )
        grid = f"{MapSpec.lo:g}:{MapSpec.hi:g}:{MapSpec.n}"
        m.add_argument("--grid", default=grid, help="data-support grid lo:hi:N; N points give "
                       "N(N+1)/2 CSV rows of up to 60 bytes (0.7 MB at N = 161)")
        if name == "relbias-map":  # a bias factor has no batch size
            m.add_argument("--j", type=int, default=MapSpec.j, help="data vectors per batch")

    v = subs.add_parser("vardiff", help="variability difference of the constructions")
    _add_mc(v, trials=100_000)
    _add_scenario_flags(v)

    le = subs.add_parser("lemmas", help="empirical checks of the supporting identities")
    _add_mc(le, trials=100_000)
    le.add_argument("--id", default="all", help="lemma id 1..5, comma list, or 'all'")
    le.add_argument(
        "--u2", type=float, default=ExperimentConfig.lemma_u2,
        help="mean dispersion; reaches lemma 5 only (lemmas 1-4 ignore it)",
    )
    le.add_argument(
        "--n", type=int, default=ExperimentConfig.lemma_n,
        help="observations per instance; reaches lemma 5 only (lemmas 1-4 ignore it)",
    )

    mv = subs.add_parser("mean-var", help="grand-mean variance difference across Q values")
    _add_mc(mv, trials=10_000)
    _add_scenario_flags(mv)

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "pipeline": _run_pipeline,
    **{cmd: functools.partial(_run_sweep, cmd=cmd) for cmd in _SWEEPS},
    **{cmd: functools.partial(_run_map, cmd=cmd) for cmd in _MAPS},
    "lemmas": _run_lemmas,
}


#: The parser every ``main`` call shares: built on the first call, not at
#: import, and only read after that (parsing never changes it).
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        ns = parser.parse_args(args)
        cmd = ns.cmd
        if cmd is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        if ns.config is not None:
            # The subcommand's own parser reads the command line over the
            # config values, so explicit flags win; the top-level parser
            # would copy the subcommand's defaults over them.
            (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sub = subs.choices[cmd]
            ns = sub.parse_args(args[args.index(cmd) + 1 :], _read_config(ns.config, sub))
        for key in ("model", "data", "out"):
            if getattr(ns, key, "") is None:
                raise DomainError(f"missing --{key} (or {key!r} in the config file)")
        return _DISPATCH[cmd](ns)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
