"""Benchmark of the mcombine package, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_harness --seed 1 --seconds 40 --trace 0

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  The program is driven in-process through
``mcombine.cli.main``, imported from ``src/`` of the same checkout.  One run
builds the workload's inputs from ``--seed`` and repeats a pass over the
workload's CLI calls for about ``--seconds`` seconds.  Times are reported
in seconds at reference machine speed: each is divided by the slowdown that
short fixed probes, run between the calls, measure (see ``speed.py``).
The first pass's artifacts must pass the correctness gates, and every later
pass must write the same bytes.  With ``--trace 1`` the passes alternate
between untraced and traced, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads: the
# ``--workers 2`` op would otherwise start nproc threads in each worker.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fewest fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9

#: Percentiles considered for "highest percentile with ten samples beyond it".
PERCENTILES = (99, 95, 90, 75)


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def _load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return spec


def _import_program():
    """Import ``mcombine`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "mcombine"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import mcombine.cli

    if Path(mcombine.__file__).resolve().parent != package.resolve():
        raise BenchError(f"mcombine was imported from {mcombine.__file__}, not {package}")
    return mcombine.cli


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _env_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    times: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    #: Speed probes (Python s, numpy s) before each call and after the last.
    probes: list[tuple[float, float]] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    artifact_bytes: int = 0
    layers: dict[str, float] | None = None
    self_s: dict[str, float] | None = None


def _run_pass(cli, ops, tracer=None) -> Pass:
    """Run every op once; time each call, and probe the speed around each."""
    result = Pass(traced=tracer is not None)
    sink = io.StringIO()
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for op in ops:
                result.probes.append(speed.probe())
                cpu0, t0 = _cpu_s(), perf_counter()
                try:
                    code = cli.main(op.argv)
                except Exception:  # a crash is a failed op; keep measuring the rest
                    traceback.print_exc()
                    code = -1
                result.times.append(perf_counter() - t0)
                result.cpus.append(_cpu_s() - cpu0)
                codes.append(code)
            result.probes.append(speed.probe())
        result.wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, code in zip(ops, codes):
        try:
            data = op.out.read_bytes()
        except OSError:
            data = None
        result.digests.append(None if data is None else hashlib.sha256(data).hexdigest())
        result.artifact_bytes += 0 if data is None else len(data)
        if code != 0:
            result.errors.append(f"exit code {code}: {sink.getvalue()[-2000:]}")
        elif data is None:
            result.errors.append(f"no artifact at {op.out}")
        else:
            result.errors.append(None)
    return result


def _probe_setup(args, workdir: Path) -> tuple[float, float]:
    """Wall time of a fresh process that imports the program and builds
    inputs, and the slowdown the speed probes measured just around it.

    Set-up is mostly imports, Python code, so only the Python probe counts.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    before = speed.probe()
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    after = speed.probe()
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr[-2000:]}")
    return elapsed, speed.slowdown([before, after], 1.0)


def _percentile_line(name: str, unit: str, values: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"{name} = {statistics.median(values):.6g} {unit} median of n={n}"
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return text + f", p{p} = {cut:.6g} {unit}"
    return text


def _op_metrics(wl, passes: list[Pass], slow: float, lines: list[str]) -> dict[str, float]:
    """Median time per op group at reference speed: a sum per pass, or per
    call for the pipeline."""
    groups: dict[str, list[int]] = {}
    for i, op in enumerate(wl.ops):
        groups.setdefault(op.group, []).append(i)
    out = {}
    for group, idx in groups.items():
        if group.startswith("pipeline_ms."):
            values = [p.times[i] * 1e3 / slow for p in passes for i in idx]
            lines.append(_percentile_line(group, "ms", values))
        else:
            values = [sum(p.times[i] for i in idx) / slow for p in passes]
            lines.append(_percentile_line(group, "s", values) + f" ({len(idx)} calls a pass)")
        out[group] = statistics.median(values)
    return out


def _wall_s(wl_name: str, passes: list[Pass]) -> tuple[float, float]:
    """Mean pass time at reference speed, and the slowdown it was divided by.

    A ratio of means: the probes sample the machine states in proportion to
    the calls they sit between, so the slowdown they measure is the one the
    calls met on average.
    """
    probes = [pr for p in passes for pr in p.probes]
    slow = speed.slowdown(probes, speed.PYTHON_SHARE[wl_name])
    return statistics.fmean(sum(p.times) for p in passes) / slow, slow


def measure(args, cli, workdir: Path, lines: list[str]) -> tuple[int, int, dict]:
    import spans
    import workloads

    wl = workloads.build(args.workload, args.seed, workdir / "run")
    setup: list[tuple[float, float]] = []
    attempted, failures = 0, []

    def account(label: str, error: str | None) -> None:
        nonlocal attempted
        attempted += 1
        if error is not None:
            failures.append(f"{label}: {error}")

    tracer = spans.Tracer() if args.trace else None
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # Set-up is probed between passes so that it samples the same
        # machine states as the passes do.
        setup.append(_probe_setup(args, workdir / f"probe{len(setup)}"))
        p = _run_pass(cli, wl.ops, tracer if traced else None)
        if not passes:
            # The first pass's artifacts pass the gates (untimed) and fix
            # the bytes every later pass must reproduce.
            first = p
            checks = [(i, functools.partial(op.check, op.out)) for i, op in enumerate(wl.ops)]
            for i, check in checks + wl.extra_checks:
                if p.errors[i] is None:
                    try:
                        check()
                    except Exception as exc:  # a malformed artifact fails its op
                        p.errors[i] = f"{type(exc).__name__}: {exc}"
        if traced:
            recorded, shapes = tracer.take()
            agg = spans.aggregate(recorded)
            p.self_s = {name: a["self"] for name, a in agg.items()}
            p.layers = spans.layer_metrics(recorded, agg)
            p.layers["rng.draw_ns_per_value"] = spans.replay_draw_ns(shapes, args.seed)
        for op, error, digest, want in zip(wl.ops, p.errors, p.digests, first.digests):
            if error is None and digest != want:
                error = "artifact bytes differ from the first pass"
            account(" ".join(op.argv[:3]), error)
        passes.append(p)
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if tracer else 1)
        if enough and elapsed + max(q.wall for q in passes[-2:]) > args.seconds:
            break

    while len(setup) < SETUP_PROBES:
        setup.append(_probe_setup(args, workdir / f"probe{len(setup)}"))
    plain = [p for p in passes if not p.traced]
    wall_s, slow = _wall_s(args.workload, plain)
    lines.append(f"{args.workload}: seed {args.seed}, {len(wl.ops)} calls a pass, "
                 f"{len(plain)} untraced and {len(passes) - len(plain)} traced timed passes")
    lines.append("untraced pass s, as measured: " + ", ".join(f"{sum(p.times):.4g}" for p in plain))
    lines.append("untraced pass cpu s, as measured: "
                 + ", ".join(f"{sum(p.cpus):.4g}" for p in plain))
    lines.append(f"slowdown against reference speed: {slow:.4g}")
    lines.append("set-up probes s, as measured (slowdown): "
                 + ", ".join(f"{t:.4g} ({f:.3g})" for t, f in setup))
    ops = _op_metrics(wl, plain, slow, lines)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(t / f for t, f in setup),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p.traced]
        metrics.update(_trace_metrics(args, cli, wl, first, traced_passes, account, lines))
        metrics["trace.overhead_s"] = _wall_s(args.workload, traced_passes)[0] - wall_s
        metrics.update({group: ops.get(group, 0.0) for group in workloads.OP_GROUPS})
    metrics["error_rate"] = len(failures) / attempted
    lines.extend(failures)
    return attempted, len(failures), metrics


def _trace_metrics(args, cli, wl, first: Pass, traced: list[Pass], account, lines) -> dict:
    """Per-layer metrics of the traced passes, plus the trace-only checks."""
    import spans
    import workloads

    metrics = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    metrics["cli.artifact_bytes"] = first.artifact_bytes
    metrics["experiments.pool_overhead_ms"] = 0.0
    if wl.workers_op is not None:
        metrics["experiments.pool_overhead_ms"] = spans.pool_overhead_ms(args.seed)
        # The --workers 2 artifact must match a one-worker run byte for byte.
        op = wl.ops[wl.workers_op]
        out = op.out.with_name(op.out.name + ".workers1")
        argv = list(op.argv)
        argv[argv.index("--workers") + 1] = "1"
        argv[argv.index("--out") + 1] = str(out)
        single = _run_pass(cli, [workloads.Op(op.group, argv, out, op.check)])
        error = single.errors[0]
        if error is None and single.digests[0] != first.digests[wl.workers_op]:
            error = "--workers 1 artifact differs from --workers 2"
        account(" ".join(argv[:3]) + " --workers 1", error)

    wall = statistics.median(p.wall for p in traced)
    lines.append(f"self time by span, median over traced passes (pass wall {wall:.4g} s):")
    names = {name for p in traced for name in p.self_s}
    selfs = {n: statistics.median(p.self_s.get(n, 0.0) for p in traced) for n in names}
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:32s} {value:10.4f} s {value / wall:7.1%}")
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
    for name, record in layers.items():
        if args.workload in record["zero_on"]:
            state = "holds" if metrics[name] == 0 else f"now {metrics[name]!r}"
            lines.append(f"layer invariant {name} = 0 on {args.workload}: {state}")
    return metrics


def _print_metrics(spec: dict, key: str, metrics: dict, lines: list[str]) -> dict:
    """Select the metrics BENCHMARK.json lists under ``key``, with their units."""
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for name, unit in wanted.items():
        lines.append(f"{name} = {metrics[name]!r} {unit}")
    return {name: {"value": float(metrics[name]), "unit": unit} for name, unit in wanted.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = _load_spec()
        cli = _import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        if args.setup_only:
            workloads.build(args.workload, args.seed, Path(args.setup_only))
            return 0
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        lines = ["env " + json.dumps(_env_record(), sort_keys=True)]
        try:
            attempted, failed, metrics = measure(args, cli, workdir, lines)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
        key = "per_layer" if args.trace else "end_to_end"
        reported = _print_metrics(spec, key, metrics, lines)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
