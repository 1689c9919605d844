"""Workload definitions: seeded inputs, the CLI calls of one pass, and the
correctness gates that decide whether each call's artifact is right.

Every workload is built from one integer seed.  The seed fixes the data
CSVs and every ``--seed`` flag handed to the program; the program sees only
the generated files and flags.  A gate raises :class:`GateError` when an
artifact is wrong; the runner counts that call as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mcombine import models
from mcombine.analytics import ScalarScenario
from mcombine.experiments import bias_factor_current_oracle, relbias_current_oracle
from mcombine.rng import RngStream

WORKLOADS = ("mc_harness", "analytic_maps", "pipeline_data")

#: Largest |z| an artifact row with an analytic reference may show.
Z_LIMIT = 5.0

#: Q range of the harness sweeps (five log-spaced values, 3 to 300).
SWEEP_Q = "3:300:log5"

#: Bias sweeps of the harness: (kernel, construction).
SWEEPS = (
    ("phase", "current"),
    ("phase", "alternative"),
    ("exponential", "alternative"),
    ("multiplicative", "alternative"),
)

#: Default map grid (0:8:161), its alpha and its J, as the CLI applies them.
MAP_GRID = np.linspace(0.0, 8.0, 161)
MAP_ALPHA = 0.95
MAP_J = 2

#: Map cells checked against the Monte Carlo oracles, and the draws used.
ORACLE_CELLS = ((0.5, 6.0), (2.0, 7.5))
ORACLE_DRAWS = 200_000

#: Pipeline shape: J rows per CSV, Q error draws, data sets per K.  Small K
#: gets more data sets because one call is cheap and its latency is noisier.
PIPELINE_J = 128
PIPELINE_Q = 200
PIPELINE_SETS = {2: 6, 8: 6, 32: 2, 64: 2}

#: Metric names of the op groups, over all workloads.
OP_GROUPS = ("bias_sweep_s", "mean_var_s", "vardiff_s", "lemmas_s", "psi_map_s",
             "relbias_map_s") + tuple(f"pipeline_ms.K{k}" for k in PIPELINE_SETS)


class GateError(Exception):
    """An artifact failed a correctness check."""


@dataclass
class Op:
    """One CLI call: the metric its time feeds, its argv and its artifact."""

    group: str
    argv: list[str]
    out: Path
    check: Callable[[Path], None]


@dataclass
class Workload:
    ops: list[Op]
    #: Checks run once, outside the timed region, on the first pass's artifacts.
    extra_checks: list[tuple[int, Callable[[], None]]] = field(default_factory=list)
    #: Index of the ``--workers 2`` op whose artifact must match a one-worker run.
    workers_op: int | None = None


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise GateError(f"missing artifact: {exc}") from None
    if not rows:
        raise GateError(f"{path.name} is empty")
    return rows[0], rows[1:]


# --------------------------------------------------------------------------
# mc_harness


def _z_gate(expected_rows: int | None) -> Callable[[Path], None]:
    """Every point is finite and every row with a reference has |z| <= Z_LIMIT."""

    def check(path: Path) -> None:
        header, rows = _read_csv(path)
        if expected_rows is not None and len(rows) != expected_rows:
            raise GateError(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
        col = {name: i for i, name in enumerate(header)}
        point_col = col.get("point", 1)
        for row in rows:
            point = float(row[point_col])
            if not math.isfinite(point):
                raise GateError(f"{path.name}: non-finite point in row {row}")
            ref = row[col["analytic_reference"]]
            if ref == "":
                continue
            if "z_score" in col:
                z = float(row[col["z_score"]])
            else:
                se = float(row[col["std_error"]])
                diff = point - float(ref)
                z = 0.0 if diff == 0.0 else (diff / se if se > 0.0 else math.inf)
            if not abs(z) <= Z_LIMIT:
                raise GateError(f"{path.name}: |z| = {abs(z):.3g} > {Z_LIMIT} in row {row}")

    return check


def _lemma_gate(path: Path) -> None:
    _z_gate(None)(path)
    _, rows = _read_csv(path)
    if {r[0] for r in rows} != {"1", "2", "3", "4", "5"}:
        raise GateError(f"{path.name}: not every lemma reported")


def _mc_harness(seed: int, workdir: Path) -> Workload:
    seeds = _seeds(seed, 1, 7)
    ops = []
    for i, (model, construction) in enumerate(SWEEPS):
        out = workdir / f"sweep_{model}_{construction}.csv"
        argv = ["bias-sweep", "--model", model, "--construction", construction,
                "--q", SWEEP_Q, "--seed", str(seeds[i]), "--out", str(out)]
        ops.append(Op("bias_sweep_s", argv, out, _z_gate(5)))
    out = workdir / "mean_var.csv"
    ops.append(Op("mean_var_s", ["mean-var", "--model", "exponential", "--q", SWEEP_Q,
                                 "--seed", str(seeds[4]), "--out", str(out)], out, _z_gate(5)))
    out = workdir / "vardiff.csv"
    ops.append(Op("vardiff_s", ["vardiff", "--model", "phase", "--q", "10,30,100",
                                "--workers", "2", "--seed", str(seeds[5]), "--out", str(out)],
                  out, _z_gate(3)))
    out = workdir / "lemmas.csv"
    ops.append(Op("lemmas_s", ["lemmas", "--id", "all", "--seed", str(seeds[6]),
                               "--out", str(out)], out, _lemma_gate))
    return Workload(ops, workers_op=5)


# --------------------------------------------------------------------------
# analytic_maps


def _map_error_dist(model: str) -> models.DistSpec:
    # The error law a map cell uses, as documented on experiments.MapSpec.
    if model == "exponential":
        return models.Uniform(lo=[1.0 - MAP_ALPHA], hi=[1.0 + MAP_ALPHA])
    return models.Uniform(lo=[-MAP_ALPHA], hi=[MAP_ALPHA])


def _read_map(path: Path) -> dict[tuple[int, int], float]:
    header, rows = _read_csv(path)
    if len(header) != 3:
        raise GateError(f"{path.name}: bad header {header}")
    index = {round(float(v), 9): i for i, v in enumerate(MAP_GRID)}
    cells = {}
    for a, b, v in rows:
        cells[index[round(float(a), 9)], index[round(float(b), 9)]] = float(v)
    return cells


def _map_gate(path: Path) -> None:
    cells = _read_map(path)
    n = MAP_GRID.size
    if len(cells) != n * (n + 1) // 2:
        raise GateError(f"{path.name}: {len(cells)} cells, expected {n * (n + 1) // 2}")
    for (i, j), v in cells.items():
        if i > j:
            raise GateError(f"{path.name}: cell below the diagonal ({i}, {j})")
        if math.isnan(v) and i != j:
            raise GateError(f"{path.name}: NaN off the diagonal at a={MAP_GRID[i]}, b={MAP_GRID[j]}")
        if math.isinf(v):
            raise GateError(f"{path.name}: infinite value at ({i}, {j})")


def _oracle_gate(path: Path, model: str, estimand: str, stream: RngStream) -> Callable[[], None]:
    def check() -> None:
        cells = _read_map(path)
        kernel = models.kernel_from_json(model)
        for c, (a, b) in enumerate(ORACLE_CELLS):
            i, j = int(np.argmin(abs(MAP_GRID - a))), int(np.argmin(abs(MAP_GRID - b)))
            scenario = ScalarScenario(kernel=kernel, y_dist=models.Uniform(lo=[a], hi=[b]),
                                      s_dist=_map_error_dist(model), j=MAP_J, q=2)
            if estimand == "psi":
                value, se = bias_factor_current_oracle(scenario, ORACLE_DRAWS, stream.substream(c))
            else:
                value, se = relbias_current_oracle(scenario, ORACLE_DRAWS, stream.substream(c))
            got = cells[i, j]
            if not abs(got - value) <= Z_LIMIT * se:
                raise GateError(f"{path.name}: cell ({a}, {b}) = {got!r}, oracle "
                                f"{value!r} +/- {se:.3g}")

    return check


def _analytic_maps(seed: int, workdir: Path) -> Workload:
    ops, extra = [], []
    root = RngStream(_seeds(seed, 2, 1)[0])
    for command, estimand in (("psi-map", "psi"), ("relbias-map", "relbias")):
        for model in ("exponential", "phase"):
            out = workdir / f"{estimand}_{model}.csv"
            group = "psi_map_s" if estimand == "psi" else "relbias_map_s"
            ops.append(Op(group, [command, "--model", model, "--out", str(out)], out, _map_gate))
            stream = root.substream(len(ops))
            extra.append((len(ops) - 1, _oracle_gate(out, model, estimand, stream)))
    return Workload(ops, extra_checks=extra)


# --------------------------------------------------------------------------
# pipeline_data


def _write_data_csv(path: Path, rows: np.ndarray) -> None:
    k = rows.shape[1]
    lines = [",".join(f"y_{i + 1}" for i in range(k))]
    lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _pipeline_gate(rows: np.ndarray, seed: int) -> Callable[[Path], None]:
    """Recompute the combine from the data and the public sampling API.

    The synthesis factor is checked through X = lstsq(z, sqrt(J)·(replicates −
    mean_j F(Y_j, S_q))), whose XᵀX must equal ``input_cov`` whatever sign or
    rotation the eigen-solver chose.
    """
    kernel = models.MULTIPLICATIVE

    def close(got, want, rtol: float, what: str, name: str) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        scale = max(float(np.abs(want).max()), 1e-300)
        if got.shape != want.shape or not float(np.abs(got - want).max()) <= rtol * scale:
            raise GateError(f"{name}: {what} differs from the recomputed value")

    def check(path: Path) -> None:
        try:
            art = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise GateError(f"unreadable artifact: {exc}") from None
        j, k = rows.shape
        nu = np.ones(k)
        nominals = models.kernel_eval(kernel, rows, nu[np.newaxis, :])
        close(art["nominal"], nominals.mean(axis=0), 1e-12, "nominal", path.name)
        root = RngStream(seed)
        s = models.sample(models.Normal(mean=nu, cov=np.eye(k)), PIPELINE_Q, root.substream(0))
        f = models.kernel_eval(kernel, rows[:, np.newaxis, :], s[np.newaxis, :, :])
        spread = nominals if art["construction"] == "current" else f.mean(axis=1)
        close(art["input_cov"], np.cov(spread, rowvar=False).reshape(k, k), 1e-10,
              "input_cov", path.name)
        z = root.substream(1).standard_normal((PIPELINE_Q, k))
        noise = math.sqrt(j) * (np.asarray(art["replicates"]) - f.mean(axis=0))
        x = np.linalg.lstsq(z, noise, rcond=None)[0]
        close(x.T @ x, art["input_cov"], 1e-8, "synthesis factor", path.name)

    return check


def _pipeline_data(seed: int, workdir: Path) -> Workload:
    ops = []
    for k, sets in PIPELINE_SETS.items():
        for d in range(sets):
            gen = np.random.default_rng([seed, k, d])
            a = gen.standard_normal((k, k)) / math.sqrt(k)
            cov = a @ a.T + 0.5 * np.eye(k)
            rows = 1.0 + gen.standard_normal((PIPELINE_J, k)) @ np.linalg.cholesky(cov).T
            data = workdir / f"data_k{k}_{d}.csv"
            _write_data_csv(data, rows)
            for c, construction in enumerate(("current", "alternative")):
                call_seed = int(gen.integers(2**32))
                out = workdir / f"pipeline_k{k}_{d}_{construction}.json"
                argv = ["pipeline", "--data", str(data), "--model", "multiplicative",
                        "--nu", "1", "--q", str(PIPELINE_Q), "--construction", construction,
                        "--seed", str(call_seed), "--out", str(out)]
                ops.append(Op(f"pipeline_ms.K{k}", argv, out, _pipeline_gate(rows, call_seed)))
    return Workload(ops)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return {"mc_harness": _mc_harness, "analytic_maps": _analytic_maps,
            "pipeline_data": _pipeline_data}[name](seed, workdir)
