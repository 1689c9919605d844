import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcombine
import mcombine.cli as cli
from mcombine.analytics import ScalarScenario, mean_variance_gap, relbias_current
from mcombine.cli import (
    _fmt,
    _grid_triple,
    _parse_range,
    _q_values,
    main,
)
from mcombine.exceptions import DomainError, NumericalError
from mcombine.models import EXPONENTIAL, Uniform


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    rows = np.array([[1.2, 0.4], [0.9, -0.3], [1.5, 0.1], [0.7, 0.8]])
    lines = ["y_1,y_2"] + [",".join(format(v, ".17g") for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


# --------------------------------------------------------------------------
# parsing helpers


def test_fmt_uses_17_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.33333333333333331"
    assert float(_fmt(0.1)) == 0.1
    assert _fmt(None) == ""


def test_parse_range_linear():
    assert _parse_range("0:1:3") == [0.0, 0.5, 1.0]


def test_parse_range_log():
    got = _parse_range("1:100:log3")
    assert got == pytest.approx([1.0, 10.0, 100.0])


def test_parse_range_comma_list_and_scalars():
    assert _parse_range("5,50,500") == [5.0, 50.0, 500.0]
    assert _parse_range(7) == [7.0]
    assert _parse_range([3, 9]) == [3.0, 9.0]


@pytest.mark.parametrize("bad", ["1:2", "a:b:3", "1:2:0", "0:10:log4", "-1:10:log4", "x,y"])
def test_parse_range_rejects_malformed(bad):
    with pytest.raises(DomainError):
        vals = _parse_range(bad)
        _q_values(vals)  # log ranges with bad endpoints raise at parse time


def test_q_values_round_dedupe_and_floor():
    assert _q_values("3:5:3") == [3, 4, 5]
    assert _q_values("2.2,2.4,3.9") == [2, 4]
    with pytest.raises(DomainError):
        _q_values("1,5")


def test_grid_triple_rejects_log_and_lists():
    assert _grid_triple("0:8:161") == (0.0, 8.0, 161)
    with pytest.raises(DomainError):
        _grid_triple("0:8:log161")
    with pytest.raises(DomainError):
        _grid_triple("1,2,3")


# --------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["bias-sweep", "--help"])
    assert exc.value.code == 0


def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_maps_to_exit_one(capsys):
    assert main(["bias-sweep", "--frobnicate", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


# --------------------------------------------------------------------------
# the parser main shares across calls


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_every_parser_reads_one_registry_table():
    parser = cli.build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    containers = [c for p in (parser, *subs.choices.values()) for c in (p, *p._action_groups)]
    assert all(c._registries is cli._REGISTRIES for c in containers)


def test_a_second_main_call_builds_no_parser(tmp_path, monkeypatch, capsys):
    # whatever ran before, this first call leaves the shared parser built
    assert main(["frobnicate"]) == 1
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    out = tmp_path / "m.csv"
    assert main(["psi-map", "--model", "phase", "--grid", "0:2:3", "--out", str(out)]) == 0
    assert calls == []
    cli.build_parser()
    assert len(calls) > 50  # the counter sees a parser being built


def test_a_config_run_leaves_nothing_for_the_next_run(tmp_path):
    # the config's seed and q must not become the defaults of a later flags-only run
    argv = ["bias-sweep", "--model", "multiplicative", "--trials", "100", "--out"]
    assert main([*argv, str(tmp_path / "first.csv")]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "multiplicative", "trials": 100, "seed": 5, "q": "3,4",
                               "out": str(tmp_path / "config.csv")}))
    assert main(["bias-sweep", "--config", str(cfg)]) == 0
    assert main([*argv, str(tmp_path / "second.csv")]) == 0
    first, second = (tmp_path / "first.csv").read_bytes(), (tmp_path / "second.csv").read_bytes()
    assert second == first != (tmp_path / "config.csv").read_bytes()


def test_a_refused_run_leaves_nothing_for_the_next_run(tmp_path, capsys):
    argv = ["bias-sweep", "--model", "phase", "--q", "3", "--trials", "100", "--format"]
    assert main([*argv, "json", "--out", str(tmp_path / "alone.json")]) == 0
    assert main([*argv, "xml", "--seed", "9", "--out", str(tmp_path / "refused.json")]) == 1
    assert main([*argv, "json", "--out", str(tmp_path / "after.json")]) == 0
    assert not (tmp_path / "refused.json").exists()
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


def test_missing_out_exits_one(capsys):
    rc = main(["bias-sweep", "--model", "additive", "--trials", "200", "--q", "3"])
    assert rc == 1
    assert "--out" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_two(monkeypatch, data_csv, tmp_path, capsys):
    def boom(*a, **kw):
        raise NumericalError("synthetic instability")

    monkeypatch.setattr(cli.pipeline, "combine", boom)
    rc = main(
        ["pipeline", "--data", str(data_csv), "--model", "additive", "--out", str(tmp_path / "o.json")]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


NON_FINITE_Q = ["inf", "1e400", "3:1e400:3"]


@pytest.mark.parametrize("q", NON_FINITE_Q)
def test_non_finite_q_exits_one_without_artifact(q, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["bias-sweep", "--model", "additive", "--q", q, "--trials", "100", "--out", "o.csv"])
    assert rc == 1
    assert "finite" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q", ["1e9", "1e300"])
def test_oversized_q_exits_one_before_any_allocation(q, tmp_path, monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the size check")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.experiments.models, "sample", no_draws)
    rc = main(["bias-sweep", "--model", "additive", "--q", f"10,{q}", "--trials", "100", "--out", "o.csv"])
    assert rc == 1
    line = _only_error_line(capsys.readouterr().err)
    for part in (f"Q = {int(float(q))}", "J = 4", "block size 1024"):
        assert part in line
    assert list(tmp_path.iterdir()) == []


NOT_PSD = '{"kind":"normal","mean":[0],"cov":[[-1]]}'


def test_non_psd_y_dist_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["bias-sweep", "--model", "additive", "--y-dist", NOT_PSD, "--trials", "200"]
    assert main([*argv, "--out", "o.csv"]) == 1
    assert "not positive semidefinite" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "law, kind",
    [('{"kind":"uniform","lo":[1e308],"hi":[1.7e308]}', "uniform"),
     ('{"kind":"two_point","a":[-1e308],"b":[1e308]}', "two_point")],
    ids=["uniform", "two_point"],
)
def test_law_with_overflowing_moments_exits_one_without_warning(law, kind, tmp_path, monkeypatch, capsys):
    # finite bounds whose mean or variance overflows float64
    monkeypatch.chdir(tmp_path)
    argv = ["bias-sweep", "--model", "additive", "--y-dist", law, "--q", "3", "--trials", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--out", "o.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert _only_error_line(err) == f"error: {kind} law has a mean or covariance beyond the float64 range"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("key", ["y_dist", "s_dist"])
@pytest.mark.parametrize("cmd", ["bias-sweep", "vardiff", "mean-var"])
def test_law_whose_moments_overflow_exits_one_before_any_work(cmd, key, how, tmp_path, monkeypatch,
                                                              capsys):
    # the variance is finite but its square is not: a sweep once sampled the
    # whole run and failed in the combine (and symmetrising this cov as
    # 0.5 * (cov + cov.T) once overflowed to inf)
    work = _forbid_work(monkeypatch, tmp_path)
    law = {"kind": "normal", "mean": [0], "cov": [[1e308]]}
    run = {"model": "additive", "q": "3", "trials": 100, key: law, "out": "o.csv"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(_flag_or_config(cmd, run, how, tmp_path))
    assert rc == 1
    err = capsys.readouterr().err
    assert _only_error_line(err) == (f"error: {key} Normal law: central moments or variance "
                                     "squared beyond the float64 range")
    assert list(work.iterdir()) == []


# --------------------------------------------------------------------------
# bias-sweep artifacts


def bias_sweep_args(out, extra=()):
    return [
        "bias-sweep",
        "--model",
        "multiplicative",
        "--q",
        "3,5",
        "--trials",
        "400",
        "--seed",
        "3",
        "--out",
        str(out),
        *extra,
    ]


def test_bias_sweep_csv_artifact(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(bias_sweep_args(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,relbias,std_error,analytic_reference"
    assert len(lines) == 3
    for line in lines[1:]:
        q, point, se, ref = line.split(",")
        # 17 significant digits survive a float round trip exactly
        assert format(float(point), ".17g") == point
        assert float(se) > 0.0
        assert float(ref) == 0.0  # the current construction is unbiased here
    assert "bias-sweep" in capsys.readouterr().out


def test_bias_sweep_json_artifact(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(bias_sweep_args(out, ("--format", "json", "--construction", "alternative"))) == 0
    payload = json.loads(out.read_text())
    assert [row["q"] for row in payload] == [3, 5]
    assert all({"point", "std_error", "analytic_reference"} <= row.keys() for row in payload)
    assert [row["analytic_reference"] for row in payload] == pytest.approx([1 / 3, 1 / 5])


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(bias_sweep_args(a)) == 0
    assert main(bias_sweep_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_artifacts(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(bias_sweep_args(a, ("--workers", "1"))) == 0
    assert main(bias_sweep_args(b, ("--workers", "2"))) == 0
    assert a.read_bytes() == b.read_bytes()


def test_alpha_and_s_dist_are_exclusive(tmp_path, capsys):
    rc = main(
        bias_sweep_args(
            tmp_path / "x.csv",
            ("--alpha", "0.5", "--s-dist", '{"kind": "normal", "mean": [0], "cov": [[1]]}'),
        )
    )
    assert rc == 1
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("model", ["additive", "multiplicative"])
@pytest.mark.parametrize("cmd", ["bias-sweep", "mean-var", "vardiff"])
def test_alpha_for_a_model_it_does_not_shape_exits_one(cmd, model, via, tmp_path, monkeypatch, capsys):
    # --alpha shapes only the phase and exponential default error laws
    monkeypatch.chdir(tmp_path)
    argv = [cmd, "--model", model, "--q", "3", "--trials", "100", "--out", "o.csv"]
    if via == "flag":
        argv += ["--alpha", "7"]
    else:
        (tmp_path / "c.json").write_text('{"alpha": 7}')
        argv += ["--config", "c.json"]
    assert main(argv) == 1
    assert "--alpha" in _only_error_line(capsys.readouterr().err)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("alpha", [None, "0.5"])
@pytest.mark.parametrize("cmd", ["bias-sweep", "mean-var"])
def test_exponential_default_laws_reach_the_estimator(cmd, alpha, tmp_path, monkeypatch):
    # without --y-dist/--s-dist, exponential runs on Y ~ Unif[0, 8] and
    # S ~ Unif[1 - alpha, 1 + alpha], alpha 0.95 by default
    monkeypatch.chdir(tmp_path)
    argv = [cmd, "--model", "exponential", "--q", "3,5", "--trials", "100", "--format", "json",
            "--out", "o.json"] + ([] if alpha is None else ["--alpha", alpha])
    assert main(argv) == 0
    a = 0.95 if alpha is None else float(alpha)
    reference = relbias_current if cmd == "bias-sweep" else mean_variance_gap
    for row in json.loads((tmp_path / "o.json").read_text()):
        sc = ScalarScenario(EXPONENTIAL, Uniform(lo=[0.0], hi=[8.0]),
                            Uniform(lo=[1.0 - a], hi=[1.0 + a]), j=4, q=row["q"])
        assert row["analytic_reference"] == reference(sc)


def test_help_names_the_flags_that_reach_only_some_runs():
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction))
    helps = {(cmd, a.dest): a.help for cmd, sub in subs.choices.items() for a in sub._actions}
    assert "phase and exponential only" in helps["psi-map", "alpha"]
    assert "phase and exponential only" in helps["relbias-map", "alpha"]
    assert "lemma 5 only" in helps["lemmas", "u2"]
    assert "lemma 5 only" in helps["lemmas", "n"]


# --------------------------------------------------------------------------
# runs too small or degenerate to give a finite result

FEW_TRIALS = {
    "bias-sweep": ["bias-sweep", "--model", "phase", "--q", "3", "--trials", "5", "--out", "b.csv"],
    "vardiff": ["vardiff", "--model", "phase", "--q", "3", "--trials", "3", "--out", "v.csv"],
    "lemmas": ["lemmas", "--trials", "99", "--out", "l.csv"],
    "mean-var": ["mean-var", "--model", "phase", "--q", "3", "--trials", "2", "--format", "json",
                 "--out", "m.json"],
}


def _only_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("cmd", sorted(FEW_TRIALS))
def test_too_few_trials_exit_one_before_any_work(cmd, tmp_path, monkeypatch, capsys):
    def no_blocks(*args, **kwargs):
        raise AssertionError("sampled before validating --trials")

    monkeypatch.setattr(cli.experiments, "_run_blocks", no_blocks)
    monkeypatch.chdir(tmp_path)
    assert main(FEW_TRIALS[cmd]) == 1
    assert "at least 100 trials" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", sorted(FEW_TRIALS))
def test_too_many_trials_exit_one_before_any_work(cmd, tmp_path, monkeypatch, capsys):
    # 1e11 trials ran on past a 15 s timeout; their per-trial values alone
    # would pass the 1 GiB bound
    def no_blocks(*args, **kwargs):
        raise AssertionError("sampled before validating --trials")

    monkeypatch.setattr(cli.experiments, "_run_blocks", no_blocks)
    monkeypatch.chdir(tmp_path)
    argv = list(FEW_TRIALS[cmd])
    argv[argv.index("--trials") + 1] = "100000000000"
    assert main(argv) == 1
    assert "100000000000 trials" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", cli._MAPS)
def test_oversized_map_grid_exits_one_before_any_allocation(cmd, tmp_path, monkeypatch, capsys):
    # a 100000 x 100000 grid ended in numpy's "Unable to allocate 74.5 GiB"
    def no_map(*args, **kwargs):
        raise AssertionError("mapped before the size check")

    monkeypatch.setattr(cli.experiments, "run_map", no_map)
    monkeypatch.chdir(tmp_path)
    assert main([cmd, "--model", "exponential", "--grid", "0:8:100000", "--out", "m.csv"]) == 1
    assert "100000x100000 map grid" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", sorted(FEW_TRIALS))
def test_trial_floor_gives_finite_values(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = list(FEW_TRIALS[cmd])
    argv[argv.index("--trials") + 1] = "100"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    (out,) = tmp_path.iterdir()
    if out.suffix == ".json":
        rows = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{out.name}: {c}"))
        values = [v for row in rows for k, v in row.items() if k != "extras" and v is not None]
    else:
        lines = out.read_text().splitlines()
        values = [tok for line in lines[1:] for tok in line.split(",")[1:] if tok]
    assert values and all(math.isfinite(float(v)) for v in values)


ZERO_TARGET = {
    # analytic target: f = y*s with the data a point mass at 0
    "analytic": ["--model", "multiplicative", "--y-dist", '{"kind":"normal","mean":[0],"cov":[[0]]}'],
    # no closed form for a normal error under the phase kernel: the oracle's
    # batch means sin(0 + 0) are all 0
    "oracle": ["--model", "phase", "--y-dist", '{"kind":"uniform","lo":[0],"hi":[0]}',
               "--s-dist", '{"kind":"normal","mean":[0],"cov":[[0]]}'],
}


@pytest.mark.parametrize("target", sorted(ZERO_TARGET))
def test_zero_target_variance_exits_one(target, tmp_path, capsys):
    out = tmp_path / "z.csv"
    argv = ["bias-sweep", *ZERO_TARGET[target], "--q", "3", "--trials", "100", "--out", str(out)]
    assert main(argv) == 1
    line = _only_error_line(capsys.readouterr().err)
    assert line == "error: target variance is not positive (0.0); relative bias undefined"
    assert not out.exists()


@pytest.mark.parametrize("construction", ["current", "alternative"])
def test_exponential_sweep_on_data_at_zero_exits_one_before_any_draw(construction, tmp_path,
                                                                     monkeypatch, capsys):
    # k(0) = 0 makes Unif[0, 0] a law with an analytic target of 0
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the target variance")

    monkeypatch.setattr(cli.experiments, "_run_blocks", no_draws)
    monkeypatch.chdir(tmp_path)
    argv = ["bias-sweep", "--model", "exponential", "--y-dist", '{"kind":"uniform","lo":[0],"hi":[0]}',
            "--construction", construction, "--q", "3", "--trials", "100", "--out", "z.csv"]
    assert main(argv) == 1
    line = _only_error_line(capsys.readouterr().err)
    assert line == "error: target variance is not positive (0.0); relative bias undefined"
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# config files


def test_config_file_round_trip(tmp_path):
    flags_out = tmp_path / "flags.csv"
    assert main(bias_sweep_args(flags_out)) == 0
    cfg_out = tmp_path / "config.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"model": "multiplicative", "q": [3, 5], "trials": 400, "seed": 3, "out": str(cfg_out)}
        )
    )
    assert main(["bias-sweep", "--config", str(cfg)]) == 0
    assert flags_out.read_bytes() == cfg_out.read_bytes()


def test_explicit_flags_override_config(tmp_path):
    base = tmp_path / "base.csv"
    override = tmp_path / "override.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "multiplicative", "q": "3,5", "trials": 400, "seed": 3}))
    assert main(["bias-sweep", "--config", str(cfg), "--out", str(base)]) == 0
    assert main(["bias-sweep", "--config", str(cfg), "--seed", "4", "--out", str(override)]) == 0
    assert base.read_bytes() != override.read_bytes()


@pytest.mark.parametrize("cmd, key, value", [("bias-sweep", "seed", 1), ("bias-sweep", "trials", 400),
                                            ("pipeline", "q", 10)])
def test_config_integers_go_through_the_flag_converter(cmd, key, value, data_csv, tmp_path, capsys):
    # {"seed": 1.9} once wrote the bytes of --seed 1, and {"trials": 100.7} ran 100 trials
    base = {
        "bias-sweep": {"model": "multiplicative", "q": "3,5", "trials": 400, "seed": 1},
        "pipeline": {"model": "additive", "data": str(data_csv), "q": 10},
    }[cmd]

    def run(tag, v):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({**base, key: v, "out": str(tmp_path / f"{tag}.out")}))
        return main([cmd, "--config", str(cfg)])

    assert run("int", value) == 0 and run("float", float(value)) == 0
    assert (tmp_path / "int.out").read_bytes() == (tmp_path / "float.out").read_bytes()
    capsys.readouterr()
    for tag, bad in (("fraction", value + 0.9), ("bool", True), ("list", [value])):
        assert run(tag, bad) == 1
        assert f"config key {key!r}" in _only_error_line(capsys.readouterr().err)
        assert not (tmp_path / f"{tag}.out").exists()


def small_runs(data_csv):
    """Each subcommand at a small size, as config keys and values; between
    them they use every flag name but --config, --out and --workers."""
    return {
        "pipeline": {"data": str(data_csv), "model": "multiplicative", "q": 12, "nu": 0.5,
                     "construction": "alternative", "seed": 4, "format": "json"},
        "bias-sweep": {"model": "multiplicative", "q": "3,5", "trials": 100, "seed": 3,
                       "construction": "alternative", "format": "json"},
        "vardiff": {"model": "phase", "q": "4", "trials": 100, "alpha": 1.5, "block_size": 64},
        "mean-var": {"model": "multiplicative", "q": [3, 6], "trials": 100, "j": 3,
                     "y_dist": {"kind": "normal", "mean": [1], "cov": [[2]]},
                     "s_dist": {"kind": "uniform", "lo": [0.5], "hi": [1.5]}},
        "psi-map": {"model": "exponential", "grid": "0:2:5", "alpha": 0.5},
        "relbias-map": {"model": "exponential", "grid": "0:2:5", "j": 3, "format": "json"},
        "lemmas": {"trials": 100, "id": "2,5", "n": 3, "u2": 0.5},
    }


def _flags(cmd, config):
    """The command line equivalent to ``config``."""
    def text(value):
        if isinstance(value, list):
            return ",".join(map(str, value))
        return json.dumps(value) if isinstance(value, dict) else str(value)

    return [cmd, *(tok for k, v in config.items() for tok in (f"--{k.replace('_', '-')}", text(v)))]


@pytest.mark.parametrize("cmd", sorted(cli._DISPATCH))
def test_config_file_round_trip_for_every_subcommand(cmd, data_csv, tmp_path):
    config = small_runs(data_csv)[cmd]
    flags_out, cfg_out = tmp_path / "flags.out", tmp_path / "config.out"
    assert main([*_flags(cmd, config), "--out", str(flags_out)]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**config, "out": str(cfg_out)}))
    assert main([cmd, "--config", str(cfg)]) == 0
    assert flags_out.read_bytes() == cfg_out.read_bytes()


def _forbid_work(monkeypatch, tmp_path):
    """Make every subcommand's first piece of work fail the test, and run in
    an empty directory that must stay empty."""
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking the flags")

    for name in ("estimate_combine_bias", "estimate_vardiff", "estimate_mean_variance", "run_map",
                 "verify_lemma"):
        monkeypatch.setattr(cli.experiments, name, no_work)
    monkeypatch.setattr(cli.pipeline, "transform_stage", no_work)
    monkeypatch.setattr(cli, "_read_data_csv", no_work)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    return work


@pytest.mark.parametrize("cmd", sorted(cli._DISPATCH))
def test_missing_out_exits_one_before_any_work(cmd, data_csv, tmp_path, monkeypatch, capsys):
    work = _forbid_work(monkeypatch, tmp_path)
    assert main(_flags(cmd, small_runs(data_csv)[cmd])) == 1
    assert "--out" in _only_error_line(capsys.readouterr().err)
    assert list(work.iterdir()) == []


def _flag_or_config(cmd, run, how, tmp_path):
    """The argv that passes ``run`` as flags, or as a config file outside the work directory."""
    if how == "flag":
        return _flags(cmd, run)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(run))
    return [cmd, "--config", str(cfg)]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("cmd", sorted(set(cli._DISPATCH) - {"lemmas"}))
def test_unknown_model_exits_one_before_any_work(cmd, how, data_csv, tmp_path, monkeypatch, capsys):
    work = _forbid_work(monkeypatch, tmp_path)
    run = {**small_runs(data_csv)[cmd], "model": "foo", "out": "o.out"}
    assert main(_flag_or_config(cmd, run, how, tmp_path)) == 1
    err = _only_error_line(capsys.readouterr().err)
    # the flag's and the config key's messages both name the value and every choice
    assert "foo" in err and all(name in err for name in cli.models._KERNEL_NAMES), err
    assert list(work.iterdir()) == []


#: The --alpha rule: every subcommand that takes --alpha refuses, for phase
#: and exponential, the half-widths outside (0, inf) and (0, 1] that the
#: maps refuse.  A sweep once ran with the value and wrote no reference.
ALPHA_CMDS = ("bias-sweep", "vardiff", "mean-var", "psi-map", "relbias-map")
REFUSED_ALPHAS = {"phase": ("0", "-1", "nan", "inf", "1e400"),
                  "exponential": ("0", "-1", "nan", "inf", "1e400", "1.5")}
ACCEPTED_ALPHAS = {"phase": "4.0", "exponential": "1.0"}


def _alpha_run(cmd, model, alpha):
    size = {"grid": "0:2:5"} if cmd.endswith("-map") else {"q": "3", "trials": 100}
    return {"model": model, **size, "alpha": alpha, "out": "o.out"}


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("cmd, model, alpha", [(c, m, a) for c in ALPHA_CMDS
                                               for m, alphas in REFUSED_ALPHAS.items()
                                               for a in alphas])
def test_alpha_outside_the_kernel_range_exits_one_before_any_work(cmd, model, alpha, how, tmp_path,
                                                                  monkeypatch, capsys):
    work = _forbid_work(monkeypatch, tmp_path)
    assert main(_flag_or_config(cmd, _alpha_run(cmd, model, alpha), how, tmp_path)) == 1
    assert "(alpha)" in _only_error_line(capsys.readouterr().err)
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("cmd, model", [(c, m) for c in ALPHA_CMDS for m in ACCEPTED_ALPHAS])
def test_alpha_at_the_edge_of_the_kernel_range_runs(cmd, model, how, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_flag_or_config(cmd, _alpha_run(cmd, model, ACCEPTED_ALPHAS[model]), how,
                                tmp_path)) == 0
    assert (tmp_path / "o.out").stat().st_size > 0


#: Subcommand flags crossed with adversarial values, each passed as typed
#: on a command line and as the JSON token of a config key (Python's json
#: reads NaN, Infinity and 1e400 as floats).  Each subcommand's base run
#: sets the flags the run needs; the flag under test replaces its own.
FLAG_TABLE = {
    "lemmas": ({"trials": 100},
               ("seed", "trials", "workers", "block-size", "id", "u2", "n", "format")),
    "psi-map": ({"model": "exponential", "grid": "0:2:5"}, ("model", "alpha", "grid", "format")),
    "relbias-map": ({"model": "exponential", "grid": "0:2:5"},
                    ("model", "alpha", "grid", "j", "format")),
    "pipeline": ({"data": None, "model": "multiplicative", "q": 12},
                 ("data", "model", "nu", "s-dist", "q", "construction", "seed", "format")),
    **{cmd: ({"model": "phase", "q": "3", "trials": 100},
             ("format", "seed", "trials", "workers", "block-size", "model", "j", "q", "y-dist",
              "s-dist", "alpha", *(("construction",) if cmd == "bias-sweep" else ())))
       for cmd in ("bias-sweep", "vardiff", "mean-var")},
}
ADVERSARIAL_VALUES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "0": "0", "-1": "-1",
                      "1e400": "1e400", "2.5": "2.5", "": '""', "true": "true"}


def test_flag_table_covers_every_flag_of_every_subcommand():
    # all but --config and --out, the two that name files
    (subs,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {cmd: {o[2:] for a in sub._actions for o in a.option_strings if o.startswith("--")}
             - {"help", "config", "out"} for cmd, sub in subs.choices.items()}
    assert flags == {cmd: set(table_flags) for cmd, (_, table_flags) in FLAG_TABLE.items()}


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("cmd, flag", [(c, f) for c, (_, flags) in FLAG_TABLE.items() for f in flags])
@pytest.mark.parametrize("value", ADVERSARIAL_VALUES)
def test_flag_value_works_or_fails_fast(cmd, flag, value, how, data_csv, tmp_path, monkeypatch,
                                        capsys):
    # exit 0 with a finite artifact, or exit 1 or 2 with one error line and no artifact
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    key = flag.replace("-", "_")
    base, _ = FLAG_TABLE[cmd]
    base = {k: str(data_csv) if k == "data" else v for k, v in base.items() if k != key}
    if how == "flag":
        argv = [*_flags(cmd, base), f"--{flag}={value}", "--out", "o.out"]
    else:
        cfg = tmp_path / "run.json"
        text = json.dumps({**base, "out": "o.out"})
        cfg.write_text(text[:-1] + f", {json.dumps(key)}: {ADVERSARIAL_VALUES[value]}}}")
        argv = [cmd, "--config", str(cfg)]
    rc = main(argv)
    err = capsys.readouterr().err
    if rc == 0:
        text = (work / "o.out").read_text().lower()
        assert "nan" not in text and "inf" not in text, text
        assert err == ""
    else:
        assert rc in (1, 2)
        _only_error_line(err)
        assert list(work.iterdir()) == []


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("u2", [1e32, 1e150, 1e308])
def test_u2_that_drowns_the_noise_exits_one_before_any_work(u2, how, tmp_path, monkeypatch, capsys):
    # |z| reached 69 at 1e32; 1e150 wrote SE 0 and z inf, 1e308 overflowed
    work = _forbid_work(monkeypatch, tmp_path)
    run = {"id": "5", "trials": 100, "u2": u2, "out": "l.csv"}
    assert main(_flag_or_config("lemmas", run, how, tmp_path)) == 1
    assert "needs u2 >= 0 and at most 1e+16" in _only_error_line(capsys.readouterr().err)
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("cmd, key, value", [("bias-sweep", "format", "xml"),
                                            ("pipeline", "construction", "both"),
                                            ("pipeline", "format", "csv"),
                                            ("relbias-map", "format", ["json"])])
def test_config_value_outside_the_flag_choices_exits_one(cmd, key, value, data_csv, tmp_path, monkeypatch,
                                                         capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**small_runs(data_csv)[cmd], key: value, "out": "o.out"}))
    assert main([cmd, "--config", str(cfg)]) == 1
    assert f"config key {key!r} must be one of" in _only_error_line(capsys.readouterr().err)
    assert list(work.iterdir()) == []


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "additive", "qq": "3"}))
    assert main(["bias-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("not json")
    assert main(["bias-sweep", "--config", str(cfg)]) == 1
    cfg.write_text("[1, 2]")
    assert main(["bias-sweep", "--config", str(cfg)]) == 1
    assert main(["bias-sweep", "--config", str(tmp_path / "nope.json")]) == 1


# --------------------------------------------------------------------------
# other MC subcommands


def test_vardiff_artifact(tmp_path):
    out = tmp_path / "vd.csv"
    rc = main(
        ["vardiff", "--model", "additive", "--q", "4", "--trials", "500", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0] == "q,reldiff,std_error,analytic_reference"


def test_mean_var_artifact(tmp_path):
    out = tmp_path / "mv.csv"
    rc = main(
        ["mean-var", "--model", "multiplicative", "--q", "3,6", "--trials", "500", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,diff,std_error,analytic_reference"
    assert len(lines) == 3


def test_lemmas_single_id_csv(tmp_path, capsys):
    out = tmp_path / "lemma5.csv"
    rc = main(["lemmas", "--id", "5", "--trials", "2000", "--n", "4", "--u2", "1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lemma,row,col,point,std_error,analytic_reference,z_score"
    assert len(lines) == 2
    assert "max|z|" in capsys.readouterr().out


def test_lemmas_all_ids(tmp_path):
    out = tmp_path / "lemmas.csv"
    assert main(["lemmas", "--trials", "2000", "--out", str(out)]) == 0
    lemma_col = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
    assert lemma_col == {"1", "2", "3", "4", "5"}


def test_lemmas_bad_id(tmp_path):
    assert main(["lemmas", "--id", "five", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["lemmas", "--id", "7", "--trials", "2000", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("flags", [("--id", "5", "--n", "1000000000"),
                                   ("--id", "2", "--block-size", "1000000000")], ids=["n", "block-size"])
def test_oversized_lemma_block_exits_one_before_any_allocation(flags, tmp_path, monkeypatch, capsys):
    # under a 4 GB address-space limit both ended in a MemoryError traceback
    def no_blocks(*args, **kwargs):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(cli.experiments, "_run_blocks", no_blocks)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        rc = main(["lemmas", *flags, "--trials", "100", "--out", "l.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "more than the limit of 134217728" in _only_error_line(capsys.readouterr().err)
    assert peak < 1e6, peak
    assert list(tmp_path.iterdir()) == []


def test_lemmas_id_list_naming_no_lemma_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lemmas", "--id", ",", "--out", "l.csv"]) == 1
    assert "names no lemma" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_lemmas_config_id_true_exits_one(tmp_path, monkeypatch, capsys):
    # {"id": true} once ran lemma 1 and wrote "True" in the lemma column
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"id": True, "trials": 100, "out": "l.csv"}))
    assert main(["lemmas", "--config", "run.json"]) == 1
    assert "bad --id True" in _only_error_line(capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_lemmas_config_integer_id_runs_that_lemma(tmp_path, monkeypatch):
    # a JSON number names one lemma, as --id 3 does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"id": 3, "trials": 200, "out": "a.csv"}))
    assert main(["lemmas", "--config", "run.json"]) == 0
    assert main(["lemmas", "--id", "3", "--trials", "200", "--out", "b.csv"]) == 0
    text = (tmp_path / "a.csv").read_text()
    assert {line.split(",")[0] for line in text.splitlines()[1:]} == {"3"}
    assert text == (tmp_path / "b.csv").read_text()


def test_lemmas_check_every_id_before_the_first_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.experiments, "verify_lemma", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["lemmas", "--id", "1,6", "--out", "l.csv"]) == 1
    assert "lemma_id must be 1..5, got 6" in _only_error_line(capsys.readouterr().err)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# analytic maps


def test_psi_map_additive_all_zero(tmp_path):
    out = tmp_path / "map.csv"
    rc = main(["psi-map", "--model", "additive", "--grid", "0:2:3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,psi"
    assert len(lines) == 1 + 6  # upper triangle of a 3x3 grid
    assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])


@pytest.mark.parametrize("how", ["flag", "config"])
def test_psi_map_takes_no_j(how, data_csv, tmp_path, monkeypatch, capsys):
    # a bias factor has no batch size, so --j would be read by nothing
    work = _forbid_work(monkeypatch, tmp_path)
    run = {**small_runs(data_csv)["psi-map"], "j": 7, "out": "o.out"}
    assert main(_flag_or_config("psi-map", run, how, tmp_path)) == 1
    expected = "unrecognized arguments: --j 7" if how == "flag" else "unknown config key 'j'"
    assert expected in _only_error_line(capsys.readouterr().err)
    assert list(work.iterdir()) == []


def test_relbias_map_j_below_two_exits_one(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["relbias-map", "--model", "phase", "--grid", "0:1:3", "--j", "1", "--out", str(out)]) == 1
    assert _only_error_line(capsys.readouterr().err) == "error: relative-bias maps need J > 1"
    assert not out.exists()


#: Inputs the CLI refuses itself, with a fragment of each one's message.
BAD_INPUTS = {
    "grid count not a number": (["psi-map", "--model", "phase", "--grid", "0:1:x"],
                                "bad grid '0:1:x'; expected numeric lo:hi:N"),
    "law not JSON": (["bias-sweep", "--model", "phase", "--y-dist", "{kind"],
                     "bad distribution JSON"),
    "unreadable data CSV": (["pipeline", "--model", "additive", "--data", "missing.csv"],
                            "cannot read data CSV"),
    "range naming no value": (["mean-var", "--model", "phase", "--q", ","],
                              "range ',' names no value"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_one_without_artifact(case, tmp_path, monkeypatch, capsys):
    argv, fragment = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "o.out"]) == 1
    assert fragment in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_relbias_map_json_uses_null_for_undefined(tmp_path):
    out = tmp_path / "map.json"
    rc = main(
        ["relbias-map", "--model", "exponential", "--grid", "0:2:3", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["a_values"] == [0.0, 1.0, 2.0]
    grid = payload["relbias"]
    assert grid[0][0] is None  # degenerate support at zero
    assert grid[2][0] is None  # below the diagonal
    assert isinstance(grid[1][2], float)


def test_map_rejects_bad_grid(tmp_path):
    assert main(["psi-map", "--model", "phase", "--grid", "0:8", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("model, alpha", [("exponential", "1.5"), ("phase", "0")])
def test_map_alpha_out_of_range_exits_one_without_artifact(model, alpha, tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["psi-map", "--model", model, "--alpha", alpha, "--out", str(out)]) == 1
    assert "alpha" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, nan_cells", [
    ("psi-map", {(-1, -1), (-1, 0), (-1, 1), (-1, 2)}),
    ("relbias-map", {(-1, -1), (-1, 0), (-1, 1), (-1, 2), (0, 0), (1, 1)}),
])
def test_undefined_map_cells_are_masked_not_warned(command, nan_cells, tmp_path):
    # a < 0 is outside the exponential domain; at (0, 0) and (1, 1) the
    # point masses Y = 0 and Y = 1 make the target variance 0
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--model", "exponential", "--grid=-1:2:4", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 10
    got = {(int(float(a)), int(float(b))) for a, b, v in rows if math.isnan(float(v))}
    assert got == nan_cells


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", ["1:1:3", "1:1.0000000000000002:4"])
def test_map_grid_with_repeated_values_exits_one_without_artifact(grid, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["psi-map", "--model", "phase", "--grid", grid, "--format", fmt, "--out", f"m.{fmt}"]) == 1
    assert "strictly increasing" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


#: (model, grid) of the map text tests; -0.5:2:6 has NaN cells (a < 0)
#: under exponential, as has 1:1:1 in its relbias map.
MAP_TEXT_CASES = [
    ("phase", "0:2:5"), ("exponential", "0:2:5"), ("exponential", "-0.5:2:6"), ("phase", "1:1:1"),
    ("exponential", "1:1:1"), ("phase", None), ("exponential", None),
]


def _map_run(command, model, grid, out, fmt):
    """Run a map through ``main``; return its column name and the map it wrote."""
    argv = [command, "--model", model, "--format", fmt, "--out", str(out)]
    assert main(argv if grid is None else [*argv, f"--grid={grid}"]) == 0
    lo, hi, n = _grid_triple(grid or "0:8:161")
    spec = cli.MapSpec(kernel=cli.models.kernel_from_json(model), lo=lo, hi=hi, n=n)
    result = cli.experiments.run_map(spec, relative=command == "relbias-map")
    return ("relbias" if command == "relbias-map" else "psi"), result


@pytest.mark.parametrize("command", ["psi-map", "relbias-map"])
@pytest.mark.parametrize("model, grid", MAP_TEXT_CASES)
def test_map_csv_is_the_text_of_its_rows(command, model, grid, tmp_path):
    out = tmp_path / "m.csv"
    column, result = _map_run(command, model, grid, out, "csv")
    n = result.grid.size
    i, k = np.triu_indices(n)
    cells = zip(result.grid[i], result.grid[k], result.values[i, k])
    rows = "".join(",".join(format(x, ".17g") for x in cell) + "\n" for cell in cells)
    assert out.read_text() == f"a,b,{column}\n" + rows
    assert len(out.read_text().splitlines()) == 1 + n * (n + 1) // 2


@pytest.mark.parametrize("command", ["psi-map", "relbias-map"])
@pytest.mark.parametrize("model, grid", MAP_TEXT_CASES)
def test_map_json_is_the_text_of_its_rows(command, model, grid, tmp_path):
    out = tmp_path / "m.json"
    column, result = _map_run(command, model, grid, out, "json")
    values = [[None if math.isnan(v) else v for v in row] for row in result.values.tolist()]
    coords = result.grid.tolist()
    items = {"a_values": coords, "b_values": coords, column: values}
    lines = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in items.items())
    assert out.read_text() == "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def phase_map_800():
    return cli.experiments.run_map(cli.MapSpec(kernel=cli.models.PHASE, n=800))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_writer_holds_one_row_of_text(fmt, phase_map_800, tmp_path, monkeypatch):
    # the whole map's text would be 18.9 MB (CSV) or 8.8 MB (JSON)
    monkeypatch.setattr(cli.experiments, "run_map", lambda spec, relative=False: phase_map_800)
    out = tmp_path / f"m.{fmt}"
    argv = ["psi-map", "--model", "phase", "--grid", "0:8:800", "--format", fmt, "--out", str(out)]
    cli._parser()  # built by the first main call, so not counted here
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert out.stat().st_size > 8e6
    assert peak < 2e6, f"writer peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("command, model", [("psi-map", "phase"), ("relbias-map", "exponential")])
def test_map_grid_with_overflowing_span_exits_one_without_warning(command, model, tmp_path, monkeypatch, capsys):
    # both ends are finite, but hi - lo overflows to inf inside np.linspace
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--model", model, "--grid=-1e308:1e308:3", "--out", "o.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert "span" in _only_error_line(err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("grid", ["0:1e-300:2", "0:1e-162:2"])
@pytest.mark.parametrize("model", ["phase", "exponential"])
@pytest.mark.parametrize("command", ["psi-map", "relbias-map"])
def test_map_grid_whose_spacing_squared_underflows_exits_one_before_any_work(command, model, grid,
                                                                             how, tmp_path,
                                                                             monkeypatch, capsys):
    # the relative-bias map once wrote nan at the defined cell (0, hi) with a
    # RuntimeWarning, where the target variance divides by the width squared
    work = _forbid_work(monkeypatch, tmp_path)
    run = {"model": model, "grid": grid, "out": "m.csv"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(_flag_or_config(command, run, how, tmp_path))
    assert rc == 1
    lo, hi, n = _grid_triple(grid)
    err = _only_error_line(capsys.readouterr().err)
    assert f"map grid {lo}:{hi}:{n} has spacing" in err and "underflows float64" in err, err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("model", ["phase", "exponential"])
@pytest.mark.parametrize("command", ["psi-map", "relbias-map"])
def test_map_grid_with_the_smallest_spacing_runs(command, model, tmp_path):
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--model", model, "--grid", "0:1e-150:2", "--out", str(out)]) == 0
    # the defined cell (0, 1e-150); exponential's point mass at 0 has no relative bias
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(a), float(b)) for a, b, _ in rows] == [(0, 0), (0, 1e-150), (1e-150, 1e-150)]
    assert math.isfinite(float(rows[1][2]))


# --------------------------------------------------------------------------
# pipeline


def pipeline_args(data, out, extra=()):
    return ["pipeline", "--data", str(data), "--model", "multiplicative", "--q", "12", "--out", str(out), *extra]


def test_pipeline_writer_holds_one_row_of_text(tmp_path, monkeypatch):
    # at Q = 2000 and K = 64 the replicate matrix's text is 2.4 MB, and its Python floats 3.1 MB
    rows = np.random.default_rng(3).standard_normal((3, 64)) + 1.0
    data, out = tmp_path / "wide.csv", tmp_path / "run.json"
    lines = [",".join(f"y_{i + 1}" for i in range(64))] + [",".join(map(repr, r)) for r in rows.tolist()]
    data.write_text("\n".join(lines) + "\n")
    write_json, peaks = cli._write_json, []

    def traced(path, payload):  # the writer's own peak, apart from the run's
        tracemalloc.start()
        try:
            write_json(path, payload)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_json", traced)
    assert main(pipeline_args(data, out, ("--q", "2000"))) == 0
    assert len(json.loads(out.read_text())["replicates"]) == 2000
    assert peaks[0] < 0.5e6, f"writer peak {peaks[0] / 1e6:.2f} MB"


def test_pipeline_json_payload(data_csv, tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(pipeline_args(data_csv, out)) == 0
    payload = json.loads(out.read_text())
    assert payload["model"] == "multiplicative"
    assert payload["construction"] == "current"
    assert (payload["j"], payload["k"], payload["q"]) == (4, 2, 12)
    assert payload["nu"] == [0.0, 0.0]
    assert len(payload["nominal"]) == 2
    assert len(payload["replicates"]) == 12
    assert "pipeline" in capsys.readouterr().out


def test_pipeline_reruns_byte_identical(data_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(pipeline_args(data_csv, a)) == 0
    assert main(pipeline_args(data_csv, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_constructions_differ(data_csv, tmp_path):
    a, b = tmp_path / "cur.json", tmp_path / "alt.json"
    assert main(pipeline_args(data_csv, a)) == 0
    assert main(pipeline_args(data_csv, b, ("--construction", "alternative"))) == 0
    assert a.read_bytes() != b.read_bytes()
    assert json.loads(b.read_text())["construction"] == "alternative"


def test_pipeline_nu_flag_sets_error_mean(data_csv, tmp_path):
    out = tmp_path / "nu.json"
    assert main(pipeline_args(data_csv, out, ("--nu", "0.5"))) == 0
    assert json.loads(out.read_text())["nu"] == [0.5, 0.5]


def test_pipeline_nu_conflicts_with_s_dist(data_csv, tmp_path, capsys):
    s = json.dumps({"kind": "normal", "mean": [0.2, 0.2], "cov": [[1, 0], [0, 1]]})
    rc = main(pipeline_args(data_csv, tmp_path / "x.json", ("--s-dist", s, "--nu", "0.5")))
    assert rc == 1
    assert "conflicts" in capsys.readouterr().err


def test_pipeline_nu_is_checked_against_every_mean_component(data_csv, tmp_path, capsys):
    s = json.dumps({"kind": "normal", "mean": [1, 2], "cov": [[1, 0], [0, 1]]})
    out = tmp_path / "x.json"
    assert main(pipeline_args(data_csv, out, ("--s-dist", s, "--nu", "1"))) == 1
    assert _only_error_line(capsys.readouterr().err) == "error: --nu conflicts with the mean of --s-dist"
    assert not out.exists()
    s = json.dumps({"kind": "normal", "mean": [1, 1], "cov": [[1, 0], [0, 1]]})
    assert main(pipeline_args(data_csv, out, ("--s-dist", s, "--nu", "1"))) == 0
    assert json.loads(out.read_text())["nu"] == [1.0, 1.0]


def test_pipeline_non_psd_s_dist_exits_one(data_csv, tmp_path, capsys):
    s = json.dumps({"kind": "normal", "mean": [0, 0], "cov": [[1, 2], [2, 1]]})
    out = tmp_path / "x.json"
    assert main(pipeline_args(data_csv, out, ("--s-dist", s))) == 1
    assert "not positive semidefinite" in _only_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_pipeline_oversized_q_exits_one_before_any_allocation(data_csv, tmp_path, monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(cli.models, "sample", no_draws)
    out = tmp_path / "x.json"
    assert main(["pipeline", "--data", str(data_csv), "--model", "additive", "--q", "10000000000",
                 "--out", str(out)]) == 1
    line = _only_error_line(capsys.readouterr().err)
    assert "Q = 10000000000 with J = 4, K = 2" in line
    assert not out.exists()


def test_pipeline_overflowing_mean_exits_one_without_artifact(tmp_path, capsys):
    # every kernel value is 1e308, but their mean over the three rows overflows
    data = tmp_path / "big.csv"
    data.write_text("y_1\n1e308\n1e308\n1e308\n")
    out = tmp_path / "o.json"
    point_mass = '{"kind":"uniform","lo":[1],"hi":[1]}'
    argv = ["pipeline", "--data", str(data), "--model", "multiplicative", "--s-dist", point_mass]
    assert main([*argv, "--out", str(out)]) == 1
    assert _only_error_line(capsys.readouterr().err) == (
        "error: multiplicative kernel gave non-finite replicate centres at error draw 0"
    )
    assert not out.exists()


# --------------------------------------------------------------------------
# JSON artifacts


def _assert_one_item_per_line(text: str) -> None:
    """The artifact layout: the payload's brackets on their own lines, and
    between them one top-level item per line that parses alone."""
    payload = json.loads(text)
    lines = text.split("\n")
    assert lines[-1] == "", "the artifact ends with a newline"
    opening, *items, closing = lines[:-1]
    brackets = "{}" if isinstance(payload, dict) else "[]"
    assert (opening, closing) == tuple(brackets)
    assert len(items) == len(payload)
    for i, line in enumerate(items):
        assert line.startswith("  ") and not line.startswith("   "), line
        body = line[2:]
        if i < len(items) - 1:
            assert body.endswith(","), line
            body = body[:-1]
        item = json.loads(brackets[0] + body + brackets[1])
        assert len(item) == 1, line


def _pipeline_payload(tmp_path, monkeypatch, k: int) -> dict:
    rows = np.random.default_rng(k).standard_normal((5, k)) + 1.0
    data = tmp_path / f"k{k}.csv"
    lines = [",".join(f"y_{i + 1}" for i in range(k))] + [",".join(map(repr, r)) for r in rows.tolist()]
    data.write_text("\n".join(lines) + "\n")
    written = []
    monkeypatch.setattr(cli, "_write_json", lambda path, payload: written.append(payload))
    assert main(pipeline_args(data, tmp_path / "unused.json")) == 0
    return written[0]


NAN = math.nan

JSON_CORPUS = {
    "nested": {"rows": [[1.5, NAN, -2.0], [NAN, NAN], [0.1]], "deep": [[[0.5, NAN]], []]},
    "mixed list": [1, 2.5, NAN, None, True, "x", [NAN, 3], {"k": NAN}, np.float64(0.1)],
    "tuple": (1.0, (2, NAN)),
    "empty list": [],
    "empty dict": {},
    "empties inside": {"a": [], "b": {}, "c": [[]]},
    "edge floats": [-0.0, 5e-324, 1e308, 1e16, -1e-7],
    "edge float scalars": {"neg_zero": -0.0, "tiny": 5e-324, "big": 1e308, "e16": 1e16},
    "ints bools none": [0, -7, 2**70, True, False, None, {"t": True, "f": False, "n": None}],
    "non-ascii": {"Ψ-ß": "naïve – ∞ \"quoted\"\n"},
    "float scalar": 0.1,
    "nan scalar": NAN,
    "string scalar": "ü",
    "nan array": np.array([[0.5, 1.0], [NAN, 2.0]]),
}

#: The corpus cases that hold a NaN, which no artifact may carry.
NAN_CASES = {"nested", "mixed list", "tuple", "nan scalar", "nan array"}


@pytest.mark.parametrize("name", JSON_CORPUS, ids=JSON_CORPUS.keys())
def test_json_writer_matches_the_stdlib_encoder(name, tmp_path):
    obj, path = JSON_CORPUS[name], tmp_path / "x.json"
    if name in NAN_CASES:
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(path, {"x": obj})
        assert not path.exists()
        return
    cli._write_json(path, {"x": obj})
    assert path.read_text() == '{\n  "x": ' + json.dumps(obj, allow_nan=False) + "\n}\n"


@pytest.mark.parametrize("k", [1, 3])
def test_json_writer_matches_the_stdlib_encoder_on_pipeline_payloads(k, tmp_path, monkeypatch):
    write_json = cli._write_json  # taken before _pipeline_payload replaces it
    payload = _pipeline_payload(tmp_path, monkeypatch, k)
    assert len(payload["input_cov"]) == k
    path = tmp_path / "p.json"
    write_json(path, payload)
    text = path.read_text()
    # the matrices reach the writer as float arrays, which the stdlib encodes as lists
    listed = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in payload.items()}
    assert isinstance(payload["replicates"], np.ndarray)
    items = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in listed.items())
    assert text == "{\n" + ",\n".join(items) + "\n}\n"
    _assert_one_item_per_line(text)
    assert json.loads(text) == listed


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
@pytest.mark.parametrize("shape", ["scalar", "float list", "nan row", "mixed list", "nested",
                                   "float array", "nan and inf array"])
def test_json_writer_refuses_infinity(inf, shape, tmp_path):
    obj = {"scalar": inf, "float list": [1.0, inf], "nan row": [NAN, inf], "mixed list": [1, inf],
           "nested": {"x": [[NAN, 2.0], [inf]]},
           "float array": np.array([[1.0, 2.0], [3.0, inf]]),
           "nan and inf array": np.array([[1.0, NAN], [inf, 0.0]])}[shape]
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"x": obj})
    assert not path.exists()


def test_infinite_json_value_exits_one_without_artifact(tmp_path, monkeypatch, capsys):
    values = np.array([[0.0, math.inf], [NAN, 0.0]])
    grid = cli.experiments.MapResult(np.array([0.0, 1.0]), values)
    monkeypatch.setattr(cli.experiments, "run_map", lambda spec, relative=False: grid)
    monkeypatch.chdir(tmp_path)
    assert main(["psi-map", "--model", "phase", "--grid", "0:1:2", "--format", "json", "--out", "m.json"]) == 1
    assert "not JSON compliant" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_nan_outside_a_map_exits_one_without_artifact(tmp_path, monkeypatch, capsys):
    # only a map cell may be undefined; a NaN anywhere else is refused
    nan_result = cli.experiments.EstimateResult(point=NAN, std_error=1.0, trials=100)
    monkeypatch.setattr(cli.experiments, "estimate_combine_bias", lambda cfg: nan_result)
    monkeypatch.chdir(tmp_path)
    assert main(bias_sweep_args("b.json", ("--format", "json"))) == 1
    assert "not JSON compliant" in _only_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_json_artifacts_round_trip_through_the_stdlib(data_csv, tmp_path):
    def out(name):
        return tmp_path / f"{name}.json"

    json_runs = {
        "psi-map": ["psi-map", "--model", "exponential", "--grid", "0:2:3"],
        "relbias-map": ["relbias-map", "--model", "exponential", "--grid", "0:2:3"],
        "lemmas": ["lemmas", "--trials", "200"],
        "vardiff": ["vardiff", "--model", "additive", "--q", "3,4", "--trials", "200"],
        "mean-var": ["mean-var", "--model", "multiplicative", "--q", "3", "--trials", "200"],
    }
    calls = {
        "pipeline": pipeline_args(data_csv, out("pipeline")),
        "bias-sweep": bias_sweep_args(out("bias-sweep"), ("--format", "json")),
        **{name: [*argv, "--format", "json", "--out", str(out(name))] for name, argv in json_runs.items()},
    }
    for name, argv in calls.items():
        assert main(argv) == 0
        text = out(name).read_text()
        _assert_one_item_per_line(text)
        # undefined map cells are null; nothing else is
        assert ("null" in text) == name.endswith("-map"), name


def test_pipeline_s_dist_width_must_match_data(data_csv, tmp_path):
    s = json.dumps({"kind": "normal", "mean": [0.0], "cov": [[1.0]]})
    assert main(pipeline_args(data_csv, tmp_path / "x.json", ("--s-dist", s))) == 1


def test_pipeline_missing_data_flag(tmp_path):
    assert main(["pipeline", "--model", "additive", "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty file
        "x_1,x_2\n1,2\n3,4\n",  # wrong header names
        "y_1,y_2\n",  # header only
        "y_1,y_2\n1,2\n",  # a single measurement row
        "y_1,y_2\n1,2\n\n",  # a single measurement row and a blank line
        "y_1,y_2\n1,2\n   \n",  # a single measurement row and a line of spaces
        "y_1,y_2\n1,2\n , \n",  # a row of two blank entries is not a blank line
        "y_1,y_2\n1,2\n3\n",  # ragged row
        "y_1,y_2\n1,2,5\n3,4,6\n",  # rows wider than the header
        "y_1,y_2\n1,2\none,4\n",  # non-numeric entry
        "y_1,y_2\n1,2 # note\n3,4\n",  # '#' is not a comment marker
    ],
)
def test_pipeline_rejects_bad_data_csv(tmp_path, content, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(pipeline_args(bad, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_pipeline_data_csv_skips_blank_lines_and_reads_quoted_numbers(data_csv, tmp_path):
    # the same measurements, quoted and spread over blank lines (empty, or
    # only spaces and tabs), give the same artifact
    lines = data_csv.read_text().splitlines()
    quoted = ['"y_1","y_2"', "", *(",".join(f'"{v}"' for v in ln.split(",")) for ln in lines[1:3]),
              "", "   ", "\t", *lines[3:], " "]
    other = tmp_path / "quoted.csv"
    other.write_text("\n".join(quoted))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(pipeline_args(data_csv, a)) == 0
    assert main(pipeline_args(other, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_data_csv_numbers_are_float_of_their_text_bit_for_bit(tmp_path):
    # signed zero, subnormals, the largest double, padding, a bare sign or point, and
    # the float() syntax np.loadtxt refuses: digit-group underscores and fullwidth digits
    tokens = ["-0", "1e-310", "4.9406564584124654e-324", "1.7976931348623157e308", " 2.5 ", "+.5", "3.",
              "1_000", "\uff11\uff12.\uff15"]
    rows = [tokens, tokens[::-1]]
    path = tmp_path / "edge.csv"
    header = ",".join(f"y_{i + 1}" for i in range(len(tokens)))
    path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
    got = cli._read_data_csv(str(path))
    want = np.array([[float(tok) for tok in row] for row in rows])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# declared console script


def _declared_entry_point():
    """The ``mcombine`` target in pyproject.toml's [project.scripts], as (module, attr)."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the tomli backport, else skip
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mcombine"]
    module, _, attr = target.partition(":")
    return module, attr


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mcombine ")
    for cmd in cli._DISPATCH:
        assert cmd in proc.stdout


def _fresh_env():
    """Environment for a fresh interpreter that imports the mcombine this suite imports."""
    env = dict(os.environ)
    src_dir = str(Path(mcombine.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def test_console_script_help():
    # The same import-and-call that a pip-generated console script runs, in a
    # fresh interpreter that imports the mcombine package this suite imports.
    module, attr = _declared_entry_point()
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_help(
        subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
            env=_fresh_env(),
        )
    )
    # Where the package is installed, its generated wrapper must work too.
    exe = shutil.which("mcombine")
    if exe is not None:
        _assert_help(subprocess.run([exe, "--help"], capture_output=True, text=True))


def test_bias_sweep_zero_point_mass_exits_one(tmp_path):
    # Run in a child with a timeout so that a hang fails the test instead of the suite.
    zero = '{"kind":"uniform","lo":[0],"hi":[0]}'
    argv = ["bias-sweep", "--model", "exponential", "--y-dist", zero, "--q", "3"]
    argv += ["--trials", "100", "--out", str(tmp_path / "o.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "mcombine.cli", *argv],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")


def test_bias_sweep_exponential_samples_an_atom_at_zero(tmp_path):
    # the atom at 0 is sampled as given, so two_point(0, 2) is not two_point(2, 2)
    artifacts = []
    for a in (0, 2):
        out = tmp_path / f"a{a}.csv"
        law = f'{{"kind":"two_point","a":[{a}],"b":[2]}}'
        argv = ["bias-sweep", "--model", "exponential", "--y-dist", law, "--q", "3"]
        assert main([*argv, "--trials", "200", "--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] != artifacts[1]


def test_vardiff_exponential_on_data_stuck_at_zero_is_the_multiplicative_artifact(tmp_path):
    # f = 0 on every draw under both kernels: reldiff 0 +/- 0
    zero = '{"kind":"uniform","lo":[0],"hi":[0]}'
    artifacts = []
    for model in ("exponential", "multiplicative"):
        out = tmp_path / f"{model}.csv"
        argv = ["vardiff", "--model", model, "--y-dist", zero, "--q", "3", "--trials", "100"]
        assert main([*argv, "--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


def test_pipeline_exponential_takes_zero_data_under_nonnegative_errors(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("y_1\n0\n1.5\n2\n")
    out = tmp_path / "p.json"
    argv = ["pipeline", "--data", str(data), "--model", "exponential", "--out", str(out)]
    assert main([*argv, "--s-dist", '{"kind":"uniform","lo":[0.05],"hi":[1.95]}']) == 0
    assert out.exists()
    out.unlink()
    capsys.readouterr()
    # normal errors around nu = 1 go negative, and 0 has no negative power
    assert main([*argv, "--nu", "1"]) == 1
    line = _only_error_line(capsys.readouterr().err)
    assert line == "error: exponential kernel has no value at y = 0 with s < 0"
    assert not out.exists()
