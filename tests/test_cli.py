import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mcombine
import mcombine.cli as cli
from mcombine.cli import (
    _fmt,
    _grid_triple,
    _parse_range,
    _q_values,
    main,
)
from mcombine.exceptions import DomainError, NumericalError


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


def test_missing_out_exits_one(capsys):
    rc = main(["bias-sweep", "--model", "additive", "--trials", "200", "--q", "3"])
    assert rc == 1
    assert "--out" in capsys.readouterr().err


def test_numerical_failure_maps_to_exit_two(monkeypatch, data_csv, tmp_path, capsys):
    def boom(*a, **kw):
        raise NumericalError("synthetic instability")

    monkeypatch.setattr(cli.pipeline, "combine_current", boom)
    rc = main(
        ["pipeline", "--data", str(data_csv), "--model", "additive", "--out", str(tmp_path / "o.json")]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


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


# --------------------------------------------------------------------------
# runs too small or degenerate to give a finite result

FEW_TRIALS = {
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
def test_four_trials_give_finite_values(cmd, tmp_path, monkeypatch):
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


# --------------------------------------------------------------------------
# pipeline


def pipeline_args(data, out, extra=()):
    return ["pipeline", "--data", str(data), "--model", "multiplicative", "--q", "12", "--out", str(out), *extra]


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
        "y_1,y_2\n1,2\n",  # a single measurement row
        "y_1,y_2\n1,2\n3\n",  # ragged row
        "y_1,y_2\n1,2\none,4\n",  # non-numeric entry
    ],
)
def test_pipeline_rejects_bad_data_csv(tmp_path, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main(pipeline_args(bad, tmp_path / "x.json")) == 1


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
