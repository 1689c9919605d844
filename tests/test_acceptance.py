"""End-to-end acceptance checks for the library and its command line.

Each criterion is one test, so ``pytest -v`` prints one pass/fail line
per criterion.  Statistical checks use fixed seeds and three-standard-
error tolerances; exact identities use float tolerances stated inline.
"""

import json
import math
import time

import numpy as np
import pytest

from mcombine.analytics import (
    ScalarScenario,
    bias_factor_alternative,
    bias_factor_current,
    exponential_conditional_mean,
    gauss_legendre,
    relbias_alternative,
    synthesis_input_variance_gap,
)
from mcombine.cli import main
from mcombine.experiments import (
    ExperimentConfig,
    MapSpec,
    bias_factor_current_oracle,
    estimate_combine_bias,
    estimate_mean_variance,
    estimate_target_variance_oracle,
    estimate_vardiff,
    relbias_current_oracle,
    run_map,
    verify_lemma,
)
from mcombine.linalg import sym_eigendecompose
from mcombine.models import (
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    TwoPoint,
    Uniform,
)
from mcombine.rng import RngStream

STD_NORMAL = Normal(mean=[0.0], cov=[[1.0]])


def mult_standard(j=4, q=10):
    return ScalarScenario(kernel=MULTIPLICATIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=j, q=q)


def phase_extremal(j, q=50):
    return ScalarScenario(
        kernel=PHASE,
        y_dist=TwoPoint(a=[-math.pi / 2.0], b=[math.pi / 2.0], p=0.5),
        s_dist=Uniform(lo=[-math.pi], hi=[math.pi]),
        j=j,
        q=q,
    )


def exponential_scenario(j=4, q=10, b=8.0, alpha=0.95):
    return ScalarScenario(
        kernel=EXPONENTIAL,
        y_dist=Uniform(lo=[0.0], hi=[b]),
        s_dist=Uniform(lo=[1.0 - alpha], hi=[1.0 + alpha]),
        j=j,
        q=q,
    )


def test_criterion_01_alternative_bias_tracks_one_over_q():
    # multiplicative standard-normal scenario, J=4, 10,000 trials per Q:
    # the alternative construction's relative bias must match 1/Q within
    # 3 SE at every Q, and the target-variance oracle must match 0.25.
    start = time.time()
    for salt, q in enumerate((3, 10, 30, 100, 300)):
        res = estimate_combine_bias(
            ExperimentConfig(
                estimand="combine_bias_alternative",
                trials=10_000,
                scenario=mult_standard(q=q),
                master_seed=101,
                salt=salt,
            )
        )
        assert res.analytic_reference == pytest.approx(1.0 / q, rel=1e-12)
        assert abs(res.z_score) <= 3.0, f"Q={q}: z={res.z_score:.2f}"
    oracle = estimate_target_variance_oracle(
        ExperimentConfig(
            estimand="target_variance_oracle", trials=10_000, scenario=mult_standard(), master_seed=102
        )
    )
    assert oracle.analytic_reference == pytest.approx(0.25)
    assert abs(oracle.z_score) <= 3.0
    assert time.time() - start <= 120.0


def test_criterion_02_phase_extremal_bias_is_double():
    # half-width pi errors with data at +/- pi/2: the current construction
    # overstates the variance by a factor of three (relative bias 2.0)
    # regardless of the batch size J.
    for salt, j in enumerate((2, 4, 8)):
        res = estimate_combine_bias(
            ExperimentConfig(
                estimand="combine_bias_current",
                trials=100_000,
                scenario=phase_extremal(j),
                master_seed=103,
                salt=salt,
            )
        )
        assert res.analytic_reference == pytest.approx(2.0, rel=1e-12)
        assert abs(res.z_score) <= 3.0, f"J={j}: z={res.z_score:.2f}"


def test_criterion_03_additive_kernel_is_unbiased():
    # additive errors commute with averaging: both constructions are
    # exactly unbiased and both analytic bias factors vanish identically.
    salt = 0
    for construction in ("current", "alternative"):
        for j in (2, 4):
            for q in (5, 50):
                sc = ScalarScenario(
                    kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=j, q=q
                )
                res = estimate_combine_bias(
                    ExperimentConfig(
                        estimand=f"combine_bias_{construction}",
                        trials=20_000,
                        scenario=sc,
                        master_seed=104,
                        salt=salt,
                    )
                )
                salt += 1
                assert abs(res.point) <= 3.0 * res.std_error, (construction, j, q)
                assert bias_factor_current(sc) == 0.0
                assert bias_factor_alternative(sc) == 0.0


def test_criterion_04_alternative_bias_bounds():
    # 50 randomized scalar scenarios: the alternative construction's MC
    # relative bias stays inside [-3 SE, 1/Q + 3 SE] and the analytic
    # value inside [0, 1/Q].
    rng = np.random.default_rng(41815)
    for i in range(50):
        j = int(rng.integers(2, 7))
        q = int(rng.integers(3, 31))
        kind = ("multiplicative", "additive", "phase")[i % 3]
        if kind == "multiplicative":
            sc = ScalarScenario(
                kernel=MULTIPLICATIVE,
                y_dist=Normal(mean=[rng.uniform(-1.5, 1.5)], cov=[[rng.uniform(0.2, 2.5)]]),
                s_dist=Normal(mean=[rng.uniform(-1.5, 1.5)], cov=[[rng.uniform(0.2, 2.5)]]),
                j=j,
                q=q,
            )
        elif kind == "additive":
            w = rng.uniform(0.3, 2.0)
            sc = ScalarScenario(
                kernel=ADDITIVE,
                y_dist=Normal(mean=[rng.uniform(-2, 2)], cov=[[rng.uniform(0.2, 3.0)]]),
                s_dist=Uniform(lo=[-w], hi=[w]),
                j=j,
                q=q,
            )
        else:
            delta = rng.uniform(0.4, math.pi)
            lo = rng.uniform(-2.0, 0.0)
            sc = ScalarScenario(
                kernel=PHASE,
                y_dist=Uniform(lo=[lo], hi=[lo + rng.uniform(0.5, 3.0)]),
                s_dist=Uniform(lo=[-delta], hi=[delta]),
                j=j,
                q=q,
            )
        res = estimate_combine_bias(
            ExperimentConfig(
                estimand="combine_bias_alternative",
                trials=3_000,
                scenario=sc,
                master_seed=105,
                salt=i,
            )
        )
        assert res.point >= -3.0 * res.std_error, (i, kind)
        assert res.point <= 1.0 / q + 3.0 * res.std_error, (i, kind)
        closed = relbias_alternative(sc)
        assert 0.0 <= closed <= 1.0 / q + 1e-15, (i, kind, closed)


def test_criterion_05_exponential_bias_maps():
    # exponential-error maps over uniform data supports 0 <= a <= b <= 8
    # at half-width 0.95: the bias factor is negative over at least 95%
    # of the region but positive somewhere; the worst relative bias at
    # J=2 is about -20%; ten random cells agree with 1e7-draw MC oracles.
    psi_grid = run_map(MapSpec(kernel=EXPONENTIAL))
    vals = psi_grid.values[np.triu_indices(psi_grid.grid.size)]
    finite = vals[np.isfinite(vals)]
    assert (finite < 0.0).mean() >= 0.95
    assert (finite > 0.0).any()

    rel_grid = run_map(MapSpec(kernel=EXPONENTIAL, j=2), relative=True)
    worst = float(np.nanmax(np.abs(rel_grid.values)))
    assert 0.15 <= worst <= 0.25

    rng = np.random.default_rng(1915)
    valid = [
        (i, jdx)
        for i in range(rel_grid.values.shape[0])
        for jdx in range(rel_grid.values.shape[1])
        if np.isfinite(rel_grid.values[i, jdx]) and np.isfinite(psi_grid.values[i, jdx])
    ]
    cells = [valid[k] for k in rng.choice(len(valid), size=10, replace=False)]
    for n, (i, jdx) in enumerate(cells):
        a = float(rel_grid.grid[i])
        b = float(rel_grid.grid[jdx])
        sc = ScalarScenario(
            kernel=EXPONENTIAL,
            y_dist=Uniform(lo=[a], hi=[b]),
            s_dist=Uniform(lo=[0.05], hi=[1.95]),
            j=2,
            q=2,
        )
        if n < 5:
            value, se = bias_factor_current_oracle(sc, 10_000_000, RngStream(500 + n))
            assert abs(value - psi_grid.values[i, jdx]) <= 3.0 * se, (a, b)
        else:
            value, se = relbias_current_oracle(sc, 10_000_000, RngStream(500 + n))
            assert abs(value - rel_grid.values[i, jdx]) <= 3.0 * se, (a, b)


def test_criterion_06_grand_mean_variance_gap():
    # the two constructions' grand means differ in variance by
    # psi/(JQ) - phi/(JQ^2): -1/400 for the standard multiplicative
    # scenario at J=4, Q=10, and exactly zero for additive errors.
    res = estimate_mean_variance(
        ExperimentConfig(
            estimand="mean_variance", trials=60_000, scenario=mult_standard(), master_seed=106
        )
    )
    assert res.analytic_reference == pytest.approx(-1.0 / 400.0, rel=1e-12)
    assert abs(res.z_score) <= 3.0

    additive = ScalarScenario(kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=10)
    res = estimate_mean_variance(
        ExperimentConfig(estimand="mean_variance", trials=60_000, scenario=additive, master_seed=107)
    )
    assert res.analytic_reference == 0.0
    assert abs(res.z_score) <= 3.0


def test_criterion_07_supporting_identities():
    # the four covariance/rotation identities hold empirically at 1e5
    # instances, and the sample-variance variance formula matches MC for
    # unit noise with mean dispersion 0 or 2 at N = 2 and 11.
    for lid in (1, 2, 3, 4):
        res = verify_lemma(
            ExperimentConfig(
                estimand="lemma_check", trials=100_000, master_seed=108, salt=lid, lemma_id=lid
            )
        )
        assert res.trials >= 100_000
        assert res.max_abs_z() <= 3.0, f"identity {lid}: max|z|={res.max_abs_z():.2f}"
    for salt, (u2, n) in enumerate(((0.0, 2), (0.0, 11), (2.0, 2), (2.0, 11))):
        res = verify_lemma(
            ExperimentConfig(
                estimand="lemma_check",
                trials=100_000,
                master_seed=109,
                salt=salt,
                lemma_id=5,
                lemma_u2=u2,
                lemma_n=n,
            )
        )
        assert res.max_abs_z() <= 3.0, f"u2={u2} N={n}: z={res.max_abs_z():.2f}"


def test_criterion_08_variability_difference_asymptotics():
    # normalized variability difference of the constructions: zero for
    # additive errors at any Q; vanishing with Q for the multiplicative
    # kernel; decisively negative for the wide exponential scenario; and
    # the standard-normal large-Q closed form equals 4/Q^2.
    for salt, q in enumerate((5, 50, 500)):
        sc = ScalarScenario(kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=q)
        res = estimate_vardiff(
            ExperimentConfig(
                estimand="vardiff_reldiff", trials=20_000, scenario=sc, master_seed=110, salt=salt
            )
        )
        # the constructions coincide additively; allow pure float noise
        assert abs(res.point) <= 3.0 * res.std_error + 1e-12, f"additive Q={q}"

    points = []
    for salt, q in enumerate((5, 50, 500)):
        res = estimate_vardiff(
            ExperimentConfig(
                estimand="vardiff_reldiff",
                trials=50_000,
                scenario=mult_standard(q=q),
                master_seed=81,
                salt=salt,
            )
        )
        points.append(res)
    mags = [abs(r.point) for r in points]
    assert mags[0] > mags[1] > mags[2]
    assert abs(points[-1].point) <= 3.0 * points[-1].std_error

    res = estimate_vardiff(
        ExperimentConfig(
            estimand="vardiff_reldiff",
            trials=50_000,
            scenario=exponential_scenario(q=500),
            master_seed=112,
        )
    )
    assert res.point < 0.0
    assert res.point / res.std_error <= -3.0

    for q in (5, 50, 500):
        gap = synthesis_input_variance_gap(mult_standard(q=q))
        assert math.isclose(gap, 4.0 / q**2, rel_tol=1e-12)


def test_criterion_09_kernel_numerics():
    # eigendecomposition of 1,000 random PSD matrices up to 16x16:
    # reconstruction within 1e-10 relative, orthogonality within 1e-12;
    # quadrature of the exponential conditional mean is node-doubling
    # stable to 1e-8 relative.
    rng = np.random.default_rng(99)
    for _ in range(1_000):
        k = int(rng.integers(1, 17))
        r = int(rng.integers(1, k + 1))
        f = rng.normal(size=(k, r))
        m = f @ f.T
        values, vectors = sym_eigendecompose(m)
        scale = max(1.0, float(np.abs(m).max()))
        recon = vectors @ np.diag(values) @ vectors.T
        assert float(np.abs(recon - m).max()) <= 1e-10 * scale
        gram = vectors.T @ vectors
        assert float(np.abs(gram - np.eye(k)).max()) <= 1e-12

    for a, b, alpha in ((0.1, 8.0, 0.95), (1.0, 4.0, 0.5), (0.5, 2.0, 0.99)):
        vals = []
        for nodes in (128, 256):
            x, w = gauss_legendre(a, b, nodes)
            vals.append(float(w @ exponential_conditional_mean(x, alpha)))
        assert abs(vals[1] - vals[0]) <= 1e-8 * abs(vals[1])


def test_criterion_10_cli_determinism(tmp_path):
    # repeated CLI invocations with one seed produce byte-identical
    # artifacts, regardless of the worker-pool size.
    def run(args):
        assert main(args) == 0

    outs = [tmp_path / f"sweep{i}.csv" for i in range(4)]
    base = ["bias-sweep", "--model", "multiplicative", "--q", "3,10", "--trials", "500", "--seed", "9"]
    run(base + ["--out", str(outs[0])])
    run(base + ["--out", str(outs[1])])
    run(base + ["--workers", "2", "--out", str(outs[2])])
    run(base + ["--workers", "3", "--out", str(outs[3])])
    blobs = {o.read_bytes() for o in outs}
    assert len(blobs) == 1

    vd = ["vardiff", "--model", "additive", "--q", "4", "--trials", "600", "--seed", "5", "--format", "json"]
    a, b = tmp_path / "vd1.json", tmp_path / "vd2.json"
    run(vd + ["--out", str(a)])
    run(vd + ["--workers", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    lm = ["lemmas", "--id", "3", "--trials", "2000", "--seed", "7"]
    a, b = tmp_path / "lm1.csv", tmp_path / "lm2.csv"
    run(lm + ["--out", str(a)])
    run(lm + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    data = tmp_path / "data.csv"
    data.write_text("y_1,y_2\n1.2,0.4\n0.9,-0.3\n1.5,0.1\n0.7,0.8\n")
    pl = ["pipeline", "--data", str(data), "--model", "multiplicative", "--q", "16", "--seed", "11"]
    a, b = tmp_path / "pl1.json", tmp_path / "pl2.json"
    run(pl + ["--out", str(a)])
    run(pl + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["seed"] == 11
