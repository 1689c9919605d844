import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcombine.exceptions import DomainError
from mcombine.models import (
    _SEPARABLE,
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    CentralMoments,
    Normal,
    ScalarKernel,
    TwoPoint,
    Uniform,
    dist_from_json,
    dist_to_json,
    kernel_eval,
    kernel_from_json,
    kernel_to_json,
    moments,
    sample,
)
from mcombine.pipeline import DataBatch, ErrorBatch, transform_stage
from mcombine.rng import RngStream

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50)


# --------------------------------------------------------------------------
# kernels


@given(finite_floats, finite_floats)
def test_additive_kernel(y, s):
    assert kernel_eval(ADDITIVE, y, s) == y + s


@given(finite_floats, finite_floats)
def test_multiplicative_kernel(y, s):
    assert kernel_eval(MULTIPLICATIVE, y, s) == y * s


@given(finite_floats, finite_floats)
def test_phase_kernel(y, s):
    assert kernel_eval(PHASE, y, s) == math.sin(y + s)


@given(
    st.floats(min_value=0.01, max_value=50, allow_nan=False),
    st.floats(min_value=0.05, max_value=1.95, allow_nan=False),
)
def test_exponential_kernel(y, s):
    # libm pow and numpy pow may differ in the final ulp
    assert math.isclose(kernel_eval(EXPONENTIAL, y, s), y**s, rel_tol=1e-14)


def test_exponential_rejects_nonpositive_data():
    with pytest.raises(DomainError, match="requires y >= 0"):
        kernel_eval(EXPONENTIAL, -1.0, 0.5)
    with pytest.raises(DomainError, match="no value at y = 0 with s < 0"):
        kernel_eval(EXPONENTIAL, np.array([1.0, 0.0]), np.array([-0.5, -0.5]))
    # y = 0 itself is in the domain: 0**s is 1 at s = 0 and 0 for s > 0
    got = kernel_eval(EXPONENTIAL, np.zeros(3), np.array([0.0, 0.5, 2.0]))
    assert np.array_equal(got, [1.0, 0.0, 0.0])


def test_kernel_eval_broadcasts_like_scalar_loop():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 3.0, size=(4, 1))
    s = rng.uniform(0.2, 1.8, size=(1, 5))
    for kernel in (ADDITIVE, MULTIPLICATIVE, PHASE, EXPONENTIAL):
        grid = kernel_eval(kernel, y, s)
        assert grid.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert grid[i, j] == kernel_eval(kernel, float(y[i, 0]), float(s[0, j]))


@pytest.mark.parametrize("bound", [math.pi, 1e6, 1e300], ids=["pi", "1e6", "1e300"])
def test_phase_factors_match_numpy_sin_and_cos(bound):
    # one half-angle tangent gives both factors; the absolute error stays a
    # few units of 2**-53 over the whole float range, and ±0 stay exact
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-bound, bound, 2_000_000), [0.0, -0.0, math.pi, -math.pi]])
    g, h = _SEPARABLE["phase"]
    sin, cos = g(x)
    tol = 4 * 2.0**-53
    assert np.abs(sin - np.sin(x)).max() <= tol
    assert np.abs(cos - np.cos(x)).max() <= tol
    assert [sin[-4], cos[-4], sin[-3], cos[-3]] == [0.0, 1.0, 0.0, 1.0]
    assert not np.signbit(sin[-4]) and np.signbit(sin[-3])
    cos_h, sin_h = h(x)
    assert np.array_equal(sin_h, sin) and np.array_equal(cos_h, cos)


def test_custom_kernel():
    k = ScalarKernel("custom", fn=lambda y, s: y - 2.0 * s)
    assert kernel_eval(k, 5.0, 1.0) == 3.0


def test_unknown_kernel_name_rejected():
    with pytest.raises(DomainError):
        ScalarKernel("quadratic")
    with pytest.raises(DomainError):
        ScalarKernel("custom")  # custom requires fn


# --------------------------------------------------------------------------
# distributions: validation and sampling


def test_normal_requires_symmetric_cov():
    with pytest.raises(DomainError):
        Normal(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.2, 1.0]])


@pytest.mark.parametrize("cov", [[[-1.0]], [[1.0, 2.0], [2.0, 1.0]]], ids=["negative", "indefinite"])
def test_normal_requires_psd_cov(cov):
    with pytest.raises(DomainError, match="not positive semidefinite"):
        Normal(mean=np.zeros(len(cov)), cov=cov)


def test_normal_point_mass_is_valid():
    point = Normal(mean=[2.5], cov=[[0.0]])
    assert np.all(sample(point, 5, RngStream(1)) == 2.5)


def test_uniform_allows_degenerate_but_not_reversed():
    u = Uniform(lo=[1.0], hi=[1.0])
    assert u.k == 1
    with pytest.raises(DomainError):
        Uniform(lo=[2.0], hi=[1.0])


@pytest.mark.parametrize(
    "law",
    [lambda: Uniform(lo=[1e308], hi=[1.7e308]), lambda: Uniform(lo=[-1e308], hi=[1e308]),
     lambda: TwoPoint(a=[-1e308], b=[1e308]), lambda: TwoPoint(a=[0.0, 1e200], b=[0.0, -1e200])],
    ids=["uniform-mean", "uniform-width", "two_point-gap", "two_point-variance"],
)
def test_law_with_moments_beyond_float_range_is_refused(law):
    with pytest.raises(DomainError, match="beyond the float64 range"):
        law()


def test_two_point_probability_bounds():
    with pytest.raises(DomainError):
        TwoPoint(a=[0.0], b=[1.0], p=0.0)
    with pytest.raises(DomainError):
        TwoPoint(a=[0.0], b=[1.0], p=1.0)


def test_sampling_is_deterministic_per_stream():
    d = Normal(mean=[1.0, -1.0], cov=[[2.0, 0.3], [0.3, 1.0]])
    a = sample(d, 8, RngStream(5))
    b = sample(d, 8, RngStream(5))
    assert np.array_equal(a, b)
    assert a.shape == (8, 2)


def test_uniform_sampling_respects_support():
    d = Uniform(lo=[-2.0, 0.0], hi=[-1.0, 3.0])
    rows = sample(d, 500, RngStream(1))
    assert np.all(rows[:, 0] >= -2.0) and np.all(rows[:, 0] < -1.0)
    assert np.all(rows[:, 1] >= 0.0) and np.all(rows[:, 1] < 3.0)


def test_two_point_rows_take_whole_vectors():
    d = TwoPoint(a=[0.0, 0.0], b=[1.0, 2.0], p=0.5)
    rows = sample(d, 200, RngStream(2))
    # each row is either a or b, never a mix
    is_a = np.all(rows == np.array([0.0, 0.0]), axis=1)
    is_b = np.all(rows == np.array([1.0, 2.0]), axis=1)
    assert np.all(is_a | is_b)
    assert is_a.any() and is_b.any()


def test_normal_sampling_moments():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    d = Normal(mean=[3.0, -2.0], cov=cov)
    rows = sample(d, 200_000, RngStream(3))
    assert np.allclose(rows.mean(axis=0), [3.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(rows, rowvar=False), cov, atol=0.03)


def test_exact_zeros_are_sampled_as_given():
    # a two-point law with an atom at 0: the zeros stay, and the exponential
    # kernel is exactly 0 there
    d = TwoPoint(a=[0.0], b=[1.0], p=0.9)
    rows = sample(d, 500, RngStream(4))
    zero = rows[:, 0] == 0.0
    assert 0.85 < zero.mean() < 0.95
    assert np.all(rows[~zero] == 1.0)
    f = kernel_eval(EXPONENTIAL, rows, 0.5)
    assert np.all(f[zero] == 0.0) and np.all(f[~zero] == 1.0)


@pytest.mark.parametrize(
    "d",
    [
        Uniform(lo=[1.0, 0.0], hi=[2.0, 0.0]),
        TwoPoint(a=[0.0], b=[0.0]),
        Normal(mean=[0.0], cov=[[0.0]]),
    ],
    ids=["uniform", "two_point", "normal"],
)
def test_point_mass_at_zero_samples_zeros_and_transforms_to_zero(d):
    # the component stuck at 0 is the last; the exponential kernel maps it to 0
    rows = sample(d, 10, RngStream(4))
    assert np.all(rows[:, -1] == 0.0)
    s = sample(Uniform(lo=[0.05] * d.k, hi=[1.95] * d.k), 5, RngStream(5))
    t = transform_stage(DataBatch(rows), ErrorBatch(s), EXPONENTIAL, np.ones(d.k))
    for out in (t.nominals, t.centres, t.replicate_means):
        assert np.all(out[:, -1] == 0.0)


def test_degenerate_uniform_sampling():
    rows = sample(Uniform(lo=[2.5], hi=[2.5]), 10, RngStream(6))
    assert np.array_equal(rows, np.full((10, 1), 2.5))


# --------------------------------------------------------------------------
# central moments (oracle: dense-grid numerical integration / direct sums)


def test_normal_moments():
    m = moments(Normal(mean=[1.5], cov=[[4.0]]))
    assert m.mean == 1.5
    assert m.variance == 4.0
    assert m.third_central == 0.0
    assert m.fourth_central == 48.0  # 3 sigma^4


def test_uniform_moments_match_quadrature():
    lo, hi = -1.0, 3.0
    m = moments(Uniform(lo=[lo], hi=[hi]))
    xs = np.linspace(lo, hi, 400_001)
    mid = 0.5 * (lo + hi)
    assert math.isclose(m.mean, mid, rel_tol=1e-12)
    assert math.isclose(m.variance, np.trapezoid((xs - mid) ** 2, xs) / (hi - lo), rel_tol=1e-8)
    assert abs(m.third_central) < 1e-15
    assert math.isclose(
        m.fourth_central, np.trapezoid((xs - mid) ** 4, xs) / (hi - lo), rel_tol=1e-8
    )


@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=0.1, max_value=4, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_two_point_moments_match_direct_sums(a, width, p):
    b = a + width
    m = moments(TwoPoint(a=[a], b=[b], p=p))
    mean = p * a + (1 - p) * b
    assert math.isclose(m.mean, mean, rel_tol=1e-12, abs_tol=1e-12)
    for power, got in ((2, m.variance), (3, m.third_central), (4, m.fourth_central)):
        want = p * (a - mean) ** power + (1 - p) * (b - mean) ** power
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_moment_consistency_bound():
    # fourth central moment can never be below variance squared
    for d in (
        Normal(mean=[0.0], cov=[[1.0]]),
        Uniform(lo=[-1.0], hi=[1.0]),
        TwoPoint(a=[-1.0], b=[1.0], p=0.3),
    ):
        m = moments(d)
        assert m.fourth_central >= m.variance**2 - 1e-12


#: (mean, variance, third, fourth central moment) of scalar laws at the
#: float64 parameters shown, to 40 digits: the defining sums and powers in
#: mpmath 1.3.0 at 60-digit precision.  The first law's mean is 1e80 and its
#: fourth central moment about 1e20, although (a − b)⁴ alone overflows.
MOMENT_REFERENCE = {
    "two_point far atom": (lambda: TwoPoint(a=[0.0], b=[1e80], p=1e-300), (
        "1.000000000000000000266098647083672765374e+80",
        "1.000000000000000025591289129376105229851e-140",
        "-1.000000000000000025857387776459778002035e-60",
        "100000000000000002612.348642354345077429")),
    # (a − b)⁴/4 overflows, but the fourth central moment (a − b)⁴/16 fits
    "two_point wide atoms": (lambda: TwoPoint(a=[0.0], b=[1.95e77], p=0.5), (
        "9.749999999999999414326582566734649391995e+76",
        "9.506249999999998857936836005132600615726e+153",
        "0.0",
        "9.036878906249997828652409454758487351476e+307")),
    "two_point": (lambda: TwoPoint(a=[-0.4], b=[1.3], p=0.3), (
        "0.7900000000000000432986979603811058160787",
        "0.6069000000000000347277762102748961542755",
        "-0.4126920000000000626949603343973677730251",
        "0.6489581700000001113595970991809808641358")),
    "two_point high p": (lambda: TwoPoint(a=[2.0], b=[-1.0], p=0.85), (
        "1.549999999999999933386618522490607574582",
        "1.147500000000000139888101102769719656035",
        "-2.409750000000000140887301824932337024501",
        "6.377231250000000295863333832357898366472")),
    "uniform": (lambda: Uniform(lo=[-1.0], hi=[3.0]), (
        "1.0", "1.333333333333333333333333333333333333333", "0.0", "3.2")),
    "uniform narrow": (lambda: Uniform(lo=[0.1], hi=[0.35]), (
        "0.2249999999999999916733273153113259468228",
        "0.005208333333333332176851016015462001256382",
        "0.0",
        "0.00004882812499999997831595655028991493096959")),
    "normal": (lambda: Normal(mean=[-0.3], cov=[[0.7]]), (
        "-0.2999999999999999888977697537484345957637",
        "0.6999999999999999555910790149937383830547",
        "0.0",
        "1.469999999999999813482531862973707125287")),
}


@pytest.mark.parametrize("case", MOMENT_REFERENCE)
def test_moments_match_40_digit_reference(case):
    law, reference = MOMENT_REFERENCE[case]
    m = moments(law())
    got = (m.mean, m.variance, m.third_central, m.fourth_central)
    for g, want in zip(got, map(float, reference)):
        # a few units of 2**-53 (the worst case here is 4.6, a fourth moment)
        assert abs(g - want) <= 8 * 2.0**-53 * abs(want), (case, got, reference)


def test_moments_need_scalar_law():
    with pytest.raises(DomainError):
        moments(Normal(mean=[0.0, 0.0], cov=np.eye(2)))


# --------------------------------------------------------------------------
# JSON round-trips


def test_kernel_json_round_trip():
    for kernel in (ADDITIVE, MULTIPLICATIVE, PHASE, EXPONENTIAL):
        assert kernel_from_json(kernel_to_json(kernel)) == kernel


def test_custom_kernel_not_serializable():
    k = ScalarKernel("custom", fn=lambda y, s: y)
    with pytest.raises(DomainError):
        kernel_to_json(k)


def test_dist_json_round_trip():
    dists = [
        Normal(mean=[0.5, -1.0], cov=[[1.0, 0.2], [0.2, 2.0]]),
        Uniform(lo=[0.0], hi=[8.0]),
        TwoPoint(a=[-1.0], b=[1.0], p=0.25),
    ]
    for d in dists:
        back = dist_from_json(dist_to_json(d))
        assert type(back) is type(d)
        assert np.array_equal(back.mean_vector(), d.mean_vector())
        assert np.array_equal(back.covariance(), d.covariance())


def test_dist_json_rejects_unknown_family():
    with pytest.raises(DomainError):
        dist_from_json({"family": "cauchy", "loc": 0.0})


# --------------------------------------------------------------------------
# input checks: each refusal once


class _NotALaw:
    """Looks like a scalar law to code that only reads ``k``."""

    k = 1


#: The constructors' fragment for a law whose moments overflow float64.
_FLOAT_RANGE = "beyond the float64 range"

INPUT_CHECKS = {
    "named kernel with a callable": (lambda: ScalarKernel("phase", fn=np.add),
                                     "named kernels do not take a callable"),
    "matrix as a mean": (lambda: Normal(mean=[[0.0]], cov=[[1.0]]), "mean must be a vector"),
    "non-finite bound": (lambda: Uniform(lo=[np.nan], hi=[1.0]), "lo contains non-finite"),
    "cov of the wrong shape": (lambda: Normal(mean=[0.0, 0.0], cov=[[1.0]]),
                               r"cov shape \(1, 1\) does not match mean length 2"),
    "non-finite cov": (lambda: Normal(mean=[0.0], cov=[[np.inf]]), "cov contains non-finite"),
    "asymmetric cov": (lambda: Normal(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.2, 1.0]]),
                       "cov is not symmetric"),
    "uniform bounds of unequal length": (lambda: Uniform(lo=[0.0, 0.0], hi=[1.0]),
                                         "lo and hi must have equal length"),
    "two-point values of unequal length": (lambda: TwoPoint(a=[0.0], b=[1.0, 2.0]),
                                           "a and b must have equal length"),
    "no draws": (lambda: sample(Normal(mean=[0.0], cov=[[1.0]]), 0, RngStream(0)), "sample needs n >= 1, got 0"),
    "sample of a non-law": (lambda: sample(_NotALaw(), 3, RngStream(0)), "unknown distribution spec"),
    "moments of a non-law": (lambda: moments(_NotALaw()), "unknown distribution spec"),
    "moments of a non-law without k": (lambda: moments("x"), "unknown distribution spec str"),
    "moments of a wide uniform": (lambda: moments(Uniform(lo=[0.0], hi=[1e80])), _FLOAT_RANGE),
    "moments of a wide two-point law": (lambda: moments(TwoPoint(a=[0.0], b=[1e80])), _FLOAT_RANGE),
    "moments of a wide normal": (lambda: moments(Normal(mean=[0.0], cov=[[1e200]])), _FLOAT_RANGE),
    "JSON of a non-law": (lambda: dist_to_json(_NotALaw()), "unknown distribution spec"),
    "negative variance": (lambda: CentralMoments(0.0, -1.0, 0.0, 1.0), "variance must be non-negative"),
    "fourth moment too small": (lambda: CentralMoments(0.0, 1.0, 0.0, 0.5),
                                "fourth central moment below variance squared"),
    "variance squared beyond float64": (lambda: CentralMoments(0.0, 1e200, 0.0, 1e300), _FLOAT_RANGE),
    "NaN mean": (lambda: CentralMoments(np.nan, 1.0, 0.0, 3.0), _FLOAT_RANGE),
    "NaN variance": (lambda: CentralMoments(0.0, np.nan, 0.0, 3.0), _FLOAT_RANGE),
    "infinite third moment": (lambda: CentralMoments(0.0, 1.0, -np.inf, 3.0), _FLOAT_RANGE),
    "infinite fourth moment": (lambda: CentralMoments(0.0, 1.0, 0.0, np.inf), _FLOAT_RANGE),
    "unknown kernel name": (lambda: kernel_from_json("foo"), "kernel must be one of"),
    "kernel name not a string": (lambda: kernel_from_json(1), "kernel must be one of"),
    "law missing a field": (lambda: dist_from_json({"kind": "normal", "mean": [0.0]}),
                            "missing field 'cov'"),
    "unknown law kind": (lambda: dist_from_json({"kind": "beta"}), "unknown distribution kind 'beta'"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_refuses(case):
    call, fragment = INPUT_CHECKS[case]
    with pytest.raises(DomainError, match=fragment):
        call()


def test_normal_scalar_cov_is_a_one_by_one_matrix():
    scalar, matrix = Normal(mean=[0.0], cov=2.0), Normal(mean=[0.0], cov=[[2.0]])
    assert np.array_equal(scalar.cov, matrix.cov) and scalar.cov.shape == (1, 1)
    assert np.array_equal(scalar._factor, matrix._factor)
