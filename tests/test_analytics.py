import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcombine.analytics import (
    ScalarScenario,
    bias_factor_alternative,
    bias_factor_current,
    conditional_mean_given_y,
    conditional_variance_given_s,
    exponential_conditional_mean,
    gauss_legendre,
    mean_variance_gap,
    relbias_alternative,
    relbias_current,
    synthesis_input_variance_gap,
    target_variance,
    var_of_sample_variance_normal,
)
from mcombine.exceptions import DomainError
from mcombine.models import (
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    TwoPoint,
    Uniform,
    sample,
)
from mcombine.rng import RngStream

STD_NORMAL = Normal(mean=[0.0], cov=[[1.0]])


def scenario(kernel, y_dist, s_dist, j=4, q=10):
    return ScalarScenario(kernel=kernel, y_dist=y_dist, s_dist=s_dist, j=j, q=q)


def mult_standard(j=4, q=10):
    return scenario(MULTIPLICATIVE, STD_NORMAL, STD_NORMAL, j, q)


def phase_extremal(j=4, q=50):
    return scenario(
        PHASE,
        TwoPoint(a=[-math.pi / 2.0], b=[math.pi / 2.0], p=0.5),
        Uniform(lo=[-math.pi], hi=[math.pi]),
        j,
        q,
    )


def exponential_scenario(a=0.0, b=8.0, alpha=0.95, j=4, q=10):
    return scenario(
        EXPONENTIAL, Uniform(lo=[a], hi=[b]), Uniform(lo=[1.0 - alpha], hi=[1.0 + alpha]), j, q
    )


# --------------------------------------------------------------------------
# numeric oracles used below (trapezoid grids, no shared code paths)


def _trapz_uniform_moments(fn, lo, hi, n=200_001):
    xs = np.linspace(lo, hi, n)
    vals = fn(xs)
    mean = np.trapezoid(vals, xs) / (hi - lo)
    var = np.trapezoid((vals - mean) ** 2, xs) / (hi - lo)
    return mean, var


def _exponential_k_by_integration(y, alpha, n=20_001):
    ss = np.linspace(1.0 - alpha, 1.0 + alpha, n)
    return np.trapezoid(np.power(y, ss), ss) / (2.0 * alpha)


# --------------------------------------------------------------------------
# current-construction bias factor


def test_psi_zero_for_additive_and_multiplicative():
    assert bias_factor_current(scenario(ADDITIVE, STD_NORMAL, STD_NORMAL)) == 0.0
    assert bias_factor_current(mult_standard()) == 0.0


def test_psi_phase_extremal_is_one():
    # delta = pi kills the conditional mean entirely, leaving V[sin Y] = 1
    assert math.isclose(bias_factor_current(phase_extremal()), 1.0, rel_tol=1e-14)


def test_psi_phase_uniform_matches_trapezoid_oracle():
    y = Uniform(lo=[-1.0], hi=[2.0])
    delta = 0.8
    s = scenario(PHASE, y, Uniform(lo=[-delta], hi=[delta]))
    _, var_sin = _trapz_uniform_moments(np.sin, -1.0, 2.0)
    shrink = math.sin(delta) / delta
    expected = (1.0 - shrink**2) * var_sin
    assert math.isclose(bias_factor_current(s), expected, rel_tol=1e-7)


def _phase_spread(a, b, delta=0.8):
    # V[sin Y] for Y ~ Unif[a, b], read off the phase factor (1 − (sin δ/δ)²)·V[sin Y]
    s = scenario(PHASE, Uniform(lo=[a], hi=[b]), Uniform(lo=[-delta], hi=[delta]))
    return bias_factor_current(s) / (1.0 - (math.sin(delta) / delta) ** 2)


@pytest.mark.parametrize("centre", [math.pi / 2.0, 0.0], ids=["pi_over_2", "zero"])
@pytest.mark.parametrize("width", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_phase_spread_on_narrow_supports_follows_its_series(centre, width):
    # With centre m and half-width u, V[sin Y] = cos²m·u²/3 + sin²m·u⁴/45
    # up to a relative O(u²) (the next terms are −u⁴/15 and −u⁶/315).  At
    # pi/2 a quadrature of E[sin²Y] − E[sin Y]² cancels to noise here.
    a, b = centre - width / 2.0, centre + width / 2.0
    m, u = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
    lead = math.cos(m) ** 2 * u**2 / 3.0 + math.sin(m) ** 2 * u**4 / 45.0
    got = _phase_spread(a, b)
    assert got > 0.0
    assert abs(got - lead) <= (u**2 + 1e-14) * lead, (got, lead)


@pytest.mark.parametrize(
    "a, b",
    [(math.pi / 2.0 - 0.25, math.pi / 2.0 + 0.25), (-0.25, 0.25), (1.0, 1.5), (0.0, 1.0),
     (math.pi / 2.0 - 1.0, math.pi / 2.0 + 1.0), (0.99, 3.01), (2.0, 4.5), (-3.0, 5.0),
     (0.0, 8.0), (-20.0, 20.0)],
)
def test_phase_spread_on_wide_supports_matches_fine_quadrature(a, b):
    # centred second moment over 1024 nodes: no cancellation in the oracle
    x, w = gauss_legendre(a, b, 1024)
    f = np.sin(x)
    mean = (w @ f) / (b - a)
    want = (w @ (f - mean) ** 2) / (b - a)
    assert math.isclose(_phase_spread(a, b), want, rel_tol=1e-12)


def test_psi_exponential_matches_double_trapezoid_oracle():
    a, b, alpha = 0.5, 4.0, 0.95
    s = exponential_scenario(a, b, alpha)
    ys = np.linspace(a, b, 4_001)
    ss = np.linspace(1.0 - alpha, 1.0 + alpha, 4_001)
    k_vals = np.trapezoid(np.power(ys[:, None], ss[None, :]), ss, axis=1) / (2.0 * alpha)
    k_mean = np.trapezoid(k_vals, ys) / (b - a)
    k_var = np.trapezoid((k_vals - k_mean) ** 2, ys) / (b - a)
    expected = (b - a) ** 2 / 12.0 - k_var
    assert math.isclose(bias_factor_current(s), expected, rel_tol=1e-5)


def test_psi_exponential_can_take_both_signs():
    # small supports push the bias factor positive, large ones negative
    assert bias_factor_current(exponential_scenario(0.0, 1.0)) > 0.0
    assert bias_factor_current(exponential_scenario(0.0, 8.0)) < 0.0


def test_psi_degenerate_data_support_is_zero():
    assert bias_factor_current(exponential_scenario(2.0, 2.0)) == 0.0


# --------------------------------------------------------------------------
# alternative-construction bias factor


def test_phi_zero_for_additive():
    assert bias_factor_alternative(scenario(ADDITIVE, STD_NORMAL, STD_NORMAL)) == 0.0


def test_phi_multiplicative_product_of_variances():
    y = Normal(mean=[2.0], cov=[[3.0]])
    s = Normal(mean=[1.0], cov=[[0.5]])
    assert math.isclose(
        bias_factor_alternative(scenario(MULTIPLICATIVE, y, s)), 3.0 * 0.5, rel_tol=1e-14
    )


def test_phi_phase_extremal_is_half():
    # E_S[V[sin(Y+s)|s]] = E_S[cos^2 s] = 1/2 and the conditional-mean term dies
    assert abs(bias_factor_alternative(phase_extremal()) - 0.5) <= 1e-12


def _alternative_factor_mc(s, stream, draws):
    """Monte Carlo estimate (value, standard error) of the alternative factor.

    The oracle for bias_factor_alternative: E[V[f|S]] is averaged over error
    draws and V[E[f|Y]] is the sample variance over data draws, both through
    the exact conditionals, so the only error is the outer sampling error.
    """
    s_draws = sample(s.s_dist, draws, stream.substream(0))[:, 0]
    y_draws = sample(
        s.y_dist, draws, stream.substream(1), reject_zero=s.kernel.kind == "exponential"
    )[:, 0]
    v = conditional_variance_given_s(s, s_draws)
    m = conditional_mean_given_y(s, y_draws)
    mean_v = float(v.mean())
    se_v = float(v.std(ddof=1)) / math.sqrt(draws)
    mc = m - m.mean()
    var_m = float(mc @ mc) / (draws - 1)
    # Asymptotic SE of a sample variance: sqrt((m4 - var^2)/n).
    m4 = float((mc**4).mean())
    se_var_m = math.sqrt(max(m4 - var_m**2, 0.0) / draws)
    return mean_v - var_m, math.hypot(se_v, se_var_m)


def test_phi_is_deterministic_and_nonnegative():
    s = exponential_scenario(0.5, 3.0)
    a = bias_factor_alternative(s)
    assert a == bias_factor_alternative(s)
    assert a > 0.0  # scalar alternative bias factor is nonnegative
    value, se = _alternative_factor_mc(s, RngStream(23), draws=200_000)
    assert value >= -3.0 * se


def test_phi_quadrature_matches_mc_oracle():
    for s in (
        scenario(PHASE, Uniform(lo=[-0.5], hi=[1.5]), Uniform(lo=[-1.2], hi=[1.2])),
        exponential_scenario(0.5, 6.0, 0.95),
    ):
        value, se = _alternative_factor_mc(s, RngStream(41), draws=400_000)
        assert abs(bias_factor_alternative(s) - value) <= 3.0 * se


def _phi_by_grid(f, ys, ss):
    # E_s[V_y f] - V_y[E_s f] over a dense (y, s) trapezoid grid, uniform laws
    wy, ws = ys[-1] - ys[0], ss[-1] - ss[0]
    m1 = np.trapezoid(f, ys, axis=0) / wy  # E_Y[f | s]
    m2 = np.trapezoid(f**2, ys, axis=0) / wy
    e_var_given_s = np.trapezoid(m2 - m1**2, ss) / ws
    k = np.trapezoid(f, ss, axis=1) / ws  # E_S[f | y]
    k_mean = np.trapezoid(k, ys) / wy
    var_mean_given_y = np.trapezoid((k - k_mean) ** 2, ys) / wy
    return e_var_given_s - var_mean_given_y


def test_phi_phase_matches_brute_force_grid():
    c, d, delta = -0.5, 1.5, 1.2
    s = scenario(PHASE, Uniform(lo=[c], hi=[d]), Uniform(lo=[-delta], hi=[delta]))
    ys = np.linspace(c, d, 4_001)
    ss = np.linspace(-delta, delta, 4_001)
    expected = _phi_by_grid(np.sin(ys[:, None] + ss[None, :]), ys, ss)
    assert math.isclose(bias_factor_alternative(s), expected, rel_tol=1e-6)


def test_phi_exponential_matches_brute_force_grid():
    a, b, alpha = 0.5, 3.0, 0.95
    s = exponential_scenario(a, b, alpha)
    ys = np.linspace(a, b, 3_001)
    ss = np.linspace(1.0 - alpha, 1.0 + alpha, 3_001)
    expected = _phi_by_grid(np.power(ys[:, None], ss[None, :]), ys, ss)
    assert math.isclose(bias_factor_alternative(s), expected, rel_tol=1e-6)


# --------------------------------------------------------------------------
# target variance


def test_target_additive_closed_form():
    y = Normal(mean=[0.0], cov=[[2.0]])
    s = Uniform(lo=[-1.0], hi=[1.0])
    got = target_variance(scenario(ADDITIVE, y, s, j=5))
    assert math.isclose(got, 2.0 / 5.0 + 1.0 / 3.0, rel_tol=1e-14)


def test_target_multiplicative_standard_normal_quarter():
    assert math.isclose(target_variance(mult_standard(j=4)), 0.25, rel_tol=1e-14)


def test_target_multiplicative_general_closed_form():
    y = Normal(mean=[2.0], cov=[[1.5]])
    s = Normal(mean=[-1.0], cov=[[0.25]])
    got = target_variance(scenario(MULTIPLICATIVE, y, s, j=3))
    expected = (1.5 / 3.0) * (0.25 + 1.0) + 0.25 * 4.0
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_target_phase_extremal_value():
    for j in (2, 4, 8):
        got = target_variance(phase_extremal(j=j))
        assert math.isclose(got, 1.0 / (2.0 * j), rel_tol=1e-12)


def test_target_phase_matches_brute_force_grid():
    # independent oracle: V[Fbar] = V[f]/J + (J-1)/J Cov over a dense (y,s) grid
    c, d, delta, j = -0.5, 1.5, 1.2, 3
    y = Uniform(lo=[c], hi=[d])
    s = scenario(PHASE, y, Uniform(lo=[-delta], hi=[delta]), j=j)
    ss = np.linspace(-delta, delta, 4_001)
    ys = np.linspace(c, d, 4_001)
    f = np.sin(ys[:, None] + ss[None, :])
    m1 = np.trapezoid(f, ys, axis=0) / (d - c)  # E_Y[f | s]
    m2 = np.trapezoid(f**2, ys, axis=0) / (d - c)
    e_m1 = np.trapezoid(m1, ss) / (2 * delta)
    var_f = np.trapezoid(m2, ss) / (2 * delta) - e_m1**2
    cov_ff = np.trapezoid(m1**2, ss) / (2 * delta) - e_m1**2
    expected = var_f / j + (j - 1) / j * cov_ff
    assert math.isclose(target_variance(s), expected, rel_tol=1e-6)


def test_target_exponential_matches_brute_force_grid():
    a, b, alpha, j = 0.5, 3.0, 0.95, 4
    s = exponential_scenario(a, b, alpha, j=j)
    ss = np.linspace(1.0 - alpha, 1.0 + alpha, 3_001)
    ys = np.linspace(a, b, 3_001)
    f = np.power(ys[:, None], ss[None, :])
    m1 = np.trapezoid(f, ys, axis=0) / (b - a)
    m2 = np.trapezoid(f**2, ys, axis=0) / (b - a)
    e_m1 = np.trapezoid(m1, ss) / (2 * alpha)
    var_f = np.trapezoid(m2, ss) / (2 * alpha) - e_m1**2
    cov_ff = np.trapezoid(m1**2, ss) / (2 * alpha) - e_m1**2
    expected = var_f / j + (j - 1) / j * cov_ff
    assert math.isclose(target_variance(s), expected, rel_tol=1e-6)


def test_degenerate_target_is_zero_and_relbias_rejects_it():
    d = Uniform(lo=[1.0], hi=[1.0])
    s = scenario(ADDITIVE, d, d)
    assert target_variance(s) == 0.0
    with pytest.raises(DomainError):
        relbias_current(s)
    with pytest.raises(DomainError):
        relbias_alternative(s)


# --------------------------------------------------------------------------
# relative biases and the gap


def test_relbias_current_phase_extremal_is_two():
    # the relative bias is 2 regardless of J: (psi/J) over 1/(2J)
    for j in (2, 4, 8):
        assert math.isclose(relbias_current(phase_extremal(j=j)), 2.0, rel_tol=1e-12)


def test_relbias_alternative_standard_multiplicative_is_one_over_q():
    for q in (3, 10, 100):
        assert math.isclose(relbias_alternative(mult_standard(q=q)), 1.0 / q, rel_tol=1e-14)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.1, max_value=3),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.1, max_value=3),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=300),
)
@settings(max_examples=80, deadline=None)
def test_relbias_alternative_bounds_multiplicative(mu, sig2, nu, tau2, j, q):
    # the alternative construction's relative bias always sits in [0, 1/Q]
    s = scenario(
        MULTIPLICATIVE, Normal(mean=[mu], cov=[[sig2]]), Normal(mean=[nu], cov=[[tau2]]), j, q
    )
    rb = relbias_alternative(s)
    assert 0.0 <= rb <= 1.0 / q + 1e-15


def test_relbias_alternative_additive_is_zero():
    assert relbias_alternative(scenario(ADDITIVE, STD_NORMAL, STD_NORMAL)) == 0.0


def test_relbias_alternative_nonzero_means_below_bound():
    # unit means and variances: phi = 1, target = (1/J)(1+1) + 1 = 1.5
    s = scenario(MULTIPLICATIVE, Normal(mean=[1.0], cov=[[1.0]]), Normal(mean=[1.0], cov=[[1.0]]), 4, 100)
    rb = relbias_alternative(s)
    assert rb < 1.0 / 100.0
    assert math.isclose(rb, (1.0 / 400.0) / 1.5, rel_tol=1e-14)


def test_mean_variance_gap_values():
    # multiplicative standard normal J=4 Q=10: 0 - phi/(J Q^2) = -1/400
    assert math.isclose(mean_variance_gap(mult_standard(j=4, q=10)), -1.0 / 400.0, rel_tol=1e-14)
    assert mean_variance_gap(scenario(ADDITIVE, STD_NORMAL, STD_NORMAL)) == 0.0


def test_mean_variance_gap_combines_both_factors():
    s = phase_extremal(j=4, q=50)
    psi = bias_factor_current(s)
    phi_val = bias_factor_alternative(s)
    got = mean_variance_gap(s)
    assert math.isclose(got, psi / (4 * 50) - phi_val / (4 * 50 * 50), rel_tol=1e-12)


# --------------------------------------------------------------------------
# variance-of-sample-variance pieces


def test_var_of_sample_variance_normal_known_values():
    assert var_of_sample_variance_normal(1.0, 0.0, 2) == 2.0
    assert math.isclose(var_of_sample_variance_normal(1.0, 2.0, 11), 1.0, rel_tol=1e-14)
    # general formula: 2 sigma^4/(n-1) + 4 sigma^2 u^2/(n-1)
    assert math.isclose(
        var_of_sample_variance_normal(2.0, 0.5, 5), (2.0 * 4.0 + 4.0 * 2.0 * 0.5) / 4.0, rel_tol=1e-14
    )
    # constants carry no sampling noise regardless of mean dispersion
    assert var_of_sample_variance_normal(0.0, 3.0, 7) == 0.0


def test_var_of_sample_variance_needs_two_observations():
    with pytest.raises(DomainError):
        var_of_sample_variance_normal(1.0, 0.0, 1)


def test_vardiff_bracket_standard_normal_is_four_over_q_squared():
    for q in (5, 50, 500):
        got = synthesis_input_variance_gap(mult_standard(j=4, q=q))
        assert math.isclose(got, 4.0 / q**2, rel_tol=1e-12)


def test_vardiff_additive_zero():
    assert synthesis_input_variance_gap(scenario(ADDITIVE, STD_NORMAL, STD_NORMAL)) == 0.0


def test_vardiff_rejects_other_kernels():
    with pytest.raises(DomainError):
        synthesis_input_variance_gap(phase_extremal())


def test_vardiff_bracket_nonzero_error_mean():
    # with nu != 0 the 1/Q term dominates: check the closed form term by term
    y = Normal(mean=[1.0], cov=[[2.0]])
    s_dist = Normal(mean=[0.5], cov=[[0.25]])
    s = scenario(MULTIPLICATIVE, y, s_dist, j=4, q=100)
    sigma2, tau2, nu, qq, jj = 2.0, 0.25, 0.5, 100.0, 4.0
    phi4 = 3.0 * sigma2**2  # normal fourth central moment
    psi4 = 3.0 * tau2**2
    var_sbar2 = 4 * nu**2 * tau2 / qq + 2 * tau2**2 / qq**2 + (psi4 - 3 * tau2**2) / qq**3
    e_sbar4_minus = 6 * nu**2 * tau2 / qq + 3 * tau2**2 / qq**2 + (psi4 - 3 * tau2**2) / qq**3
    var_s2y = (phi4 - sigma2**2) / jj + 2 * sigma2**2 / (jj * (jj - 1))
    expected = sigma2**2 * var_sbar2 + e_sbar4_minus * var_s2y
    assert math.isclose(synthesis_input_variance_gap(s), expected, rel_tol=1e-12)


# --------------------------------------------------------------------------
# conditional moments


def test_conditional_mean_given_y_phase():
    s = scenario(PHASE, STD_NORMAL, Uniform(lo=[-0.9], hi=[0.9]))
    ys = np.array([-1.0, 0.3, 2.0])
    got = conditional_mean_given_y(s, ys)
    assert np.allclose(got, np.sin(ys) * math.sin(0.9) / 0.9, rtol=1e-14)


@pytest.mark.parametrize("kernel", [ADDITIVE, MULTIPLICATIVE], ids=lambda k: k.kind)
def test_conditional_mean_given_y_closed_forms(kernel):
    # E[y + S] = y + E[S] and E[y·S] = y·E[S]; a scalar in gives a float out
    s = scenario(kernel, STD_NORMAL, Normal(mean=[0.5], cov=[[2.0]]))
    ys = np.array([-1.0, 0.0, 3.0])
    want = ys + 0.5 if kernel is ADDITIVE else ys * 0.5
    assert np.array_equal(conditional_mean_given_y(s, ys), want)
    one = conditional_mean_given_y(s, 3.0)
    assert type(one) is float and one == want[-1]


def test_conditional_mean_given_y_exponential_vs_integration():
    s = exponential_scenario(0.5, 3.0, 0.7)
    ys = np.array([0.6, 1.0, 2.5])
    got = conditional_mean_given_y(s, ys)
    want = [_exponential_k_by_integration(y, 0.7) for y in ys]
    assert np.allclose(got, want, rtol=1e-7)


def test_conditional_variance_given_s_multiplicative():
    y = Normal(mean=[1.0], cov=[[2.0]])
    s = scenario(MULTIPLICATIVE, y, STD_NORMAL)
    vals = conditional_variance_given_s(s, np.array([0.0, 1.0, -2.0]))
    assert np.allclose(vals, [0.0, 2.0, 8.0], rtol=1e-14)


def test_conditional_variance_given_s_additive():
    # V[Y + s] = V[Y] at every shift, in the shape of the shifts
    s = scenario(ADDITIVE, Normal(mean=[1.0], cov=[[2.0]]), STD_NORMAL)
    vals = conditional_variance_given_s(s, np.array([[0.0, 1.0], [-2.0, 5.0]]))
    assert vals.shape == (2, 2)
    assert np.all(vals == 2.0)
    assert conditional_variance_given_s(s, -3.0) == 2.0


def test_conditional_variance_given_s_phase_vs_grid():
    c, d = -0.5, 1.5
    s = scenario(PHASE, Uniform(lo=[c], hi=[d]), Uniform(lo=[-1.0], hi=[1.0]))
    shift = 0.4
    ys = np.linspace(c, d, 200_001)
    vals = np.sin(ys + shift)
    want = np.trapezoid(vals**2, ys) / (d - c) - (np.trapezoid(vals, ys) / (d - c)) ** 2
    got = conditional_variance_given_s(s, np.array([shift]))[0]
    assert math.isclose(got, want, rel_tol=1e-9)


# --------------------------------------------------------------------------
# exponential conditional mean (the k function)


def test_exponential_k_spec_value():
    assert math.isclose(
        exponential_conditional_mean(math.e, 1.0), math.e * math.sinh(1.0), rel_tol=1e-15
    )


def test_exponential_k_at_one():
    assert exponential_conditional_mean(1.0, 0.5) == 1.0


def test_exponential_k_series_branch_is_smooth():
    # straddle the series/formula switch at |ln y| = 1e-6
    alpha = 0.95
    ys = np.array([1.0 - 2e-6, 1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.0 + 2e-6])
    vals = exponential_conditional_mean(ys, alpha)
    brute = [_exponential_k_by_integration(float(y), alpha, 40_001) for y in ys]
    assert np.allclose(vals, brute, rtol=1e-10)


def test_exponential_k_matches_integration_broadly():
    alpha = 0.6
    ys = np.geomspace(0.05, 50.0, 9)
    got = exponential_conditional_mean(ys, alpha)
    want = [_exponential_k_by_integration(float(y), alpha, 100_001) for y in ys]
    assert np.allclose(got, want, rtol=1e-8)


def test_exponential_k_rejects_bad_domain():
    with pytest.raises(DomainError):
        exponential_conditional_mean(-1.0, 0.5)
    with pytest.raises(DomainError):
        exponential_conditional_mean(2.0, 1.5)


# --------------------------------------------------------------------------
# quadrature


def test_gauss_legendre_weights_sum_to_length():
    _, w = gauss_legendre(-2.0, 5.0, 64)
    assert math.isclose(w.sum(), 7.0, rel_tol=1e-14)


def test_gauss_legendre_exact_for_polynomials():
    # n nodes integrate polynomials up to degree 2n-1 exactly
    x, w = gauss_legendre(0.0, 2.0, 3)
    got = float(w @ x**5)
    assert math.isclose(got, 2.0**6 / 6.0, rel_tol=1e-13)


#: (Ψ, Φ) of the exponential kernel for Y ~ Unif[a, b] and S ~ Unif[1 − α,
#: 1 + α], with α the float64 nearest 0.95 (so both error ends are exact in
#: float64), to 40 digits: mpmath 1.3.0 at 60-digit precision.  Two
#: routes agree on every digit shown: integrals over the error exponent of
#: the closed-form moments of Y^s (tanh-sinh and Gauss-Legendre rules), and
#: integrals over the data support of k(y) = E[y^S], k(y)², k(y²) and, for
#: E_S[E[Y^S | S]²], of k(y·y') over the square.
EXPONENTIAL_FACTOR_REFERENCE = {
    (0.25, 6.0): ("-4.198901676488369798590929747855579916382",
                  "6.777371060148618846240880958679254869014"),
    (2.0, 3.0): ("-0.08663522693550550382446501064400187323153",
                 "0.1375877921183802569465335831727661776464"),
}


def test_exponential_bias_factors_match_40_digit_reference():
    # both factors run the fixed QUAD_NODES rule; this pins its accuracy
    for (a, b), (psi, phi) in EXPONENTIAL_FACTOR_REFERENCE.items():
        s = exponential_scenario(a, b, 0.95)
        for got, want in ((bias_factor_current(s), float(psi)), (bias_factor_alternative(s), float(phi))):
            assert abs(got - want) <= 1e-12 * abs(want), (a, b, got, want)


#: V[mean_j f(Y_j, S)] at J = 2 for Y ~ Unif[c, d] (the float64 ends below),
#: phase errors Unif(-0.95, 0.95) and exponential errors Unif[1 - 0.95,
#: 1 + 0.95], to 40 digits: the closed-form moments of f given S integrated
#: over S at 60-digit precision with mpmath, whose tanh-sinh and
#: Gauss-Legendre rules agree on every digit shown.  Narrow supports next
#: to y = 1 (exponential) and across pi/2 and 3pi/2 (phase), and wide ones.
TARGET_REFERENCE = {
    "phase": {
        (0.95, 1.0): "0.08995201229253504671319723408411444890298",
        (1.0, 1.05): "0.07926882671494492687000115888843318150515",
        (0.05, 0.1): "0.2496795768277498625027643808758457976546",
        (1.55, 1.6): "0.01592890948655917272663416456203160778313",
        (4.7, 4.75): "0.01596213931321714554722413395331268962709",
        (7.95, 8.0): "0.01935075401589615371099754553833901711329",
        (0.0, 8.0): "0.2468072222755109426837046907411524830987",
        (0.5, 7.5): "0.2501757400722226597214242244425897171852",
    },
    "exponential": {
        (0.95, 1.0): "0.0003141736288113997183227734129378134061931",
        (1.0, 1.05): "0.0003329755924669329918628302356284932378867",
        (0.05, 0.1): "0.04685544625005831444725522764183732830432",
        (1.55, 1.6): "0.1620474942744822756336324211317474192036",
        (4.7, 4.75): "28.09499274370957016334860892034062771528",
        (7.95, 8.0): "213.3153197497602515355025181000691782067",
        (0.0, 8.0): "42.97648818012799427325404842832202710513",
        (0.5, 7.5): "35.97074696811288406526633466614223770635",
    },
}


@pytest.mark.parametrize(
    "kernel, support",
    [(k, cd) for k in (PHASE, EXPONENTIAL) for cd in TARGET_REFERENCE[k.kind]],
    ids=lambda v: v.kind if hasattr(v, "kind") else f"{v[0]}-{v[1]}",
)
def test_uniform_target_variance_matches_40_digit_reference(kernel, support):
    (c, d), alpha = support, 0.95
    if kernel is PHASE:
        s_dist = Uniform(lo=[-alpha], hi=[alpha])
    else:
        s_dist = Uniform(lo=[1.0 - alpha], hi=[1.0 + alpha])
    got = target_variance(scenario(kernel, Uniform(lo=[c], hi=[d]), s_dist, j=2, q=2))
    want = float(TARGET_REFERENCE[kernel.kind][support])
    assert abs(got - want) <= 1e-12 * want, (got, want)


# --------------------------------------------------------------------------
# values of one scenario, and validation


def test_analytic_values_consistency():
    s = mult_standard(j=4, q=10)
    assert math.isclose(relbias_alternative(s), 0.1, rel_tol=1e-12)
    assert bias_factor_current(s) == 0.0
    assert math.isclose(target_variance(s), 0.25, rel_tol=1e-14)
    assert math.isclose(mean_variance_gap(s), -1.0 / 400.0, rel_tol=1e-12)


def test_phase_extremal_alternative_is_exact():
    for q in (3, 50):
        s = phase_extremal(j=4, q=q)
        assert abs(bias_factor_alternative(s) - 0.5) <= 1e-12
        assert abs(relbias_alternative(s) - 1.0 / q) <= 1e-12


def test_scenario_validation():
    with pytest.raises(DomainError):
        ScalarScenario(kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=1, q=10)
    with pytest.raises(DomainError):
        ScalarScenario(kernel=ADDITIVE, y_dist=STD_NORMAL, s_dist=STD_NORMAL, j=4, q=0)
    with pytest.raises(DomainError):
        ScalarScenario(
            kernel=ADDITIVE,
            y_dist=Normal(mean=[0.0, 0.0], cov=np.eye(2)),
            s_dist=STD_NORMAL,
            j=4,
            q=10,
        )


def test_exponential_requires_unit_mean_errors():
    bad = scenario(EXPONENTIAL, Uniform(lo=[0.5], hi=[2.0]), Uniform(lo=[0.0], hi=[1.0]))
    with pytest.raises(DomainError):
        bias_factor_current(bad)


def test_exponential_requires_nonnegative_support():
    bad = exponential_scenario(-1.0, 2.0)
    with pytest.raises(DomainError):
        bias_factor_current(bad)


# --------------------------------------------------------------------------
# input checks: each refusal once


INPUT_CHECKS = {
    "quadrature without nodes": (lambda: gauss_legendre(0.0, 1.0, 0), "at least one node"),
    "reversed quadrature interval": (lambda: gauss_legendre(1.0, 0.0, 4), "interval is reversed"),
    "asymmetric phase error law": (
        lambda: bias_factor_current(scenario(PHASE, Uniform(lo=[0.0], hi=[1.0]),
                                             Uniform(lo=[-1.0], hi=[2.0]))),
        r"Unif\(-delta, delta\)",
    ),
    "exponential half-width above one": (
        lambda: bias_factor_current(scenario(EXPONENTIAL, Uniform(lo=[1.0], hi=[2.0]),
                                             Uniform(lo=[-0.5], hi=[2.5]))),
        r"half-width must lie in \(0, 1\], got 1.5",
    ),
    "phase with normal data": (
        lambda: bias_factor_current(scenario(PHASE, STD_NORMAL, Uniform(lo=[-1.0], hi=[1.0]))),
        "two_point or uniform data",
    ),
    "negative variance argument": (lambda: var_of_sample_variance_normal(-1.0, 0.0, 3),
                                   "must be non-negative"),
    "negative mean dispersion": (lambda: var_of_sample_variance_normal(1.0, -1.0, 3),
                                 "must be non-negative"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_refuses(case):
    call, fragment = INPUT_CHECKS[case]
    with pytest.raises(DomainError, match=fragment):
        call()
