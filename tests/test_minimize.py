"""Advantage minimization and the limiting optimal bias."""

import collections
import hashlib
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import pytest

from coinrace.advantage import advantage_polynomial
from coinrace.game import GameParams, ParameterError
from coinrace.minimize import (
    _limit_bias,
    advantage_at_asymptotic,
    asymptotic_optimum,
    limiting_variance,
    minimize_advantage,
)


def test_minimized_values_match_reference_rows():
    # the reference rounds to three decimals; simulation noise adds a little more
    assert abs(minimize_advantage(GameParams(5, 1, 1)).value - 0.700) <= 5e-4
    assert abs(minimize_advantage(GameParams(15, 1, 1)).value - 0.617) <= 5e-4


def test_degenerate_game_short_circuits():
    result = minimize_advantage(GameParams(2, 2, 1), tol=1e-3)
    assert result.degenerate
    assert result.value == 1.0
    assert result.bias is None and result.bracket is None


def test_tol_must_be_positive():
    with pytest.raises(ParameterError):
        minimize_advantage(GameParams(5, 1, 1), tol=0)


@pytest.mark.parametrize(
    "tol", [10**400, Fraction(10**400, 3), 2, 1.5], ids=["10^400", "10^400/3", "2", "1.5"]
)
def test_a_tol_past_the_float_range_gives_the_tol_1_result(tol):
    # tol >= 1/2 stops at depth 0, whatever its size; an exact huge tol
    # must not be rounded to a float on the way
    params = GameParams(5, 1, 1)
    assert minimize_advantage(params, tol) == minimize_advantage(params, 1)._replace(tol=tol)
    import coinrace.tables as tables

    assert tables.minimized_table(tol) == tables.minimized_table(1)


def test_bracket_quality():
    tol = 1e-9
    for params in [(5, 1, 1), (10, 2, 3), (7, 1, 2)]:
        result = minimize_advantage(GameParams(*params), tol=tol)
        lo, hi = result.bracket
        assert 0 < lo <= hi < 1
        assert hi - lo <= Fraction(tol)
        derivative = advantage_polynomial(GameParams(*params)).poly.derivative()
        if lo == hi:
            delta = Fraction(tol) / 2
            assert derivative(lo - delta) * derivative(hi + delta) < 0
        else:
            assert derivative(lo) * derivative(hi) < 0
        assert Fraction(1, 2) <= result.value_exact <= 1


def test_coarse_tol_reports_the_midpoint_of_a_wide_bracket():
    # tol bounds the bracket, not the bias error: at tol 1 the whole of (0, 1)
    # can be one bracket, so the bias is its midpoint and the value is taken there
    result = minimize_advantage(GameParams(15, 1, 1), tol=1)
    assert result.bracket == (0, 1)
    assert result.bias == 0.5
    assert result.value_exact == advantage_polynomial(GameParams(15, 1, 1)).poly(Fraction(1, 2))
    assert round(result.value, 3) == 0.632
    assert round(minimize_advantage(GameParams(15, 1, 1)).value, 3) == 0.617


@pytest.mark.parametrize(
    "game,tol,width",
    [
        ((15, 1, 1), 2.0**-20, Fraction(1, 2**20)),  # 2^-20 itself is wide enough
        ((15, 1, 1), 2.0**-20 * (1 - 2.0**-53), Fraction(1, 2**21)),  # one ulp below it is not
        ((5, 1, 1), 5e-324, Fraction(1, 2**1074)),  # the least positive float
        ((5, 1, 1), 1e308, Fraction(1)),  # any tol >= 1 keeps (0, 1) whole
        ((5, 1, 1), 0.75, Fraction(1, 2)),
    ],
)
def test_bracket_width_is_the_largest_power_of_two_within_tol(game, tol, width):
    lo, hi = minimize_advantage(GameParams(*game), tol=tol).bracket
    assert hi - lo == width


def test_exact_dyadic_critical_point():
    # the advantage 1 - p + p^2 has its derivative root exactly at 1/2
    result = minimize_advantage(GameParams(2, 1, 1))
    assert result.bracket == (Fraction(1, 2), Fraction(1, 2))
    assert result.value_exact == Fraction(3, 4)
    assert result.bias == 0.5


def test_minimum_beats_dense_grid():
    for params in [(5, 1, 1), (10, 2, 3)]:
        result = minimize_advantage(GameParams(*params))
        poly = advantage_polynomial(GameParams(*params)).poly
        for i in range(0, 1001):
            assert result.value_exact <= poly(Fraction(i, 1000)) + Fraction(1, 10**9)


def test_limit_bias_reference_constants():
    assert abs(asymptotic_optimum(1, 1).bias - (2 - math.sqrt(3))) <= 1e-9
    assert abs(asymptotic_optimum(2, 1).bias - (3 - math.sqrt(7))) <= 1e-9
    assert abs(asymptotic_optimum(1, 2).bias - (3 - math.sqrt(7)) / 2) <= 1e-9
    assert abs(asymptotic_optimum(1, 1).bias - 0.267949192) <= 1e-9
    assert abs(asymptotic_optimum(2, 1).bias - 0.354248688) <= 1e-8
    assert abs(asymptotic_optimum(1, 2).bias - 0.177124344) <= 1e-8


def test_limit_bias_satisfies_stationarity():
    rng = random.Random(20240817)
    for _ in range(50):
        alpha = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        beta = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        p = asymptotic_optimum(alpha, beta).bias
        residual = 3 * float(beta) / (float(alpha) + float(beta) * p) - 1 / p + 1 / (1 - p)
        assert abs(residual) <= 1e-9


def test_limit_bias_range_and_limits():
    for exponent in range(-6, 7):
        t = Fraction(10) ** exponent
        bias = asymptotic_optimum(t, 1).bias
        assert 0 < bias < 0.5
    assert asymptotic_optimum(Fraction(1, 10**6), 1).bias < 1e-3
    assert asymptotic_optimum(10**6, 1).bias > 0.499


@pytest.mark.parametrize(
    "alpha,beta",
    [(10**400, 1), (Fraction(1, 10**400), 1), (10**200, 1), (10**103, 1), (Fraction(1, 10**200), 1)],
    ids=["t-overflow", "t-underflow", "t-squared-overflow", "variance-overflow", "variance-underflow"],
)
def test_outside_the_float_range_is_a_parameter_error(alpha, beta):
    with pytest.raises(ParameterError, match="float range"):
        asymptotic_optimum(alpha, beta)


def test_limit_bias_depends_only_on_ratio():
    for c in (2, Fraction(3, 7), 10):
        base = asymptotic_optimum(3, 2)
        scaled = asymptotic_optimum(3 * c, 2 * c)
        assert base.t == scaled.t
        assert base.bias == scaled.bias


def certified_limit_bias(t: Fraction) -> float:
    """The correctly rounded u / (u + v + sqrt(u^2 + uv + v^2)), t = u/v, from a two-sided bracket.

    With D = (u + v) 2^J + isqrt((u^2 + uv + v^2) 4^J), 2^J times the exact
    denominator lies in [D, D + 1), so the bias lies in (u 2^J / (D + 1), u 2^J / D].
    Rounding is monotone, so once both ends round to one float the bias does too.
    """
    u, v = t.numerator, t.denominator
    for j in (64, 128, 256, 512, 1024, 2048, 4096):
        d = ((u + v) << j) + math.isqrt((u * u + u * v + v * v) << 2 * j)
        if (u << j) / (d + 1) == (u << j) / d:
            return (u << j) / d
    raise AssertionError(f"no bracket settled the rounding at t = {t}")


def test_limit_bias_is_correctly_rounded():
    for alpha in range(1, 61):
        for beta in range(1, 61):
            assert asymptotic_optimum(alpha, beta).bias == certified_limit_bias(Fraction(alpha, beta))
    for k in range(-150, 101):  # where the variance is a float too
        t = Fraction(10) ** k
        assert asymptotic_optimum(t, 1).bias == certified_limit_bias(t), k
    for k in range(300, 324):  # the bias is subnormal; 10^-324 leaves even those
        t = Fraction(1, 10**k)
        assert _limit_bias(t, 1) == (t, certified_limit_bias(t)), k
    with pytest.raises(ParameterError, match="limiting bias is outside the float range"):
        _limit_bias(Fraction(1, 10**324), 1)


def test_limiting_variance_is_the_exact_value_rounded_once():
    assert limiting_variance(asymptotic_optimum(1, 1).bias, 1, 1) == 10.392304845413264
    rng = random.Random(20261019)
    for _ in range(300):
        alpha = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        beta = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        p = rng.uniform(0.01, 0.99)
        x = Fraction(p)
        exact = (alpha + beta * x) ** 3 / (beta * beta * x * (1 - x))
        assert limiting_variance(p, alpha, beta) == float(exact)


def test_limiting_variance_value_and_pole():
    assert limiting_variance(0.5, 1, 1) == 13.5
    # alpha is > 0 though it underflows to 0.0 as a float, and the variance is finite
    assert limiting_variance(0.5, Fraction(1, 10**400), 1) == 0.5**3 / 0.25
    for p in (0.0, 1.0):
        with pytest.raises(ParameterError):
            limiting_variance(p, 1, 1)


@pytest.mark.parametrize(
    "alpha,beta", [(math.inf, 1), (math.nan, 1), (1, math.inf), (1, -math.inf), (1, math.nan)]
)
def test_non_finite_ratio_is_a_parameter_error(alpha, beta):
    with pytest.raises(ParameterError):
        asymptotic_optimum(alpha, beta)
    with pytest.raises(ParameterError):
        limiting_variance(0.5, alpha, beta)


@pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0), (-1, 2), (2, "-1/2")])
def test_nonpositive_ratio_is_a_parameter_error(alpha, beta):
    with pytest.raises(ParameterError, match="alpha and beta must be > 0"):
        _limit_bias(alpha, beta)
    with pytest.raises(ParameterError, match="alpha and beta must be > 0"):
        limiting_variance(0.5, alpha, beta)


def test_limiting_variance_grid_argmin():
    # scan at step 1e-4: the argmin should sit within one step of 2 - sqrt(3)
    best_p = min((limiting_variance(i / 10**4, 1, 1), i / 10**4) for i in range(1, 10**4))[1]
    assert abs(best_p - (2 - math.sqrt(3))) <= 1e-4


def test_limiting_variance_is_homogeneous():
    for c in (2.0, 0.25, 7.0):
        assert limiting_variance(0.3, 2 * c, 3 * c) == pytest.approx(
            c * limiting_variance(0.3, 2, 3), rel=1e-12
        )


def test_advantage_at_limit_bias():
    assert abs(advantage_at_asymptotic(GameParams(5, 1, 1)) - 0.700) <= 5e-3
    assert advantage_at_asymptotic(GameParams(2, 2, 1)) == 1.0
    # only the bias is needed, so a variance past the float range does not matter
    assert advantage_at_asymptotic(GameParams(5, 10**103, 1)) == 1.0
    # exact evaluation at the same rational bias must agree with the enumeration oracle
    from coinrace.game import normalize
    from coinrace.oracle import brute_force_advantage

    bias = Fraction(asymptotic_optimum(1, 3).bias)
    expected = float(brute_force_advantage(normalize(GameParams(15, 1, 3)), bias))
    assert advantage_at_asymptotic(GameParams(15, 1, 3)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("game", [(500, 1, 1), (1000, 2, 1), (1500, 3, 1)])
def test_minimizer_approaches_the_limit_bias_like_one_over_m_for_integer_ratios(game):
    # m (p_n - p*) reads 0.112, 0.069 and 0.049 at m = 500 for t = alpha/beta = 1, 2, 3
    n, alpha, beta = game
    m = -(-n // alpha)
    scaled_gap = m * (minimize_advantage(GameParams(*game)).bias - asymptotic_optimum(alpha, beta).bias)
    assert 0 < scaled_gap < 0.15


@pytest.mark.parametrize("game", [(500, 1, 2), (1000, 2, 3), (750, 3, 2)])
def test_limit_bias_is_not_the_minimizers_limit_for_other_ratios(game):
    # |p_n - p*| reads 0.092, 0.056 and 0.014 for t = 1/2, 2/3, 3/2: p_n tends elsewhere
    _, alpha, beta = game
    assert abs(minimize_advantage(GameParams(*game)).bias - asymptotic_optimum(alpha, beta).bias) > 0.01


FLOOR_GAMES = [
    (n, alpha, beta) for n in range(1, 25) for alpha in range(1, 5) for beta in range(1, 5)
] + [(100, 1, 1), (150, 2, 3), (90, 1, 2)]


def test_no_grid_point_falls_below_the_minimum():
    # Every homogeneous coefficient c_j of I is >= 0, so the float sum of
    # c_j p^j (1-p)^(D-j) has no cancellation and is within a few ulps of I(p).
    # It shares no code with isolation, so a minimizer that misses the deepest
    # basin reports a value_exact that some grid point undercuts.
    checked = 0
    for game in FLOOR_GAMES:
        adv = advantage_polynomial(GameParams(*game))
        if adv.degenerate:
            continue
        checked += 1
        c = [float(x) for x in adv.homogeneous]
        d = len(c) - 1
        floor = math.inf
        for i in range(257):
            p = i / 256
            floor = min(floor, math.fsum(x * p**j * (1 - p) ** (d - j) for j, x in enumerate(c)))
        minimum = minimize_advantage(GameParams(*game)).value_exact
        assert floor >= minimum - (d + 2) * 2.0**-50, game
    assert checked == 333


@pytest.mark.parametrize("game", [(1000, 1, 1), (1000, 2, 3), (500, 1, 2), (250, 4, 3)])
def test_no_grid_point_falls_below_the_minimum_past_the_float_range(game):
    # (1000, 1, 1) has c_j of 1994 bits, past the float range, so each term
    # c_j p^j (1-p)^(D-j) is taken in the log domain at 2048 cell midpoints:
    # log c_j + j log(p / (1-p)), shifted by its row's maximum and summed, then
    # scaled by that maximum times (1-p)^D.  No term is negative, so the sum
    # has no cancellation.
    np = pytest.importorskip("numpy")
    adv = advantage_polynomial(GameParams(*game))
    minimum = minimize_module._minimize(adv, 1e-9).value_exact
    d = len(adv.homogeneous) - 1
    j, logs = np.array([(j, math.log(x)) for j, x in enumerate(adv.homogeneous) if x]).T
    p = (np.arange(2048) + 0.5) / 2048
    terms = logs + np.outer(np.log(p) - np.log1p(-p), j)
    top = terms.max(axis=1)
    terms -= top[:, None]
    grid = np.exp(top + d * np.log1p(-p)) * np.exp(terms, out=terms).sum(axis=1)
    assert grid.min() >= float(minimum) * (1 - 8 * (d + 2) * 2.0**-52)


# --- root isolation machinery, checked against planted roots -----------------

from hypothesis import example, given, settings
from hypothesis import strategies as st

from algebra import ref_add, ref_mul, ref_split
from coinrace.minimize import _depth, _isolate
from coinrace.polynomial import ONE, Poly, to_homogeneous


def isolate_unit_interval_roots(dpoly, tol):
    """Brackets of width <= tol covering every root in (0, 1) of an integral dpoly.

    See ``coinrace.minimize._isolate``: a bracket holds one simple root unless
    two or more roots, counted with multiplicity, lie within about tol of each
    other.  Under I = 0 every root is a candidate.
    """
    coeffs = list(dpoly.coeffs)
    if len(coeffs) <= 1:
        return []
    return brackets_of(_isolate(to_homogeneous(coeffs, len(coeffs) - 1), tol, [0]), tol)


def as_fractions(isolated, tol):
    """_isolate's (candidates, denominator) at tol as (value, point, bracket) rationals."""
    candidates, denominator = isolated
    depth = _depth(tol)
    return [
        (Fraction(value, denominator), Fraction(point, 2 << depth),
         bracket and (Fraction(bracket[0], 1 << depth), Fraction(bracket[1], 1 << depth)))
        for value, point, bracket in candidates
    ]


def brackets_of(isolated, tol):
    """The sorted brackets of _isolate's candidates at tol, without the ends 0 and 1."""
    return sorted(bracket for _, _, bracket in as_fractions(isolated, tol) if bracket)


unit_roots = st.fractions(
    min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40
)


def poly_with_roots(roots, factor=ONE):
    """factor times the product of (d p - n) over the roots n/d."""
    coeffs = factor.coeffs
    for r in roots:
        coeffs = ref_mul(coeffs, (-r.numerator, r.denominator))
    return Poly(coeffs)


def assert_brackets_match(roots, extra=()):
    poly = poly_with_roots(list(roots) + list(extra))
    tol = Fraction(1, 10**9)
    brackets = isolate_unit_interval_roots(poly, tol)
    distinct = sorted(set(roots))
    assert len(brackets) == len(distinct)
    for (lo, hi), root in zip(brackets, distinct):
        assert lo <= root <= hi
        assert hi - lo <= tol


def test_isolation_repeated_and_dyadic_roots():
    half, third, nine_tenths = Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)
    assert_brackets_match([half])
    # the dyadic double root at 1/2 comes off exactly as a zero end coefficient
    assert_brackets_match([half, half, third])
    assert_brackets_match([third, third, third, nine_tenths])
    assert_brackets_match(
        [Fraction(4999, 10000), Fraction(1, 2), Fraction(5001, 10000)]
    )  # tightly clustered around a dyadic root


def test_isolation_ignores_roots_outside_the_open_interval():
    assert_brackets_match(
        [Fraction(2, 5)], extra=[Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)]
    )


def test_isolation_of_rootless_polynomial():
    assert isolate_unit_interval_roots(Poly((1, 0, 1)), Fraction(1, 1000)) == []
    assert isolate_unit_interval_roots(Poly((5,)), Fraction(1, 1000)) == []


@settings(deadline=None, max_examples=60)
@given(st.lists(unit_roots, min_size=1, max_size=4))
def test_isolation_finds_planted_roots(roots):
    assert_brackets_match(roots)


def dyadic_node(x, depth):
    a = math.floor(x * 2**depth)
    return Fraction(a, 2**depth), Fraction(a + 1, 2**depth)


@pytest.mark.parametrize("game", [(100, 1, 1), (150, 2, 3), (90, 1, 2)])
def test_real_games_bracket_only_sign_changes(monkeypatch, game):
    # every bracket isolates one simple root of I', so no game reaches the
    # branch that keeps a node with two or more sign variations whole
    import coinrace.minimize as minimize_module

    seen = []
    real = minimize_module._isolate

    def recording(*args):
        isolated = real(*args)
        seen.extend(brackets_of(isolated, args[1]))
        return isolated

    monkeypatch.setattr(minimize_module, "_isolate", recording)
    result = minimize_advantage(GameParams(*game))
    assert not result.degenerate and result.bracket in seen
    derivative = advantage_polynomial(GameParams(*game)).poly.derivative()
    for lo, hi in seen:
        if lo == hi:
            assert derivative(lo) == 0
        else:
            assert derivative(lo) * derivative(hi) < 0


def test_a_triple_root_gets_its_dyadic_node_whole():
    third, nine_tenths = Fraction(1, 3), Fraction(9, 10)
    poly = poly_with_roots([third, third, third, nine_tenths])
    brackets = isolate_unit_interval_roots(poly, Fraction(1, 10**9))
    assert brackets[0] == dyadic_node(third, 30)  # 2^-30 <= 1e-9 < 2^-29
    lo, hi = brackets[1]
    assert lo <= nine_tenths <= hi and hi - lo <= Fraction(1, 10**9)
    assert len(brackets) == 2


def test_roots_at_the_ends_and_a_double_dyadic_root_are_stripped():
    # p, 1 - p and (p - 1/2)^2 show as zero end coefficients: at the root, and
    # on both halves of the first split, where signs are read past them.
    half = Fraction(1, 2)
    poly = poly_with_roots([Fraction(0), Fraction(1), half, half, Fraction(2, 5)])
    brackets = isolate_unit_interval_roots(poly, Fraction(1, 10**9))
    assert len(brackets) == 2
    lo, hi = brackets[0]
    assert lo <= Fraction(2, 5) <= hi and hi - lo <= Fraction(1, 10**9)
    assert brackets[1] == (half, half)


@pytest.mark.parametrize("root,multiplicity", [(Fraction(1, 3), 2), (Fraction(2, 7), 3)])
def test_multiple_root_times_a_game_derivative_ends_at_tol(root, multiplicity):
    # a rational gcd with the derivative takes minutes at this degree; isolation must not
    tol = Fraction(1, 10**9)
    game_root = minimize_advantage(GameParams(100, 1, 1)).bracket
    dpoly = advantage_polynomial(GameParams(100, 1, 1)).poly.derivative()
    product = poly_with_roots([root] * multiplicity, dpoly)
    start = time.perf_counter()
    brackets = isolate_unit_interval_roots(product, tol)
    assert time.perf_counter() - start < 10
    assert brackets == sorted([game_root, dyadic_node(root, 30)])


@pytest.mark.parametrize("gap,count", [(Fraction(1, 10**12), 1), (Fraction(1, 10**6), 2)])
def test_roots_closer_than_tol_share_a_bracket(gap, count):
    third = Fraction(1, 3)
    tol = Fraction(1, 10**9)
    brackets = isolate_unit_interval_roots(poly_with_roots([third, third + gap]), tol)
    assert len(brackets) == count
    for root in (third, third + gap):
        assert any(lo <= root <= hi for lo, hi in brackets)
    assert all(hi - lo <= tol for lo, hi in brackets)
    if count == 1:
        assert brackets == [dyadic_node(third, 30)]


# --- low-precision signs and the refinement, checked against plain exact code --

import coinrace.minimize as minimize_module


@pytest.mark.parametrize("d", [0, 1, 2, 3, 64, 399, None])
def test_bernstein_scales_each_coefficient_by_its_lcm_over_binomial(monkeypatch, d):
    # the reference divides L = lcm(1..d+1)/(d+1) by each C(d, j) on its own,
    # where _bernstein steps from one ratio to the next; None takes the slopes
    # that minimizing (1000, 1, 1) hands to _bernstein, of degree d = 1999
    if d is None:
        calls = record_calls(monkeypatch, "_bernstein")
        minimize_advantage(GameParams(1000, 1, 1))
        c = calls[0][0]
        d = len(c) - 1
        assert d == 1999
    else:
        rng = random.Random(d)
        c = [rng.randint(-(2**80), 2**80) for _ in range(d + 1)]
    scale = math.lcm(*range(1, d + 2)) // (d + 1)
    assert scale == math.lcm(*(math.comb(d, j) for j in range(d + 1)))
    expected = [x * (scale // math.comb(d, j)) for j, x in enumerate(c)]
    assert minimize_module._bernstein(c) == (expected, scale)


@st.composite
def split_inputs(draw):
    """The inputs (x, zl, zr, err, eps) of one split.

    x has 1-80 coefficients up to 2^200, the first zl and last zr of them
    exact zeros.  The true values are x_j + eps_j with 0 <= eps_j < err, and
    eps = 0 at those zeros and everywhere when err = 0.
    """
    n = draw(st.integers(1, 80))
    bits = draw(st.integers(0, 200))
    coefficient = st.one_of(st.just(0), st.integers(-(2**bits), 2**bits))
    x = draw(st.lists(coefficient, min_size=n, max_size=n))
    zl = draw(st.integers(0, n))
    zr = draw(st.integers(0, n - zl))
    x[:zl], x[n - zr :] = [0] * zl, [0] * zr
    err = draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 2**bits + 1)))
    inside = range(zl, n - zr) if err else ()
    eps = [draw(st.integers(0, err - 1)) if j in inside else 0 for j in range(n)]
    return x, zl, zr, err, eps


def check_split(x, zl, zr, err, eps):
    """_split(x, err) against the list triangle on the true values x + eps."""
    d = len(x) - 1
    left, right, err_out = minimize_module._split(list(x), err)
    if not err:  # bit for bit the list triangle, scaled by 2^d
        assert (left, right, err_out) == (*ref_split(x), 0)
        return
    # floored averages at x's scale, each short of the truth by less than err_out
    true_left, true_right = ref_split([v + e for v, e in zip(x, eps)])
    for child, scaled in zip(left + right, true_left + true_right):
        assert child << d <= scaled < child + err_out << d
    assert err_out == err + d // minimize_module._G + 1
    # exact zeros at the ends stay exact in the child on their side
    assert left[:zl] == [0] * zl and right[len(x) - zr :] == [0] * zr


@settings(deadline=None, max_examples=300)
@given(split_inputs())
def test_the_packed_split_is_the_list_triangle_or_floors_it(case):
    check_split(*case)


@pytest.mark.parametrize("err", [0, 1, 2**40])
def test_the_packed_split_at_every_length_across_its_floors(err):
    # lengths 1-80 cross 16, 32, 48 and 64 rows, where every lane is floored;
    # the truth is as far above x as err allows, or at x itself
    rng = random.Random(err)
    for n in range(1, 81):
        for bits in (0, 1, 95, 200):
            x = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
            for eps in ([0] * n, [max(err - 1, 0)] * n):
                check_split(x, 0, 0, err, eps)
    x = [-(2**200)] * 40 + [2**200 - 1] * 40  # the widest lanes, both signs
    check_split(x, 0, 0, err, [max(err - 1, 0)] * 80)


def halve_to_depth(c, x, a, s, depth):
    """Plain exact bisection of node (a, s) around its one root, the reference for _bisect.

    c is in the (p, 1-p) basis, and the ends come back in units of 2^-depth.
    """
    left_positive = x[0] > 0
    lo, hi = a << (depth - s), (a + 1) << (depth - s)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = minimize_module._dyadic_value(c, mid, depth)
        if not value:
            return mid, mid
        if (value > 0) == left_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_by_halving(monkeypatch):
    monkeypatch.setattr(minimize_module, "_bisect", halve_to_depth)


def leave_every_truncated_sign_open(monkeypatch):
    monkeypatch.setattr(minimize_module, "_certain", lambda x, err: not err)


def record_calls(monkeypatch, name):
    calls = []
    real = getattr(minimize_module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(minimize_module, name, recording)
    return calls


def exact_reruns(isolations):
    """The recorded _isolate calls that set ``exact``: the reruns after an open sign."""
    return [args for args in isolations if args[3:] == (True,)]


def fallback_results():
    """Real games, and the planted, dyadic and multiple roots of the tests above."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    tol = Fraction(1, 10**9)
    games = [(100, 1, 1), (150, 2, 3), (90, 1, 2), (2, 1, 1)]
    results = [minimize_advantage(GameParams(*game)) for game in games]
    planted = [
        [half, half, third],
        [third, third, third, Fraction(9, 10)],
        [Fraction(4999, 10000), half, Fraction(5001, 10000)],
        [Fraction(0), Fraction(1), half, half, Fraction(2, 5)],
        [third, third + Fraction(1, 10**12)],
        [Fraction(1, 40), Fraction(17, 40), Fraction(3, 4), Fraction(39, 40)],
    ]
    results += [isolate_unit_interval_roots(poly_with_roots(roots), tol) for roots in planted]
    dpoly = advantage_polynomial(GameParams(100, 1, 1)).poly.derivative()
    results.append(isolate_unit_interval_roots(poly_with_roots([third] * 2, dpoly), tol))
    results.append(isolate_unit_interval_roots(poly_with_roots([Fraction(3, 8)], dpoly), tol))
    results.append(isolate_unit_interval_roots(poly_with_roots([Fraction(13, 16)], dpoly), tol))
    return results


def read_every_sign_exactly(monkeypatch):
    # a fixed-point sum of 0 certifies no sign, so each one falls through to _dyadic_value
    monkeypatch.setattr(minimize_module, "_fixed_value", lambda c, u, v, r: 0)


@pytest.mark.parametrize(
    "force,fallback",
    [
        (bisect_by_halving, "_dyadic_value"),
        (leave_every_truncated_sign_open, "_isolate"),
        (read_every_sign_exactly, "_dyadic_value"),
    ],
    ids=["halving", "open-signs", "exact-signs"],
)
def test_exact_fallbacks_give_the_same_results(monkeypatch, force, fallback):
    calls = record_calls(monkeypatch, fallback)
    expected = fallback_results()
    fast = len(calls)
    calls.clear()
    force(monkeypatch)
    assert fallback_results() == expected
    assert len(calls) > fast  # the plain exact code did more of the work


def test_a_midpoint_root_among_truncated_coefficients_is_settled_exactly(monkeypatch):
    # the node (1/4, 1/2) holds the game's root near 0.27 and 3/8, so it is cut
    # at 3/8; its children's 96-bit coefficients cannot tell that zero's sign
    tol = Fraction(1, 10**9)
    dpoly = advantage_polynomial(GameParams(100, 1, 1)).poly.derivative()
    root = Fraction(3, 8)
    isolations = record_calls(monkeypatch, "_isolate")
    brackets = isolate_unit_interval_roots(poly_with_roots([root], dpoly), tol)
    assert len(exact_reruns(isolations)) == 1
    isolations.clear()
    assert brackets == sorted(isolate_unit_interval_roots(dpoly, tol) + [(root, root)])
    assert isolations == []


def test_an_exact_rerun_below_a_midpoint_root_reports_it_once(monkeypatch):
    # 1/2 is a root, so both halves of (0, 1) have a zero end there, and the
    # close pair to its right splits the right half again along its left edge.
    # Every exact node on that edge counts the zero again, and only (1/2, 1)
    # may report it, or 1/2 would come back once more.
    half, tol = Fraction(1, 2), Fraction(1, 10**9)
    dpoly = advantage_polynomial(GameParams(30, 1, 1)).poly.derivative()
    poly = poly_with_roots([half, half + Fraction(1, 1000), half + Fraction(2, 1000)], dpoly)
    expected = isolate_unit_interval_roots(poly, tol)
    assert len(expected) == 4 and expected[1] == (half, half)
    isolations = record_calls(monkeypatch, "_isolate")
    leave_every_truncated_sign_open(monkeypatch)
    assert isolate_unit_interval_roots(poly, tol) == expected
    assert len(exact_reruns(isolations)) == 1


SMALL_GAMES = [
    (n, alpha, beta) for n in range(1, 25) for alpha in range(1, 4) for beta in range(1, 4)
]


def test_certified_path_equals_the_exact_one(monkeypatch):
    # at 5e-324 the reference halves 1074 levels in big integers per root, so
    # that tolerance covers n <= 8 only
    advs = {game: advantage_polynomial(GameParams(*game)) for game in SMALL_GAMES}
    cases = [
        (advs[game], tol)
        for game in SMALL_GAMES
        for tol in (1e-3, 1e-9, 2.0**-52, 5e-324)
        if tol > 5e-324 or game[0] <= 8
    ]
    certified = [minimize_module._minimize(adv, tol) for adv, tol in cases]
    bisect_by_halving(monkeypatch)
    leave_every_truncated_sign_open(monkeypatch)
    assert [minimize_module._minimize(adv, tol) for adv, tol in cases] == certified


def test_roots_next_to_both_ends_come_back_in_their_cells():
    eps, tol = Fraction(1, 2**45), Fraction(1, 2**50)
    assert isolate_unit_interval_roots(poly_with_roots([eps, 1 - eps]), tol) == [
        (eps, eps),
        (1 - eps, 1 - eps),
    ]
    near = [eps / 3, 1 - eps / 3]
    brackets = isolate_unit_interval_roots(poly_with_roots(near), tol)
    assert brackets == [dyadic_node(root, 50) for root in near]


@pytest.mark.parametrize(
    "root,tol",
    [
        (Fraction(0x5A5A5A5A5B, 2**40), Fraction(1, 2**45)),  # a midpoint at level 40
        (Fraction(0x9E3779B97F4A7 << 8 | 0x81, 2**60), Fraction(1, 2**70)),  # past 2^-52
    ],
)
def test_a_dyadic_root_above_the_depth_comes_back_exact(root, tol):
    assert isolate_unit_interval_roots(poly_with_roots([root]), tol) == [(root, root)]


roots_outside = st.lists(
    st.one_of(
        st.fractions(max_value=Fraction(-1, 100), max_denominator=100),
        st.fractions(min_value=Fraction(101, 100), max_denominator=100),
    ),
    max_size=3,
)

one_root_inside = st.one_of(
    unit_roots.map(lambda r: poly_with_roots([r])),
    st.integers(1, 2**90 - 1).map(lambda u: poly_with_roots([Fraction(u, 2**90)])),
    st.integers(1, 2**40 - 4).map(lambda u: poly_with_roots([Fraction(u, 2**40 - 3)])),
    st.integers(1, 99).map(lambda c: Poly((-c, 0, 100))),  # +-sqrt(c)/10
)


@settings(deadline=None, max_examples=200)
@given(one_root_inside, roots_outside, st.integers(0, 120))
def test_refinement_matches_plain_halving(inside, others, depth):
    # every refinement decision is an exact sign, so at every depth the cell, or
    # the dyadic root itself, must be the reference's
    coeffs = list(poly_with_roots(others, inside).coeffs)
    c = to_homogeneous(coeffs, len(coeffs) - 1)
    x, _ = minimize_module._bernstein(c)
    expected = halve_to_depth(c, x, 0, 0, depth)
    assert minimize_module._bisect(c, x, 0, 0, depth) == expected


def test_a_dyadic_root_inside_a_refined_node_is_read_exactly(monkeypatch):
    # I' is 0 at 13/16, inside the node (3/4, 1) that _bisect refines; a
    # fixed-point sum there lies in (-d, 0], so no r certifies a sign, and
    # only the exact value finds the root itself
    root = Fraction(13, 16)
    dpoly = advantage_polynomial(GameParams(100, 1, 1)).poly.derivative()
    coeffs = list(poly_with_roots([root], dpoly).coeffs)
    c = to_homogeneous(coeffs, len(coeffs) - 1)
    b, _ = minimize_module._bernstein(c)
    x = minimize_module._split(minimize_module._split(b, 0)[1], 0)[1]
    assert minimize_module._sign_variations(x) == 1
    sums = record_calls(monkeypatch, "_fixed_value")
    exact = record_calls(monkeypatch, "_dyadic_value")
    assert tuple(Fraction(e, 2**30) for e in minimize_module._bisect(c, x, 3, 2, 30)) == (root, root)
    assert [r for _, u, v, r in sums if (u, v) == (13, 4)] == [64, 128, 256, 512]
    assert [(u, v) for _, u, v in exact] == [(13, 4)]


@st.composite
def polynomials_at_dyadic_points(draw):
    """(c, u, v): integer coefficients of degree 0-60 up to 2^200, and 0 < u/2^v < 1."""
    v = draw(st.integers(1, 200))
    u = draw(st.integers(1, (1 << v) - 1))
    c = draw(st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=60))
    if any(c) and draw(st.booleans()):  # a root at the point or within 2 units of it
        c = list(ref_mul(c, (-u - draw(st.integers(-2, 2)), 1 << v)))
    return c, u, v


@settings(deadline=None, max_examples=300)
@given(polynomials_at_dyadic_points(), st.integers(0, 400))
@example(([-5], 3, 2), 64)  # d = 0
@example(([0] * 7, 1, 1), 64)  # the zero polynomial
def test_fixed_point_sums_bound_the_value_and_certify_only_true_signs(point, r):
    monomial, u, v = point
    d = len(monomial) - 1
    c = to_homogeneous(monomial, d)
    y = minimize_module._fixed_value(c, u, v, r)
    exact = minimize_module._dyadic_value(c, u, v)  # c(u/2^v) * 2^(v*d)
    scaled = Fraction(exact << r, max(u, (1 << v) - u) ** d)  # c(p) * 2^r / max(p, 1-p)^d
    assert y <= scaled < y + max(d, 1)  # exact at d = 0
    sign = (exact > 0) - (exact < 0)
    if y > 0:
        assert sign == 1
    if y < 0 and y + d <= 0:
        assert sign == -1
    value, _ = minimize_module._signed_value(c, u, v)
    assert (value > 0) - (value < 0) == sign


# points below 1/2, at it and above it, with w = 2^v - u of one CPython digit
# (v <= 30) and of several (v > 30); u/2^v need not be in lowest terms
SIGN_POINTS = [
    (1, 3), (1, 1), (5, 3), (12345, 30), (1 << 29, 30), (2**30 - 7, 30),
    (3, 31), (1 << 40, 41), (2**40 + 1, 41), (1 << 99, 100), (2**100 - 3, 100),
]


def slopes_of(game):
    """I' of the game in the (p, 1-p) basis of degree 2m - 1, as _minimize builds it."""
    c = advantage_polynomial(GameParams(*game)).homogeneous
    d = len(c) - 1
    return [(i + 1) * c[i + 1] - (d - i) * c[i] for i in range(d)]


@pytest.mark.parametrize("u,v", SIGN_POINTS)
def test_fixed_point_value_brackets_the_scaled_form_on_both_sides_of_one_half(u, v):
    # y <= 2^r g(p) / max(p, 1-p)^d < y + d: Horner in u/w <= 1 below 1/2, and
    # on the reversed coefficients in w/u <= 1 above it
    rng = random.Random(u ^ v)
    forms = [slopes_of((100, 1, 1)), slopes_of((60, 4, 1))]
    forms.append([rng.randint(-(2**300), 2**300) for _ in range(120)])
    w = (1 << v) - u
    for c in forms:
        d = len(c) - 1
        exact = minimize_module._dyadic_value(c, u, v)  # 2^(v d) g(p)
        assert exact == sum(x * u**i * w ** (d - i) for i, x in enumerate(c))
        for r in (0, 64, 300):
            y = minimize_module._fixed_value(c, u, v, r)
            assert y <= Fraction(exact << r, max(u, w) ** d) < y + d, (r, d)


@pytest.mark.parametrize("u,v", SIGN_POINTS)
def test_the_secant_value_keeps_the_certified_sign_at_the_slopes_scale(u, v):
    # _signed_value rescales a certified y by max(u, w)^d, to about 2^r g(p)
    # at r = R + v d, where g itself, not g / max(p, 1-p)^d, has its root
    w = (1 << v) - u
    for game in [(100, 1, 1), (60, 4, 1), (15, 1, 1)]:
        c = slopes_of(game)
        d = len(c) - 1
        exact = minimize_module._dyadic_value(c, u, v)
        y, r = minimize_module._signed_value(c, u, v)
        assert (y > 0) - (y < 0) == (exact > 0) - (exact < 0) != 0
        if r == v * d:  # settled exactly
            assert y == exact
        else:
            fixed = minimize_module._fixed_value(c, u, v, r - v * d)
            assert y == fixed * max(u, w) ** d
            assert y <= exact << (r - v * d) < y + d * max(u, w) ** d


def test_repr_writes_exact_values_past_the_int_digit_cap():
    # value_exact of (250, 4, 3) at 1e-100 has a denominator of 41 417 bits,
    # past the 4300 digits that int's str and a Fraction's repr stop at
    result = minimize_advantage(GameParams(250, 4, 3), 1e-100)
    assert result.value_exact.denominator.bit_length() == 41417
    text = repr(result)
    parts = re.findall(r"Fraction\((\d+), (\d+)\)", text)
    assert [Fraction(int(Decimal(a)), int(Decimal(b))) for a, b in parts] == [result.value_exact, *result.bracket]
    # small results keep the tuple's own repr, byte for byte
    plain = collections.namedtuple("MinimizationResult", MinimizationResult._fields)
    for game, tol in [((2, 1, 1), 1e-9), ((2, 2, 1), 1e-3), ((15, 1, 1), 1), ((60, 4, 1), 1e-9)]:
        small = minimize_advantage(GameParams(*game), tol)
        assert repr(small) == repr(plain(*small))
    assert repr(minimize_advantage(GameParams(2, 1, 1))) == (
        "MinimizationResult(degenerate=False, bias=0.5, value=0.75, value_exact=Fraction(3, 4), "
        "bracket=(Fraction(1, 2), Fraction(1, 2)), tol=1e-09, tie=False)"
    )


def test_deep_refinement_reads_few_signs(monkeypatch):
    # quadratic refinement squares its step while the secant keeps hitting, so
    # a root costs O(log depth) signs, fixed-point and exact, not one per
    # level: 26 here, where halving reads one at each of 333 levels
    signs = record_calls(monkeypatch, "_signed_value")
    minimize_advantage(GameParams(90, 1, 2), 1e-100)
    assert len(signs) <= 100, len(signs)


# --- branch and bound: the lower bound on I, checked against plain exact code --

from coinrace.minimize import MinimizationResult


def minimize_without_bounds(adv, tol):
    """The reference for _minimize: every bracket of I', then I at each midpoint."""
    c = adv.homogeneous
    d = len(c) - 1
    slopes = [(i + 1) * c[i + 1] - (d - i) * c[i] for i in range(d)]
    brackets = brackets_of(_isolate(slopes, Fraction(tol), [0]), tol)
    candidates = [(adv.poly(Fraction(p)), Fraction(p), None) for p in (0, 1)]
    candidates += [(adv.poly((lo + hi) / 2), (lo + hi) / 2, (lo, hi)) for lo, hi in brackets]
    value, point, bracket = min(candidates, key=lambda c: (c[0], c[1]))
    tie = [v for v, _, _ in candidates].count(value) > 1
    return MinimizationResult(False, float(point), float(value), value, bracket, tol, tie)


def synthetic_advantage(coeffs, degree):
    """A stand-in AdvantageResult for the polynomial coeffs, in a homogeneous basis of degree."""
    return advantage_polynomial(GameParams(5, 1, 1))._replace(
        poly=Poly(coeffs), homogeneous=tuple(to_homogeneous(coeffs, degree))
    )


def bernstein_minimum_on_node(adv, a, s):
    """The least Bernstein coefficient of degree len(homogeneous) - 1 of I on (a/2^s, (a+1)/2^s).

    I(a/2^s + t/2^s) 2^(s deg) = sum_i c_i (a + t)^i 2^(s (deg - i)), by Horner in t,
    then the homogeneous basis in t; shares no code with _split or _lower_bound.
    """
    coeffs = adv.poly.coeffs
    deg = len(coeffs) - 1
    shifted = ()
    for i in range(deg, -1, -1):
        shifted = ref_add(ref_mul(shifted, (a, 1)), (coeffs[i] << s * (deg - i),))
    degree = len(adv.homogeneous) - 1
    h = to_homogeneous(list(shifted), degree)
    return min(Fraction(x, math.comb(degree, j) << s * deg) for j, x in enumerate(h))


def record_bounds_by_node(monkeypatch):
    """A list that collects ((a, s), args, bound) for each _lower_bound call, on node (a, s).

    Each search starts with ``_bernstein``, and its root's bound comes before
    any value of I is taken inside (0, 1), since I(0) and I(1) are read off
    the coefficients.  A split's two bounds, the left child's then the right
    one's, follow I at the split's midpoint m = u/2^s, u odd: the children
    are (u - 1, s) and (u, s).  ``bound`` is the returned integer over the
    denominator lcm(1, ..., len(x)) 2^t of the root's args (x, t, I(0)).
    """
    bounds, points, after, denominator = [], [], [], []
    bernstein, value_at = minimize_module._bernstein, minimize_module._dyadic_value
    lower_bound = minimize_module._lower_bound

    def bernstein_recording(c):
        points.clear()
        after.clear()
        return bernstein(c)

    def value_recording(c, u, v):
        points[:] = [*points[-1:], (u, v)]
        after.clear()
        return value_at(c, u, v)

    def bound_recording(*args):
        if points:
            u, s = points[-1]
            assert u & 1 and len(after) < 2
            a = u - (not after)
        else:
            assert not after
            a = s = 0
            x, t, _ = args
            denominator[:] = [math.lcm(*range(1, len(x) + 1)) << t]
        after.append(a)
        bounds.append(((a, s), args, Fraction(lower_bound(*args), denominator[0])))
        return lower_bound(*args)

    monkeypatch.setattr(minimize_module, "_bernstein", bernstein_recording)
    monkeypatch.setattr(minimize_module, "_dyadic_value", value_recording)
    monkeypatch.setattr(minimize_module, "_lower_bound", bound_recording)
    return bounds


# I = 2u^6 - 15u^4 + 24u^2 + 32 with u = 8p - 4 is symmetric about 1/2, and
# I' = 12u (u^2 - 1)(u^2 - 4): equal minima 16 at p = 1/4 and 3/4, a local
# minimum 32 at 1/2 and maxima at 3/8 and 5/8
U2 = ref_mul((-4, 8), (-4, 8))
U4 = ref_mul(U2, U2)
TWIN_MINIMA = list(
    reduce(ref_add, [ref_mul((2,), ref_mul(U4, U2)), ref_mul((-15,), U4), ref_mul((24,), U2), (32,)])
)


@pytest.mark.parametrize("degree", [6, 8])
def test_equal_minima_are_both_refined_and_reported_as_a_tie(monkeypatch, degree):
    # The split at 3/4 sets U = 16, and the node (3/4, 1) has a lower bound of
    # exactly 16: I rises from 3/4, so its least Bernstein coefficient is I(3/4).
    # Only a strict comparison keeps that node, and with it the tie.
    adv = synthetic_advantage(TWIN_MINIMA, degree)
    found = []
    real = minimize_module._isolate

    def recording(homogeneous, tol, integral):
        isolated = real(homogeneous, tol, integral)
        found.extend(as_fractions(isolated, tol))
        return isolated

    bounds = record_bounds_by_node(monkeypatch)
    monkeypatch.setattr(minimize_module, "_isolate", recording)
    result = minimize_module._minimize(adv, 1e-9)
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    assert result.tie is True
    assert result.value_exact == 16 and result.bracket == (quarter, quarter)
    assert (16, quarter, (quarter, quarter)) in found
    assert (16, three_quarters, (three_quarters, three_quarters)) in found
    three_quarters_to_one = [bound for node, _, bound in bounds if node == (3, 2)]
    assert three_quarters_to_one == [16]
    assert result == minimize_without_bounds(adv, 1e-9)


IDENTITY_GAMES = sorted(
    set(
        random.Random(20261019).sample(
            [(n, a, b) for n in range(1, 41) for a in range(1, 5) for b in range(1, 5)], 160
        )
    )
    | {(2, 1, 1), (3, 2, 1), (5, 1, 1), (15, 1, 1), (99, 1, 1), (150, 2, 3), (90, 1, 2)}
)


def test_pruned_search_equals_the_unpruned_reference(monkeypatch):
    # (2, 1, 1) and (3, 2, 1) have exact dyadic minimizers; (5, 1, 1), (15, 1, 1)
    # and (99, 1, 1) have I'(1) = 0, a zero end coefficient at the root
    advs = [advantage_polynomial(GameParams(*game)) for game in IDENTITY_GAMES]
    advs = [adv for adv in advs if not adv.degenerate]
    cases = [(adv, tol) for adv in advs for tol in (1e-9, 2.0**-60)]
    splits = record_calls(monkeypatch, "_split")
    pruned = [minimize_module._minimize(adv, tol) for adv, tol in cases]
    pruned_splits = len(splits)
    splits.clear()
    assert [minimize_without_bounds(adv, tol) for adv, tol in cases] == pruned
    assert pruned_splits < len(splits) * 0.8  # the bound really skips work
    assert sum(1 for adv in advs if not all(slope_ends(adv))) >= 40


def slope_ends(adv):
    """I'(0) and I'(1), up to positive factors: a zero is a zero end coefficient at the root."""
    c = adv.homogeneous
    d = len(c) - 1
    return c[1] - d * c[0], d * c[d] - c[d - 1]


def test_truncated_children_inherit_their_parents_zero_ends(monkeypatch):
    # I'(0) = 0 for the first two games and I'(1) = 0 for (99, 1, 1), and their
    # splits are truncated.  A child that lost its parent's count of zero end
    # coefficients would read those exact zeros as open signs and rerun exactly.
    isolations = record_calls(monkeypatch, "_isolate")
    truncations = record_calls(monkeypatch, "_truncate")
    for game in [(150, 3, 1), (152, 2, 1)]:
        adv = advantage_polynomial(GameParams(*game))
        assert slope_ends(adv)[0] == 0
        minimize_module._minimize(adv, 1e-9)
    adv = advantage_polynomial(GameParams(99, 1, 1))
    assert slope_ends(adv)[1] == 0
    minimize_without_bounds(adv, 1e-9)
    assert any(max(map(abs, x)).bit_length() > minimize_module._BITS for x, _ in truncations)
    assert exact_reruns(isolations) == []


def test_real_games_never_rerun_exactly(monkeypatch):
    # The exact rerun is a fallback for open signs only: an exact split of
    # (1000, 1, 1)'s root takes ~40 times as long as a truncated one.
    games = [(99, 1, 1), (100, 1, 1), (101, 1, 1), (150, 2, 3), (90, 1, 2)]
    games += [(250, 4, 3), (175, 3, 2), (200, 1, 1)]
    isolations = record_calls(monkeypatch, "_isolate")
    for game in games:
        adv = advantage_polynomial(GameParams(*game))
        for tol in (1e-9, 1e-100):
            minimize_module._minimize(adv, tol)
    assert len(isolations) == 2 * len(games) and exact_reruns(isolations) == []


def test_every_lower_bound_is_at_most_the_least_bernstein_coefficient(monkeypatch):
    # Where no split was truncated the bound is that least coefficient itself,
    # which checks its scale, also on nodes where I' vanishes at an end: at 0,
    # 1 or a split midpoint.
    games = [(n, a, b) for n in range(1, 41) for a in range(1, 5) for b in range(1, 5)]
    advs = [advantage_polynomial(GameParams(*game)) for game in games]
    advs.append(synthetic_advantage(TWIN_MINIMA, 6))  # it has midpoint roots
    bounds = record_bounds_by_node(monkeypatch)
    checked = exact = zero_end = 0
    for adv in advs:
        bounds.clear()
        minimize_module._minimize(adv, 1e-9)
        slope = adv.poly.derivative()
        for (a, s), _, low in bounds:
            least = bernstein_minimum_on_node(adv, a, s)
            assert low <= least, (adv.params, a, s)
            checked += 1
            exact += low == least
            zero_end += slope(Fraction(a, 2**s)) * slope(Fraction(a + 1, 2**s)) == 0
    assert checked > 1900 and exact > 0.9 * checked and zero_end > 0


def test_a_truncated_bound_is_the_least_bernstein_coefficient_to_many_bits(monkeypatch):
    # A truncated node's coefficients are short of I' by a few units in ~96
    # bits, so its bound is below the least coefficient of I by a tiny part of
    # how far that coefficient is below I at the node's left end.  A child
    # bound at the wrong scale, by one factor of 2, is off by all of that.
    bounds = record_bounds_by_node(monkeypatch)
    close = 0
    for game in [(100, 1, 1), (150, 2, 3), (90, 1, 2), (250, 4, 3), (175, 3, 2), (60, 4, 1)]:
        adv = advantage_polynomial(GameParams(*game))
        bounds.clear()
        minimize_module._minimize(adv, 1e-9)
        root_x, root_t, _ = bounds[0][1]
        denominator = math.lcm(*range(1, len(root_x) + 1)) << root_t
        for (a, s), (_, _, at_lo), low in bounds[1:]:
            least = bernstein_minimum_on_node(adv, a, s)
            drop = Fraction(at_lo, denominator) - least
            if drop:
                assert 0 <= least - low <= drop / 2**40, (game, a, s)
                close += 1
    assert close >= 20, close


def test_an_exact_rerun_keeps_sound_bounds(monkeypatch):
    # Every node of the exact rerun carries the scale of s exact splits,
    # 2^((D-1) s) times the root's, a shift D s below the root's, where D is
    # the number of coefficients of I', so each bound is the least Bernstein
    # coefficient itself.  TWIN_MINIMA times 2^200 is past _BITS, so its
    # splits truncate and leave signs open too.
    games = [(100, 1, 1), (150, 2, 3), (90, 1, 2), (99, 1, 1)]
    advs = [advantage_polynomial(GameParams(*game)) for game in games]
    scaled = [c << 200 for c in TWIN_MINIMA]
    advs += [synthetic_advantage(scaled, degree) for degree in (6, 8)]
    bounds = record_bounds_by_node(monkeypatch)
    isolate, reruns = minimize_module._isolate, []

    def rerun_bounds_only(*args):
        if args[3:]:
            reruns.append(args)
            bounds.clear()
        return isolate(*args)

    monkeypatch.setattr(minimize_module, "_isolate", rerun_bounds_only)
    leave_every_truncated_sign_open(monkeypatch)
    checked = 0
    for adv in advs:
        reruns.clear()
        minimize_module._minimize(adv, 1e-9)
        assert len(reruns) == 1
        root, (_, root_shift, _), _ = bounds[0]
        assert root == (0, 0)
        for (a, s), args, low in bounds:
            assert args[1] == root_shift - len(args[0]) * s
            assert low == bernstein_minimum_on_node(adv, a, s), (a, s)
            checked += 1
    assert checked > 20, checked


@pytest.mark.parametrize(
    "tol",
    [math.nan, math.inf, -math.inf, -(10**400), Fraction(-(10**400), 3)],
    ids=["nan", "inf", "-inf", "-10^400", "-10^400/3"],
)
def test_tol_must_be_finite(tol):
    with pytest.raises(ParameterError, match="finite"):
        minimize_advantage(GameParams(5, 1, 1), tol=tol)
    with pytest.raises(ParameterError, match="finite"):
        minimize_advantage(GameParams(2, 2, 1), tol=tol)  # degenerate games too


@pytest.mark.parametrize(
    "game",
    [(51, 1, 1), (45, 1, 2), (100, 1, 1), (150, 2, 3), (90, 1, 2), (200, 1, 1), (175, 3, 2), (250, 4, 3)],
)
def test_isolation_agrees_with_sympy_from_degree_near_100_to_the_large_exact_games(game):
    sympy = pytest.importorskip("sympy")
    dpoly = advantage_polynomial(GameParams(*game)).poly.derivative()
    tol = Fraction(1, 10**12)
    ours = isolate_unit_interval_roots(dpoly, tol)
    reference = sympy.Poly(list(reversed(dpoly.coeffs)), sympy.Symbol("p"))
    theirs = [
        (Fraction(str(a)), Fraction(str(b)))
        for (a, b), _ in reference.intervals(eps=tol, inf=0, sup=1)
        if 0 < a and b < 1
    ]
    assert dpoly.degree >= 85
    assert len(ours) == len(theirs) >= 1
    for (lo, hi), (a, b) in zip(ours, sorted(theirs)):
        assert max(lo, a) <= min(hi, b)  # both brackets hold the same root


def test_minimized_table_builds_each_polynomial_once(monkeypatch):
    import coinrace.advantage as advantage_module
    import coinrace.tables as tables

    built = []

    def counting(params):
        built.append(params)
        return advantage_module._advantage(params)

    monkeypatch.setattr(tables, "_advantage", counting)
    rows, _ = tables.minimized_table(1e-9)
    assert len(built) == len(rows) == len(tables.reference_minimized()[0])
    for row in rows:
        params = GameParams(row.n, row.alpha, row.beta)
        assert row.min_value == minimize_advantage(params, 1e-9).value
        assert row.limit_value == advantage_at_asymptotic(params)


@pytest.mark.parametrize(
    "tol", [0.0, -1e-9, math.nan, math.inf, -(10**400)], ids=["0.0", "-1e-09", "nan", "inf", "-10^400"]
)
def test_minimized_table_rejects_tol_before_building(monkeypatch, tol):
    import coinrace.tables as tables

    def never(params):
        raise AssertionError("built a polynomial before checking tol")

    monkeypatch.setattr(tables, "_advantage", never)
    with pytest.raises(ParameterError):
        tables.minimized_table(tol)


def hex_fraction(x):
    # decimal repr stops at the int digit cap, which a value_exact at 1e-100 passes
    return f"{x.numerator:x}/{x.denominator:x}"


def test_every_minimization_result_keeps_its_digest():
    # every game with n <= 60 and alpha, beta <= 4 at 1e-9 (51 of their
    # minimizers lie above 1/2), then six large games at 1e-100; recorded
    # before the minimizer read only the (p, 1-p) form
    cases = [((n, a, b), 1e-9) for n in range(1, 61) for a in range(1, 5) for b in range(1, 5)]
    deep = [(99, 1, 1), (100, 1, 1), (150, 2, 3), (90, 1, 2), (250, 4, 3), (175, 3, 2)]
    cases += [(game, 1e-100) for game in deep]
    digest = hashlib.sha256()
    for game, tol in cases:
        r = minimize_advantage(GameParams(*game), tol)
        bracket = "None" if r.bracket is None else ",".join(map(hex_fraction, r.bracket))
        fields = [r.degenerate, repr(r.bias), repr(r.value), hex_fraction(r.value_exact), bracket, repr(r.tol), r.tie]
        digest.update("|".join(map(str, fields)).encode())
    assert digest.hexdigest() == "acdfb408540fb1a08b96828e8a52e88e6f158140ee4edeaf85b8bed07549b191"
