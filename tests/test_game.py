"""Parameter validation, normalization and turn bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinrace.game import (
    GameParams,
    NormalizedParams,
    ParameterError,
    coprime,
    normalize,
    parse_rational,
    turn_bounds,
    validate,
)

positive_rationals = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)


def test_validate_accepts_table_values():
    params = GameParams(5, 1, 1)
    assert validate(params) is params


def test_validate_rejects_zero_alpha():
    with pytest.raises(ParameterError, match="alpha must be > 0"):
        validate(GameParams(5, 0, 1))


@pytest.mark.parametrize("field,args", [("n", (0, 1, 1)), ("beta", (5, 1, "-1/2"))])
def test_validate_names_offending_field(field, args):
    with pytest.raises(ParameterError, match=f"{field} must be > 0"):
        validate(GameParams(*args))


def test_validate_accepts_rationals():
    validate(GameParams("5/2", "1/2", 1))


@pytest.mark.parametrize(
    "text,expected",
    [("5", Fraction(5)), ("5/2", Fraction(5, 2)), ("2.5", Fraction(5, 2)), ("0.125", Fraction(1, 8))],
)
def test_parse_rational_forms(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1/0", "1.2.3"])
def test_parse_rational_rejects_junk(text):
    with pytest.raises(ParameterError):
        parse_rational(text)


@pytest.mark.parametrize(
    "params,expected",
    [
        (("5/2", "1/2", 1), (5, 1, 2)),
        ((5, 1, 1), (5, 1, 1)),
        ((10, 2, 2), (5, 1, 1)),
    ],
)
def test_normalize(params, expected):
    assert normalize(GameParams(*params)) == NormalizedParams(*expected)


@pytest.mark.parametrize(
    "params,l,m",
    [((5, 1, 1), 3, 5), ((2, 2, 1), 1, 1), ((3, 1, 10), 1, 3)],
)
def test_turn_bounds(params, l, m):
    bounds = turn_bounds(normalize(GameParams(*params)))
    assert (bounds.l, bounds.m) == (l, m)


wide_rationals = st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**9)


@given(wide_rationals, wide_rationals, wide_rationals)
def test_normalize_gives_the_coprime_integers_in_the_same_ratio(n, alpha, beta):
    got = normalize(GameParams(n, alpha, beta))
    assert all(type(v) is int and v > 0 for v in got)
    assert math.gcd(*got) == 1
    assert Fraction(got.alpha, got.n) == alpha / n and Fraction(got.beta, got.n) == beta / n


@given(positive_rationals, positive_rationals, positive_rationals, positive_rationals)
def test_scaling_invariance(n, alpha, beta, c):
    base = normalize(GameParams(n, alpha, beta))
    scaled = normalize(GameParams(c * n, c * alpha, c * beta))
    assert base == scaled
    assert turn_bounds(base) == turn_bounds(scaled)


@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 6))
def test_bounds_are_ordered(n, alpha, beta):
    bounds = turn_bounds(normalize(GameParams(n, alpha, beta)))
    assert 1 <= bounds.l <= bounds.m


@pytest.mark.parametrize(
    "args",
    [(math.inf, 1, 1), (1, -math.inf, 1), (1, 1, math.inf), (math.nan, 1, 1), (1, math.nan, 1)],
)
def test_non_finite_parameters_are_parameter_errors(args):
    with pytest.raises(ParameterError, match="not a valid rational"):
        GameParams(*args)


def fraction_formula(n: Fraction, alpha: Fraction, beta: Fraction) -> NormalizedParams:
    """(n, alpha, beta) in Fraction arithmetic: times the lcm of the denominators, over the gcd."""
    scaled = [v * math.lcm(n.denominator, alpha.denominator, beta.denominator) for v in (n, alpha, beta)]
    g = math.gcd(*(int(v) for v in scaled))
    return NormalizedParams(*(int(v / g) for v in scaled))


powers_of_ten = st.integers(-6000, 6000).map(lambda k: Fraction(10) ** k)
scales = st.one_of(st.just(Fraction(1)), positive_rationals, powers_of_ten)


@given(wide_rationals, wide_rationals, wide_rationals, scales)
def test_normalize_equals_the_fraction_formula(n, alpha, beta, c):
    assert normalize(GameParams(c * n, c * alpha, c * beta)) == fraction_formula(n, alpha, beta)
    assert normalize(GameParams(n, alpha, beta)) == fraction_formula(n, alpha, beta)


@pytest.mark.parametrize("bad", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
@pytest.mark.parametrize("value", [0, -1, "-1/2", "-1e-5000"])
def test_the_first_non_positive_field_is_named(bad, value):
    args = [value if i in bad else "1/3" for i in range(3)]
    first = ("n", "alpha", "beta")[bad[0]]
    for check in (validate, normalize):
        with pytest.raises(ParameterError, match=f"^{first} must be > 0$"):
            check(GameParams(*args))


def test_coprime_is_normalize_on_integers():
    for n in range(1, 21):
        for alpha in range(1, 6):
            for beta in range(1, 6):
                assert coprime(n, alpha, beta) == normalize(GameParams(n, alpha, beta))
