"""Exact polynomial substrate: arithmetic, evaluation, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinrace.polynomial import ONE, ZERO, Poly, binomial, from_homogeneous, render, to_homogeneous

small_polys = st.lists(st.integers(-9, 9), max_size=9).map(Poly)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def test_add_identity():
    assert Poly((1, 1)) + ZERO == Poly((1, 1))


def test_add_cancellation():
    assert Poly((1, -1)) + Poly((0, 1)) == ONE


def test_add_tails_squared_complement():
    # (1-p)^2 expanded by hand is 1 - 2p + p^2; adding 2p - p^2 gives 1
    assert Poly((0, 2, -1)) + Poly((1, -2, 1)) == ONE


def test_mul_difference_of_squares():
    assert Poly((1, -1)) * Poly((1, 1)) == Poly((1, 0, -1))


def test_mul_hand_expanded_square():
    assert Poly((0, 2, -1)) * Poly((0, 2, -1)) == Poly((0, 0, 4, -4, 1))


def test_mul_absorbing_zero():
    assert Poly((3, 1, 4)) * ZERO == ZERO


TABLE_ROW_N3 = Poly((1, -2, 5, -4, 1))


def test_eval_at_zero():
    assert TABLE_ROW_N3(0) == 1


def test_eval_at_one():
    assert TABLE_ROW_N3(1) == 1


def test_eval_at_half():
    # (16 - 16 + 20 - 8 + 1) / 16, cross-checked by the brute-force game oracle
    assert TABLE_ROW_N3(Fraction(1, 2)) == Fraction(13, 16)


def test_derivative_constant():
    assert ONE.derivative() == ZERO


def test_derivative_power_rule():
    assert Poly((1, -1, 1)).derivative() == Poly((-1, 2))


def test_derivative_table_row():
    assert TABLE_ROW_N3.derivative() == Poly((-2, 10, -12, 4))


@pytest.mark.parametrize(
    "n,r,expected",
    [(4, 2, 6), (3, -1, 0), (3, 5, 0), (0, 0, 1), (6, 6, 1)],
)
def test_binomial(n, r, expected):
    assert binomial(n, r) == expected


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 0, 0)) == ONE
    assert Poly((1, 0, 0)).degree == 0
    assert Poly((0, 0)).degree is None
    assert not Poly(())


def test_scalar_mixing():
    p = Poly((0, 1))
    assert 2 * p + 1 == Poly((1, 2))
    assert 1 - p == Poly((1, -1))


@pytest.mark.parametrize("coeff", [Fraction(1, 2), 0.5, Fraction(3)])
def test_non_integer_coefficients_raise_type_error(coeff):
    with pytest.raises(TypeError):
        Poly((coeff,))
    with pytest.raises(TypeError):
        coeff * Poly((2, 4))


@given(small_polys, small_polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, small_rationals)
def test_eval_is_ring_homomorphism(a, b, x):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


@given(small_polys, small_polys)
def test_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_render_ascending_with_signs():
    assert render(TABLE_ROW_N3) == "1 - 2p + 5p^2 - 4p^3 + p^4"
    assert render(Poly((0, 2, -1))) == "2p - p^2"
    assert render(ZERO) == "0"
    assert render(Poly((-1, 0, 1))) == "-1 + p^2"


def test_render_latex():
    assert render(Poly((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1385)), latex=True) == "1 - 1,385p^{11}"


# Integer coefficient lists, small and multi-word, against a reference model
# that implements each operation from its definition on plain tuples.
int_coeffs = st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30))
int_lists = st.lists(int_coeffs, max_size=6)


def ref_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_strip(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_strip(out)


def ref_eval(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def fraction_horner(coeffs, x):
    """Horner's rule in Fractions, the reference for Poly's integer evaluation."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


eval_points = st.one_of(
    st.fractions(max_denominator=10**6),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-7, 3)]),
)
eval_coeffs = st.one_of(
    st.lists(st.integers(-(10**40), 10**40), max_size=20),
    st.lists(st.just(0), max_size=4),  # the zero polynomial, however written
)


@settings(max_examples=300)
@given(eval_coeffs, eval_points)
def test_integer_horner_matches_fraction_horner(coeffs, x):
    value = Poly(coeffs)(x)
    assert type(value) is Fraction and value == fraction_horner(coeffs, x)


def test_zero_and_constant_polynomials_evaluate_to_fractions():
    for x in (0, 1, -5, Fraction(2, 3)):
        assert type(ZERO(x)) is Fraction and ZERO(x) == 0
        assert type(Poly((-4,))(x)) is Fraction and Poly((-4,))(x) == -4


def ref_render(a, latex):
    terms = []
    for power, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        digits = format(mag, "," if latex else "")
        if power == 0:
            body = digits
        else:
            exponent = "" if power == 1 else (f"^{{{power}}}" if latex else f"^{power}")
            body = ("" if mag == 1 else digits) + "p" + exponent
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    head = first if first_sign == "+" else "-" + first
    return " ".join([head] + [f"{s} {b}" for s, b in terms[1:]])


def assert_matches(poly, ref):
    assert poly.coeffs == ref
    assert all(type(c) is int for c in poly.coeffs)


@settings(deadline=None, max_examples=200)
@given(int_lists, int_lists, small_rationals)
def test_integer_coefficients_match_reference_model(a_list, b_list, x):
    a, b = Poly(a_list), Poly(b_list)
    ra, rb = ref_strip(a_list), ref_strip(b_list)
    assert_matches(a, ra)
    rebuilt = (a + b) - b  # the same polynomial by another path
    assert a == rebuilt and hash(a) == hash(rebuilt)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, tuple(-c for c in rb)))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a.derivative(), ref_strip(i * c for i, c in enumerate(ra) if i))
    for point in (x, 2):
        value = a(point)
        assert type(value) is Fraction and value == ref_eval(ra, point)
    assert render(a) == ref_render(ra, latex=False)
    assert render(a, latex=True) == ref_render(ra, latex=True)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12), st.integers(0, 4), small_rationals)
def test_homogeneous_basis_round_trip(coeffs, extra, x):
    # sum_j c_j x^j (1-x)^(D-j) is the same polynomial, for any D >= its degree
    degree = len(coeffs) - 1 + extra
    c = to_homogeneous(coeffs, degree)
    assert len(c) == degree + 1
    assert sum(cj * x**j * (1 - x) ** (degree - j) for j, cj in enumerate(c)) == Poly(coeffs)(x)
    assert from_homogeneous(c) == coeffs + [0] * extra


def test_homogeneous_coefficients_of_one_are_binomials():
    assert to_homogeneous([1], 4) == [binomial(4, j) for j in range(5)]
    assert from_homogeneous([0, 1, 0]) == [0, 1, -1]  # p(1-p) = p - p^2
