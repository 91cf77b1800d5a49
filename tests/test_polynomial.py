"""The ``Poly`` value type: construction, equality, exact evaluation, derivative, rendering.

Sums and products come from the schoolbook reference algebra in ``algebra.py``;
its hand-expanded cases and ring laws below check it, and the properties check ``Poly``'s
evaluation and derivative against it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra import ref_add, ref_mul, ref_strip
from coinrace.polynomial import ONE, Poly, binomial, from_homogeneous, render, to_homogeneous

small_polys = st.lists(st.integers(-9, 9), max_size=9).map(Poly)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def test_add_identity():
    assert ref_add((1, 1), ()) == (1, 1)


def test_add_cancellation():
    assert ref_add((1, -1), (0, 1)) == (1,)


def test_add_tails_squared_complement():
    # (1-p)^2 expanded by hand is 1 - 2p + p^2; adding 2p - p^2 gives 1
    assert ref_add((0, 2, -1), (1, -2, 1)) == (1,)


def test_mul_difference_of_squares():
    assert ref_mul((1, -1), (1, 1)) == (1, 0, -1)


def test_mul_hand_expanded_square():
    assert ref_mul((0, 2, -1), (0, 2, -1)) == (0, 0, 4, -4, 1)


def test_mul_absorbing_zero():
    assert ref_mul((3, 1, 4), ()) == ()


TABLE_ROW_N3 = Poly((1, -2, 5, -4, 1))


def test_eval_at_zero():
    assert TABLE_ROW_N3(0) == 1


def test_eval_at_one():
    assert TABLE_ROW_N3(1) == 1


def test_eval_at_half():
    # (16 - 16 + 20 - 8 + 1) / 16, cross-checked by the brute-force game oracle
    assert TABLE_ROW_N3(Fraction(1, 2)) == Fraction(13, 16)


def test_derivative_constant():
    assert ONE.derivative() == Poly()


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


@pytest.mark.parametrize("coeff", [Fraction(1, 2), 0.5, Fraction(3)])
def test_non_integer_coefficients_raise_type_error(coeff):
    with pytest.raises(TypeError):
        Poly((coeff,))
    with pytest.raises(TypeError):
        coeff * Poly((2, 4))


def test_scalar_mixing():
    p = Poly((0, 1))
    # a scalar is a constant tuple in the reference algebra: 2p + 1 and 1 - p
    assert Poly(ref_add(ref_mul((2,), p.coeffs), (1,))) == Poly((1, 2))
    assert Poly(ref_add((1,), ref_mul((-1,), p.coeffs))) == Poly((1, -1))
    # and Poly itself refuses an int on either side of every operator
    for operation in (lambda: p + 1, lambda: 1 + p, lambda: 1 - p, lambda: p - 1, lambda: p * 2):
        with pytest.raises(TypeError):
            operation()


@given(small_polys, small_polys)
def test_add_commutes(a, b):
    assert Poly(ref_add(a.coeffs, b.coeffs)) == Poly(ref_add(b.coeffs, a.coeffs))


@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    assert Poly(ref_mul(a.coeffs, b.coeffs)) == Poly(ref_mul(b.coeffs, a.coeffs))


@settings(deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    a, b, c = a.coeffs, b.coeffs, c.coeffs
    assert ref_add(ref_add(a, b), c) == ref_add(a, ref_add(b, c))
    assert ref_mul(ref_mul(a, b), c) == ref_mul(a, ref_mul(b, c))
    assert ref_mul(a, ref_add(b, c)) == ref_add(ref_mul(a, b), ref_mul(a, c))


def test_a_poly_equals_only_a_poly_and_defines_no_arithmetic():
    assert Poly((1,)) != 1 and Poly(()) != 0
    assert {Poly((1, 2)): "key"}[Poly([1, 2, 0])] == "key"
    for a, b in [(Poly((1, 2)), Poly([1, 2, 0])), (Poly(()), Poly([0, 0])), (ONE, Poly((1, 0)))]:
        assert a == b and hash(a) == hash(b)
    for operation in (lambda: Poly((1,)) + Poly((1,)), lambda: 2 * Poly((1,)), lambda: -Poly((1,))):
        with pytest.raises(TypeError):
            operation()


@given(small_polys, small_polys, small_rationals)
def test_eval_is_ring_homomorphism(a, b, x):
    assert Poly(ref_mul(a.coeffs, b.coeffs))(x) == a(x) * b(x)
    assert Poly(ref_add(a.coeffs, b.coeffs))(x) == a(x) + b(x)


@given(small_polys, small_polys)
def test_product_rule(a, b):
    da, db = a.derivative().coeffs, b.derivative().coeffs
    product = Poly(ref_mul(a.coeffs, b.coeffs))
    assert product.derivative().coeffs == ref_add(ref_mul(da, b.coeffs), ref_mul(a.coeffs, db))


def test_render_ascending_with_signs():
    assert render(TABLE_ROW_N3) == "1 - 2p + 5p^2 - 4p^3 + p^4"
    assert render(Poly((0, 2, -1))) == "2p - p^2"
    assert render(Poly()) == "0"
    assert render(Poly((-1, 0, 1))) == "-1 + p^2"


def test_render_latex():
    assert render(Poly((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1385)), latex=True) == "1 - 1,385p^{11}"


def test_repr_is_the_tuple_constructor_at_any_coefficient_length():
    assert [repr(Poly(cs)) for cs in [(1, -2, 1), (5,), (), (-7, 0, 3)]] == [
        "Poly((1, -2, 1))",
        "Poly((5,))",
        "Poly(())",
        "Poly((-7, 0, 3))",
    ]
    # past the int digit cap, where repr of a tuple of ints raises ValueError
    huge = 10**5000
    assert repr(Poly((huge, 1))) == "Poly((1" + "0" * 5000 + ", 1))"
    assert repr(Poly((-huge - 1,))) == "Poly((-1" + "0" * 4999 + "1,))"


# Integer coefficient lists, small and multi-word, against a reference model
# that implements each operation from its definition on plain tuples.
int_coeffs = st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30))
int_lists = st.lists(int_coeffs, max_size=6)


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
        assert type(Poly()(x)) is Fraction and Poly()(x) == 0
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
    rebuilt = Poly([*a_list, 0, 0])  # the same polynomial by another path
    assert a == rebuilt and hash(a) == hash(rebuilt)
    assert (a == b) == (ra == rb)
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
