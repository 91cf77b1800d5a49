"""Advantage polynomial assembly and its structural laws."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra import ref_add, ref_expand_counts, ref_mul
from coinrace.advantage import _form, _value_at, advantage_at, advantage_polynomial, tie_probability
from coinrace.game import GameParams, ParameterError, normalize, turn_bounds
from coinrace.oracle import brute_force_hit_pmf
from coinrace.polynomial import ONE, Poly, from_homogeneous
from coinrace.stopping import ConsistencyError, hit_time_distribution, win_turn_slots
from coinrace.tables import POLYNOMIAL_TABLES

params_rationals = st.fractions(min_value=Fraction(1, 2), max_value=6, max_denominator=4)
scales = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)


def test_golden_row_3_1_1():
    result = advantage_polynomial(GameParams(3, 1, 1))
    assert result.poly == Poly((1, -2, 5, -4, 1))
    assert not result.degenerate


def test_golden_row_10_2_3():
    result = advantage_polynomial(GameParams(10, 2, 3))
    assert result.poly == Poly((1, -4, 22, -64, 102, -90, 43, -10, 1))


@pytest.mark.parametrize("params", [(2, 2, 1), (4, 2, 1), (3, 3, 2), (6, 3, 2)])
def test_degenerate_games(params):
    result = advantage_polynomial(GameParams(*params))
    assert result.degenerate
    assert result.poly == ONE
    assert result.bounds.l == result.bounds.m


def test_advantage_at_endpoints_and_half():
    g = GameParams(3, 1, 1)
    assert advantage_at(g, 0) == 1
    assert advantage_at(g, 1) == 1
    # 1 - 2/2 + 5/4 - 4/8 + 1/16, independently confirmed by the enumeration oracle
    assert advantage_at(g, Fraction(1, 2)) == Fraction(13, 16)


def test_advantage_at_rejects_bias_outside_unit_interval():
    for p in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(ParameterError):
            advantage_at(GameParams(3, 1, 1), p)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_advantage_at_rejects_non_finite_bias(p):
    with pytest.raises(ParameterError):
        advantage_at(GameParams(3, 1, 1), p)


def test_tie_probability_known_values():
    # (2p - p^2)^2 + (1 - 2p + p^2)^2, i.e. twice the advantage minus one
    assert tie_probability(GameParams(3, 1, 1)) == Poly((1, -4, 10, -8, 2))
    assert tie_probability(GameParams(2, 2, 1)) == ONE


def test_tie_probability_at_zero_bias():
    for params in [(3, 1, 1), (5, 1, 2), (7, 2, 3)]:
        assert tie_probability(GameParams(*params))(0) == 1


def small_games(max_n=10, max_alpha=3, max_beta=3):
    for n in range(1, max_n + 1):
        for alpha in range(1, max_alpha + 1):
            for beta in range(1, max_beta + 1):
                yield GameParams(n, alpha, beta)


def test_reconstruction_from_tie_probability():
    for g in small_games(max_n=6):
        adv = advantage_polynomial(g).poly
        assert ref_mul((2,), adv.coeffs) == ref_add(tie_probability(g).coeffs, (1,))


def test_first_mover_bound_on_grid():
    grid = [Fraction(i, 32) for i in range(33)]
    for g in small_games(max_n=6):
        poly = advantage_polynomial(g).poly
        for p in grid:
            assert Fraction(1, 2) <= poly(p) <= 1


def test_endpoint_certainty_and_constant_term():
    for g in small_games(max_n=8):
        poly = advantage_polynomial(g).poly
        assert poly.coeffs[0] == 1
        assert poly(1) == 1


def test_degree_law_exhaustive():
    for n in range(1, 13):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                result = advantage_polynomial(GameParams(n, alpha, beta))
                if result.degenerate:
                    assert result.poly == ONE
                else:
                    assert result.poly.degree == 2 * result.bounds.m - 2


def test_coefficients_are_integers():
    for g in small_games(max_n=8):
        assert all(type(c) is int for c in advantage_polynomial(g).poly.coeffs)


@settings(deadline=None, max_examples=40)
@given(params_rationals, params_rationals, params_rationals, scales)
def test_scaling_invariance(n, alpha, beta, c):
    base = advantage_polynomial(GameParams(n, alpha, beta))
    scaled = advantage_polynomial(GameParams(c * n, c * alpha, c * beta))
    assert base.poly == scaled.poly


def naive_sum_of_squares(polys):
    total = ()
    for f in polys:
        total = ref_add(total, ref_mul(f.coeffs, f.coeffs))
    return total


def test_kernel_matches_naive_sum_of_squares_of_the_pmf():
    games = 0
    for n in range(1, 25):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                g = GameParams(n, alpha, beta)
                pmf = hit_time_distribution(normalize(g)).pmf.values()
                assert tie_probability(g).coeffs == naive_sum_of_squares(pmf), g
                games += 1
    assert games == 384


@pytest.mark.parametrize("m", [2, 3, 6, 7, 30, 31, 62, 63])
def test_kernel_where_the_slot_width_steps_up(m):
    # w = 8 * ((2m + 3) // 8 + 1) steps up at m = 4j - 1; just below, at
    # m = 4j - 2, a slot has only 3 bits above the bound 2^(2m+1).
    game = GameParams(m, 1, 1)  # alpha = 1, so m = n
    result = advantage_polynomial(game)
    assert result.bounds.m == m
    pmf = hit_time_distribution(normalize(game)).pmf.values()
    assert ref_mul((2,), result.poly.coeffs) == ref_add(naive_sum_of_squares(pmf), (1,))
    # the slots of I hold its homogeneous coefficients and sum to 4^m I(1/2)
    assert len(result.homogeneous) == 2 * m + 1
    assert sum(result.homogeneous) == 4**m * result.poly(Fraction(1, 2))
    assert Poly(from_homogeneous(result.homogeneous)) == result.poly


@pytest.mark.parametrize("slot", [1, 6])
def test_odd_tie_coefficient_aborts_the_halving(monkeypatch, slot):
    # one more p^j (1-p)^(6-j) in 2I of (3, 1, 1), m = 3, makes the (p, 1-p)
    # coefficient at slot j odd, at the second slot and at the last one
    import coinrace.advantage as advantage_module

    real = advantage_module._doubled_advantage

    def corrupted(params, bounds):
        slots = real(params, bounds)
        slots[slot] += 1
        return slots

    monkeypatch.setattr(advantage_module, "_doubled_advantage", corrupted)
    message = rf"non-integer coefficient at p\^{slot} \(1-p\)\^{6 - slot} for "
    with pytest.raises(ConsistencyError, match=message):
        advantage_polynomial(GameParams(3, 1, 1))


def every_entry_point():
    """Each public path to the advantage: the polynomial, and those that read the (p, 1-p) form alone."""
    from coinrace.minimize import advantage_at_asymptotic, minimize_advantage

    return {
        "advantage_polynomial": advantage_polynomial,
        "minimize_advantage": minimize_advantage,
        "advantage_at": lambda game: advantage_at(game, Fraction(1, 3)),
        "advantage_at_asymptotic": advantage_at_asymptotic,
    }


@pytest.mark.parametrize(
    "game,corrupt,message",
    [
        # one more p^j (1-p)^(6-j) in I puts (-1)^(6-j) p^6 in it
        ((3, 1, 1), {0: 2}, r"advantage degree is not 2m-2 = 4 for "),
        ((3, 1, 1), {5: 2}, r"advantage degree is not 2m-2 = 4 for "),
        # p^2 (1-p)^4 + p^3 (1-p)^3 = p^2 (1-p)^3: no p^6, but -p^5
        ((3, 1, 1), {2: 2, 3: 2}, r"advantage degree is not 2m-2 = 4 for "),
        # 2I = 2 (p + (1-p))^6 makes I = 1, of degree 0
        ((3, 1, 1), "one", r"advantage degree is not 2m-2 = 4 for "),
        # (2, 2, 1) ends on turn 1, so I must be (p + (1-p))^2: 1, 2, 1
        ((2, 2, 1), {1: 2}, r"single-turn game \(l=m=1\) must have advantage 1"),
        ((3, 1, 1), {1: 1}, r"non-integer coefficient at p\^1 \(1-p\)\^5 for "),
    ],
    ids=["p^0-slot", "p^5-slot", "two-slots", "identically-one", "degenerate", "odd"],
)
@pytest.mark.parametrize("entry", sorted(every_entry_point()))
def test_a_corrupted_kernel_aborts_every_entry_point(monkeypatch, game, corrupt, message, entry):
    # the checks run once, in the builder that every path shares
    import coinrace.advantage as advantage_module

    real = advantage_module._doubled_advantage

    def corrupted(params, bounds):
        slots = real(params, bounds)
        if corrupt == "one":
            return [2 * math.comb(len(slots) - 1, j) for j in range(len(slots))]
        for j, extra in corrupt.items():
            slots[j] += extra
        return slots

    monkeypatch.setattr(advantage_module, "_doubled_advantage", corrupted)
    with pytest.raises(ConsistencyError, match=message):
        every_entry_point()[entry](GameParams(*game))


def test_minimizing_reads_only_the_homogeneous_form(monkeypatch):
    # neither the Taylor shift to monomials nor a Poly is built on these paths
    import coinrace.advantage as advantage_module
    from coinrace.tables import minimized_table

    def never(*args):
        raise AssertionError("converted the advantage to monomials")

    monkeypatch.setattr(advantage_module, "from_homogeneous", never)
    monkeypatch.setattr(advantage_module, "Poly", never)
    for name, entry in every_entry_point().items():
        if name != "advantage_polynomial":
            entry(GameParams(15, 1, 3))
    rows, _ = minimized_table(1e-9)
    assert rows
    with pytest.raises(AssertionError, match="monomials"):
        advantage_polynomial(GameParams(15, 1, 3))


def test_the_form_value_is_the_monomial_value():
    # _value_at evaluates sum_j c_j p^j (1-p)^(D-j) by halving the c_j, Poly
    # by Horner's rule on monomial coefficients: they share no code
    rng = random.Random(38)
    for game in [(3, 1, 1), (2, 2, 1), (15, 1, 1), (100, 1, 1), (150, 2, 3), (90, 1, 2)]:
        result = advantage_polynomial(GameParams(*game))
        points = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)]
        points += [Fraction(rng.randrange(1, 1 << v), 1 << v) for v in (1, 2, 30, 31, 64, 334)]
        points += [Fraction(rng.randrange(10**40), 10**40 + 7) for _ in range(3)]
        for x in points:
            assert _value_at(result.homogeneous, x) == result.poly(x), (game, x)
        for x in points[:5]:
            assert advantage_at(GameParams(*game), x) == result.poly(x), (game, x)


@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 31, 32, 33, 100, 257])
def test_the_form_value_splits_every_length_exactly(length):
    # halves down to Horner sums of at most 16, joined by powers of u and w
    rng = random.Random(length)
    c = [rng.randint(-(2**100), 2**100) for _ in range(length)]
    monomial = Poly(from_homogeneous(c))
    for u, w in [(0, 1), (1, 0), (1, 1), (3, 5), (2**40 + 1, 3), (rng.getrandbits(200), rng.getrandbits(90))]:
        x = Fraction(u, u + w)
        assert _form(c, u, w) == monomial(x) * (u + w) ** (length - 1), (u, w)


@pytest.mark.parametrize("end", ["first", "last"])
def test_corrupted_tail_fails_the_telescoping_check(monkeypatch, end):
    # Turn l enters the telescoping sum before any (p + q) factor and turn m
    # after the last one; a threshold one head too high at either end moves
    # f_k's slots up by one and must break the packed sum.
    import coinrace.advantage as advantage_module
    import coinrace.stopping as stopping

    bounds = turn_bounds(normalize(GameParams(7, 1, 2)))
    turn = bounds.l if end == "first" else bounds.m

    def corrupted(k, params):
        j0, slots = stopping.win_turn_slots(k, params)
        return (j0 + 1 if k == turn else j0), slots

    monkeypatch.setattr(advantage_module, "win_turn_slots", corrupted)
    with pytest.raises(ConsistencyError, match="win-turn masses .* do not sum to 1"):
        advantage_polynomial(GameParams(7, 1, 2))


def test_advantage_matches_oracle_products_at_degree_118():
    # Shares neither the analytic pmf nor the Kronecker squaring: oracle pmf,
    # schoolbook products.
    params = normalize(GameParams(60, 1, 1))
    counts = brute_force_hit_pmf(params)
    l, m = turn_bounds(params)
    assert counts == {k: win_turn_slots(k, params) for k in range(l, m + 1)}
    pmf = ref_expand_counts(counts)
    doubled = ref_add(naive_sum_of_squares(Poly(c) for c in pmf.values()), (1,))
    assert len(doubled) - 1 == 118
    assert ref_mul((2,), advantage_polynomial(GameParams(60, 1, 1)).poly.coeffs) == doubled


TABLE_GAMES = [
    GameParams(n, alpha, beta)
    for alpha, beta, ns in POLYNOMIAL_TABLES.values()
    for n in ns
]


def all_ints(poly):
    return all(type(c) is int for c in poly.coeffs)


@pytest.mark.parametrize("game", TABLE_GAMES + [GameParams(100, 1, 1)], ids=str)
def test_integer_polynomials_store_int_coefficients(game):
    assert all_ints(advantage_polynomial(game).poly)
    assert all_ints(tie_probability(game))
    assert all(all_ints(f) for f in hit_time_distribution(normalize(game)).pmf.values())


def test_oracle_pmf_stores_int_coefficients():
    params = normalize(GameParams(12, 1, 1))
    counts = brute_force_hit_pmf(params)
    l, m = turn_bounds(params)
    assert counts == {k: win_turn_slots(k, params) for k in range(l, m + 1)}
    assert counts and all(type(j0) is int and all(type(c) is int for c in slots)
                          for j0, slots in counts.values())
    pmf = ref_expand_counts(counts)
    assert pmf and all(type(x) is int for c in pmf.values() for x in c)
