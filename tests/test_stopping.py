"""Win-turn distribution: construction rules, exact identities and the oracle cross-check."""

from fractions import Fraction

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinrace.game import GameParams, NormalizedParams, ParameterError, normalize, turn_bounds
from coinrace.oracle import brute_force_hit_pmf
from coinrace.polynomial import ONE, Poly
from coinrace.stopping import _tail, heads_needed, hit_time_distribution, hit_time_pmf

GRID_17 = [Fraction(i, 16) for i in range(17)]


def nparams(n, alpha, beta):
    return normalize(GameParams(n, alpha, beta))


@pytest.mark.parametrize(
    "k,params,expected",
    [
        (2, (3, 1, 1), Poly((0, 2, -1))),  # at least one head in two tosses
        (3, (3, 1, 1), Poly((1, -2, 1))),  # first two tosses tails
        (1, (2, 2, 1), ONE),  # a single toss always scores >= 2
    ],
)
def test_pmf_known_cases(k, params, expected):
    assert hit_time_pmf(k, nparams(*params)) == expected


@pytest.mark.parametrize("k", [2, 6])  # (5, 1, 1) wins on turns [3, 5]
def test_pmf_rejects_turn_outside_support(k):
    with pytest.raises(ParameterError, match=r"outside the valid turn range \[3, 5\]"):
        hit_time_pmf(k, nparams(5, 1, 1))


@pytest.mark.parametrize(
    "k,params,expected",
    [
        (1, (3, 1, 1), Poly()),  # h = 2 > k: the target is out of reach
        (2, (3, 1, 1), Poly((0, 2, -1))),  # h = 1: at least one head
        (3, (5, 1, 1), Poly((0, 0, 3, -2))),  # h = 2: at least two heads in three
        (3, (3, 1, 1), ONE),  # h = 0: reached even with all tails
    ],
)
def test_tail_known_cases(k, params, expected):
    assert _tail(k, nparams(*params)) == expected


@given(st.integers(0, 60), st.integers(1, 60), st.integers(1, 7), st.integers(1, 7))
@example(0, 5, 1, 2)  # k = 0: h_0 = ceil(n/beta) > 0
@example(5, 5, 1, 2)  # k*alpha = n: h = 0
@example(9, 5, 2, 3)  # k*alpha > n: h < 0
def test_heads_needed_is_the_ceiling(k, n, alpha, beta):
    params = NormalizedParams(n, alpha, beta)
    assert heads_needed(k, params) == math.ceil(Fraction(n - k * alpha, beta))


def test_tiny_beta_ratio_stays_cheap():
    # normalizes to (10^12, 10^12, 1): one turn always wins, and the turn-0 tail
    # needs h = 10^12 heads, which must not become a 10^12-entry coefficient list
    params = nparams(1, 1, Fraction(1, 10**12))
    assert _tail(0, params) == Poly()
    assert hit_time_pmf(1, params) == ONE
    assert dict(hit_time_distribution(params).pmf) == {1: ONE}


@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 6))
def test_tail_threshold_characterization(n, alpha, beta):
    # U_k starts at p^h, where h is the fewest heads with k*alpha + h*beta >= n
    params = normalize(GameParams(n, alpha, beta))
    bounds = turn_bounds(params)
    assert _tail(bounds.l - 1, params) == Poly()  # no win before turn l
    assert _tail(bounds.m, params) == ONE  # a certain win by turn m
    for k in range(bounds.l - 1, bounds.m + 1):
        h = next(i for i in range(k + 2) if i > k or k * params.alpha + i * params.beta >= params.n)
        tail = _tail(k, params)
        if h > k:
            assert tail == Poly()
        elif h == 0:
            assert tail == ONE
        else:
            assert tail.coeffs[:h] == (0,) * h and tail.coeffs[h] != 0
            assert tail(1) == 1 and tail(0) == 0


def test_distribution_small_games():
    dist = hit_time_distribution(nparams(3, 1, 1))
    assert dict(dist.pmf) == {2: Poly((0, 2, -1)), 3: Poly((1, -2, 1))}

    dist = hit_time_distribution(nparams(2, 2, 1))
    assert dict(dist.pmf) == {1: ONE}

    dist = hit_time_distribution(nparams(3, 1, 10))
    assert dict(dist.pmf) == {
        1: Poly((0, 1)),
        2: Poly((0, 1, -1)),
        3: Poly((1, -2, 1)),
    }


def all_small_games(max_n=12, max_alpha=4, max_beta=4):
    for n in range(1, max_n + 1):
        for alpha in range(1, max_alpha + 1):
            for beta in range(1, max_beta + 1):
                yield nparams(n, alpha, beta)


def test_total_mass_is_exactly_one_exhaustively():
    for params in all_small_games():
        dist = hit_time_distribution(params)  # raises on any mass defect
        assert sum(dist.pmf.values(), Poly()) == ONE


def test_pointwise_probability_bounds():
    for params in all_small_games(max_n=8, max_alpha=3, max_beta=3):
        dist = hit_time_distribution(params)
        for poly in dist.pmf.values():
            for p in GRID_17:
                assert 0 <= poly(p) <= 1


def test_support_endpoints():
    for params in all_small_games(max_n=8, max_alpha=3, max_beta=3):
        dist = hit_time_distribution(params)
        assert dist.pmf[dist.bounds.m](0) == 1  # all tails takes exactly m turns
        assert dist.pmf[dist.bounds.l](1) == 1  # all heads takes exactly l turns


def test_degree_bound():
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        dist = hit_time_distribution(params)
        for poly in dist.pmf.values():
            assert poly.degree is not None and poly.degree <= dist.bounds.m - 1


def test_pmf_agrees_with_distribution():
    # hit_time_pmf builds its two tails on its own; it must match the distribution
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        dist = hit_time_distribution(params)
        for k in dist.support():
            assert hit_time_pmf(k, params) == dist.pmf[k], (k, params)


def test_pmf_is_a_difference_of_binomial_tails():
    # the tail-difference construction against the independent score-state DP,
    # on a larger grid than the acceptance criterion's n <= 10
    turns = 0
    for params in all_small_games(max_n=24, max_alpha=4, max_beta=4):
        dist = hit_time_distribution(params)
        assert dict(dist.pmf) == brute_force_hit_pmf(params), params
        turns += len(dist.pmf)
    assert turns == 1736


def test_mass_defect_in_an_endpoint_tail_aborts(monkeypatch):
    # the pmf telescopes to U_m - U_{l-1}, so only an endpoint tail can move the mass
    import coinrace.stopping as stopping
    from coinrace.stopping import ConsistencyError

    real = stopping._tail

    def corrupted(k, params):
        poly = real(k, params)
        return poly + Poly((0, 0, 5)) if k == turn_bounds(params).m else poly

    monkeypatch.setattr(stopping, "_tail", corrupted)
    with pytest.raises(ConsistencyError, match=r"sum to 1 \+ 5p\^2 instead of 1"):
        hit_time_distribution(nparams(3, 1, 1))


def test_final_turn_needs_no_special_case():
    # the general tail difference must cover k = m, where h_m <= 0 and U_m = 1
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        bounds = turn_bounds(params)
        pmf_m = hit_time_pmf(bounds.m, params)
        assert pmf_m(0) == 1
