"""Win-turn distribution: construction rules, exact identities and the oracle cross-check."""

from fractions import Fraction
from functools import reduce

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from algebra import ref_add, ref_expand_counts
from coinrace.game import GameParams, NormalizedParams, ParameterError, normalize, turn_bounds
from coinrace.oracle import brute_force_hit_pmf
from coinrace.polynomial import ONE, Poly
from coinrace.stopping import heads_needed, hit_time_distribution, hit_time_pmf, win_turn_slots

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
        (2, (3, 1, 1), (1, [2, 1])),  # 2pq + p^2: at least one head in two
        (3, (5, 1, 1), (2, [3, 1])),  # 3p^2q + p^3: turn l, so f_l = U_l
        (4, (5, 1, 1), (1, [4, 3])),  # 4pq^3 + 3p^2q^2: one head early, or two
        (6, (20, 3, 1), (2, [15, 20, 15, 5])),  # ceil(alpha/beta) + 1 slots
        (3, (3, 1, 1), (0, [1, 1])),  # q^3 + pq^2 = q^2: turn m, h_m = 0
        (1, (2, 2, 1), (0, [1, 1])),  # q + p = 1: l = m
    ],
)
def test_win_turn_slots_known_cases(k, params, expected):
    assert win_turn_slots(k, nparams(*params)) == expected


@given(st.integers(0, 60), st.integers(1, 60), st.integers(1, 7), st.integers(1, 7))
@example(0, 5, 1, 2)  # k = 0: h_0 = ceil(n/beta) > 0
@example(5, 5, 1, 2)  # k*alpha = n: h = 0
@example(9, 5, 2, 3)  # k*alpha > n: h < 0
def test_heads_needed_is_the_ceiling(k, n, alpha, beta):
    params = NormalizedParams(n, alpha, beta)
    assert heads_needed(k, params) == math.ceil(Fraction(n - k * alpha, beta))


def test_tiny_beta_ratio_stays_cheap():
    # normalizes to (10^12, 10^12, 1): one turn always wins, and the turn-0
    # threshold h = 10^12 heads must not become a 10^12-entry slot list
    params = nparams(1, 1, Fraction(1, 10**12))
    assert win_turn_slots(1, params) == (0, [1, 1])
    assert hit_time_pmf(1, params) == ONE
    assert dict(hit_time_distribution(params).pmf) == {1: ONE}


@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 6))
def test_slot_threshold_characterization(n, alpha, beta):
    # f_k's first slot is p^h, where h is the fewest heads with k*alpha + h*beta >= n,
    # and the slots of f_l..f_k add up in the (p, 1-p) basis to U_k = P(>= h heads
    # in k tosses): C(k, j) in slot j >= h and 0 below.
    params = normalize(GameParams(n, alpha, beta))
    bounds = turn_bounds(params)
    tail = [0] * bounds.l  # U_(l-1) = 0: no win before turn l
    for k in range(bounds.l, bounds.m + 1):
        h = next(i for i in range(k + 1) if k * params.alpha + i * params.beta >= params.n)
        j0, slots = win_turn_slots(k, params)
        assert j0 == h and slots[0] > 0 and min(slots) >= 0
        tail = [a + b for a, b in zip(tail + [0], [0] + tail)]  # times p + (1-p)
        for j, c in enumerate(slots, j0):
            tail[j] += c
        assert tail == [0] * h + [math.comb(k, j) for j in range(h, k + 1)]
    assert h == 0  # a certain win by turn m: U_m = (p + (1-p))^m = 1


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
        assert reduce(ref_add, (f.coeffs for f in dist.pmf.values()), ()) == (1,)


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
    # hit_time_pmf expands one turn's slots on its own; it must match the distribution
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        dist = hit_time_distribution(params)
        for k in dist.support():
            assert hit_time_pmf(k, params) == dist.pmf[k], (k, params)


def test_pmf_is_a_difference_of_binomial_tails():
    # the slot expansion against the independent score-state DP,
    # on a larger grid than the acceptance criterion's n <= 10
    turns = 0
    for params in all_small_games(max_n=24, max_alpha=4, max_beta=4):
        dist = hit_time_distribution(params)
        counts = brute_force_hit_pmf(params)
        assert counts == {k: win_turn_slots(k, params) for k in dist.support()}, params
        assert ref_expand_counts(counts) == {k: f.coeffs for k, f in dist.pmf.items()}, params
        turns += len(dist.pmf)
    assert turns == 1736


def test_mass_defect_in_an_interior_turn_aborts_both_builds(monkeypatch):
    # The pmf and the advantage kernel share win_turn_slots, and both mass checks
    # see every turn: one more p^2 (1-p)^2 in f_4 of (5, 1, 1), whose turns are
    # 3..5, must stop both.
    import coinrace.advantage as advantage
    import coinrace.stopping as stopping
    from coinrace.advantage import advantage_polynomial
    from coinrace.stopping import ConsistencyError

    real = stopping.win_turn_slots

    def corrupted(k, params):
        j0, slots = real(k, params)
        if k == 4:
            slots[1] += 1
        return j0, slots

    monkeypatch.setattr(stopping, "win_turn_slots", corrupted)
    monkeypatch.setattr(advantage, "win_turn_slots", corrupted)
    with pytest.raises(ConsistencyError, match=r"sum to 1 \+ p\^2 - 2p\^3 \+ p\^4 instead of 1"):
        hit_time_distribution(nparams(5, 1, 1))
    with pytest.raises(ConsistencyError, match="win-turn masses .* do not sum to 1"):
        advantage_polynomial(GameParams(5, 1, 1))


def test_final_turn_needs_no_special_case():
    # the general slot formula must cover k = m, where h_m <= 0 and U_m = 1
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        bounds = turn_bounds(params)
        pmf_m = hit_time_pmf(bounds.m, params)
        assert pmf_m(0) == 1
