"""Win-turn distribution: construction rules, clamping and exact identities."""

from fractions import Fraction
from math import comb

import pytest

from coinrace.game import GameParams, ParameterError, normalize, turn_bounds
from coinrace.polynomial import ONE, Poly
from coinrace.stopping import hit_time_distribution, hit_time_pmf

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


def test_pmf_rejects_turn_outside_support():
    with pytest.raises(ParameterError):
        hit_time_pmf(1, nparams(3, 1, 1))


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


def test_mixed_sum_lower_bound_identity():
    # ceil((n - k*alpha)/beta) equals i_k + 1 for every feasible turn
    from math import ceil

    from coinrace.game import head_thresholds

    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        bounds = turn_bounds(params)
        for k in range(bounds.l, bounds.m + 1):
            i_k, _ = head_thresholds(k, params)
            assert ceil(Fraction(params.n - k * params.alpha, params.beta)) == i_k + 1



def binomial_tail(k, h):
    """U(p) = P(Bin(k, p) >= h) from its closed-form monomial coefficients."""
    if h <= 0:
        return ONE
    if h > k:
        return Poly()
    coeffs = [0] * (k + 1)
    for i in range(h, k + 1):
        coeffs[i] = (-1) ** (i - h) * comb(i - 1, h - 1) * comb(k, i)
    return Poly(coeffs)


def test_pmf_is_a_difference_of_binomial_tails():
    # {T <= k} = {S_k >= n}, and S_k >= n iff the k tosses give at least
    # h = ceil((n - k*alpha)/beta) heads, so f_k = U_k - U_{k-1}
    def tail(k, params):
        h = -(-(params.n - k * params.alpha) // params.beta)
        return binomial_tail(k, h)

    turns = 0
    for params in all_small_games(max_n=24, max_alpha=4, max_beta=4):
        bounds = turn_bounds(params)
        for k in range(bounds.l, bounds.m + 1):
            assert hit_time_pmf(k, params) == tail(k, params) - tail(k - 1, params), (k, params)
            turns += 1
    assert turns == 1736

def test_mass_defect_aborts_with_first_bad_turn(monkeypatch):
    import coinrace.stopping as stopping
    from coinrace.stopping import ConsistencyError

    real = stopping.hit_time_pmf

    def corrupted(k, params):
        poly = real(k, params)
        return poly + Poly((0, 0, 5)) if k == 2 else poly

    monkeypatch.setattr(stopping, "hit_time_pmf", corrupted)
    with pytest.raises(ConsistencyError, match=r"first bad turn k=2"):
        hit_time_distribution(nparams(3, 1, 1))


def test_final_turn_needs_no_special_case():
    # the general clamped formula must cover k = m (all-tails completion)
    for params in all_small_games(max_n=10, max_alpha=3, max_beta=3):
        bounds = turn_bounds(params)
        pmf_m = hit_time_pmf(bounds.m, params)
        assert pmf_m(0) == 1
