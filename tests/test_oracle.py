"""Toss-counting oracle: self-consistency, a score-state reference and independence."""

import inspect
import math
from fractions import Fraction
from functools import reduce

import pytest

from algebra import ref_add, ref_expand_counts
import coinrace.oracle as oracle_module
from coinrace.game import GameParams, NormalizedParams, ParameterError, normalize
from coinrace.oracle import brute_force_advantage, brute_force_hit_pmf
from coinrace.polynomial import ONE, Poly
from coinrace.stopping import hit_time_distribution, win_turn_slots


def nparams(n, alpha, beta):
    return normalize(GameParams(n, alpha, beta))


def oracle_pmf(params):
    """The oracle's counts expanded by the tests' reference, one Poly per win turn."""
    return {k: Poly(c) for k, c in ref_expand_counts(brute_force_hit_pmf(params)).items()}


def assert_matches_analytic(params):
    """The oracle's counts are the kernel's slots, and expand to the monomial pmf."""
    dist = hit_time_distribution(params)
    counts = brute_force_hit_pmf(params)
    assert counts == {k: win_turn_slots(k, params) for k in dist.support()}, params
    assert ref_expand_counts(counts) == {k: f.coeffs for k, f in dist.pmf.items()}, params


def test_enumerated_counts_small_games():
    assert brute_force_hit_pmf(nparams(3, 1, 1)) == {2: (1, [2, 1]), 3: (0, [1, 1])}
    assert brute_force_hit_pmf(nparams(2, 2, 1)) == {1: (0, [1, 1])}
    assert brute_force_hit_pmf(nparams(3, 1, 10)) == {1: (1, [1]), 2: (1, [1]), 3: (0, [1, 1])}


def test_enumerated_pmfs_small_games():
    assert oracle_pmf(nparams(3, 1, 1)) == {2: Poly((0, 2, -1)), 3: Poly((1, -2, 1))}
    assert oracle_pmf(nparams(2, 2, 1)) == {1: ONE}
    assert oracle_pmf(nparams(3, 1, 10)) == {
        1: Poly((0, 1)),
        2: Poly((0, 1, -1)),
        3: Poly((1, -2, 1)),
    }


def test_enumerated_advantage_values():
    assert brute_force_advantage(nparams(3, 1, 1), Fraction(1, 2)) == Fraction(13, 16)
    assert brute_force_advantage(nparams(3, 1, 1), 0) == 1
    for p in (0, Fraction(1, 3), 1):
        assert brute_force_advantage(nparams(2, 2, 1), p) == 1


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, Fraction(-1, 10)])
def test_advantage_rejects_bias_outside_unit_interval(p):
    with pytest.raises(ParameterError):
        brute_force_advantage(nparams(3, 1, 1), p)


def test_mass_conservation():
    for n in range(1, 9):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                pmf = ref_expand_counts(brute_force_hit_pmf(nparams(n, alpha, beta)))
                assert reduce(ref_add, pmf.values(), ()) == (1,)


def test_matches_analytic_construction():
    for n in range(1, 7):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                assert_matches_analytic(nparams(n, alpha, beta))


def test_matches_analytic_up_to_fourteen_turns():
    from coinrace.advantage import advantage_at

    p = Fraction(2, 7)
    for n in (11, 12, 13, 14):
        for beta in (1, 2, 3):
            params = nparams(n, 1, beta)
            assert_matches_analytic(params)
            assert brute_force_advantage(params, p) == advantage_at(GameParams(n, 1, beta), p)


@pytest.mark.parametrize(
    "n, alpha, beta",
    [(n, 1, beta) for n in (25, 40, 60, 100) for beta in (1, 2, 3)] + [(150, 2, 3)],
)
def test_matches_analytic_beyond_twenty_turns(n, alpha, beta):
    assert_matches_analytic(nparams(n, alpha, beta))


def reference_hit_pmf(params: NormalizedParams) -> dict[int, Poly]:
    """The win-turn pmf by forward DP over scores, one polynomial in p per score.

    Each turn moves every score's mass up by alpha with weight 1 - p and by
    alpha + beta with weight p; the mass that reaches n on turn k is pmf[k].
    It shares no state layout with the oracle, which counts toss sequences.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    # score -> ascending coefficients of P(score after `turn` turns, not yet won);
    # every list has length turn + 1 so lists add elementwise
    alive: dict[int, list[int]] = {0: [1]}
    pmf: dict[int, Poly] = {}
    turn = 0
    while alive:
        turn += 1
        step: dict[int, list[int]] = {}
        won = None
        for points, c in alive.items():
            heads = [0, *c]  # c * p
            tails = [a - b for a, b in zip([*c, 0], heads)]  # c * (1 - p)
            for target, moved in ((points + alpha, tails), (points + alpha + beta, heads)):
                if target >= n:
                    won = moved if won is None else [a + b for a, b in zip(won, moved)]
                elif target in step:
                    step[target] = [a + b for a, b in zip(step[target], moved)]
                else:
                    step[target] = moved
        if won is not None:
            pmf[turn] = Poly(won)
        alive = step
    return pmf


def test_matches_the_score_reference_on_small_games():
    games = {nparams(n, a, b) for n in range(1, 41) for a in range(1, 6) for b in range(1, 6)}
    for params in games:
        assert oracle_pmf(params) == reference_hit_pmf(params), params


@pytest.mark.parametrize("game", [(100, 1, 1), (150, 2, 3)])
def test_matches_the_score_reference_beyond_a_hundred_turns(game):
    params = nparams(*game)
    assert oracle_pmf(params) == reference_hit_pmf(params)


@pytest.mark.parametrize("game", [(1000, 1, 1), (2000, 2, 3)])
def test_matches_analytic_at_the_turn_cap(game):
    params = nparams(*game)
    assert -(-params.n // params.alpha) == oracle_module.MAX_TURNS
    assert_matches_analytic(params)


def test_oversized_enumeration_rejected(monkeypatch):
    cap = oracle_module.MAX_TURNS
    with pytest.raises(ParameterError, match="oversized"):
        brute_force_hit_pmf(NormalizedParams(cap + 1, 1, 1))
    monkeypatch.setattr(oracle_module, "MAX_TURNS", 20)
    assert max(brute_force_hit_pmf(NormalizedParams(20, 1, 1))) == 20
    with pytest.raises(ParameterError, match="oversized"):
        brute_force_hit_pmf(NormalizedParams(21, 1, 1))


def test_oracle_is_independent_of_the_analytic_path():
    # the oracle may import only the polynomial substrate and the parameter type
    import ast

    tree = ast.parse(inspect.getsource(oracle_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported <= {"game", "polynomial", "fractions", "__future__", "annotations"}


# --- past the cap: the reference's score-state DP with scalars modulo a prime ----

PRIME = (1 << 61) - 1  # a Mersenne prime


def modular_tie_sum(params: NormalizedParams, r: int) -> int:
    """sum_k f_k(r)^2 mod PRIME, replaying ``reference_hit_pmf`` with scalar masses."""
    n, alpha, beta = params.n, params.alpha, params.beta
    moves = ((alpha, (1 - r) % PRIME), (alpha + beta, r))
    alive = {0: 1}
    tie = 0
    while alive:
        step: dict[int, int] = {}
        won = 0
        for points, mass in alive.items():
            for gain, weight in moves:
                moved = mass * weight % PRIME
                target = points + gain
                if target >= n:
                    won += moved
                else:
                    step[target] = (step.get(target, 0) + moved) % PRIME
        tie = (tie + won * won) % PRIME
        alive = step
    return tie


def mod_eval(coeffs, r: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % PRIME
    return acc


@pytest.mark.parametrize("game", [(1100, 1, 1), (2100, 2, 3)])
def test_advantage_past_the_oracle_cap_at_random_points(game):
    # A wrong polynomial of degree <= 2m - 2 agrees with I at a random point
    # modulo PRIME with probability at most (2m - 2)/PRIME (Schwartz-Zippel).
    import random

    from coinrace.advantage import advantage_polynomial

    params = nparams(*game)
    assert -(-params.n // params.alpha) > oracle_module.MAX_TURNS
    result = advantage_polynomial(GameParams(*game))
    d = len(result.homogeneous) - 1
    half = pow(2, -1, PRIME)
    rng = random.Random(f"advantage past the cap {game}")
    for _ in range(3):
        r = rng.randrange(2, PRIME - 1)
        expected = (1 + modular_tie_sum(params, r)) * half % PRIME
        assert mod_eval(result.poly.coeffs, r) == expected, (game, r)
        q = (1 - r) % PRIME
        homogeneous = sum(
            c * pow(r, j, PRIME) * pow(q, d - j, PRIME) for j, c in enumerate(result.homogeneous)
        )
        assert homogeneous % PRIME == expected, (game, r)
