"""Independent ground truth by forward dynamic programming over toss sequences.

One player's game is replayed turn by turn.  After ``turn`` tosses with h
heads a player holds turn*alpha + h*beta points, with chance
p^h (1-p)^(turn-h), so each live state is a heads count h holding one integer:
how many such toss sequences have not yet reached the target.  Each turn moves
every count to h (tails) and to h + 1 (heads).  The counts that reach the
target on turn k are the win-turn probability pmf[k] in the (p, 1-p) basis:
the count at h is the coefficient of p^h (1-p)^(k-h).  A form of degree k has
one set of such coefficients, so equal counts mean equal pmfs, and nothing is
expanded.  There are no threshold formulas and no binomials anywhere, and this
module depends only on the parameter type, so it stays an independent check
on the analytic construction in ``stopping``.

At most min(k + 1, n) counts are alive after k turns, so a game that lasts up
to m = ceil(n/alpha) turns costs O(m^2) big-integer additions; ``MAX_TURNS``
caps m at 1000, so the oracle reaches the longest games the exact pipeline is
tested at.  ``run_grid_verification`` checks an analytic builder of the same
counts against the oracle over a parameter grid, skipping the games past that
cap.
"""

from __future__ import annotations

from fractions import Fraction

from .game import NormalizedParams, ParameterError, coprime, parse_rational, turn_bounds

# Cap on m = ceil(n/alpha), the most turns a game can last.  At the cap the
# costliest games (alpha = beta = 1) take about 0.02 s on one core of a
# 2-CPU x86-64 machine under CPython 3.11, and the cost grows like m^2.
MAX_TURNS = 1000


def brute_force_hit_pmf(params: NormalizedParams) -> dict[int, tuple[int, list[int]]]:
    """Win-turn pmf rebuilt by forward dynamic programming over one player's tosses.

    Maps each win turn k to (j0, c), with pmf[k] = sum_i c[i] p^(j0+i) (1-p)^(k-j0-i),
    the shape ``stopping.win_turn_slots`` returns.  Raises ParameterError when
    the game can last more than ``MAX_TURNS`` turns.  Only turns with a nonzero
    win probability appear as keys.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    max_turns = -(-n // alpha)  # all tails reach the target by this turn
    if max_turns > MAX_TURNS:
        raise ParameterError(
            f"oracle needs {max_turns} turns; oversized (cap {MAX_TURNS})"
        )
    alive = [1]  # alive[h]: toss sequences of `turn` tosses with h heads, still below n
    pmf: dict[int, tuple[int, list[int]]] = {}
    turn = 0
    while alive:
        turn += 1
        # tails keep h, heads move to h + 1; points grow with h, so the wins are a suffix
        moved = [a + b for a, b in zip([*alive, 0], [0, *alive])]
        cut = len(moved)
        while cut and turn * alpha + (cut - 1) * beta >= n:
            cut -= 1
        alive = moved[:cut]
        if cut < len(moved):
            pmf[turn] = (cut, moved[cut:])
    return pmf


def run_grid_verification(
    max_n: int, max_alpha: int, max_beta: int, analytic
) -> tuple[int, list[dict], list[dict]]:
    """Compare ``analytic`` with the oracle over an integer parameter grid.

    ``analytic`` maps (k, NormalizedParams) to the (j0, c) counts of turn k,
    as ``stopping.win_turn_slots`` does; it is asked for every turn k in the
    game's [l, m] from ``game.turn_bounds``.
    Returns (checked case count, mismatch records, skipped records), one
    record ``{"n", "alpha", "beta"}`` per raw case on the grid; a mismatch
    record adds ``k``, the first turn where the two pmfs differ.  Each raw
    case is reduced to its game by ``game.coprime``, which divides out
    gcd(n, alpha, beta) in integers, and each game is checked once.  A case
    that can last more than ``MAX_TURNS`` turns is skipped.  An empty grid is
    a ParameterError, not a pass.
    """
    if min(max_n, max_alpha, max_beta) < 1:
        raise ParameterError("max-n, max-alpha and max-beta must be >= 1")
    # each game's first turn where the pmfs differ: 0 when they agree, None when skipped
    verdicts: dict[NormalizedParams, int | None] = {}
    mismatches, skipped = [], []
    for n in range(1, max_n + 1):
        for alpha in range(1, max_alpha + 1):
            for beta in range(1, max_beta + 1):
                game = coprime(n, alpha, beta)
                if game not in verdicts:
                    try:
                        expected = brute_force_hit_pmf(game)
                    except ParameterError:  # oversized
                        verdicts[game] = None
                    else:
                        l, m = turn_bounds(game)
                        got = {k: analytic(k, game) for k in range(l, m + 1)}
                        verdicts[game] = 0 if got == expected else min(
                            k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
                k = verdicts[game]
                if k is None:
                    skipped.append({"n": n, "alpha": alpha, "beta": beta})
                elif k:
                    mismatches.append({"n": n, "alpha": alpha, "beta": beta, "k": k})
    return max_n * max_alpha * max_beta - len(skipped), mismatches, skipped


def brute_force_advantage(params: NormalizedParams, p: int | Fraction) -> Fraction:
    """First player's win probability at bias p, from the oracle's counts.

    Both players' win turns are independent and identically distributed and
    the first mover wins ties, so the win probability is
    (1 + sum_k pmf(k)(p)^2) / 2, each pmf(k) summed from its counts.
    """
    p = parse_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError("p must be in [0, 1]")
    tie = sum(
        sum(c * p**h * (1 - p) ** (k - h) for h, c in enumerate(counts, j0)) ** 2
        for k, (j0, counts) in brute_force_hit_pmf(params).items()
    )
    return (1 + tie) / 2
