"""Independent ground truth by forward dynamic programming over scores.

One player's game is replayed turn by turn as a map from score (below the
target) to the probability, as an integer-coefficient polynomial in p, of
holding that score without having won.  Each turn moves every score's mass
up by alpha with weight 1 - p and by alpha + beta with weight p; the mass
that reaches the target on turn k is the win-turn probability pmf[k].  There
are no threshold formulas and no binomials anywhere, and this module depends
only on the polynomial substrate and the parameter type, so it stays an
independent check on the analytic construction in ``stopping``.

After k turns the reachable scores are k*alpha + h*beta for h heads, so at
most min(k + 1, n) scores are alive, each holding a polynomial of degree
<= k.  A game that lasts up to m = ceil(n/alpha) turns therefore costs
O(m^2 * min(m, n)) big-integer additions; ``MAX_TURNS`` caps m.
"""

from __future__ import annotations

from fractions import Fraction

from .game import NormalizedParams, ParameterError, parse_rational
from .polynomial import Poly

# Cap on m = ceil(n/alpha), the most turns a game can last.  At the cap the
# costliest games (alpha = beta = 1) take about 2.5 s on one core of a
# 2-CPU x86-64 machine under CPython 3.11, and the cost grows like m^3.
MAX_TURNS = 500


def brute_force_hit_pmf(params: NormalizedParams) -> dict[int, Poly]:
    """Win-turn pmf rebuilt by forward dynamic programming over one player's score.

    Raises ParameterError when the game can last more than ``MAX_TURNS``
    turns.  Only turns with a nonzero win probability appear as keys.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    max_turns = -(-n // alpha)  # all tails reach the target by this turn
    if max_turns > MAX_TURNS:
        raise ParameterError(
            f"oracle needs {max_turns} turns; oversized (cap {MAX_TURNS})"
        )
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


def brute_force_advantage(params: NormalizedParams, p: int | Fraction) -> Fraction:
    """First player's win probability at bias p, from the oracle's pmf.

    Both players' win turns are independent and identically distributed and
    the first mover wins ties, so the win probability is
    (1 + sum_k pmf(k)(p)^2) / 2.
    """
    p = parse_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError("p must be in [0, 1]")
    pmf = brute_force_hit_pmf(params)
    tie = sum(f(p) ** 2 for f in pmf.values())
    return (1 + tie) / 2
