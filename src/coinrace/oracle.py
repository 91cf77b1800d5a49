"""Independent ground truth by forward dynamic programming over toss sequences.

One player's game is replayed turn by turn.  After ``turn`` tosses with h
heads a player holds turn*alpha + h*beta points, with chance
p^h (1-p)^(turn-h), so each live state is a heads count h holding one integer:
how many such toss sequences have not yet reached the target.  Each turn moves
every count to h (tails) and to h + 1 (heads).  The counts that reach the
target on turn k, times p^h (1-p)^(k-h), sum to the win-turn probability
pmf[k], expanded with one row of (1-p)^r that only ever walks forward.  There
are no threshold formulas and no binomials anywhere, and this module depends
only on the polynomial substrate and the parameter type, so it stays an
independent check on the analytic construction in ``stopping``.

At most min(k + 1, n) counts are alive after k turns, so a game that lasts up
to m = ceil(n/alpha) turns costs O(m^2) big-integer additions for the counts
and O(m^2 * ceil(alpha/beta)) for the expansion; ``MAX_TURNS`` caps m at
1000, so the oracle reaches the longest games the exact pipeline is tested at.
``run_grid_verification`` checks an analytic pmf builder against the oracle
over a parameter grid, skipping the games past that cap.
"""

from __future__ import annotations

from fractions import Fraction

from .game import NormalizedParams, ParameterError, coprime, parse_rational
from .polynomial import Poly

# Cap on m = ceil(n/alpha), the most turns a game can last.  At the cap the
# costliest games (alpha = beta = 1) take about 0.4 s on one core of a
# 2-CPU x86-64 machine under CPython 3.11, and the cost grows like m^3.
MAX_TURNS = 1000


def brute_force_hit_pmf(params: NormalizedParams) -> dict[int, Poly]:
    """Win-turn pmf rebuilt by forward dynamic programming over one player's tosses.

    Raises ParameterError when the game can last more than ``MAX_TURNS``
    turns.  Only turns with a nonzero win probability appear as keys.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    max_turns = -(-n // alpha)  # all tails reach the target by this turn
    if max_turns > MAX_TURNS:
        raise ParameterError(
            f"oracle needs {max_turns} turns; oversized (cap {MAX_TURNS})"
        )
    alive = [1]  # alive[h]: toss sequences of `turn` tosses with h heads, still below n
    row = [1]  # ascending coefficients of (1 - p)^r, r = len(row) - 1
    pmf: dict[int, Poly] = {}
    turn = 0
    while alive:
        turn += 1
        # tails keep h, heads move to h + 1; points grow with h, so the wins are a suffix
        moved = [a + b for a, b in zip([*alive, 0], [0, *alive])]
        cut = len(moved)
        while cut and turn * alpha + (cut - 1) * beta >= n:
            cut -= 1
        alive, top = moved[:cut], len(moved) - 1
        if cut <= top:
            # A later win has no more heads, so r = turn - h only grows.
            if len(row) > turn - top + 1:
                raise RuntimeError(f"oracle row of (1-p)^r went backwards at turn {turn}")
            out = [0] * top
            for h in range(top, cut - 1, -1):
                while len(row) <= turn - h:
                    row = [a - b for a, b in zip([*row, 0], [0, *row])]
                c = moved[h]
                out[h:] = [a + c * b for a, b in zip(out[h:], row)] if h < top else [c * b for b in row]
            pmf[turn] = Poly(out)
    return pmf


def run_grid_verification(
    max_n: int, max_alpha: int, max_beta: int, analytic
) -> tuple[int, list[dict], list[dict]]:
    """Compare ``analytic`` with the oracle over an integer parameter grid.

    ``analytic`` maps a NormalizedParams to an object whose ``pmf`` maps each
    win turn to its Poly, as ``stopping.hit_time_distribution`` does.
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
                        got = analytic(game).pmf
                        verdicts[game] = 0 if got == expected else min(
                            k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
                k = verdicts[game]
                if k is None:
                    skipped.append({"n": n, "alpha": alpha, "beta": beta})
                elif k:
                    mismatches.append({"n": n, "alpha": alpha, "beta": beta, "k": k})
    return max_n * max_alpha * max_beta - len(skipped), mismatches, skipped


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
