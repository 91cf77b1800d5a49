"""First player's winning probability as an exact polynomial in the coin bias.

Both players' winning turns are independent with the same distribution, and
the first mover wins ties in hit-time, so the first player wins with
probability I = (1 + sum_k f_k^2) / 2, where f_k is the chance of winning
exactly on turn k.  The squared-pmf sum is the tie probability.

The sum is built in the (p, q) basis, q = 1 - p: a polynomial of degree at
most D is kept as its homogeneous coefficients c_j of p^j q^(D-j) (Bernstein
coefficients times binomials), packed into one integer with one w-bit slot
per j, slot j holding c_j.  In this basis:

* f_k is packed from its slots, ``coinrace.stopping.win_turn_slots``, which
  also builds the pmf;
* multiplying by p + q = 1 raises the degree by one: ``S + (S << w)``;
* B_e = (1 + 2^w)^e holds C(e, j) in slot j, so it is (p + q)^e = 1;
* 2I = (p + q)^(2m) + sum_(k=l..m) f_k^2 (p + q)^(2(m-k)), accumulated by
  Horner in (p + q)^2 from S = B_(l-1)^2, which the m - l + 1 turns raise to
  (p + q)^(2m): ``S = S + (S << (w+1)) + (S << 2w) + f_k^2``.

No slot of S ever carries or borrows.  Every packed value above has
nonnegative slots (the slots of f_k are binomials), and the slots of a
homogeneous form of degree e sum to its value at p = q = 1, which is 2^e
times its value at p = 1/2.  So the slots of 2I sum to 4^m * 2I(1/2) <= 2 * 4^m,
because I <= 1; every intermediate (f_k^2 <= 4^k, the start 4^(l-1), each
partial S after turn k <= 2 * 4^k and each of its shifted parts) is a sum of
nonnegative terms below that.  Slots of w = 8 * ((2m + 3) // 8 + 1) > 2m + 1
bits hold them, and whole-byte slots unpack in linear time through
``int.to_bytes``.

The win-turn masses must sum to 1.  A second Horner sum, in p + q, starts at
-B_(l-1) and adds f_k each turn, so it ends at sum_k f_k (p + q)^(m-k) - B_m.
Both of those packed forms have slots in [0, 2^w), so the sum is the integer
0 exactly when they are equal slot by slot.  It costs one add per turn and
checks every turn's slots.  The (p, q) coefficients of 2I must be even: they
are checked and halved once.  ``advantage_polynomial`` converts them to
monomials once; the minimizer and the evaluations at one bias read them as
they are.  Both basis changes are integer and unit triangular, so every
monomial coefficient of 2I is even exactly when every (p, q) coefficient is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import neg
from typing import NamedTuple, Optional, Sequence

from .game import GameParams, NormalizedParams, ParameterError, TurnBounds, normalize, parse_rational, turn_bounds
from .polynomial import Poly, from_homogeneous
from .stopping import ConsistencyError, win_turn_slots


class AdvantageResult(NamedTuple):
    params: NormalizedParams
    bounds: TurnBounds
    poly: Optional[Poly]  # None from _advantage, which builds only the (p, 1-p) form
    degenerate: bool  # True iff the advantage is identically 1 (l == m)
    # coefficients of p^j (1-p)^(2m-j) in the advantage, j = 0..2m
    homogeneous: tuple[int, ...]


def _doubled_advantage(params: NormalizedParams, bounds: TurnBounds) -> list[int]:
    """Homogeneous coefficients of 2I = 1 + sum_k f_k^2 in degree 2m (see the module docstring)."""
    m = bounds.m
    w = 8 * ((2 * m + 3) // 8 + 1)
    total = None
    for k in range(bounds.l, m + 1):
        j0, slots = win_turn_slots(k, params)
        top = 0
        for c in reversed(slots):
            top = (top << w) + c
        square, top = top * top << (2 * j0 * w), top << (j0 * w)
        if total is None:  # after the first turn's shifts, which overflow first on a game too large
            start = (1 + (1 << w)) ** (bounds.l - 1)
            total, telescoped = start * start, -start
        total += (total << (w + 1)) + (total << (2 * w)) + square
        telescoped += (telescoped << w) + top
    if telescoped:
        raise ConsistencyError(f"win-turn masses for {params} do not sum to 1")
    size = w // 8
    digits = total.to_bytes(size * (2 * m + 1), "little")
    return [int.from_bytes(digits[i : i + size], "little") for i in range(0, len(digits), size)]


def tie_probability(params: GameParams) -> Poly:
    """Probability both players need the same number of turns, as a polynomial."""
    a0, *rest = advantage_polynomial(params).poly.coeffs
    return Poly([2 * a0 - 1, *(2 * a for a in rest)])


def advantage_polynomial(params: GameParams) -> AdvantageResult:
    """Assemble the advantage polynomial: ``_advantage``'s checked (p, 1-p) form, converted to monomials once."""
    nparams, bounds, _, degenerate, homogeneous = _advantage(params)
    return AdvantageResult(nparams, bounds, Poly(from_homogeneous(homogeneous)), degenerate, homogeneous)


def _advantage(params: GameParams) -> AdvantageResult:
    """The advantage in the (p, 1-p) basis alone, its structural laws enforced; ``poly`` is None.

    The degenerate case is detected twice on purpose: structurally (l == m,
    every game ties in hit-time) and from the coefficients, which must be
    C(D, j), those of (p + (1-p))^D = 1, D = 2m.  Otherwise the degree must be
    D - 2.  Any disagreement, a wrong degree, or an odd (p, 1-p) coefficient
    of 2I indicates a construction bug and aborts.  The monomial coefficient
    of p^(D-r) is (-1)^r sum_j z_j C(D-j, r), z_j = (-1)^(D-j) c_j = (-1)^j c_j
    as D is even: for r = 0, 1, 2, the last running sum P_D of z, the sum of
    P_0..P_(D-1), and the sum of their running sums up to D - 2.
    """
    nparams = normalize(params)
    bounds = turn_bounds(nparams)
    degenerate = bounds.l == bounds.m
    doubled = _doubled_advantage(nparams, bounds)
    for j, c in enumerate(doubled):
        if c & 1:
            raise ConsistencyError(
                f"advantage has a non-integer coefficient at p^{j} (1-p)^{2 * bounds.m - j} for {nparams}"
            )
    homogeneous = tuple(c >> 1 for c in doubled)
    d = 2 * bounds.m
    if degenerate:
        if homogeneous != tuple(comb(d, j) for j in range(d + 1)):
            raise ConsistencyError(f"single-turn game (l=m={bounds.l}) must have advantage 1")
    else:
        z = list(homogeneous)
        z[1::2] = map(neg, z[1::2])
        running = list(accumulate(z))
        if running[d] or sum(running[:d]) or not sum(accumulate(running[: d - 1])):
            raise ConsistencyError(f"advantage degree is not 2m-2 = {d - 2} for {nparams}")
    return AdvantageResult(nparams, bounds, None, degenerate, homogeneous)


def _value_at(c: Sequence[int], x: Fraction) -> Fraction:
    """Exact value of sum_j c_j p^j (1-p)^(D-j) at p = x in [0, 1], normalized once."""
    u, v = x.numerator, x.denominator
    return Fraction(_form(c, u, v - u), v ** (len(c) - 1))


def _form(c: Sequence[int], u: int, w: int) -> int:
    """The integer sum_j c_j u^j w^(D-j), D = len(c) - 1: the form at p = u / (u + w) times (u + w)^D.

    Each half of the coefficients is summed on its own and the two are joined
    by a power of w and one of u, down to Horner sums of at most 16 terms.
    The halves of a level differ in length by at most one, so each power is
    taken once, and the products at the top are balanced.
    """
    power = cache(pow)

    def part(lo: int, hi: int) -> int:  # sum_(j=lo..hi-1) c_j u^(j-lo) w^(hi-1-j)
        if hi - lo <= 16:
            acc, scale = c[hi - 1], 1
            for j in range(hi - 2, lo - 1, -1):
                scale *= w
                acc = acc * u + c[j] * scale
            return acc
        mid = (lo + hi) // 2
        return part(lo, mid) * power(w, hi - mid) + part(mid, hi) * power(u, mid - lo)

    return part(0, len(c))


def advantage_at(params: GameParams, p: int | Fraction) -> Fraction:
    """Exact winning probability of the first player at coin bias p."""
    p = parse_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError("p must be in [0, 1]")
    return _value_at(_advantage(params).homogeneous, p)
