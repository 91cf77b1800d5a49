"""First player's winning probability as an exact polynomial in the coin bias.

Both players' winning turns are independent with the same distribution, and
the first mover wins ties in hit-time, so the first player wins with
probability (1 + sum_k P(win turn = k)^2) / 2.  The squared-pmf sum is the
tie probability; halving (1 + tie) gives the advantage.

The tie sum is computed by Kronecker substitution.  Every f_k has integer
coefficients, so evaluating it at x = 2^b packs its coefficients into one big
integer, one b-bit slot each.  Squaring that integer (CPython multiplies big
integers by Karatsuba) and adding the squares gives the tie sum evaluated at
2^b, and its coefficients come back out of the slots as long as each one fits.
The slot width is proven from a bound on the result: coefficient j of f^2 is
sum_i a_i a_(j-i), at most ||f||_1^2 in absolute value, so every coefficient
of the tie sum, and every input coefficient, lies within
B = sum_k ||f_k||_1^2.  Slots of at least B.bit_length() + 1 bits hold them
as balanced (signed) digits.  Slots are whole bytes, so packing and unpacking
are linear-time conversions through ``int.to_bytes``/``int.from_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .game import GameParams, NormalizedParams, ParameterError, TurnBounds, normalize, parse_rational, turn_bounds
from .polynomial import ONE, Poly
from .stopping import ConsistencyError, hit_time_distribution


@dataclass(frozen=True)
class AdvantageResult:
    params: NormalizedParams
    bounds: TurnBounds
    poly: Poly
    degenerate: bool  # True iff the advantage is identically 1 (l == m)


def _sum_of_squares(polys: Iterable[Poly]) -> Poly:
    """sum_k f_k^2 for integer polynomials f_k, by Kronecker substitution."""
    rows = []
    for f in polys:
        if not f.is_integral():
            raise ConsistencyError(f"tie sum of a non-integer polynomial: {f!r}")
        rows.append(f.coeffs)
    # |coefficient of sum_k f_k^2| <= sum_k ||f_k||_1^2; one spare bit for the sign.
    bound = sum(sum(map(abs, row)) ** 2 for row in rows)
    width = bound.bit_length() // 8 + 1  # bytes that hold bound.bit_length() + 1 bits
    total = 0
    for row in rows:
        pos = b"".join(max(c, 0).to_bytes(width, "little") for c in row)
        neg = b"".join(max(-c, 0).to_bytes(width, "little") for c in row)
        packed = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
        total += packed * packed
    length = max((2 * len(row) - 1 for row in rows if row), default=0)
    # Adding half a slot to every slot makes each digit nonnegative, so the
    # slots read off as plain unsigned bytes with no borrows between them.
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * length, "little")
    digits = (total + offset).to_bytes(width * length, "little")
    return Poly(
        int.from_bytes(digits[i : i + width], "little") - half
        for i in range(0, len(digits), width)
    )


def tie_probability(params: GameParams) -> Poly:
    """Probability both players need the same number of turns, as a polynomial."""
    return _sum_of_squares(hit_time_distribution(normalize(params)).pmf.values())


def advantage_polynomial(params: GameParams) -> AdvantageResult:
    """Assemble the advantage polynomial and enforce its structural laws.

    The degenerate case is detected twice on purpose: structurally (l == m,
    every game ties in hit-time) and from the assembled polynomial.  Any
    disagreement, a wrong degree, or a non-integer coefficient indicates a
    construction bug and aborts.
    """
    nparams = normalize(params)
    bounds = turn_bounds(nparams)
    degenerate = bounds.l == bounds.m
    dist = hit_time_distribution(nparams)
    doubled = (_sum_of_squares(dist.pmf.values()) + 1).coeffs
    odd = [j for j, c in enumerate(doubled) if c & 1]
    if odd:
        raise ConsistencyError(
            f"advantage has a non-integer coefficient at p^{odd[0]} for {nparams}"
        )
    poly = Poly(c >> 1 for c in doubled)
    if degenerate:
        if poly != ONE:
            raise ConsistencyError(
                f"single-turn game (l=m={bounds.l}) must have advantage 1, got {poly}"
            )
    else:
        expected = 2 * bounds.m - 2
        if poly.degree != expected:
            raise ConsistencyError(
                f"advantage degree {poly.degree} != 2m-2 = {expected} for {nparams}"
            )
    return AdvantageResult(nparams, bounds, poly, degenerate)


def advantage_at(params: GameParams, p: int | Fraction) -> Fraction:
    """Exact winning probability of the first player at coin bias p."""
    p = parse_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError("p must be in [0, 1]")
    return advantage_polynomial(params).poly(p)
