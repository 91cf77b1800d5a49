"""Game parameters, validation, normalization and turn-count bounds.

A game instance is the triple (n, alpha, beta): players alternate tossing a
coin with heads probability p, a turn scores alpha for tails and alpha + beta
for heads, and the first player to accumulate n points wins (the player who
moves first wins ties).  Parameters are restricted to positive rationals so
that every ceiling below is computed exactly; irrational parameters are out
of scope.

All threshold arithmetic depends on the parameters only through their ratios,
so every triple is normalized to coprime positive integers before analysis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

RationalLike = Union[int, str, Fraction]


class ParameterError(ValueError):
    """A user-supplied parameter is outside its allowed domain."""


def parse_rational(text: RationalLike) -> Fraction:
    """Parse ``"a"``, ``"a/b"`` or a finite decimal string such as ``"2.5"``.

    Numbers convert exactly; NaN and infinities raise ``ParameterError``.
    """
    try:
        return Fraction(text)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a valid rational: {text!r}") from exc


class _GameFields(NamedTuple):  # a NamedTuple body cannot define __new__, so GameParams subclasses it
    n: Fraction
    alpha: Fraction
    beta: Fraction


class GameParams(_GameFields):
    """Points needed to win, points per tail, bonus points per head."""

    __slots__ = ()

    def __new__(cls, n: RationalLike, alpha: RationalLike, beta: RationalLike) -> GameParams:
        return super().__new__(cls, parse_rational(n), parse_rational(alpha), parse_rational(beta))

    @classmethod
    def _make(cls, iterable) -> GameParams:  # so that _replace parses its fields too
        return cls(*iterable)


class NormalizedParams(NamedTuple):
    """Integer game parameters with gcd(n, alpha, beta) = 1."""

    n: int
    alpha: int
    beta: int


class TurnBounds(NamedTuple):
    """Support of the win-turn count: l = ceil(n/(alpha+beta)), m = ceil(n/alpha)."""

    l: int
    m: int


def validate(params: GameParams) -> GameParams:
    """Return ``params`` unchanged if all three values are strictly positive.

    A Fraction's denominator is positive, so its numerator carries its sign.
    """
    for name, value in zip(params._fields, params):
        if value.numerator <= 0:
            raise ParameterError(f"{name} must be > 0")
    return params


def normalize(params: GameParams) -> NormalizedParams:
    """Scale a valid triple to coprime positive integers.

    Multiplying (n, alpha, beta) by any positive rational leaves the game
    unchanged, so clear the denominators with their lcm and hand the integer
    triple to ``coprime``.  No Fraction arithmetic is done.
    """
    validate(params)
    n, a, b = params
    scale = lcm(n.denominator, a.denominator, b.denominator)
    return coprime(n.numerator * (scale // n.denominator),
                   a.numerator * (scale // a.denominator),
                   b.numerator * (scale // b.denominator))


def coprime(n: int, alpha: int, beta: int) -> NormalizedParams:
    """The game of the positive integers (n, alpha, beta), with their gcd divided out."""
    g = gcd(n, alpha, beta)
    return NormalizedParams(n // g, alpha // g, beta // g)


def turn_bounds(params: NormalizedParams) -> TurnBounds:
    """Minimum and maximum turn counts on which the target can be reached.

    Fewer than l = ceil(n/(alpha+beta)) turns cannot score n points even with
    all heads; after m = ceil(n/alpha) turns the target is reached even with
    all tails.
    """
    return TurnBounds(-(-params.n // (params.alpha + params.beta)), -(-params.n // params.alpha))

