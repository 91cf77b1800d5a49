"""Exact univariate integer polynomials: a value type, and the (p, 1-p) basis.

A polynomial is a dense, ascending sequence of Python ``int`` coefficients:
``Poly((1, -2, 1))`` is ``1 - 2p + p^2``.  Every polynomial of the game has
integer coefficients; a coefficient that is not an integer (a ``Fraction`` or
``float``) raises ``TypeError``.  A ``Poly`` is built, compared with another
``Poly``, evaluated at a rational point as an exact ``Fraction``,
differentiated and rendered; it defines no arithmetic.  Trailing zero
coefficients are stripped on construction; the zero polynomial stores no
coefficients and has degree ``None``.  Instances are immutable and safe to
share between threads.

The game's polynomials are built in the (p, 1-p) basis, whose arithmetic is
all here: both conversions, the read-off of the top monomial coefficients and
the exact value at a point.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import index, neg
from typing import Iterable, Iterator, Sequence


class Poly:
    """Immutable univariate polynomial with exact integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[int, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending ``int`` coefficients with no trailing zeros (empty for zero)."""
        return self._coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact value at ``x`` = u/v: sum_i c_i u^i v^(D-i) by integer Horner, over v^D once."""
        cs = self._coeffs
        if not cs:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        acc, scale = cs[-1], 1
        for c in reversed(cs[:-1]):
            scale *= v
            acc = acc * u + c * scale
        return Fraction(acc, scale)

    def derivative(self) -> Poly:
        return Poly(i * c for i, c in enumerate(self._coeffs) if i)

    def __repr__(self) -> str:
        # through Decimal, as in render: a tuple's repr stops at the int digit cap (4300 digits)
        body = ", ".join(str(Decimal(c)) for c in self._coeffs)
        return f"Poly(({body}{',' if len(self._coeffs) == 1 else ''}))"

    def __str__(self) -> str:
        return render(self)


ONE = Poly((1,))


def binomial(n: int, r: int) -> int:
    """Binomial coefficient C(n, r); zero whenever r < 0 or r > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if r < 0 or r > n:
        return 0
    return comb(n, r)


def _shift(c: list[int]) -> Iterator[int]:
    """Taylor shift by one of ``c``: each pass takes running sums, then pops and yields the last, which is final."""
    while c:
        c = list(accumulate(c))
        yield c.pop()


def to_homogeneous(coeffs: Iterable[int], degree: int) -> list[int]:
    """Coefficients c_j of p^j (1-p)^(degree-j) for ascending monomial ``coeffs``.

    Writing each p^i as p^i (p + (1-p))^(degree-i) is the classic Taylor shift
    by one of the reversed list (``_shift``).  Raises ``ValueError`` when the
    polynomial's degree exceeds ``degree``; trailing zeros do not count.
    """
    c = list(Poly(coeffs).coeffs)
    if len(c) > degree + 1:
        raise ValueError(f"a polynomial of degree {len(c) - 1} has no form of degree {degree}")
    c += [0] * (degree + 1 - len(c))
    return list(_shift(c))[::-1]


def _inverse_shift(c: Iterable[int]) -> Iterator[int]:
    """(-1)^i times the monomial coefficient of p^i in sum_j c_j p^j (1-p)^(D-j), for i = D, D-1, ..., 0.

    The inverse shift subtracts where ``to_homogeneous`` adds; negating the
    odd-indexed c_j turns it into the same running sums, one O(D) pass each.
    """
    alt = list(c)
    alt[1::2] = map(neg, alt[1::2])
    return _shift(alt)


def from_homogeneous(c: Iterable[int]) -> list[int]:
    """Ascending monomial coefficients of sum_j c_j p^j (1-p)^(D-j); inverts ``to_homogeneous``."""
    out = list(_inverse_shift(c))[::-1]
    out[1::2] = map(neg, out[1::2])
    return out


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


def render(poly: Poly, latex: bool = False) -> str:
    """Human-readable form, ascending powers with explicit signs.

    ``render(Poly((1, -2, 5, -4, 1)))`` gives ``"1 - 2p + 5p^2 - 4p^3 + p^4"``.
    LaTeX mode braces exponents and adds thousands separators.  Coefficients
    are written through ``Decimal``, which has no cap on the digits of an int.
    """
    if not poly:
        return "0"
    parts: list[str] = []
    for power, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        mag = f"{Decimal(abs(c)):,}" if latex else str(Decimal(abs(c)))
        if power == 0:
            term = mag
        else:
            head = "" if abs(c) == 1 else mag
            if power == 1:
                term = f"{head}p"
            elif latex:
                term = f"{head}p^{{{power}}}"
            else:
                term = f"{head}p^{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
