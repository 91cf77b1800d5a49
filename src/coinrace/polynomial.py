"""Exact univariate integer polynomials: a value type, evaluated exactly.

A polynomial is a dense, ascending sequence of Python ``int`` coefficients:
``Poly((1, -2, 1))`` is ``1 - 2p + p^2``.  Every polynomial of the game has
integer coefficients; a coefficient that is not an integer (a ``Fraction`` or
``float``) raises ``TypeError``.  A ``Poly`` is built, compared with another
``Poly``, evaluated at a rational point as an exact ``Fraction``,
differentiated and rendered; it defines no arithmetic.  Trailing zero
coefficients are stripped on construction; the zero polynomial stores no
coefficients and has degree ``None``.  Instances are immutable and safe to
share between threads.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import index, neg
from typing import Iterable


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


def to_homogeneous(coeffs: Iterable[int], degree: int) -> list[int]:
    """Coefficients c_j of p^j (1-p)^(degree-j) for ascending monomial ``coeffs``.

    Writing each p^i as p^i (p + (1-p))^(degree-i) is the classic O(degree^2)
    Taylor shift by one of the reversed list: every pass replaces the list with
    its running sums, whose last entry is final and is popped off, so each pass
    is one entry shorter.  The popped entries come out from the top down.
    """
    c = list(coeffs)
    c += [0] * (degree + 1 - len(c))
    out = []
    while c:
        c = list(accumulate(c))
        out.append(c.pop())
    return out[::-1]


def from_homogeneous(c: Iterable[int]) -> list[int]:
    """Ascending monomial coefficients of sum_j c_j p^j (1-p)^(D-j); inverts ``to_homogeneous``.

    The inverse shift subtracts where ``to_homogeneous`` adds; negating the
    odd-indexed entries before and after turns it into the same running sums.
    """
    alt = list(c)
    alt[1::2] = map(neg, alt[1::2])
    out = to_homogeneous(alt, len(alt) - 1)
    out[1::2] = map(neg, out[1::2])
    return out


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
