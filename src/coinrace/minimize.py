"""Exact minimization of the advantage over [0, 1] and the limiting optimal bias.

The advantage polynomial can reach degree 2m - 2 with coefficients in the
millions, where floating-point root finding is untrustworthy, so every root
of its derivative is located with exact integer arithmetic:

1. write I' in the (p, 1-p) basis: from the advantage's homogeneous
   coefficients c_j of p^j (1-p)^(D-j), those of I' are
   e_i = (i+1) c_(i+1) - (D-i) c_i, the p- minus the (1-p)-derivative;
2. isolate its roots in (0, 1) by Bernstein subdivision.  Substituting
   p = 1/(1+y) maps sum_i e_i p^i (1-p)^(d-i) to (1+y)^-d sum_i e_i y^(d-i),
   so the roots in (0, 1) are the positive roots of a polynomial whose
   coefficients are the e_i, and by Descartes' rule of signs their sign
   variations bound the number of roots in (0, 1), counted with
   multiplicity, with an even excess.  No Taylor shift is needed: 0
   variations prove a node rootless, 1 proves one simple root, and otherwise
   one de Casteljau triangle splits the node in two (unimodality is never
   assumed).  A multiple root keeps at least two variations, so only when
   subdivision gets deep is the squarefree part taken (modular gcd
   certificate with an exact rational-gcd fallback) and the isolation rerun;
3. shrink each isolated bracket to the requested width by sign-change
   bisection at dyadic rationals, evaluating I' in pure integer arithmetic.

Only the final reported minimizer is rounded to a float; candidate values are
exact rationals from the same integer evaluation, compared with ties broken
toward smaller p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Optional, Sequence

from .advantage import AdvantageResult, advantage_at, advantage_polynomial
from .game import GameParams, ParameterError, parse_rational
from .polynomial import Poly, to_homogeneous
from .stopping import ConsistencyError

_ISOLATION_DEPTH_CAP = 128


@dataclass(frozen=True)
class MinimizationResult:
    """Location and value of the advantage minimum over [0, 1]."""

    degenerate: bool
    bias: Optional[float]  # minimizing p; None when the advantage is constant 1
    value: float
    value_exact: Fraction
    bracket: Optional[tuple[Fraction, Fraction]]  # width <= tol, straddles the root
    tol: float
    tie: bool = False  # another critical point attained exactly the same value


@dataclass(frozen=True)
class AsymptoticOptimum:
    """Large-target limit of the minimizing bias, determined by t = alpha/beta."""

    t: Fraction
    bias: float
    variance: float  # limiting_variance evaluated at the bias


def minimize_advantage(params: GameParams, tol: float = 1e-9) -> MinimizationResult:
    """Global minimizer of the advantage polynomial on [0, 1].

    Every critical point in (0, 1) is bracketed to width ``tol`` and the
    advantage is compared exactly at all bracket midpoints and both
    endpoints.  Degenerate games (advantage identically 1) short-circuit.
    """
    _check_tol(tol)
    return _minimize(advantage_polynomial(params), tol)


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol) or tol <= 0:
        raise ParameterError("tol must be finite and > 0")


def _minimize(adv: AdvantageResult, tol: float) -> MinimizationResult:
    """``minimize_advantage`` on an already built polynomial; the caller checks ``tol``."""
    if adv.degenerate:
        return MinimizationResult(
            degenerate=True,
            bias=None,
            value=1.0,
            value_exact=Fraction(1),
            bracket=None,
            tol=tol,
        )
    # I' in the (p, 1-p) basis of degree 2m - 1, from I's coefficients in degree 2m
    c = adv.homogeneous
    d = len(c) - 1
    slopes = [(i + 1) * c[i + 1] - (d - i) * c[i] for i in range(d)]
    brackets = _isolate(list(adv.poly.derivative().coeffs), slopes, Fraction(tol))
    coeffs = adv.poly.coeffs
    candidates: list[tuple[Fraction, Fraction, Optional[tuple[Fraction, Fraction]]]] = [
        (_value_at(coeffs, Fraction(0)), Fraction(0), None),
        (_value_at(coeffs, Fraction(1)), Fraction(1), None),
    ]
    for lo, hi in brackets:
        point = (lo + hi) / 2
        candidates.append((_value_at(coeffs, point), point, (lo, hi)))
    best_value, best_point, best_bracket = min(candidates, key=lambda c: (c[0], c[1]))
    if best_bracket is None:
        raise ConsistencyError(
            f"no interior critical point beats the endpoints for {adv.params}; "
            "a non-degenerate advantage must dip below 1 inside (0, 1)"
        )
    tie = sum(1 for value, _, _ in candidates if value == best_value) > 1
    return MinimizationResult(
        degenerate=False,
        bias=float(best_point),
        value=float(best_value),
        value_exact=best_value,
        bracket=best_bracket,
        tol=tol,
        tie=tie,
    )


def asymptotic_optimum(alpha, beta) -> AsymptoticOptimum:
    """Limiting optimal bias 1 + t - sqrt(1 + t + t^2), with t = alpha/beta.

    Evaluated as t / (1 + t + sqrt(1 + t + t^2)), which is algebraically the
    same but avoids the cancellation of the direct form for large t.
    """
    a, b = parse_rational(alpha), parse_rational(beta)
    if a <= 0 or b <= 0:
        raise ParameterError("alpha and beta must be > 0")
    t = a / b
    tf = float(t)
    bias = tf / (1 + tf + math.sqrt(1 + tf + tf * tf))
    return AsymptoticOptimum(t=t, bias=bias, variance=limiting_variance(bias, a, b))


def limiting_variance(p: float, alpha, beta) -> float:
    """(alpha + beta*p)^3 / (beta^2 * p * (1-p)); the scale whose minimum sets the limit bias."""
    a, b = float(parse_rational(alpha)), float(parse_rational(beta))
    if a <= 0 or b <= 0:
        raise ParameterError("alpha and beta must be > 0")
    if not 0 < p < 1:
        raise ParameterError("p must be strictly inside (0, 1)")
    return (a + b * p) ** 3 / (b * b * p * (1 - p))


def advantage_at_asymptotic(params: GameParams) -> float:
    """Exact advantage evaluated at the limiting optimal bias.

    A good stand-in for the true finite-game minimum once the target is
    moderately large.  The float bias converts exactly to a rational, so the
    polynomial evaluation itself stays exact.
    """
    optimum = asymptotic_optimum(params.alpha, params.beta)
    return float(advantage_at(params, Fraction(optimum.bias)))


def _at_limit_bias(adv: AdvantageResult) -> float:
    """``advantage_at_asymptotic`` on an already built polynomial."""
    optimum = asymptotic_optimum(adv.params.alpha, adv.params.beta)
    return float(_value_at(adv.poly.coeffs, Fraction(optimum.bias)))


# ---------------------------------------------------------------------------
# Exact root isolation of an integer polynomial on (0, 1), in the (p, 1-p) basis.
#
# A work item (b, a, s) holds integer Bernstein coefficients b of the polynomial
# restricted to (a/2^s, (a+1)/2^s), rescaled to (0, 1); b_j times C(d, j) are
# its homogeneous coefficients, with the same signs.  Zeros at 0, at 1 and at
# every split midpoint are stripped off as factors p or 1-p of the homogeneous
# form, so no node polynomial vanishes at an end of its interval.
# ---------------------------------------------------------------------------

# Subdivision deeper than this first takes the squarefree part: a multiple
# root keeps two or more sign variations at every depth.  Distinct roots need
# depth about log2(1/separation), well under this for the advantage's
# derivatives, so they never pay for the certificate.
_SQUAREFREE_DEPTH = 16


def _isolate_unit_interval_roots(
    dpoly: Poly, tol: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint brackets in (0, 1), one per distinct root of dpoly, width <= tol."""
    coeffs = _integer_coeffs(dpoly)
    if len(coeffs) <= 1:
        return []
    return _isolate(coeffs, to_homogeneous(coeffs, len(coeffs) - 1), tol)


def _isolate(
    monomial: list[int], homogeneous: list[int], tol: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Brackets of the distinct roots in (0, 1) of one polynomial given in both bases.

    ``homogeneous`` may have any degree at least that of ``monomial``.  The
    squarefree part is computed only when subdivision gets deeper than
    ``_SQUAREFREE_DEPTH``; the isolation then reruns on it.
    """
    brackets = _subdivide(monomial, homogeneous, tol, _SQUAREFREE_DEPTH)
    if brackets is None:
        sf = _squarefree_part(monomial)
        brackets = _subdivide(sf, to_homogeneous(sf, len(sf) - 1), tol, _ISOLATION_DEPTH_CAP)
        if brackets is None:
            raise ConsistencyError("root isolation failed to separate roots")
    return brackets


def _subdivide(
    monomial: list[int], homogeneous: list[int], tol: Fraction, max_depth: int
) -> Optional[list[tuple[Fraction, Fraction]]]:
    """Isolate by Bernstein subdivision; None if a node deeper than max_depth needs splitting."""
    b = _bernstein(homogeneous)
    if len(b) <= 1:
        return []
    out: list[tuple[Fraction, Fraction]] = []
    stack: list[tuple[list[int], int, int]] = [(b, 0, 0)]
    while stack:
        b, a, s = stack.pop()
        v = _sign_variations(b)
        if v == 0:
            continue
        if v == 1:
            out.append(_bisect(monomial, a, s, _sign(b[0]), _sign(b[-1]), tol))
            continue
        if s >= max_depth:
            return None
        left, right = _split(b)
        if right[0] == 0:
            mid = Fraction(2 * a + 1, 1 << (s + 1))
            out.append((mid, mid))
            left, right = _deflate(left), _deflate(right)
        stack.append((left, 2 * a, s + 1))
        stack.append((right, 2 * a + 1, s + 1))
    return sorted(out)


def _bernstein(c: list[int]) -> list[int]:
    """Primitive integer Bernstein coefficients of homogeneous c, zero ends stripped.

    Each zero end coefficient is a factor p or 1-p.  The rest are divided by
    C(d, j) after scaling by lcm_j C(d, j) = lcm(1, ..., d+1) / (d+1).
    """
    lo, hi = 0, len(c)
    while lo < hi and c[lo] == 0:
        lo += 1
    while hi > lo and c[hi - 1] == 0:
        hi -= 1
    c = c[lo:hi]
    d = len(c) - 1
    if d <= 0:
        return c
    scale = lcm(*range(1, d + 2)) // (d + 1)
    return _primitive([x * (scale // binom) for x, binom in zip(c, _binomials(d))])


def _deflate(b: list[int]) -> list[int]:
    """Bernstein coefficients with the zero ends (roots at 0 or 1) divided out."""
    return _bernstein(list(map(mul, b, _binomials(len(b) - 1))))


def _binomials(d: int) -> list[int]:
    """C(d, 0), ..., C(d, d)."""
    row = [1]
    for j in range(d):
        row.append(row[-1] * (d - j) // (j + 1))
    return row


def _split(b: list[int]) -> tuple[list[int], list[int]]:
    """Integer Bernstein coefficients of both halves, by one de Casteljau triangle.

    Row r of the triangle holds sum_i C(r, i) b_(j+i), 2^r times the de
    Casteljau row at 1/2; the halves' true coefficients are row[r][0] / 2^r
    and row[r][-1] / 2^r, so both are scaled by 2^d.
    """
    d = len(b) - 1
    row = b
    left, right = [], []
    for r in range(d + 1):
        left.append(row[0] << (d - r))
        right.append(row[-1] << (d - r))
        row = list(map(add, row, row[1:]))
    right.reverse()
    return _primitive(left), _primitive(right)


def _bisect(
    monomial: list[int], a: int, s: int, sign_lo: int, sign_hi: int, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink the node (a/2^s, (a+1)/2^s) around its one simple root to width tol.

    ``sign_lo`` is the polynomial's sign just right of the left end.  Midpoints
    are dyadic and strictly inside the node, so they are never stripped roots.
    """
    if sign_lo * sign_hi != -1:
        raise ConsistencyError("isolated bracket must straddle a sign change")
    lo, hi = Fraction(a, 1 << s), Fraction(a + 1, 1 << s)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        sm = _sign(_dyadic_value(monomial, mid)[0])
        if sm == 0:
            return mid, mid
        if sm == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _dyadic_value(c: Sequence[int], x: Fraction) -> tuple[int, int]:
    """(numerator, shift) with c(x) = numerator / 2^shift, for dyadic x = u / 2^v."""
    u = x.numerator
    v = x.denominator.bit_length() - 1
    d = len(c) - 1
    acc = c[-1]
    for i in range(d - 1, -1, -1):
        acc = acc * u + (c[i] << (v * (d - i)))
    return acc, v * d


def _value_at(c: Sequence[int], x: Fraction) -> Fraction:
    """Exact c(x) at a dyadic x (every float is one), normalized once."""
    numerator, shift = _dyadic_value(c, x)
    return Fraction(numerator, 1 << shift)


def _sign_variations(c: list[int]) -> int:
    count = 0
    last = 0
    for x in c:
        s = _sign(x)
        if s and last and s != last:
            count += 1
        if s:
            last = s
    return count


def _integer_coeffs(poly: Poly) -> list[int]:
    if poly.is_zero():
        return []
    den = 1
    for c in poly.coeffs:
        den = lcm(den, c.denominator)
    return [int(c * den) for c in poly.coeffs]


def _primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            return c
    return [x // g for x in c] if g > 1 else list(c)


def _int_derivative(c: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


_CERTIFICATE_PRIMES = (2147483647, 998244353, 999999937)


def _squarefree_part(c: list[int]) -> list[int]:
    """Primitive polynomial with the same distinct roots as c.

    A gcd with the derivative that is constant modulo any prime not dividing
    the leading coefficients certifies squarefreeness outright; otherwise the
    exact rational gcd is divided out.
    """
    d = _int_derivative(c)
    for prime in _CERTIFICATE_PRIMES:
        deg = _gcd_degree_mod(c, d, prime)
        if deg == 0:
            return _primitive(c)
    g = _fraction_gcd(c, d)
    if len(g) == 1:
        return _primitive(c)
    quotient, remainder = _fraction_divmod([Fraction(x) for x in c], g)
    if any(r != 0 for r in remainder):
        raise ConsistencyError("squarefree division left a remainder")
    return _primitive(_integer_coeffs(Poly(quotient)))


def _gcd_degree_mod(a: list[int], b: list[int], prime: int) -> Optional[int]:
    if a[-1] % prime == 0 or b[-1] % prime == 0:
        return None
    fa = [x % prime for x in a]
    fb = [x % prime for x in b]
    while any(fb):
        while fb and fb[-1] == 0:
            fb.pop()
        if not fb:
            break
        fa = _mod_rem(fa, fb, prime)
        fa, fb = fb, fa
    while fa and fa[-1] == 0:
        fa.pop()
    return len(fa) - 1


def _mod_rem(a: list[int], b: list[int], prime: int) -> list[int]:
    a = list(a)
    inv = pow(b[-1], -1, prime)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        factor = a[i] * inv % prime
        if factor:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - factor * b[j]) % prime
    return a[:db]


def _fraction_gcd(a_int: list[int], b_int: list[int]) -> list[Fraction]:
    a = [Fraction(x) for x in a_int]
    b = [Fraction(x) for x in b_int]
    while any(c != 0 for c in b):
        _, r = _fraction_divmod(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
        if b:
            lead = b[-1]
            b = [c / lead for c in b]
    return a


def _fraction_divmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        factor = a[i] / b[-1]
        if factor:
            q[i - db] = factor
            for j in range(db + 1):
                a[i - db + j] -= factor * b[j]
    return q, a[:db]
