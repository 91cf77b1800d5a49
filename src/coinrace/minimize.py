"""Exact minimization of the advantage over [0, 1] and the limiting optimal bias.

The advantage polynomial can reach degree 2m - 2 with coefficients in the
millions, where floating-point root finding is untrustworthy, so every root
of its derivative is located with exact integer arithmetic:

1. take the squarefree part of the derivative (modular gcd certificate with
   an exact rational-gcd fallback), so all sign changes are honest;
2. isolate the roots in (0, 1) by recursive interval subdivision, counting
   sign variations of the interval-transformed coefficients to certify when a
   subinterval holds no root or exactly one (unimodality is never assumed);
3. shrink each isolated bracket to the requested width by sign-change
   bisection at dyadic rationals, evaluated in pure integer arithmetic.

Only the final reported minimizer is rounded to a float; candidate values are
compared as exact rationals, with ties broken toward smaller p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .advantage import AdvantageResult, advantage_at, advantage_polynomial
from .game import GameParams, ParameterError, parse_rational
from .polynomial import Poly
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
    brackets = _isolate_unit_interval_roots(adv.poly.derivative(), Fraction(tol))
    candidates: list[tuple[Fraction, Fraction, Optional[tuple[Fraction, Fraction]]]] = [
        (adv.poly(Fraction(0)), Fraction(0), None),
        (adv.poly(Fraction(1)), Fraction(1), None),
    ]
    for lo, hi in brackets:
        point = (lo + hi) / 2
        candidates.append((adv.poly(point), point, (lo, hi)))
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
    return float(adv.poly(Fraction(optimum.bias)))


# ---------------------------------------------------------------------------
# Exact root isolation of an integer polynomial on (0, 1).
#
# A work item (c, a, s) is an integer coefficient list c whose roots x in
# (0, 1) correspond to roots (a + x) / 2^s of the squarefree part; its
# interval is (a/2^s, (a+1)/2^s).  Node polynomials never vanish at x = 0 or
# x = 1: dyadic roots are reported exactly and divided out when discovered.
# ---------------------------------------------------------------------------


def _isolate_unit_interval_roots(
    dpoly: Poly, tol: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint brackets in (0, 1), one per distinct root of dpoly, width <= tol."""
    coeffs = _integer_coeffs(dpoly)
    if len(coeffs) <= 1:
        return []
    sf = _squarefree_part(coeffs)
    while sf and sf[0] == 0:
        sf = sf[1:]
    while len(sf) > 1 and sum(sf) == 0:
        sf = _deflate_root_at_one(sf)
    if len(sf) <= 1:
        return []
    out: list[tuple[Fraction, Fraction]] = []
    stack: list[tuple[list[int], int, int]] = [(sf, 0, 0)]
    while stack:
        c, a, s = stack.pop()
        if s > _ISOLATION_DEPTH_CAP:
            raise ConsistencyError("root isolation failed to separate roots")
        v = _sign_variations(_taylor_shift_one(list(reversed(c))))
        if v == 0:
            continue
        if v == 1:
            out.append(_refine_bracket(c, a, s, tol))
            continue
        d = len(c) - 1
        left = _primitive([ci << (d - i) for i, ci in enumerate(c)])
        right = _taylor_shift_one(list(left))
        if right[0] == 0:
            mid = Fraction(2 * a + 1, 1 << (s + 1))
            out.append((mid, mid))
            right = right[1:]
            left = _deflate_root_at_one(left)
        stack.append((left, 2 * a, s + 1))
        stack.append((_primitive(right), 2 * a + 1, s + 1))
    return sorted(out)


def _refine_bracket(
    c: list[int], a: int, s: int, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect the single root of c in (0, 1) down to width tol in game coordinates."""
    sign_lo = _sign(c[0])
    sign_hi = _sign(sum(c))
    if sign_lo == 0 or sign_hi == 0 or sign_lo == sign_hi:
        raise ConsistencyError("isolated bracket must straddle a sign change")
    lo, hi = Fraction(0), Fraction(1)
    target = tol * (1 << s)
    while hi - lo > target:
        mid = (lo + hi) / 2
        sm = _sign_at_dyadic(c, mid)
        if sm == 0:
            lo = hi = mid
            break
        if sm == sign_lo:
            lo = mid
        else:
            hi = mid
    scale = 1 << s
    return (a + lo) / scale, (a + hi) / scale


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_at_dyadic(c: list[int], x: Fraction) -> int:
    # x = u / 2^v; computes sign of 2^(v*d) * c(x) in pure integer arithmetic.
    u = x.numerator
    v = x.denominator.bit_length() - 1
    d = len(c) - 1
    acc = c[-1]
    for i in range(d - 1, -1, -1):
        acc = acc * u + (c[i] << (v * (d - i)))
    return _sign(acc)


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


def _taylor_shift_one(c: list[int]) -> list[int]:
    # In-place classic O(d^2) shift: returns coefficients of c(x + 1).
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _deflate_root_at_one(c: list[int]) -> list[int]:
    # Exact synthetic division by (x - 1); requires sum(c) == 0.
    d = len(c) - 1
    out = [0] * d
    out[d - 1] = c[d]
    for i in range(d - 1, 0, -1):
        out[i - 1] = c[i] + out[i]
    if c[0] + out[0] != 0:
        raise ConsistencyError("deflation at 1 applied to a non-root")
    return out


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
