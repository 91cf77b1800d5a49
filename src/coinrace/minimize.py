"""Exact minimization of the advantage over [0, 1] and the limiting optimal bias.

The advantage polynomial can reach degree 2m - 2 with coefficients in the
millions, where floating-point root finding is untrustworthy, so the roots
of its derivative are located by exact decisions: a sign is read in low
precision only where an error bound certifies it, and in integers otherwise.

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
   assumed).  A root at 0, 1 or a split midpoint shows as zero end
   coefficients of the nodes it bounds, and signs are read past them, so no
   root is divided out and every node keeps the coefficients of I' itself.
   A node that still shows two or more variations once it is no wider than
   the requested tolerance is kept whole as one bracket: a multiple root, or
   roots closer than the tolerance, end there.  Splits run on coefficients
   floor-truncated to 96 bits with an exact error bound (Rouillier &
   Zimmermann, J. Comput. Appl. Math. 162, 2004; Eigenwillig et al., CASC
   2005); if a bound leaves a sign open, the whole search is run again with
   exact splits.  The search is branch and bound.  I's Bernstein
   coefficients on a node are I at its left end plus prefix sums of the
   node's coefficients of I', and I is nowhere below the least of them (Lane
   & Riesenfeld, BIT 21, 1981).  A node where that bound exceeds the least
   exact value of I seen so far holds no minimizer and no tie, so it is
   dropped with its subtree, and of two children the one with the smaller
   bound goes first.  Under I = 0 no bound exceeds 0, so the same search
   keeps every root.  Every value and bound is an integer at one dyadic
   scale, over the denominator lcm(1, ..., D) 2^((depth+1) D): I at
   u/2^v is sum_j c_j u^j (2^v - u)^(D-j) over 2^(v D), and no point is
   finer than 2^-(depth+1), so values are shifted, never divided;
3. shrink each bracket around one simple root to the requested width by
   quadratic interval refinement at dyadic rationals (Abbott, ACM Commun.
   Comput. Algebra 48(1), 2014; Kerber & Sagraloff, ISSAC 2011): a secant
   step picks a window that shrinks quadratically while it keeps holding the
   root, and halving takes over when it misses, so a root costs O(log depth)
   evaluations.  Each reads an exact sign from a fixed-point Horner sum
   whose error bound certifies it, at 64, 128, ... fraction bits, or from
   the exact integer value where none does.  The sum is of I'/(1-p)^d in
   u/w <= 1 below 1/2, w = 2^v - u, and of I'/p^d in w/u above it, where
   the (p, 1-p) coefficients are read in reverse; the secant is handed the
   certified value times max(u, w)^d, back at the scale of I' itself.
   Nodes are integer pairs (a, s) for (a/2^s, (a+1)/2^s), and the tolerance
   is read once as the depth s at which they stop.

Each bracket's candidate value, I at its midpoint, is computed as soon as the
bracket is refined, so that it can drop nodes at once.  Candidate values are
integers over the search's one denominator, compared with ties broken toward
smaller p.  Fractions are built only for the returned result, and only the
reported minimizer and its value are rounded to floats.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, ne
from typing import NamedTuple, Optional, Sequence

from .advantage import AdvantageResult, _advantage, _form
from .game import GameParams, ParameterError, parse_rational
from .stopping import ConsistencyError


class MinimizationResult(NamedTuple):
    """Location and value of the advantage minimum over [0, 1]."""

    degenerate: bool
    bias: Optional[float]  # bracket midpoint, within tol/2 of a critical point; None if constant 1
    value: float  # the advantage at bias
    value_exact: Fraction
    # width <= tol, holds a root of I'; at tol >= 1/2 it can be all of (0, 1)
    bracket: Optional[tuple[Fraction, Fraction]]
    tol: float
    tie: bool = False  # another critical point attained exactly the same value

    def __repr__(self) -> str:
        # a Fraction's repr stops at the int digit cap (4300 digits), so its parts go through Decimal
        def text(x) -> str:
            if isinstance(x, Fraction):
                return f"Fraction({Decimal(x.numerator)}, {Decimal(x.denominator)})"
            return f"({', '.join(map(text, x))})" if isinstance(x, tuple) else repr(x)

        return f"MinimizationResult({', '.join(f'{k}={text(v)}' for k, v in zip(self._fields, self))})"


# (I's value, the point, the bracket around it, or None at 0 and 1), as integers:
# the value over _isolate's common denominator, the point in units of
# 2^-(depth+1) and the bracket's ends in units of 2^-depth
_Candidate = tuple[int, int, Optional[tuple[int, int]]]


class AsymptoticOptimum(NamedTuple):
    """The paper's large-target limit of the minimizing bias, determined by t = alpha/beta.

    It is the exact minimizer's limit only when t is an integer: at t = 1/2,
    p* = 0.1771, while the exact minimizing bias at m ~ 1000 turns is 0.2687.
    """

    t: Fraction
    bias: float  # from the exact t, rounded once
    variance: float  # limiting_variance at the float bias: exact, rounded once


def minimize_advantage(params: GameParams, tol: float = 1e-9) -> MinimizationResult:
    """Global minimizer of the advantage polynomial on [0, 1].

    Every critical point in (0, 1) that may hold the minimum is bracketed to
    width ``tol``, and the advantage is compared exactly at those bracket
    midpoints and both endpoints; a part of (0, 1) where a certified lower
    bound exceeds a value already seen is skipped.  Degenerate games
    (advantage identically 1) short-circuit.

    ``tol`` bounds the bracket width, so ``bias`` (the chosen bracket's
    midpoint) lies within tol/2 of a critical point and ``value`` is the
    advantage at ``bias``, not the minimum itself.  A coarse ``tol`` gives a
    coarse answer: at tol >= 1/2 the bracket can be all of (0, 1); for
    (15, 1, 1) at tol 1 it is, with bias 0.5 and value 0.632 against a
    minimum of 0.617.
    """
    _check_tol(tol)
    return _minimize(_advantage(params), tol)


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol) or tol <= 0:
        raise ParameterError("tol must be finite and > 0")


def _depth(tol: float | Fraction) -> int:
    """The least s with 2^-s <= tol: a node (a/2^s, (a+1)/2^s) is then no wider than tol."""
    x = Fraction(tol)
    return (-(-x.denominator // x.numerator) - 1).bit_length()


def _minimize(adv: AdvantageResult, tol: float) -> MinimizationResult:
    """``minimize_advantage`` on an already built advantage's (p, 1-p) form; the caller checks ``tol``."""
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
    candidates, denominator = _isolate(slopes, tol, c)
    best_value, best_point, best_bracket = min(candidates, key=lambda c: (c[0], c[1]))
    if best_bracket is None:
        raise ConsistencyError(
            f"no interior critical point beats the endpoints for {adv.params}; "
            "a non-degenerate advantage must dip below 1 inside (0, 1)"
        )
    tie = sum(1 for value, _, _ in candidates if value == best_value) > 1
    depth = _depth(tol)
    return MinimizationResult(
        degenerate=False,
        bias=best_point / (2 << depth),
        value=best_value / denominator,
        value_exact=Fraction(best_value, denominator),
        bracket=(Fraction(best_bracket[0], 1 << depth), Fraction(best_bracket[1], 1 << depth)),
        tol=tol,
        tie=tie,
    )


def asymptotic_optimum(alpha, beta) -> AsymptoticOptimum:
    """Limiting optimal bias 1 + t - sqrt(1 + t + t^2), with t = alpha/beta.

    This is the paper's limit; the exact minimizing bias tends to it only for
    integer t (at t = 1/2, 0.1771 against 0.2687 at m ~ 1000 turns).  Bias and
    variance are exact values rounded once.  Raises ParameterError when the
    bias is below the smallest float or the variance is outside the float range.
    """
    t, bias = _limit_bias(alpha, beta)
    return AsymptoticOptimum(t=t, bias=bias, variance=limiting_variance(bias, alpha, beta))


def _limit_bias(alpha, beta) -> tuple[Fraction, float]:
    """t = alpha/beta and the bias u / (u + v + sqrt(u^2 + uv + v^2)), t = u/v in lowest terms.

    The root is floored 256 bits past the point, so the one int division
    correctly rounds a value within a relative 2^-256 of the bias.
    """
    a, b = parse_rational(alpha), parse_rational(beta)
    if a <= 0 or b <= 0:
        raise ParameterError("alpha and beta must be > 0")
    t = a / b
    u, v = t.numerator, t.denominator
    bias = (u << 256) / (((u + v) << 256) + math.isqrt((u * u + u * v + v * v) << 512))
    if bias == 0:
        raise ParameterError("the limiting bias is outside the float range")
    return t, bias


def limiting_variance(p: float, alpha, beta) -> float:
    """(alpha + beta*p)^3 / (beta^2 * p * (1-p)); the scale whose minimum sets the limit bias.

    Exact at the given p, rounded once; ParameterError outside the float range.
    """
    a, b = parse_rational(alpha), parse_rational(beta)
    if a <= 0 or b <= 0:
        raise ParameterError("alpha and beta must be > 0")
    if not 0 < p < 1:
        raise ParameterError("p must be strictly inside (0, 1)")
    x = Fraction(p)
    try:
        variance = float((a + b * x) ** 3 / (b * b * x * (1 - x)))
    except OverflowError:
        variance = 0.0
    if variance == 0:
        raise ParameterError("the limiting variance is outside the float range")
    return variance


def advantage_at_asymptotic(params: GameParams) -> float:
    """Exact advantage evaluated at the limiting optimal bias.

    A good stand-in for the true finite-game minimum once the target is
    moderately large.  The float bias is a dyadic rational u / v, so the
    evaluation itself stays exact, and it is rounded once.
    """
    return _at_limit_bias(_advantage(params))


def _at_limit_bias(adv: AdvantageResult) -> float:
    """``advantage_at_asymptotic`` on an already built advantage's (p, 1-p) form."""
    _, bias = _limit_bias(adv.params.alpha, adv.params.beta)
    u, v = bias.as_integer_ratio()
    return _form(adv.homogeneous, u, v - u) / v ** (len(adv.homogeneous) - 1)


# ---------------------------------------------------------------------------
# Root isolation of an integer polynomial on (0, 1), in the (p, 1-p) basis.
#
# A work item (x, err, a, s, zl, zr, low, at_lo, t) holds the Bernstein
# coefficients of I' on (a/2^s, (a+1)/2^s), rescaled to (0, 1): they are
# (x_j + eps_j) / scale with 0 <= eps_j < err, exact when err = 0.  The first
# zl and last zr of them are exact zeros, its roots at the node's ends, and
# every sign is read between them: x[zl] and x[-1-zr] have the signs just
# inside the node's ends, which bisection starts from.  An exact node counts
# its zeros, and a truncated child inherits them from its parent's uncut side.
# low is a lower bound of I on the node and at_lo is I at its left end, both
# integers over the search's common denominator, and t is the shift that
# puts the node's sums of x on it; see _lower_bound.
# ---------------------------------------------------------------------------

_BITS = 96  # a split's inputs are floor-truncated to this many bits


def _isolate(
    homogeneous: list[int], tol: float | Fraction, integral: Sequence[int], exact: bool = False
) -> tuple[list[_Candidate], int]:
    """Candidates for the least value of I on [0, 1], from brackets of the roots of I', and their denominator.

    I' and I are given in the (p, 1-p) basis: ``homogeneous`` of degree
    d - 1 and ``integral`` of degree D.  Every value of I is an integer over
    one denominator, lcm(1, ..., d) 2^((depth+1) max(D, d)), which is
    returned with the candidates: I at a point u/2^v is the integer
    sum_j c_j u^j (2^v - u)^(D-j) over 2^(v D), and v <= depth + 1 at every
    point valued.  Values, bounds and ties are then compared as integers.
    The candidates are (I(0), 0, None), (I(1), 1, None) and, for each bracket
    of width <= tol, (I at its midpoint, the midpoint, the bracket), in the
    units of ``_Candidate``.  A node with one sign variation holds exactly
    one simple root, which is bisected to width tol.  A node that still shows
    two or more variations at width <= tol is reported whole: by the
    two-circle theorem (Krandick & Mehlhorn, JSC 2006) at least two roots,
    counted with multiplicity, lie near it -- a multiple root, real roots
    closer than tol, or a complex pair within about tol of the interval.  A
    root at a split midpoint is reported as (mid, mid) by the node whose left
    end it is.  ``tol`` is read once, as the integer depth
    max(0, ceil(log2(1/tol))) at which nodes and bisection stop.

    The search is branch and bound.  A node whose lower bound on I
    (``_lower_bound``) exceeds U, the least exact value of I seen so far at
    candidates and split midpoints, is dropped with its subtree: I is above U
    there, so it holds no minimizer and no tie.  Of two children, the one with
    the smaller bound is searched first, so the minimum's bracket lowers U
    early.  A kept node is reached by the same splits as in the whole search,
    so it gives the same brackets.  I = 0 (``integral`` = [0]) keeps every
    root: U is 0, and every bound is 0 plus a term that is never positive.

    Splits run on coefficients truncated to ``_BITS`` bits (see ``_split``),
    and the search is a filter in front of the exact one: at the first node
    whose bound leaves a sign open, a zero on a cut side included, it returns
    the same search rerun with ``exact`` set, which skips the truncation.
    Every node of that rerun is exact, so it never reruns, and every decision,
    and so every bracket, is the exact one.
    """
    depth = _depth(tol)
    b, scale = _bernstein(homogeneous)
    n = len(b) - 1
    degree = len(integral) - 1
    top = (depth + 1) * max(degree, n + 1)
    unit = scale * (n + 1)  # lcm(1, ..., n + 1)

    def value(u: int, v: int) -> int:
        return _dyadic_value(integral, u, v) * unit << top - v * degree

    candidates: list[_Candidate] = [  # I(0) = c_0 and I(1) = c_D
        (integral[0] * unit << top, 0, None),
        (integral[-1] * unit << top, 2 << depth, None),
    ]
    if not any(b):
        return candidates, unit << top
    at_lo = candidates[0][0]
    best = min(at_lo, candidates[1][0])

    def found(lo: int, hi: int) -> None:
        nonlocal best
        point = lo + hi
        z = (point & -point).bit_length() - 1
        at = value(point >> z, depth + 1 - z)
        candidates.append((at, point, (lo, hi)))
        best = min(best, at)

    stack = [(b, 0, 0, 0, 0, 0, _lower_bound(b, top, at_lo), at_lo, top)]
    while stack:
        x, err, a, s, zl, zr, low, at_lo, t = stack.pop()
        if low > best:
            continue
        if not _certain(x[zl : len(x) - zr], err):
            return _isolate(homogeneous, tol, integral, True)
        if not err:
            zl = next(i for i, v in enumerate(x) if v)
            zr = next(i for i, v in enumerate(reversed(x)) if v)
            if zl and a & 1:  # a root at the midpoint this node was cut at
                found(a << depth - s, a << depth - s)
        v = _sign_variations(x)
        if v == 0:
            continue
        if v == 1:
            found(*_bisect(homogeneous, x[zl : len(x) - zr], a, s, depth))
            continue
        if s >= depth:
            found(a << depth - s, a + 1 << depth - s)
            continue
        x, err, k = (x, err, 0) if exact else _truncate(x, err)
        left, right = _split(x)
        err <<= n
        t += k - n - 1
        at_mid = value(2 * a + 1, s + 1)
        best = min(best, at_mid)
        left_low = _lower_bound(left, t, at_lo)
        right_low = _lower_bound(right, t, at_mid)
        children = [
            (left, err, 2 * a, s + 1, zl, 0, left_low, at_lo, t),
            (right, err, 2 * a + 1, s + 1, 0, zr, right_low, at_mid, t),
        ]
        if left_low < right_low:  # the smaller bound pops first
            children.reverse()
        stack += children
    return candidates, unit << top


def _lower_bound(x: list[int], t: int, at_lo: int) -> int:
    """A lower bound of I on a node, from I at its left end and I' on it, over ``_isolate``'s denominator.

    On a node of width 2^-s, I' is sum_j x_j B_j(y) / scale, with y running
    over (0, 1) across the node, B_j the Bernstein basis of degree d - 1,
    d = len(x), and each x_j at most its true value.  ``scale`` is the root's
    factor L from ``_bernstein`` times 2^(d-1) for each split and 2^-k for
    each truncation by 2^k above the node.  Integrating gives I's Bernstein
    coefficients of degree d on the node, I(lo) + (x_0 + ... + x_(i-1)) /
    (2^s d scale) for i = 0, ..., d, and I is nowhere below the least of
    them (Lane & Riesenfeld, BIT 21, 1981).  Over the denominator
    L d 2^top, that sum is shifted by t = top - s - log2(scale / L): top at
    the root, then d - k less for each split that truncated by 2^k.  t stays
    positive, since top >= (depth + 1) d and s <= depth.
    """
    return at_lo + (min(0, min(accumulate(x))) << t)


def _bernstein(c: list[int]) -> tuple[list[int], int]:
    """Integer Bernstein coefficients of homogeneous c, and the factor they carry.

    The factor is L = lcm_j C(d, j) = lcm(1, ..., d+1) / (d+1): each c_j is
    scaled by L / C(d, j), an integer.  That ratio starts at L and steps by
    (j+1) / (d-j) from j to j+1, and each step divides exactly, since its
    result is the next integer ratio.
    """
    d = len(c) - 1
    scale = lcm(*range(1, d + 2)) // (d + 1)
    ratios = accumulate(range(d), lambda f, j: f * (j + 1) // (d - j), initial=scale)
    return [x * f for x, f in zip(c, ratios)], scale


def _certain(x: list[int], err: int) -> bool:
    """Whether every x_j + [0, err) has one sign: err = 0, x_j > 0 or x_j + err <= 0."""
    return not err or all(v > 0 or v + err <= 0 for v in x)


def _truncate(x: list[int], err: int) -> tuple[list[int], int, int]:
    """x floored by 2^k to ``_BITS`` bits, the bound 1 + ceil(err / 2^k) it then has, and k."""
    k = max(max(x), -min(x)).bit_length() - _BITS
    if k <= 0:
        return x, err, 0
    return [v >> k for v in x], 1 + (-(-err >> k)), k


def _split(b: list[int]) -> tuple[list[int], list[int]]:
    """Integer Bernstein coefficients of both halves, by one de Casteljau triangle.

    Row r of the triangle holds sum_i C(r, i) b_(j+i), 2^r times the de
    Casteljau row at 1/2; the halves' true coefficients are row[r][0] / 2^r
    and row[r][-1] / 2^r, so both are scaled by 2^d.  If each b_j is short of
    its true value by less than err, row r is short by less than 2^r err, so
    every output is short by less than 2^d err.
    """
    d = len(b) - 1
    row = b
    left, right = [], []
    for r in range(d + 1):
        left.append(row[0] << (d - r))
        right.append(row[-1] << (d - r))
        row = list(map(add, row, row[1:]))
    right.reverse()
    return left, right


def _bisect(c: Sequence[int], x: list[int], a: int, s: int, depth: int) -> tuple[int, int]:
    """Shrink the node (a/2^s, (a+1)/2^s), Bernstein x, around its one simple root of c.

    Quadratic interval refinement (Abbott, ACM CCA 48(1), 2014): bounds
    lo < root < hi in units of 2^-depth start at the node's ends, with the
    signs of x[0] and x[-1].  Once the values at both bounds are known, the
    window of width w, the largest power of two <= (hi - lo)/N, that holds
    the secant point is tried at both ends; N squares when the root is in it
    and falls back towards 2 when not.  At N = 2, or while a bound's value is
    unknown, the gap is halved.  Each point inside the bounds is evaluated
    once, at its lowest dyadic level, which the power-of-two window keeps
    coarse, by ``_signed_value`` on the (p, 1-p) coefficients c: low
    precision, but an exact sign.  The secant reads both bounds' values at
    the finer of their two scales.  A zero is the root, and any other sign
    moves that bound.  Every decision is an exact sign, so the result, in
    units of 2^-depth, is the root's cell at depth, or the root itself.
    """
    if x[0] * x[-1] >= 0:
        raise ConsistencyError("isolated bracket must straddle a sign change")
    left_positive = x[0] > 0
    lo, hi = a << (depth - s), (a + 1) << (depth - s)
    f_lo = f_hi = None  # (y, r): the value at lo or hi is about y / 2^r; None until evaluated
    n = 4
    while hi - lo > 1:
        w = 0
        if f_lo and f_hi and n > 2:
            w = 1 << max((hi - lo) // n, 1).bit_length() - 1
            r = max(f_lo[1], f_hi[1])
            y_lo, y_hi = f_lo[0] << r - f_lo[1], f_hi[0] << r - f_hi[1]
            secant = (lo + (hi - lo) * y_lo // (y_lo - y_hi)) & -w
            tries = (secant, secant + w)
        else:
            tries = ((lo + hi) >> 1,)
        for u in tries:
            if lo < u < hi:
                z = (u & -u).bit_length() - 1
                value, r = _signed_value(c, u >> z, depth - z)
                if not value:
                    return u, u
                if (value > 0) == left_positive:
                    lo, f_lo = u, (value, r)
                else:
                    hi, f_hi = u, (value, r)
        if w:
            n = n * n if hi - lo <= w else max(2, math.isqrt(n))
        elif f_lo and f_hi:
            n = 4
    return lo, hi


def _signed_value(c: Sequence[int], u: int, v: int) -> tuple[int, int]:
    """(y, r) with y / 2^r near g(u / 2^v) and of its exact sign, for 0 < u / 2^v < 1.

    g = sum_i c_i p^i (1-p)^(d-i), d = len(c) - 1.  ``_fixed_value`` at
    R = 64, 128, ... bounds 2^R g(p) / max(p, 1-p)^d in [y, y + d), which
    certifies a sign once y > 0 or y + d <= 0.  Such a y is rescaled to
    y max(u, w)^d at r = R + v d, w = 2^v - u, an integer of the same sign
    near 2^r g(p): the secant in ``_bisect`` then compares values of g
    itself, not of the far steeper g / max(p, 1-p)^d.  At R >= v d the exact
    ``_dyadic_value`` settles the sign, so y = 0 only where g is exactly 0.
    """
    d = len(c) - 1
    r = 64
    while r < v * d:
        y = _fixed_value(c, u, v, r)
        if y > 0 or y + d <= 0:
            return y * max(u, (1 << v) - u) ** d, r + v * d
        r <<= 1
    return _dyadic_value(c, u, v), v * d


def _fixed_value(c: Sequence[int], u: int, v: int, r: int) -> int:
    """2^r g(p) / max(p, 1-p)^d at p = u / 2^v, floored at each Horner step: the truth is in [y, y + d).

    g = sum_i c_i p^i (1-p)^(d-i), d = len(c) - 1.  With w = 2^v - u, that is
    sum_i c_i (u/w)^i 2^r at p <= 1/2, by Horner's rule in u/w <= 1, and the
    same sum of the reversed coefficients in w/u <= 1 above 1/2.  Each step
    scales the error so far by at most 1 and adds less than one unit; at
    d = 0 the value is exact.
    """
    w = (1 << v) - u
    if u > w:
        c, u, w = c[::-1], w, u
    y = c[-1] << r
    for i in range(len(c) - 2, -1, -1):
        y = y * u // w + (c[i] << r)
    return y


def _dyadic_value(c: Sequence[int], u: int, v: int) -> int:
    """The integer sum_i c_i u^i (2^v - u)^(d-i), d = len(c) - 1: the form at u / 2^v times 2^(v d)."""
    return _form(c, u, (1 << v) - u)


def _sign_variations(c: list[int]) -> int:
    signs = [x > 0 for x in c if x]
    return sum(map(ne, signs, signs[1:]))
