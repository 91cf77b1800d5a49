"""Exact distribution of the turn on which a single player reaches the target.

After k turns with i heads a player holds k*alpha + i*beta points, so the
target is reached within k turns exactly when the k tosses give at least
h_k = ceil((n - k*alpha)/beta) heads, with chance U_k = P(Bin(k, p) >= h_k).
The chance of winning exactly on turn k, f_k = U_k - U_(k-1), is stated once,
by ``win_turn_slots``, as its coefficients c_j of p^j (1-p)^(k-j).  In that
basis U_k holds C(k, j) for j >= h_k, and U_(k-1), times p + (1-p) to reach
degree k, holds C(k, j) above h_(k-1) and C(k-1, h_(k-1)) at it.  So with
h = max(h_k, 0) and g = min(max(h_(k-1), 0), k), c_j is C(k, j) for
h <= j < g, C(k-1, g-1) at j = g (0 when g = 0) and 0 elsewhere: at most
ceil(alpha/beta) + 1 slots, however large h_k is.  The pmf expands each slot with one alternating
binomial row of (1-p)^(k-j); ``coinrace.advantage`` packs the same slots.
"""

from __future__ import annotations

from itertools import zip_longest
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .game import NormalizedParams, ParameterError, TurnBounds, turn_bounds
from .polynomial import ONE, Poly, binomial


class ConsistencyError(RuntimeError):
    """An internal identity check failed: a construction bug, never bad input."""


class HitTimeDistribution(NamedTuple):
    """Exact pmf of the winning turn: maps each k in [l, m] to a polynomial in p."""

    bounds: TurnBounds
    pmf: Mapping[int, Poly]

    def support(self) -> range:
        return range(self.bounds.l, self.bounds.m + 1)


def heads_needed(k: int, params: NormalizedParams) -> int:
    """h_k = ceil((n - k*alpha)/beta), the fewest heads that win within k turns."""
    return -((k * params.alpha - params.n) // params.beta)


def win_turn_slots(k: int, params: NormalizedParams) -> tuple[int, list[int]]:
    """(j0, c) with f_k = sum_i c[i] p^(j0+i) (1-p)^(k-j0-i), for a turn k >= l.

    Every c[i] >= 0, and c[0] > 0 on the support [l, m]; see the module docstring.
    """
    h = max(heads_needed(k, params), 0)
    g = min(max(heads_needed(k - 1, params), 0), k)
    return h, [binomial(k, j) for j in range(h, g)] + [binomial(k - 1, g - 1)]


def _expand(k: int, params: NormalizedParams) -> Poly:
    """Monomial coefficients of f_k: each slot times one row of (1-p)^(k-j)."""
    j0, slots = win_turn_slots(k, params)
    out = [0] * (k + 1)
    for j, c in enumerate(slots, j0):
        r = k - j
        for t in range(r + 1):
            out[j + t] += c
            c = -c * (r - t) // (t + 1)  # exact: c * C(r, t+1) / C(r, t)
    return Poly(out)


def hit_time_pmf(k: int, params: NormalizedParams) -> Poly:
    """Probability (as an exact polynomial in p) of reaching the target on turn k."""
    bounds = turn_bounds(params)
    if not bounds.l <= k <= bounds.m:
        raise ParameterError(f"k={k} outside the valid turn range [{bounds.l}, {bounds.m}]")
    return _expand(k, params)


def hit_time_distribution(params: NormalizedParams) -> HitTimeDistribution:
    """Build the pmf for every feasible turn and check that total mass is 1."""
    bounds = turn_bounds(params)
    pmf = {k: _expand(k, params) for k in range(bounds.l, bounds.m + 1)}
    total = Poly(map(sum, zip_longest(*[f.coeffs for f in pmf.values()], fillvalue=0)))
    if total != ONE:
        raise ConsistencyError(f"win-turn masses for {params} sum to {total} instead of 1")
    return HitTimeDistribution(bounds, MappingProxyType(pmf))
