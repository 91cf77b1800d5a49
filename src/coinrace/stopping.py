"""Exact distribution of the turn on which a single player reaches the target.

After k turns with i heads a player holds k*alpha + i*beta points, so the
target is reached within k turns exactly when the k tosses give at least
h_k = ceil((n - k*alpha)/beta) heads.  Writing U_k = P(Bin(k, p) >= h_k),
the probability of winning exactly on turn k is f_k = U_k - U_{k-1}.

U_k is built from its closed-form monomial coefficients: the coefficient of
p^i is (-1)^(i-h) * C(i-1, h-1) * C(k, i) for i = h..k.  When h_k <= 0 the
target is reached even with all tails and U_k = 1; when h_k > k it cannot be
reached and U_k = 0.  Both cases return early: h_k grows with n/beta, not with
k, so padding the coefficient list out to p^h would cost memory unbounded by
the number of turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .game import NormalizedParams, ParameterError, TurnBounds, turn_bounds
from .polynomial import ONE, Poly, binomial


class ConsistencyError(RuntimeError):
    """An internal identity check failed: a construction bug, never bad input."""


@dataclass(frozen=True)
class HitTimeDistribution:
    """Exact pmf of the winning turn: maps each k in [l, m] to a polynomial in p."""

    bounds: TurnBounds
    pmf: Mapping[int, Poly]

    def support(self) -> range:
        return range(self.bounds.l, self.bounds.m + 1)


def heads_needed(k: int, params: NormalizedParams) -> int:
    """h_k = ceil((n - k*alpha)/beta), the fewest heads that win within k turns."""
    return -((k * params.alpha - params.n) // params.beta)


def _tail(k: int, params: NormalizedParams) -> Poly:
    """U_k = P(at least h_k heads in k tosses), the chance of winning within k turns."""
    h = heads_needed(k, params)
    if h <= 0:
        return ONE
    if h > k:
        return Poly()
    coeffs = [(-1) ** (i - h) * binomial(i - 1, h - 1) * binomial(k, i) for i in range(h, k + 1)]
    return Poly([0] * h + coeffs)


def hit_time_pmf(k: int, params: NormalizedParams) -> Poly:
    """Probability (as an exact polynomial in p) of reaching the target on turn k."""
    bounds = turn_bounds(params)
    if not bounds.l <= k <= bounds.m:
        raise ParameterError(f"k={k} outside the valid turn range [{bounds.l}, {bounds.m}]")
    return _tail(k, params) - _tail(k - 1, params)


def hit_time_distribution(params: NormalizedParams) -> HitTimeDistribution:
    """Build the pmf for every feasible turn and check that total mass is 1."""
    bounds = turn_bounds(params)
    tails = [_tail(k, params) for k in range(bounds.l - 1, bounds.m + 1)]
    pmf = {k: tails[i + 1] - tails[i] for i, k in enumerate(range(bounds.l, bounds.m + 1))}
    total = sum(pmf.values(), Poly())
    if total != ONE:
        raise ConsistencyError(f"win-turn masses for {params} sum to {total} instead of 1")
    return HitTimeDistribution(bounds, MappingProxyType(pmf))
