"""Exact analysis of the alternating biased-coin race game.

Two players alternate tossing a coin with heads probability p, scoring alpha
points for tails and alpha + beta for heads; the first to reach n points wins
and the first mover wins ties.  This package computes the first player's
winning probability as an exact integer polynomial in p, finds the bias that
minimizes it, evaluates the large-n limit of that bias in closed form, and
validates everything against brute-force enumeration and seeded Monte Carlo
simulation.
"""

from .advantage import AdvantageResult, advantage_at, advantage_polynomial, tie_probability
from .game import (
    GameParams,
    NormalizedParams,
    ParameterError,
    TurnBounds,
    normalize,
    parse_rational,
    turn_bounds,
    validate,
)
from .minimize import (
    AsymptoticOptimum,
    MinimizationResult,
    advantage_at_asymptotic,
    asymptotic_optimum,
    limiting_variance,
    minimize_advantage,
)
from .oracle import brute_force_advantage, brute_force_hit_pmf
from .polynomial import Poly, binomial, render
from .simulate import SimConfig, SimResult, simulate, simulate_at_pstar
from .stopping import ConsistencyError, HitTimeDistribution, hit_time_distribution, hit_time_pmf

__all__ = [
    "AdvantageResult",
    "AsymptoticOptimum",
    "ConsistencyError",
    "GameParams",
    "HitTimeDistribution",
    "MinimizationResult",
    "NormalizedParams",
    "ParameterError",
    "Poly",
    "SimConfig",
    "SimResult",
    "TurnBounds",
    "advantage_at",
    "advantage_at_asymptotic",
    "advantage_polynomial",
    "asymptotic_optimum",
    "binomial",
    "brute_force_advantage",
    "brute_force_hit_pmf",
    "hit_time_distribution",
    "hit_time_pmf",
    "limiting_variance",
    "minimize_advantage",
    "normalize",
    "parse_rational",
    "render",
    "simulate",
    "simulate_at_pstar",
    "tie_probability",
    "turn_bounds",
    "validate",
]

__version__ = "0.1.0"
