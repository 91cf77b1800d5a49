"""Monte Carlo simulator: determinism, statistics, histogram law."""

import importlib
import math
import os
from fractions import Fraction

import pytest

from coinrace.advantage import advantage_at
from coinrace.game import GameParams, ParameterError, normalize
from coinrace.minimize import asymptotic_optimum
from coinrace.simulate import SimConfig, simulate, simulate_at_pstar
from coinrace.stopping import hit_time_distribution

# the package re-exports the function `simulate`, which shadows the submodule
simulate_module = importlib.import_module("coinrace.simulate")


def test_deterministic_bias_endpoints():
    g = GameParams(5, 1, 1)
    assert simulate(SimConfig(g, 0.0, 1000, seed=7)).frequency == 1.0
    assert simulate(SimConfig(g, 1.0, 1000, seed=7)).frequency == 1.0


def test_same_seed_is_bit_identical():
    config = SimConfig(GameParams(5, 1, 1), 0.3, 5000, seed=123)
    assert simulate(config) == simulate(config)


def test_different_seeds_differ():
    g = GameParams(5, 1, 1)
    a = simulate(SimConfig(g, 0.3, 5000, seed=1))
    b = simulate(SimConfig(g, 0.3, 5000, seed=2))
    assert a.wins != b.wins or a.turn_histogram != b.turn_histogram


def test_frequency_matches_exact_advantage():
    g = GameParams(5, 1, 1)
    p = asymptotic_optimum(1, 1).bias
    result = simulate(SimConfig(g, p, 20000, seed=99))
    exact = float(advantage_at(g, Fraction(p)))
    assert abs(result.frequency - exact) <= 5 * result.stderr
    assert result.stderr == pytest.approx(
        math.sqrt(result.frequency * (1 - result.frequency) / result.trials)
    )


def signed_turn_law(params: GameParams, p: Fraction) -> dict[int, Fraction]:
    """Exact distribution of the simulator's signed turn report.

    The game returns +k when the first player reaches the target on turn k
    before the second player has done so (the second player has taken only
    k-1 turns at that point, so the condition is "second player's win turn
    >= k"); it returns -k when the second player finishes on turn k while the
    first player's win turn exceeds k.  With both win turns independent and
    identically distributed with pmf f and survival S(k) = P(win turn >= k):
    P(+k) = f(k) * S(k) and P(-k) = f(k) * (S(k) - f(k)).
    """
    dist = hit_time_distribution(normalize(params))
    f = {k: poly(p) for k, poly in dist.pmf.items()}
    ks = sorted(f)
    law: dict[int, Fraction] = {}
    for k in ks:
        survival = sum(f[j] for j in ks if j >= k)
        law[k] = f[k] * survival
        if survival - f[k] > 0:
            law[-k] = f[k] * (survival - f[k])
    return law


def test_signed_turn_law_is_consistent():
    g = GameParams(4, 1, 2)
    p = Fraction(1, 3)
    law = signed_turn_law(g, p)
    assert sum(law.values()) == 1
    assert sum(v for k, v in law.items() if k > 0) == advantage_at(g, p)


def test_turn_histogram_matches_exact_law():
    g = GameParams(4, 1, 2)
    p = Fraction(1, 3)
    trials = 40000
    result = simulate(SimConfig(g, float(p), trials, seed=2024))
    law = signed_turn_law(g, p)
    assert set(result.turn_histogram) <= set(law)
    assert sum(result.turn_histogram.values()) == pytest.approx(1.0)
    for k, expected in law.items():
        q = float(expected)
        sigma = math.sqrt(q * (1 - q) / trials)
        assert abs(result.turn_histogram.get(k, 0.0) - q) <= 5 * sigma + 1e-12


def test_worker_count_preserves_statistics():
    g = GameParams(5, 1, 1)
    single = simulate(SimConfig(g, 0.3, 20000, seed=11, workers=1))
    multi = simulate(SimConfig(g, 0.3, 20000, seed=11, workers=3))
    assert abs(single.frequency - multi.frequency) <= 5 * single.stderr
    # fixed worker count stays bit-identical
    assert multi == simulate(SimConfig(g, 0.3, 20000, seed=11, workers=3))


def test_streams_are_allocated_per_trial_not_per_worker():
    # only min(workers, trials) streams get trials; a huge worker count must
    # not build a list with one entry per worker
    g = GameParams(5, 1, 1)
    assert simulate(SimConfig(g, 0.3, 3, seed=9, workers=10**12)) == simulate(
        SimConfig(g, 0.3, 3, seed=9, workers=3)
    )


def test_pool_is_capped_at_cpu_count_but_streams_are_kept(monkeypatch):
    pools = []

    class InProcessPool:
        # stands in for ProcessPoolExecutor: records the size, runs jobs here
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    config = SimConfig(GameParams(5, 1, 1), 0.3, 4000, seed=5, workers=8)
    monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    capped = simulate(config)
    assert pools == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    in_process = simulate(config)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate(config) == in_process
    assert pools == [2]  # one CPU, or an unknown count, never starts a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    uncapped = simulate(config)
    assert pools == [2, 8]
    assert capped == in_process == uncapped  # still eight seed streams


def test_simulate_at_limit_bias():
    degenerate = simulate_at_pstar(GameParams(2, 2, 1), trials=500, seed=3)
    assert degenerate.frequency == 1.0
    result = simulate_at_pstar(GameParams(10, 1, 1), trials=20000, seed=17)
    exact = float(advantage_at(GameParams(10, 1, 1), Fraction(asymptotic_optimum(1, 1).bias)))
    assert abs(result.frequency - exact) <= 5 * result.stderr


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": -0.1},
        {"p": 1.5},
        {"trials": 0},
        {"workers": 0},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_config_validation(kwargs):
    base = {"params": GameParams(5, 1, 1), "p": 0.5, "trials": 10, "seed": 0, "workers": 1}
    base.update(kwargs)
    with pytest.raises(ParameterError):
        simulate(SimConfig(**base))
