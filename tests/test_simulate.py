"""Monte Carlo simulator: determinism, statistics, histogram law."""

import bisect
import functools
import importlib
import itertools
import math
import os
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
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
    # only the bias is needed, so a variance past the float range does not matter
    far = simulate_at_pstar(GameParams(5, 10**400, 1), trials=5, seed=1)
    assert (far.wins, dict(far.turn_histogram)) == (5, {1: 1.0})
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


def test_an_exact_p_is_rounded_once_before_the_streams(monkeypatch):
    jobs = []
    run_jobs = simulate_module._run_jobs

    def capture(js):
        jobs.extend(js)
        return run_jobs(js)

    monkeypatch.setattr(simulate_module, "_run_jobs", capture)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # both streams in this process
    g = GameParams(10, 1, 1)
    exact = simulate(SimConfig(g, Fraction(1, 3), 2000, seed=5, workers=2))
    assert exact == simulate(SimConfig(g, 1 / 3, 2000, seed=5, workers=2))
    assert len(jobs) == 4 and all(type(job[3]) is float and job[3] == 1 / 3 for job in jobs)


def reference_run_stream(job: tuple) -> tuple[int, Counter]:
    """A per-game stream loop, kept as the reference for the fused `_run_stream`.

    It draws from `random.Random`, the documented generator, so the comparison also checks that
    `_random.Random`, the C type `_run_stream` draws from, seeds and draws the same.
    """
    n, alpha, beta, p, trials, stream_seed = job
    rng = random.Random(stream_seed).random
    wins = 0
    histogram: Counter[int] = Counter()
    for _ in range(trials):
        outcome = reference_play(rng, n, alpha, beta, p)
        if outcome > 0:
            wins += 1
        histogram[outcome] += 1
    return wins, histogram


def reference_play(rng, n: int, alpha: int, beta: int, p: float) -> int:
    """One game: each player's heads of the first min(64, l-1) turns by inversion, first player
    first; then, while no one can reach n in the next 3 turns, r more turns the same way, with r
    the turns in which no one can reach n, at most 64; then every later turn toss by toss with an
    end check."""
    heads = alpha + beta
    turns = min(64, -(-n // heads) - 1)  # no one can reach n in these turns
    first = second = turns * alpha
    if turns:
        cdf = reference_heads_cdf(turns, p)
        first += beta * bisect.bisect_right(cdf, Fraction(rng()))  # the least j with u < F_j
        second += beta * bisect.bisect_right(cdf, Fraction(rng()))
    while max(first, second) + 3 * heads < n:
        r = min(64, (n - 1 - max(first, second)) // heads)
        cdf = reference_heads_cdf(r, p)
        first += r * alpha + beta * bisect.bisect_right(cdf, Fraction(rng()))
        second += r * alpha + beta * bisect.bisect_right(cdf, Fraction(rng()))
        turns += r
    while True:
        turns += 1
        first += alpha
        if rng() < p:
            first += beta
        if first >= n:
            return turns
        second += alpha
        if rng() < p:
            second += beta
        if second >= n:
            return -turns


@functools.lru_cache(maxsize=None)
def reference_heads_cdf(tosses: int, p: float) -> tuple[Fraction, ...]:
    """F_0..F_tosses, the exact cdf of the heads in ``tosses`` draws of ``rng() < p``.

    A draw is k/2**53 for k uniform on [0, 2**53), so one toss is a head with chance
    q = #{k : k/2**53 < p}/2**53; the pmf is [1] convolved ``tosses`` times with [1 - q, q].
    """
    q = Fraction(math.ceil(Fraction(p) * 2**53), 2**53)
    pmf = [Fraction(1)]
    for _ in range(tosses):
        pmf = [tail * (1 - q) + head * q for tail, head in zip(pmf + [0], [0] + pmf)]
    return tuple(itertools.accumulate(pmf))


def assert_stream_matches_reference(job: tuple) -> None:
    """`_run_stream`'s tally is the reference's, and the reference's win count is its positive turns."""
    tally = simulate_module._run_stream(job)
    wins, histogram = reference_run_stream(job)
    assert tally == histogram, job
    assert sum(c for t, c in tally.items() if t > 0) == wins, job


EDGE_BIASES = [0.0, 1.0, 0.3, asymptotic_optimum(1, 1).bias, 1 - 2**-53, 2**-60]
# unmixed stream seeds: one- and two-word init_by_array keys, one of them with a zero low word
RAW_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def safe_turns_after_tails(n: int, alpha: int, beta: int) -> int:
    """The turns in which no one can reach n after a prefix of min(64, l - 1) tails each."""
    heads = alpha + beta
    prefix = min(64, -(-n // heads) - 1)
    return (n - 1 - prefix * alpha) // heads


def turn_bound_edges(alpha: int, beta: int) -> set[int]:
    """Targets n <= alpha + beta (l = 1), k(alpha + beta) and one more, where l steps up, the
    targets that put l - 1 at the edges of the 64-toss blocks, and the least targets that leave
    exactly 3 safe turns (one block) and exactly 2 (none) after an all-tails prefix."""
    heads = alpha + beta
    blocks = {k * heads + 1 for k in (63, 64, 65, 128, 129)}
    horizons = {
        min(n for n in range(1, 100 * heads) if safe_turns_after_tails(n, alpha, beta) == r) for r in (2, 3)
    }
    return {1, heads - 1, *(k * heads + d for k in (1, 2, 5, 20) for d in (0, 1)), *blocks, *horizons}


@pytest.mark.parametrize(
    "alpha,beta,n",
    [
        (alpha, beta, n)
        for alpha, beta in [(1, 1), (2, 1), (2, 3), (3, 7)]
        for n in sorted({1, 2, 5, 17, 100} | turn_bound_edges(alpha, beta))
    ],
)
def test_fused_stream_matches_per_game_reference(alpha, beta, n):
    for p in EDGE_BIASES:
        jobs = [(n, alpha, beta, p, 300, simulate_module._stream_seed(seed, 0)) for seed in (0, 12345, 2**64 - 1)]
        jobs += [(n, alpha, beta, p, 100, stream_seed) for stream_seed in RAW_STREAM_SEEDS]
        for job in jobs:
            assert_stream_matches_reference(job)


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_fused_stream_matches_reference_where_the_horizon_clamps_at_64(seed):
    # l - 1 = 90: after the 64-turn prefix about 82 turns are safe, so the next block is cut at 64
    assert_stream_matches_reference((1000, 1, 10, 0.05, 100, simulate_module._stream_seed(seed, 0)))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 220),  # l - 1 reaches 21 at alpha + beta = 10 and 109 at alpha = beta = 1
    alpha=st.integers(1, 5),
    beta=st.integers(1, 5),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_fused_stream_matches_reference_on_random_games(n, alpha, beta, p, seed):
    assert_stream_matches_reference((n, alpha, beta, p, 50, seed))


@pytest.mark.parametrize("p", EDGE_BIASES)
@pytest.mark.parametrize("tosses", [1, 2, 5, 63, 64])
def test_heads_table_is_the_cdf_rounded_up_to_the_draw_grid(tosses, p):
    cdf = reference_heads_cdf(tosses, p)
    assert cdf[-1] == 1
    expected = tuple(math.ceil(f * 2**53) / 2**53 for f in cdf[:-1])
    assert simulate_module._heads_table(tosses, p) == expected
    if p in (0.0, 1.0):
        assert expected == (1.0 - p,) * tosses  # p = 0 never tosses heads, p = 1 always does


def test_a_draw_on_a_table_entry_counts_as_the_next_head_count(monkeypatch):
    # u < F_j iff u < T_j, so a draw equal to T_j gives more than j heads
    draws = [0.5, 0.0] + [0.9] * 4  # (3, 1, 1): turn 1 is one unchecked toss per player
    assert simulate_module._heads_table(1, 0.5) == (0.5,)

    class Scripted:
        def __init__(self, seed):
            self.random = iter(draws).__next__

    monkeypatch.setattr(simulate_module, "_random", types.SimpleNamespace(Random=Scripted))
    assert simulate_module._run_stream((3, 1, 1, 0.5, 1, 0)) == {2: 1}  # 1 + 1 head, then 1 + 1 tail
    assert reference_play(iter(draws).__next__, 3, 1, 1, 0.5) == 2


def test_streams_share_their_heads_tables(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # every stream in this process
    simulate_module._heads_table.cache_clear()
    config = SimConfig(GameParams(300, 1, 1), 0.3, 50, seed=1, workers=50)
    simulate(config)
    built = simulate_module._heads_table.cache_info().misses
    assert built <= 65  # each block size at most once, for 50 streams
    simulate(config)
    assert simulate_module._heads_table.cache_info().misses == built  # none on a second call


def counted_draws(monkeypatch) -> list[int]:
    """Make `_run_stream` draw from a generator that counts its draws into the returned cell."""
    real = simulate_module._random.Random
    drawn = [0]

    class Counting:
        def __init__(self, seed):
            gen = real(seed)

            def draw():
                drawn[0] += 1
                return gen.random()

            self.random = draw

    monkeypatch.setattr(simulate_module, "_random", types.SimpleNamespace(Random=Counting))
    return drawn


@pytest.mark.parametrize(
    "n,turn,draws",
    [
        (11, 11, 2 + 5 * 2 + 1),  # 2 safe turns after the 5-turn prefix: tossed and checked
        (12, 12, 2 + 2 + 3 * 2 + 1),  # 3 safe turns after the 5-turn prefix: one block
        (13, 13, 2 + 2 + 3 * 2 + 1),  # 3 after the 6-turn prefix
    ],
)
def test_all_tails_draw_one_block_where_three_turns_are_safe(monkeypatch, n, turn, draws):
    drawn = counted_draws(monkeypatch)
    assert simulate_module._run_stream((n, 1, 1, 0.0, 1, 0)) == {turn: 1}
    assert drawn == [draws]


def test_a_game_at_n_100_makes_few_draws(monkeypatch):
    drawn = counted_draws(monkeypatch)
    p = asymptotic_optimum(1, 1).bias
    simulate_module._run_stream((100, 1, 1, p, 2000, simulate_module._stream_seed(7, 0)))
    assert drawn[0] / 2000 <= 16  # 58.1 when every turn from l on is tossed and checked


def test_a_huge_target_builds_each_block_size_at_most_once(monkeypatch):
    drawn = counted_draws(monkeypatch)
    simulate_module._heads_table.cache_clear()
    assert sum(simulate_module._run_stream((10**6, 1, 1, 0.3, 2, 1)).values()) == 2
    assert simulate_module._heads_table.cache_info().misses <= 65
    # a full block gains each player at least 64 points, and the shrinking ones at least halve the gap
    assert drawn[0] <= 2 * 2 * (10**6 // 64 + 64)


def test_histogram_memory_does_not_grow_with_n():
    # up to 2 * 10**12 turns are possible, but only the one that occurs is stored
    result = simulate(SimConfig(GameParams(10**12, 1, 10**12), 1.0, 10, seed=1))
    assert result.wins == 10
    assert result.turn_histogram == {1: 1.0}


def modules_loaded_by_importing_the_cli(prefixes: tuple[str, ...]) -> str:
    """The sorted names of the modules under ``prefixes`` that a fresh ``import coinrace.cli`` loads."""
    src = str(Path(simulate_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, coinrace.cli; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    ).stdout


def test_importing_the_cli_does_not_load_the_process_pool():
    assert modules_loaded_by_importing_the_cli(("concurrent", "multiprocessing")) == "[]\n"


def test_importing_the_cli_does_not_load_dataclasses():
    # the records are named tuples; dataclasses would also pull in inspect, ast and dis
    assert modules_loaded_by_importing_the_cli(("dataclasses",)) == "[]\n"
