"""Monte Carlo simulator: determinism, statistics, histogram law."""

import importlib
import math
import os
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
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


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Replace ProcessPoolExecutor with a pool that runs its jobs in this process; returns the sizes asked for."""
    sizes: list[int] = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return sizes


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 17, 40])
def test_worker_count_preserves_statistics(monkeypatch, pool_sizes, trials):
    # each chunk draws from its own generator, so the worker count changes where a chunk is played, never
    # what it draws: every count gives the same result, bit for bit
    monkeypatch.setattr(simulate_module, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    config = SimConfig(GameParams(5, 1, 1), 0.3, trials, seed=11)
    counts = [1, 2, 3, 8, 10**12]
    results = [simulate(config._replace(workers=w)) for w in counts]
    assert results == [results[0]] * len(counts)
    chunks = -(-trials // SMALL_CHUNK)
    assert pool_sizes == [min(w, chunks) for w in counts if min(w, chunks) > 1]  # one job per worker with a chunk


def test_streams_are_allocated_per_trial_not_per_worker():
    # only min(workers, chunks) workers get a job; a huge worker count must
    # not build a list with one entry per worker
    g = GameParams(5, 1, 1)
    assert simulate(SimConfig(g, 0.3, 3, seed=9, workers=10**12)) == simulate(
        SimConfig(g, 0.3, 3, seed=9, workers=3)
    )


def test_pool_is_capped_at_cpu_count_but_streams_are_kept(monkeypatch, pool_sizes):
    pools = pool_sizes  # min(workers, chunks, cpu_count())
    config = SimConfig(GameParams(5, 1, 1), 0.3, 4000, seed=5, workers=8)
    monkeypatch.setattr(simulate_module, "_CHUNK", 500)  # eight chunks
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
    assert capped == in_process == uncapped  # still eight chunks, each with its own generator
    assert simulate(config._replace(trials=1500)) == simulate(config._replace(trials=1500, workers=1))
    assert pools == [2, 8, 3]  # three chunks: no more workers than chunks


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
    monkeypatch.setattr(simulate_module, "_CHUNK", 1000)  # two chunks, one for each worker
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # both workers in this process
    g = GameParams(10, 1, 1)
    exact = simulate(SimConfig(g, Fraction(1, 3), 2000, seed=5, workers=2))
    assert exact == simulate(SimConfig(g, 1 / 3, 2000, seed=5, workers=2))
    assert len(jobs) == 4 and all(type(job[3]) is float and job[3] == 1 / 3 for job in jobs)


def reference_run_stream(job: tuple) -> tuple[int, Counter]:
    """A game-by-game replay of `_run_stream`'s draws, kept as the reference for the bit-sliced loop.

    Worker w of W plays chunks w, w + W, ..., and chunk c draws from its own generator, seeded with
    `_stream_seed(seed, c)`.  It draws from `random.Random`, the documented generator, so the comparison
    also checks that `_random.Random`, the C type `_run_stream` draws from, seeds and draws the same.
    """
    n, alpha, beta, p, trials, seed, worker, workers = job
    a = math.ceil(Fraction(p) * 2**53)  # a toss is a head iff its 53-bit uniform is below a
    chunk = simulate_module._CHUNK
    wins = 0
    histogram: Counter[int] = Counter()
    for c in range(worker, math.ceil(trials / chunk), workers):
        getrandbits = random.Random(simulate_module._stream_seed(seed, c)).getrandbits
        size = min(chunk, trials - c * chunk)
        for outcome in reference_play(getrandbits, size, n, alpha, beta, a):
            if outcome > 0:
                wins += 1
            histogram[outcome] += 1
    return wins, histogram


def reference_play(getrandbits, size: int, n: int, alpha: int, beta: int, a: int) -> list[int]:
    """The signed turns of one chunk of ``size`` games, played side by side but game by game.

    Every turn the first player tosses in each game still on, then the second player in each game
    still on; a toss adds alpha to the score, and beta more on a head, and a game ends at once when a
    score reaches n.
    """
    scores = [[0, 0] for _ in range(size)]
    outcomes: list[int | None] = [None] * size
    turn = 0
    while None in outcomes:
        turn += 1
        for player, sign in ((0, 1), (1, -1)):
            playing = [g for g in range(size) if outcomes[g] is None]
            if not playing:
                break
            heads = reference_heads(getrandbits, size, playing, a)
            for g in playing:
                scores[g][player] += alpha + (beta if g in heads else 0)
                if scores[g][player] >= n:
                    outcomes[g] = sign * turn
    return outcomes


def reference_heads(getrandbits, size: int, games: list[int], a: int) -> set[int]:
    """The games among ``games`` whose toss is a head: U < a for a 53-bit uniform U per game.

    U is read most significant bit first, one plane ``getrandbits(size)`` per bit, as game g's
    bit ``(plane >> g) & 1``.  A game is decided once its prefix of U differs from a's prefix of as
    many bits.  No plane is drawn once every game is decided, or once a's remaining bits are all 0:
    a game whose prefix still equals a's then has U >= a.  p = 1 (a = 2**53) draws nothing.
    """
    if a == 2**53:
        return set(games)
    prefixes = dict.fromkeys(games, 0)  # U's bits so far, for each undecided game
    heads = set()
    for i in range(52, -1, -1):  # bit i of U
        if not prefixes or a % 2 ** (i + 1) == 0:
            break
        plane = getrandbits(size)
        for g in list(prefixes):
            prefixes[g] = 2 * prefixes[g] + ((plane >> g) & 1)
            if prefixes[g] != a >> i:
                if prefixes[g] < a >> i:
                    heads.add(g)
                del prefixes[g]
    return heads


def assert_stream_matches_reference(job: tuple) -> None:
    """`_run_stream`'s tally is the reference's, and the reference's win count is its positive turns."""
    tally = simulate_module._run_stream(job)
    wins, histogram = reference_run_stream(job)
    assert tally == histogram, job
    assert sum(c for t, c in tally.items() if t > 0) == wins, job


# 0.75 is a = 0b11 then 51 zeros, so its tosses stop after at most two planes
EDGE_BIASES = [0.0, 1.0, 0.3, asymptotic_optimum(1, 1).bias, 1 - 2**-53, 2**-60, 0.75]
# unmixed generator seeds: one- and two-word init_by_array keys, one of them with a zero low word
RAW_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RUN_SEEDS = [0, 12345, 2**64 - 1]
SMALL_CHUNK = 8
CHUNK_EDGES = [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]  # trials, with _CHUNK = SMALL_CHUNK
WORKER_SLICES = [(w, workers) for workers in (1, 2, 3) for w in range(workers)]  # (worker, workers)


def turn_bound_edges(alpha: int, beta: int) -> set[int]:
    """Targets n <= alpha + beta (l = 1), k(alpha + beta) and one more, where l steps up, and the
    targets k(alpha + beta) + 1 at which a winner on its earliest turn needs about k heads, for k
    about 16, 64 and 128, where the head counters and the compare with the heads needed step up a
    plane."""
    heads = alpha + beta
    planes = {k * heads + 1 for k in (8, 15, 16, 63, 64, 65, 128, 129)}
    return {1, heads - 1, *(k * heads + d for k in (1, 2, 5, 20) for d in (0, 1)), *planes}


@pytest.mark.parametrize(
    "alpha,beta,n",
    [
        (alpha, beta, n)
        for alpha, beta in [(1, 1), (2, 1), (2, 3), (3, 7)]
        for n in sorted({1, 2, 5, 17, 100} | turn_bound_edges(alpha, beta))
    ],
)
def test_fused_stream_matches_per_game_reference(monkeypatch, alpha, beta, n):
    for p in EDGE_BIASES:
        for seed in RUN_SEEDS:
            assert_stream_matches_reference((n, alpha, beta, p, 300, seed, 0, 1))
        with mock.patch.object(simulate_module, "_stream_seed", lambda seed, chunk: seed):  # the key, unmixed
            for seed in RAW_STREAM_SEEDS:
                assert_stream_matches_reference((n, alpha, beta, p, 100, seed, 0, 1))
    monkeypatch.setattr(simulate_module, "_CHUNK", SMALL_CHUNK)
    for p in EDGE_BIASES:
        for trials in CHUNK_EDGES:
            for seed in RUN_SEEDS:
                for w, workers in WORKER_SLICES:
                    assert_stream_matches_reference((n, alpha, beta, p, trials, seed, w, workers))


def test_fused_stream_matches_reference_past_one_full_chunk():
    p = asymptotic_optimum(1, 1).bias
    assert_stream_matches_reference((3, 1, 1, p, simulate_module._CHUNK + 1, 3, 0, 1))


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_fused_stream_matches_reference_on_a_long_game(seed):
    # games of 550 to 730 turns, whose winners' head counters reach 6 planes
    assert_stream_matches_reference((1000, 1, 10, 0.05, 100, seed, 0, 1))


# no shrinking: a failing example shrinks by replaying whole streams, which took over 15 minutes
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    n=st.integers(1, 220),  # up to 220 turns at alpha = 1, and head counters of up to 8 planes
    alpha=st.integers(1, 5),
    beta=st.integers(1, 5),
    p=st.floats(0.0, 1.0) | st.integers(0, 64).map(lambda k: k / 64),  # dyadic: a ends in zeros
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 50),
    chunk=st.integers(1, 64),
    worker_slice=st.sampled_from(WORKER_SLICES),
)
def test_fused_stream_matches_reference_on_random_games(n, alpha, beta, p, seed, trials, chunk, worker_slice):
    with mock.patch.object(simulate_module, "_CHUNK", chunk):
        assert_stream_matches_reference((n, alpha, beta, p, trials, seed, *worker_slice))


def scripted_planes(monkeypatch, planes: list[int]) -> list[int]:
    """Make `_run_stream` draw ``planes`` in order; returns the sizes it asks for, as it asks."""
    sizes: list[int] = []
    script = iter(planes)

    def getrandbits(size):
        sizes.append(size)
        return next(script)

    generator = types.SimpleNamespace(getrandbits=getrandbits)
    monkeypatch.setattr(simulate_module, "_random", types.SimpleNamespace(Random=lambda seed: generator))
    return sizes


def scripted_reference(planes: list[int]):
    """A ``getrandbits`` for `reference_play` that returns ``planes`` in order."""
    script = iter(planes)
    return lambda size: next(script)


@pytest.mark.parametrize(
    "p,digits",
    [(0.5, [1]), (0.75, [1, 1]), (0.625, [1, 0, 1]), (2**-60, [0] * 52 + [1])],  # a = 1 for 2**-60
)
def test_u_equal_to_a_is_a_tail_and_a_toss_draws_no_plane_past_the_last_one_of_a(monkeypatch, p, digits):
    # (2, 1, 1): three tails, each with U == a, end the game on turn 2
    sizes = scripted_planes(monkeypatch, digits * 3)
    assert simulate_module._run_stream((2, 1, 1, p, 1, 0, 0, 1)) == {2: 1}
    assert sizes == [1] * (3 * len(digits))
    a = math.ceil(Fraction(p) * 2**53)
    assert reference_play(scripted_reference(digits * 3), 1, 2, 1, 1, a) == [2]


@pytest.mark.parametrize("prefix", [[0], [1, 0]])
def test_u_below_a_is_a_head(monkeypatch, prefix):
    # 0.75 is a = 0b11 then zeros: a U that starts 0 or 10 is a head
    sizes = scripted_planes(monkeypatch, prefix)
    assert simulate_module._run_stream((2, 1, 1, 0.75, 1, 0, 0, 1)) == {1: 1}  # one head reaches 2 on turn 1
    assert sizes == [1] * len(prefix)
    assert reference_play(scripted_reference(prefix), 1, 2, 1, 1, math.ceil(Fraction(0.75) * 2**53)) == [1]


@pytest.mark.parametrize("size", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("p", EDGE_BIASES)
def test_a_toss_is_a_head_exactly_where_u_is_below_a(monkeypatch, p, size):
    # U at and next to a, at both ends of [0, 2**53) and one bit off a, then seeded; game g is bit g
    a = math.ceil(Fraction(p) * 2**53)
    near = [a - 1, a, a + 1, 0, 2**53 - 1, a ^ 1, a ^ 2**52, a ^ 2**26]
    rng = random.Random(size)
    us = [min(max(u, 0), 2**53 - 1) for u in near + [rng.getrandbits(53) for _ in range(size)]][:size]
    planes = [sum(((u >> i) & 1) << g for g, u in enumerate(us)) for i in range(52, -1, -1)]
    script = planes + [(1 << size) - 1] * 2 * 53  # later tosses: what is left, then all ones (tails)
    scripted_planes(monkeypatch, script)
    # (2, 1, 1): a head on the first toss reaches 2 on turn 1
    tally = simulate_module._run_stream((2, 1, 1, p, size, 0, 0, 1))
    assert tally.get(1, 0) == sum(u < a for u in us)
    assert tally == Counter(reference_play(scripted_reference(script), size, 2, 1, 1, a))


@pytest.mark.parametrize("p,turn", [(0.0, 5), (1.0, 3)])
def test_p_0_and_p_1_make_no_draw(monkeypatch, p, turn):
    sizes = scripted_planes(monkeypatch, [])
    monkeypatch.setattr(simulate_module, "_CHUNK", 2)
    assert simulate_module._run_stream((5, 1, 1, p, 5, 0, 0, 1)) == {turn: 5}  # all tails, or all heads
    assert sizes == []


def test_the_planes_of_a_toss_stop_once_every_active_game_is_decided(monkeypatch):
    # a for p = 1/3 begins 0, 1, 0; two games of (2, 1, 1), game g is bit g
    planes = [
        0b01, 0b00,  # turn 1, first player: game 0 a tail at once, game 1 a head on the second plane
        0b10, 0b11, 0b01,  # second player, game 0 only: ties, ties, a tail; game 1's bits are ignored
        0b11,  # turn 2, first player, game 0: a tail, and 1 + 1 reaches 2
    ]
    sizes = scripted_planes(monkeypatch, planes)
    assert simulate_module._run_stream((2, 1, 1, 1 / 3, 2, 0, 0, 1)) == {1: 1, 2: 1}
    assert sizes == [2] * len(planes)
    a = math.ceil(Fraction(1 / 3) * 2**53)
    assert reference_play(scripted_reference(planes), 2, 2, 1, 1, a) == [2, 1]


def test_a_million_games_match_the_signed_turn_law_in_every_bucket():
    g = GameParams(10, 1, 1)
    trials = 10**6  # 16 chunks
    result = simulate_at_pstar(g, trials, seed=35)
    q = Fraction(math.ceil(Fraction(asymptotic_optimum(1, 1).bias) * 2**53), 2**53)  # the chance of one head
    law = signed_turn_law(g, q)
    assert set(result.turn_histogram) <= set(law)
    for k, expected in law.items():
        share = float(expected)
        sigma = math.sqrt(share * (1 - share) / trials)
        assert abs(result.turn_histogram.get(k, 0.0) - share) <= 5 * sigma, k


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
