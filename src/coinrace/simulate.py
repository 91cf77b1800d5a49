"""Seeded Monte Carlo replication of the race game.

Randomness contract: draws come from Python's Mersenne Twister (MT19937,
period 2**19937 - 1) as ``_random.Random``, the C type that
:class:`random.Random` extends, with the same integer seeding and draws.  Each
worker owns a private generator seeded with a splitmix64 mix of the 64-bit run
seed and the worker index, so a run is bit-for-bit reproducible for a fixed
(seed, workers) pair and different seeds give statistically independent runs.
Worker counts partition the trials; changing the worker count changes the
stream layout, which preserves correctness but not bit-identity.  The process
pool never exceeds ``os.cpu_count()``; W workers still mean min(W, trials)
seed streams, so the cap changes where streams run, never what they draw.  p
is rounded to a float once, and a checked toss is a head iff the next draw in
[0, 1) is strictly below it; unchecked tosses (below) are heads with the same
chance, so p = 0 never tosses heads and p = 1 always does.

Each stream plays its games in one loop and tallies the signed turn count of
each: +k when the first player reaches the target on their k-th turn, -k when
the second player wins on theirs.  In a turn where no one can reach n, only
each player's head count matters, and such turns are drawn in blocks of at
most 64 tosses: each block draws one uniform u for the first player, then one
for the second, and takes the head count by inversion, as the number of table
entries T_j <= u.  Nobody can reach n before turn l = ceil(n/(alpha+beta)),
so the prefix is one block of min(64, l-1) turns; a game with l = 1 has no
prefix and makes no draw for it.  After the prefix, with both players at
``played`` turns, nobody can reach n in the next r = (n-1-max(scores)) //
(alpha+beta) turns, and while r >= 3 each player draws one more block of
min(r, 64) turns.  r is read from past draws only, so each block is a fixed
number of tosses given what came before.  Three is the threshold because a
block costs one draw and one bisection per player where a checked turn costs
one draw and two compares; it also keeps every game with n <= 11 at
alpha = beta = 1 free of horizon blocks.  A draw is k/2**53 for an integer
k, so one toss is a head with chance exactly q = a/2**53, a = ceil(p*2**53).
With F the Binomial(L, q) cdf of a block of L tosses, computed in integers,
T_j = ceil(F_j*2**53)/2**53, and u < F_j holds exactly when u < T_j: the head
count has the Binomial(L, q) law rounded to the 2**-53 grid of one draw.  The
remaining turns are tossed one by one and checked after every toss, first
player first, and the first player reaches n by turn m = ceil(n/alpha) even
with all tails.  A stream keeps at most 65 tables, one per block size, shared
with the other streams of its process, and the tally is a dict keyed by the
turns that occurred, so a stream's memory never grows with the target n.
"""

from __future__ import annotations

import _random
import os
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import ceil, comb, sqrt
from typing import Mapping, NamedTuple

from .game import GameParams, NormalizedParams, ParameterError, normalize, turn_bounds
from .minimize import _limit_bias

_MASK64 = (1 << 64) - 1
_BLOCK = 64  # unchecked tosses per player drawn from one uniform
_HORIZON = 3  # the fewest safe turns drawn as a block after the prefix; fewer are tossed and checked


class SimConfig(NamedTuple):
    params: GameParams
    p: float  # or any exact rational in [0, 1]
    trials: int
    seed: int
    workers: int = 1


class SimResult(NamedTuple):
    trials: int
    wins: int  # first-player wins
    frequency: float
    stderr: float
    seed: int
    turn_histogram: Mapping[int, float]  # signed turn -> share of trials


def simulate(config: SimConfig) -> SimResult:
    """Play ``config.trials`` independent games and tally first-player wins."""
    _validate(config)
    nparams = normalize(config.params)
    shares = _split_trials(config.trials, config.workers)
    jobs = [
        (nparams.n, nparams.alpha, nparams.beta, float(config.p), share, _stream_seed(config.seed, w))
        for w, share in enumerate(shares)
    ]
    histogram: Counter[int] = Counter()
    for tally in _run_jobs(jobs):
        histogram.update(tally)
    wins = sum(c for t, c in histogram.items() if t > 0)
    frequency = wins / config.trials
    return SimResult(
        trials=config.trials,
        wins=wins,
        frequency=frequency,
        stderr=sqrt(frequency * (1 - frequency) / config.trials),
        seed=config.seed,
        turn_histogram={k: v / config.trials for k, v in sorted(histogram.items())},
    )


def simulate_at_pstar(
    params: GameParams, trials: int, seed: int, workers: int = 1
) -> SimResult:
    """Simulate with the coin bias set to the limiting optimal value."""
    _, bias = _limit_bias(params.alpha, params.beta)
    return simulate(SimConfig(params=params, p=bias, trials=trials, seed=seed, workers=workers))


def _validate(config: SimConfig) -> None:
    if config.trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= config.p <= 1:
        raise ParameterError("p must be in [0, 1]")
    if config.workers < 1:
        raise ParameterError("workers must be >= 1")
    if not 0 <= config.seed <= _MASK64:
        raise ParameterError("seed must be an unsigned 64-bit integer")


def _split_trials(trials: int, workers: int) -> list[int]:
    """Trials per stream; only the first ``min(workers, trials)`` streams get any."""
    streams = min(workers, trials)
    base, extra = divmod(trials, streams)
    return [base + (1 if w < extra else 0) for w in range(streams)]


def _stream_seed(seed: int, worker: int) -> int:
    # splitmix64 finalizer over seed advanced by the worker index
    x = (seed + (worker + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _run_jobs(jobs: list[tuple]) -> list[dict[int, int]]:
    processes = min(len(jobs), os.cpu_count() or 1)  # len(jobs) is min(workers, trials)
    if processes > 1:
        # imported here so that importing the package (and every CLI start) skips the pool
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                return list(pool.map(_run_stream, jobs))
        except (OSError, NotImplementedError):
            pass  # no process support here; fall through to in-process execution
    return [_run_stream(job) for job in jobs]


def _run_stream(job: tuple) -> dict[int, int]:
    n, alpha, beta, p, trials, stream_seed = job
    # the exact C type: CPython 3.11+ specializes gen.random() on it, not on a random.Random or a bound .random
    gen = _random.Random(stream_seed)
    l, m = turn_bounds(NormalizedParams(n, alpha, beta))
    heads = alpha + beta
    opened = min(_BLOCK, l - 1)  # the prefix: turns 1..l-1, where no one can reach n, up to one block
    prefix = _heads_table(opened, p)  # empty when l = 1: no draw
    start = opened * alpha  # the score after the prefix with no heads
    lim = n - 1 - _HORIZON * heads  # both scores <= lim: no one can reach n in the next _HORIZON turns
    tables: list[tuple[float, ...] | None] = [None] * (_BLOCK + 1)  # by block size, filled as met
    checked = range(1, m + 1)  # always breaks: the first player reaches n by turn m
    counts: dict[int, int] = {}
    for _ in range(trials):
        first = second = start
        played = opened
        if prefix:
            first += beta * bisect_right(prefix, gen.random())
            second += beta * bisect_right(prefix, gen.random())
        while first <= lim and second <= lim:
            r = (n - 1 - (first if first > second else second)) // heads  # at least _HORIZON safe turns
            if r > _BLOCK:
                r = _BLOCK
            table = tables[r]
            if table is None:
                table = tables[r] = _heads_table(r, p)
            first += r * alpha + beta * bisect_right(table, gen.random())
            second += r * alpha + beta * bisect_right(table, gen.random())
            played += r
        for k in checked:
            if gen.random() < p:
                first += heads
            else:
                first += alpha
            if first >= n:
                turn = played + k
                break
            if gen.random() < p:
                second += heads
            else:
                second += alpha
            if second >= n:
                turn = -played - k
                break
        counts[turn] = counts.get(turn, 0) + 1
    return counts


@lru_cache(maxsize=_BLOCK + 1)  # every size one p can need; the streams of one process share them
def _heads_table(tosses: int, p: float) -> tuple[float, ...]:
    """T_j = ceil(F_j * 2**53) / 2**53 for j < tosses, F the cdf of the heads in ``tosses`` tosses.

    One toss is a head with chance a/2**53, so F_j * 2**(53 * tosses) is the integer
    sum over i <= j of C(tosses, i) a**i (2**53 - a)**(tosses - i).
    """
    a = ceil(p * (1 << 53))
    b = (1 << 53) - a
    shift = 53 * (tosses - 1)
    table, total = [], 0
    for j in range(tosses):
        total += comb(tosses, j) * a**j * b ** (tosses - j)
        table.append(-(-total >> shift) / (1 << 53))
    return tuple(table)
