"""Seeded Monte Carlo replication of the race game.

Randomness contract: draws come from Python's Mersenne Twister (MT19937,
period 2**19937 - 1) as ``_random.Random``, the C type that
:class:`random.Random` extends, with the same integer seeding and draws.  The
games are played in chunks of ``_CHUNK`` = 2**16 (chunk c holds games
c * 2**16 onward, and the last chunk holds the rest), and each chunk draws from
its own generator, seeded with a splitmix64 mix of the 64-bit run seed and the
chunk index.  Workers only decide which process plays which chunk: with W =
min(workers, chunks), worker w plays chunks w, w + W, w + 2W and so on.  So a
run is bit-for-bit reproducible for a fixed seed, whatever the worker count and
the pool size, and different seeds give statistically independent runs.  The
process pool never exceeds ``os.cpu_count()``.

Each chunk is played bit-sliced: game g of a chunk is bit g of every mask and
every draw, so one integer operation serves the whole chunk.  p is rounded to
a float once, and a toss is a head iff a 53-bit uniform U is below
a = ceil(p * 2**53), so each toss is a head with chance exactly a/2**53, the
chance of ``random() < p``.  U is compared with a most significant bit first:
each bit of U is one plane ``getrandbits(size)`` holding that bit of every
game of the chunk, and the planes of one toss stop as soon as no active game
is undecided, or once the remaining bits of a are all 0 (a game with U equal
to a so far then has U >= a: a tail).  p = 0 and p = 1 make no draw.  Each
turn the first player tosses for every active game, then the second player
for every game still active, and a player's heads so far are a bit-sliced
counter, one plane per binary digit, to which the head mask is added with a
ripple carry.  At turn t a player's score t*alpha + beta*heads reaches n iff
heads >= ceil((n - t*alpha)/beta), which is compared plane by plane; the
games that reach n are tallied at +t for the first player and -t for the
second, and leave the active mask.  The first player reaches n by turn
m = ceil(n/alpha) even with all tails, so every chunk ends.  A chunk's state
is its masks and two counters of at most log2(m) + 1 planes, and the tally is
a dict keyed by the turns that occurred, so a worker's memory never grows
with the number of trials and grows only as log m with the target n.  Each
plane and mask spans the whole chunk however few of its games are still on,
so very few trials at a huge n cost more than a per-game loop would.
"""

from __future__ import annotations

import _random
import os
from collections import Counter
from math import ceil, sqrt
from typing import Mapping, NamedTuple

from .game import GameParams, ParameterError, normalize
from .minimize import _limit_bias

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16  # games per chunk: game g of a chunk is bit g of every mask


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
    workers = min(config.workers, -(-config.trials // _CHUNK))  # only workers with a chunk to play
    jobs = [
        (nparams.n, nparams.alpha, nparams.beta, float(config.p), config.trials, config.seed, w, workers)
        for w in range(workers)
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


def _stream_seed(seed: int, chunk: int) -> int:
    # splitmix64 finalizer over seed advanced by the chunk index: chunk c's generator seed
    x = (seed + (chunk + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _run_jobs(jobs: list[tuple]) -> list[dict[int, int]]:
    processes = min(len(jobs), os.cpu_count() or 1)  # len(jobs) is min(workers, chunks)
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
    n, alpha, beta, p, trials, seed, worker, workers = job  # this worker plays every workers-th chunk
    a = ceil(p * (1 << 53))  # a toss is a head iff its 53-bit uniform U < a
    sure = a >> 53  # p = 1: every toss is a head, with no draw
    digits = "" if sure else f"{a:053b}".rstrip("0")  # a's bits, most significant first, to its last 1
    counts: dict[int, int] = {}
    for start in range(worker * _CHUNK, trials, workers * _CHUNK):
        getrandbits = _random.Random(_stream_seed(seed, start // _CHUNK)).getrandbits
        size = min(_CHUNK, trials - start)
        active = (1 << size) - 1  # game g of the chunk is bit g
        first: list[int] = []  # the first player's heads, one plane per binary digit
        second: list[int] = []
        turn = 0
        while active:
            turn += 1
            need = max(0, -((turn * alpha - n) // beta))  # the heads that reach n by this turn
            for sign, planes in ((1, first), (-1, second)):
                heads = active if sure else 0
                undecided = active
                for digit in digits:  # compare U with a, one plane of U's bits at a time
                    ones = undecided & getrandbits(size)  # no ~: a negative operand costs ~10x
                    if digit == "1":
                        heads |= undecided ^ ones
                        undecided = ones
                    else:
                        undecided ^= ones
                    if not undecided:
                        break
                for i, plane in enumerate(planes):  # ripple-carry add of the head mask
                    planes[i] = plane ^ heads
                    heads &= plane
                    if not heads:
                        break
                else:
                    if heads:
                        planes.append(heads)
                if need > turn or need >> len(planes):
                    continue  # no count of heads so far reaches need
                ge = active  # heads >= need, from the least significant plane up; with no planes, equal
                for i, plane in enumerate(planes):
                    ge = plane & ge if need >> i & 1 else plane | ge
                won = active & ge
                if won:
                    counts[sign * turn] = counts.get(sign * turn, 0) + won.bit_count()
                    active ^= won
                    if not active:
                        break
    return counts
