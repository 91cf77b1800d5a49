"""The benchmark's workloads: inputs drawn from a seed, operations and their checks.

Each workload function makes everything a pass needs (inputs, reference
values) and returns the pass as a list of operations; the runner times each
call and applies its check outside the timed region.  Calls go through module
attributes looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import gate

REFERENCE = Path(__file__).with_name("reference.json")

# large-exact: one game per size class, m = ceil(n/alpha) turns to win.
# (150, 2, 3) and (90, 1, 2) have three interior critical points, so root
# isolation really subdivides; their neighbours have one, so they stay fixed.
# The seed moves the first game's n by -1, 0 or +1 (about 1.5% of a pass's
# work) and shuffles the order of the three.
LARGE_GAMES = ((100, 1, 1), (150, 2, 3), (90, 1, 2))
SMOKE_GAMES = ((10, 1, 1), (12, 2, 3), (9, 1, 2))
MINIMIZE_TOL = 1e-9

# paper-repro: the commands that regenerate the paper's tables and checks.
VERIFY_GRID = {"full": (16, 3, 3), "smoke": (4, 3, 3)}

# monte-carlo: target n -> trials per simulate call, alpha = beta = 1.
SIM_TRIALS = {"full": {10: 300_000, 100: 40_000}, "smoke": {10: 2_000, 20: 1_000}}
SIM_WORKERS = (1, 2)


@dataclass
class Op:
    stage: str  # the stage metric this call's time counts toward
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    games: int = 0  # games played, for simulator throughput
    processes: int = 1  # calls that use several cores are left out of pass_s


def band(games) -> list[tuple[int, int, int]]:
    """Every game a seed can draw from the given size classes."""
    (n, a, b), *fixed = games
    return [(n + d, a, b) for d in (-1, 0, 1)] + list(fixed)


def draw_games(rng: random.Random, games) -> list[tuple[int, int, int]]:
    (n, a, b), *fixed = games
    drawn = [(n + rng.choice((-1, 0, 1)), a, b), *fixed]
    rng.shuffle(drawn)
    return drawn


def game_key(game) -> str:
    return ",".join(str(x) for x in game)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def guard_workers(requested, cpu_count=None) -> list[int]:
    """Worker counts capped at the machine's CPUs, without duplicates.

    The library starts min(workers, streams) processes and does not cap the
    pool itself, so the benchmark never asks for more than ``os.cpu_count()``.
    """
    cap = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    out = []
    for w in requested:
        w = max(1, min(w, cap))
        if w not in out:
            out.append(w)
    return out


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(argv)
    return rc, buf.getvalue()


def paper_repro(lib, root: Path, seed: int, size: str) -> list[Op]:
    reference = load_reference()["cli_stdout_sha256"]
    fixtures = root / "tests" / "fixtures"
    ops = []
    for which in range(1, 6):
        fixture = json.loads((fixtures / f"table{which}.json").read_text())
        argv = ["table", str(which), "--format", "json"]
        ops.append(Op("tables", " ".join(argv),
                      lambda argv=argv: run_cli(lib, argv),
                      lambda out, fixture=fixture: gate.polynomial_table_matches(*out, fixture)))
    for argv in (["table", "4", "--format", "latex"], ["table", "6"]):
        label = " ".join(argv)
        ops.append(Op("tables", label, lambda argv=argv: run_cli(lib, argv),
                      lambda out, want=reference[label]: gate.stdout_matches(*out, want)))
    max_n, max_a, max_b = VERIFY_GRID[size]
    argv = ["verify", "--max-n", str(max_n), "--max-alpha", str(max_a), "--max-beta", str(max_b)]
    cases = max_n * max_a * max_b
    ops.append(Op("verify", " ".join(argv), lambda: run_cli(lib, argv),
                  lambda out: gate.verify_passed(*out, cases)))
    random.Random(seed).shuffle(ops)
    return ops


def large_exact(lib, root: Path, seed: int, size: str) -> list[Op]:
    reference = load_reference()["advantage_sha256"]
    verified: dict[str, list[int]] = {}

    def check_poly(result, key):
        verified.pop(key, None)
        if not gate.advantage_matches(result, reference[key]):
            return False
        verified[key] = gate.coefficients(result.poly)
        return True

    def check_min(result, key):
        coeffs = verified.get(key)
        return coeffs is not None and gate.minimum_plausible(result, coeffs, MINIMIZE_TOL)

    ops = []
    for game in draw_games(random.Random(seed), SMOKE_GAMES if size == "smoke" else LARGE_GAMES):
        params = lib.game.GameParams(*game)
        key = game_key(game)
        ops.append(Op("poly", f"advantage_polynomial{game}",
                      lambda p=params: lib.advantage.advantage_polynomial(p),
                      lambda r, key=key: check_poly(r, key)))
        ops.append(Op("minimize", f"minimize_advantage{game}",
                      lambda p=params: lib.minimize.minimize_advantage(p, MINIMIZE_TOL),
                      lambda r, key=key: check_min(r, key)))
    return ops


def monte_carlo(lib, root: Path, seed: int, size: str, cpu_count=None) -> list[Op]:
    rng = random.Random(seed)
    trials = SIM_TRIALS[size]
    bias = Fraction(lib.minimize.asymptotic_optimum(1, 1).bias)
    first_seen: dict[tuple[int, int], tuple] = {}

    def check(result, n, workers, exact):
        fingerprint = gate.simulation_fingerprint(result)
        repeat_ok = first_seen.setdefault((n, workers), fingerprint) == fingerprint
        return repeat_ok and gate.simulation_plausible(result, exact)

    games = {}
    for n, count in trials.items():
        params = lib.game.GameParams(n, 1, 1)
        games[n] = (params, count, rng.getrandbits(64), lib.advantage.advantage_at(params, bias))
    ops = []
    for workers in guard_workers(SIM_WORKERS, cpu_count):
        for n, (params, count, run_seed, exact) in games.items():
            ops.append(Op(f"sim_w{workers}", f"simulate_at_pstar(n={n}, workers={workers})",
                          lambda p=params, c=count, s=run_seed, w=workers:
                              lib.simulate.simulate_at_pstar(p, c, s, w),
                          lambda r, n=n, w=workers, e=exact: check(r, n, w, e),
                          games=count, processes=workers))
    return ops


# name -> (function making the operations, calibration kernel closest to their work)
WORKLOADS = {
    "paper-repro": (paper_repro, "exact"),
    "large-exact": (large_exact, "exact"),
    "monte-carlo": (monte_carlo, "sim"),
}
