from pathlib import Path

import workloads
from run import import_library

ROOT = Path(__file__).resolve().parents[2]


def test_guard_never_exceeds_the_cpu_count():
    assert workloads.guard_workers((1, 2), cpu_count=1) == [1]
    assert workloads.guard_workers((1, 2), cpu_count=2) == [1, 2]
    assert workloads.guard_workers((1, 2, 64), cpu_count=4) == [1, 2, 4]
    assert max(workloads.guard_workers((1, 2, 10**6))) <= __import__("os").cpu_count()


def test_monte_carlo_asks_for_no_more_workers_than_cpus():
    # Builds the operations without calling them, so no process is started.
    lib = import_library(ROOT / "src")
    ops = workloads.monte_carlo(lib, ROOT, seed=0, size="smoke", cpu_count=1)
    assert {op.stage for op in ops} == {"sim_w1"}
    ops = workloads.monte_carlo(lib, ROOT, seed=0, size="smoke", cpu_count=2)
    assert [op.stage for op in ops] == ["sim_w1", "sim_w1", "sim_w2", "sim_w2"]


def test_large_exact_draws_one_game_per_class_within_the_band():
    import random

    seen = set()
    for seed in range(30):
        games = workloads.draw_games(random.Random(seed), workloads.LARGE_GAMES)
        assert sorted(g[1:] for g in games) == sorted(c[1:] for c in workloads.LARGE_GAMES)
        assert set(games) <= set(workloads.band(workloads.LARGE_GAMES))
        assert (150, 2, 3) in games and (90, 1, 2) in games
        seen.update(games)
    assert seen == set(workloads.band(workloads.LARGE_GAMES))
