"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Golden fixtures live in tests/fixtures; the minimized-value
reference rows ship as package data (flagged rows there are advisory: their
published values are inconsistent with exact recomputation, see the fixture
notes).
"""

import json
import math
import random
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from algebra import ref_add, ref_expand_counts
from coinrace.advantage import advantage_at, advantage_polynomial
from coinrace.game import GameParams, normalize, turn_bounds
from coinrace.minimize import asymptotic_optimum, minimize_advantage
from coinrace.oracle import brute_force_hit_pmf
from coinrace.polynomial import ONE, Poly
from coinrace.simulate import SimConfig, simulate
from coinrace.stopping import hit_time_distribution, win_turn_slots
from coinrace.tables import minimized_table, reference_minimized

FIXTURES = Path(__file__).parent / "fixtures"


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def load_fixture_rows():
    for which in range(1, 6):
        doc = json.loads((FIXTURES / f"table{which}.json").read_text())
        for row in doc["rows"]:
            yield which, doc["alpha"], doc["beta"], row["n"], row["coefficients"]


def test_criterion_1_golden_polynomial_tables(capsys):
    import coinrace.cli as cli

    start = time.perf_counter()
    mismatches = []
    total = 0
    for which in range(1, 6):
        doc = json.loads((FIXTURES / f"table{which}.json").read_text())
        assert cli.main(["table", str(which), "--format", "json"]) == 0
        regenerated = json.loads(capsys.readouterr().out)
        fixture_rows = {row["n"]: row["coefficients"] for row in doc["rows"]}
        for row in regenerated["rows"]:
            total += 1
            if row["coefficients"] != fixture_rows[row["n"]]:
                mismatches.append((which, row["n"]))
    elapsed = time.perf_counter() - start
    ok = not mismatches and total == 60 and elapsed < 10
    with capsys.disabled():
        assert report(
            "criterion 1: golden tables 1-5, 60 rows coefficient-exact",
            ok,
            f"{total} rows, {elapsed:.2f}s, mismatches={mismatches}",
        )


def test_criterion_2_degenerate_rows():
    ok = True
    for params in [(2, 2, 1), (4, 2, 1), (3, 3, 2), (6, 3, 2)]:
        bounds = turn_bounds(normalize(GameParams(*params)))
        structural = bounds.l == bounds.m
        result = advantage_polynomial(GameParams(*params))
        ok = ok and structural and result.degenerate and result.poly == ONE
    assert report("criterion 2: degenerate games constant 1 via both paths", ok)


def test_criterion_3_degree_law():
    ok = True
    for _, alpha, beta, n, coefficients in load_fixture_rows():
        if coefficients == [1]:
            continue  # degenerate row
        m = math.ceil(Fraction(n, alpha))
        ok = ok and len(coefficients) - 1 == 2 * m - 2
    assert report("criterion 3: degree 2*ceil(n/alpha) - 2 on all non-degenerate rows", ok)


def exhaustive_grid():
    for n in range(1, 11):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                yield normalize(GameParams(n, alpha, beta))


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    bad = []
    total = 0
    for params in exhaustive_grid():
        total += 1
        dist = hit_time_distribution(params)
        counts = brute_force_hit_pmf(params)
        if (counts != {k: win_turn_slots(k, params) for k in dist.support()}
                or ref_expand_counts(counts) != {k: f.coeffs for k, f in dist.pmf.items()}):
            bad.append(params)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    assert report(
        "criterion 4: oracle equivalence, n<=10 alpha,beta<=4",
        ok,
        f"{total} triples, {elapsed:.1f}s",
    )


def test_criterion_5_distribution_identities():
    grid = [Fraction(i, 16) for i in range(17)]
    ok = True
    for params in exhaustive_grid():
        dist = hit_time_distribution(params)
        ok = ok and reduce(ref_add, (f.coeffs for f in dist.pmf.values()), ()) == (1,)
        for poly in dist.pmf.values():
            ok = ok and all(0 <= poly(p) <= 1 for p in grid)
    assert report("criterion 5: unit mass and pointwise [0,1] on 17-point grid", ok)


def test_criterion_6_limit_bias_constants():
    checks = [
        abs(asymptotic_optimum(1, 1).bias - (2 - math.sqrt(3))) <= 1e-9,
        abs(asymptotic_optimum(2, 1).bias - (3 - math.sqrt(7))) <= 1e-9,
        abs(asymptotic_optimum(1, 2).bias - (3 - math.sqrt(7)) / 2) <= 1e-9,
    ]
    rng = random.Random(6021023)
    residuals = []
    for _ in range(50):
        alpha = Fraction(rng.randint(1, 60), rng.randint(1, 10))
        beta = Fraction(rng.randint(1, 60), rng.randint(1, 10))
        p = asymptotic_optimum(alpha, beta).bias
        residuals.append(
            abs(3 * float(beta) / (float(alpha) + float(beta) * p) - 1 / p + 1 / (1 - p))
        )
    ok = all(checks) and max(residuals) <= 1e-9
    assert report(
        "criterion 6: closed-form bias constants and stationarity at 1e-9",
        ok,
        f"max residual {max(residuals):.2e}",
    )


@pytest.fixture(scope="module")
def minimized_rows():
    return minimized_table(tol=1e-9)


def test_criterion_7_minimized_table(minimized_rows):
    rows, tolerance = minimized_rows
    start = time.perf_counter()
    largest = minimize_advantage(GameParams(45, 3, 2), tol=1e-9)
    largest_elapsed = time.perf_counter() - start
    failures = []
    for row in rows:
        within = row.within_tolerance(tolerance)
        status = "ok" if within else ("advisory" if row.flagged else "FAIL")
        print(
            f"    ({row.n},{row.alpha},{row.beta}): min {row.min_value:.4f} vs {row.reference_min:.3f}, "
            f"limit {row.limit_value:.4f} vs {row.reference_limit:.3f} -> {status}"
        )
        if not within and not row.flagged:
            failures.append((row.n, row.alpha, row.beta))
    ok = not failures and largest_elapsed < 30
    assert report(
        "criterion 7: minimized table within 0.005 (flagged rows advisory)",
        ok,
        f"largest row {largest_elapsed:.2f}s, value {largest.value:.4f}",
    )


def exact_grid_minimum(poly: Poly, points: int) -> Fraction:
    """Minimum of an integer-coefficient polynomial over {i/points}, exactly.

    Shares one denominator points**degree across the grid so the scan reduces
    to integer Horner evaluation and an integer min.
    """
    coeffs = [int(c) for c in poly.coeffs]
    d = len(coeffs) - 1
    powers = [points**t for t in range(d + 1)]
    best = None
    for i in range(points + 1):
        acc = coeffs[-1]
        for j in range(d - 1, -1, -1):
            acc = acc * i + coeffs[j] * powers[d - j]
        best = acc if best is None or acc < best else best
    return Fraction(best, powers[d])


def test_criterion_8_minimizer_certificate():
    rows, _ = reference_minimized()
    slack = Fraction(1, 10**9)
    ok = True
    for row in rows:
        params = GameParams(row["n"], row["alpha"], row["beta"])
        result = minimize_advantage(params, tol=1e-9)
        grid_min = exact_grid_minimum(advantage_polynomial(params).poly, 10**4)
        ok = ok and result.value_exact <= grid_min + slack
    assert report("criterion 8: minimum beats a 10^4-point grid within 1e-9", ok)


def test_criterion_9_simulator_statistics():
    bias = 2 - math.sqrt(3)
    ok = True
    details = []
    for n in (5, 10, 15):
        config = SimConfig(GameParams(n, 1, 1), bias, 100_000, seed=90210)
        result = simulate(config)
        exact = float(advantage_at(GameParams(n, 1, 1), Fraction(bias)))
        gap = abs(result.frequency - exact)
        ok = ok and gap <= 5 * result.stderr
        ok = ok and simulate(config) == result  # bit-identical re-run
        details.append(f"n={n}: |{result.frequency:.4f}-{exact:.4f}|<={5 * result.stderr:.4f}")
    assert report("criterion 9: simulation within 5 stderr and reproducible", ok, "; ".join(details))


def test_criterion_10_convergence_toward_limit():
    limit = asymptotic_optimum(1, 1).bias
    gap_10 = abs(minimize_advantage(GameParams(10, 1, 1)).bias - limit)
    gap_50 = abs(minimize_advantage(GameParams(50, 1, 1)).bias - limit)
    ok = gap_50 < gap_10 and gap_50 < 0.05
    assert report(
        "criterion 10: minimizing bias approaches the limit",
        ok,
        f"|p_10-p*|={gap_10:.4f}, |p_50-p*|={gap_50:.4f}",
    )


def test_criterion_11_scaling_invariance():
    rng = random.Random(1123581321)
    ok = True
    for _ in range(100):
        n = Fraction(rng.randint(1, 8))
        alpha = Fraction(rng.randint(1, 8), rng.randint(1, 2))
        beta = Fraction(rng.randint(1, 8), rng.randint(1, 2))
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        base = advantage_polynomial(GameParams(n, alpha, beta))
        scaled = advantage_polynomial(GameParams(c * n, c * alpha, c * beta))
        ok = ok and base.poly == scaled.poly
    assert report("criterion 11: advantage invariant under parameter scaling", ok)
