"""Correctness gate: one pure check per benchmark operation.

Each check returns True when the operation's output is right.  None of them
uses the library code path it checks: polynomial tables are compared with the
golden fixtures, large games with coefficient digests recorded once from a
known-good commit (see ``record_reference.py``), the minimizer's bracket with
exact evaluation of the verified polynomial, and the simulator with the exact
advantage computed during set-up.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional


def coefficients(poly) -> Optional[list[int]]:
    """Integer coefficients, ascending, or None if any coefficient is not an integer."""
    out = []
    for c in getattr(poly, "coeffs", poly):
        c = Fraction(c)
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coeff_digest(coeffs: list[int]) -> str:
    """SHA-256 of the decimal coefficients joined by commas, lowest power first."""
    return digest(",".join(str(c) for c in coeffs))


def polynomial_table_matches(rc: int, stdout: str, fixture: dict) -> bool:
    """``table N --format json`` output has exactly the fixture's rows and coefficients."""
    if rc != 0:
        return False
    try:
        doc = json.loads(stdout)
        got = [(row["n"], [int(c) for c in row["coefficients"]]) for row in doc["rows"]]
    except (ValueError, KeyError, TypeError):
        return False
    want = [(row["n"], [int(c) for c in row["coefficients"]]) for row in fixture["rows"]]
    return doc.get("table") == fixture["table"] and got == want


def stdout_matches(rc: int, stdout: str, expected_sha256: str) -> bool:
    return rc == 0 and digest(stdout) == expected_sha256


def verify_passed(rc: int, stdout: str, cases: int) -> bool:
    """``verify`` text output reports every one of ``cases`` cases matching."""
    return rc == 0 and stdout == f"{cases}/{cases} cases match\n"


def advantage_matches(result, expected_sha256: str) -> bool:
    coeffs = coefficients(result.poly)
    return coeffs is not None and coeff_digest(coeffs) == expected_sha256


def evaluate(coeffs: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def minimum_plausible(result, coeffs: list[int], tol: float) -> bool:
    """The minimizer's bracket is narrow and holds a local minimum of the polynomial.

    The bracket [lo, hi] must have width <= tol, the derivative must change
    sign from <= 0 to >= 0 across it, the reported exact value must be the
    polynomial at the bracket midpoint, and that value must not exceed the
    polynomial at both bracket ends (near a minimum the polynomial is convex,
    so the midpoint can exceed one end but never both).
    """
    if result.bracket is None:
        return False
    lo, hi = (Fraction(x) for x in result.bracket)
    if not 0 <= lo <= hi <= 1 or hi - lo > Fraction(tol):
        return False
    slope = derivative(coeffs)
    if evaluate(slope, lo) > 0 or evaluate(slope, hi) < 0:
        return False
    value = Fraction(result.value_exact)
    if value != evaluate(coeffs, (lo + hi) / 2):
        return False
    return value <= max(evaluate(coeffs, lo), evaluate(coeffs, hi))


def simulation_plausible(result, exact: Fraction, sigmas: float = 5.0) -> bool:
    """Observed win frequency lies within ``sigmas`` standard errors of the exact value."""
    return abs(Fraction(result.frequency) - exact) <= Fraction(sigmas * result.stderr)


def simulation_fingerprint(result) -> tuple:
    """What must repeat bit for bit when a simulation is rerun with the same seed and workers."""
    return (result.trials, result.wins, result.frequency, result.stderr,
            tuple(sorted(result.turn_histogram.items())))
