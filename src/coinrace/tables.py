"""Regeneration of the reference tables from scratch.

Tables 1-5 are grids of exact advantage polynomials; table 6 compares the
minimized advantage with the advantage at the limiting optimal bias.  Table 6
reference values ship as package data with per-row flags: rows whose
simulation-derived reference values disagree with the exact recomputation are
advisory, never hard errors.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .advantage import AdvantageResult, _advantage, advantage_polynomial
from .game import GameParams, ParameterError
from .minimize import _at_limit_bias, _check_tol, _minimize

POLYNOMIAL_TABLES: dict[int, tuple[int, int, list[int]]] = {
    1: (1, 1, list(range(1, 13))),
    2: (1, 2, list(range(1, 13))),
    3: (2, 1, list(range(2, 25, 2))),
    4: (2, 3, list(range(2, 25, 2))),
    5: (3, 2, list(range(3, 37, 3))),
}


class MinimizedRow(NamedTuple):
    n: int
    alpha: int
    beta: int
    min_value: float  # exact minimum of the advantage, recomputed
    limit_value: float  # advantage at the limiting optimal bias, recomputed
    reference_min: float
    reference_limit: float
    flagged: bool

    def within_tolerance(self, tolerance: float) -> bool:
        return (
            abs(self.min_value - self.reference_min) <= tolerance
            and abs(self.limit_value - self.reference_limit) <= tolerance
        )


def polynomial_table(which: int) -> list[tuple[int, AdvantageResult]]:
    """Recompute every row of one of the polynomial tables."""
    if which not in POLYNOMIAL_TABLES:
        raise ParameterError(f"unknown table {which}; polynomial tables are 1-5")
    alpha, beta, ns = POLYNOMIAL_TABLES[which]
    return [(n, advantage_polynomial(GameParams(n, alpha, beta))) for n in ns]


def reference_minimized() -> tuple[list[dict], float]:
    """Reference rows for the minimized-advantage table and their tolerance."""
    payload = resources.files("coinrace.data").joinpath("table6_reference.json")
    doc = json.loads(payload.read_text())
    return doc["rows"], doc["tolerance"]


def minimized_table(tol: float = 1e-9) -> tuple[list[MinimizedRow], float]:
    """Recompute both columns of the minimized-advantage table.

    Each row's advantage is built once, in the (p, 1-p) basis alone, and
    serves both columns.
    """
    _check_tol(tol)
    rows, tolerance = reference_minimized()
    out = []
    for row in rows:
        adv = _advantage(GameParams(row["n"], row["alpha"], row["beta"]))
        out.append(
            MinimizedRow(
                n=row["n"],
                alpha=row["alpha"],
                beta=row["beta"],
                min_value=_minimize(adv, tol).value,
                limit_value=_at_limit_bias(adv),
                reference_min=row["min_value"],
                reference_limit=row["limit_value"],
                flagged=row["flagged"],
            )
        )
    return out, tolerance
