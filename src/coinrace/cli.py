"""Command-line surface: compute, minimize, simulate, verify, reproduce tables.

Exit codes: 0 on success, 1 when verification finds a mismatch, 2 on usage or
parameter-domain errors and when a game is too large for memory or for
Python's integer and list sizes, 141 when stdout is closed early (128 +
SIGPIPE).  Results go to stdout, diagnostics to stderr.  Rational arguments
accept "a", "a/b" or finite decimals ("3/2" == "1.5").  The argument parser is
built on the first ``main()`` call and reused by every later call in the
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from decimal import Decimal

from .advantage import advantage_polynomial
from .game import GameParams, ParameterError, normalize, parse_rational
from .minimize import _check_tol, asymptotic_optimum, minimize_advantage
from .oracle import run_grid_verification
from .polynomial import render
from .simulate import SimConfig, simulate, simulate_at_pstar
from .stopping import hit_time_distribution, win_turn_slots
from .tables import POLYNOMIAL_TABLES, minimized_table, polynomial_table

FORMATS = ("text", "json", "csv", "latex")

# argparse takes only "-1" and "-.5" forms for values; this also covers "-1e-9" and "-1/2"
_NEGATIVE_VALUE = re.compile(r"-[\d.]")
_FLAGS_WITHOUT_VALUE = ("--", "--help", "--at-pstar")  # "--" ends the options

_GAME_HELP = {"n": "points needed to win", "alpha": "points per tail", "beta": "bonus points per head"}


class Report:
    """One command's result, ready to be printed in any of the four formats.

    ``doc`` is the JSON document and ``header`` the CSV header.  ``rows``,
    ``text`` and ``latex`` are callables returning the CSV rows and the text
    and LaTeX lines, so only the requested format is rendered.  ``rows`` may
    be None: the CSV output is then the one row of the document's values at
    the header's keys.  ``code`` is the exit code.
    """

    def __init__(self, doc, header, rows, text, latex, code=0):
        self.doc, self.header, self.rows, self.text, self.latex = doc, header, rows, text, latex
        self.code = code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _emit(args.format, args.handler(args))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: this game is too large for this machine", file=sys.stderr)
        return 2
    except OverflowError:  # a shift or a list size past what Python can represent
        print("error: this game is too large to compute", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at exit
        # cannot raise again, and exit as a shell reports death by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


def _join_negative_values(argv) -> list[str]:
    """Write ``--flag -1e-9`` as ``--flag=-1e-9``, so that the value reaches its flag."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and "=" not in flag and flag not in _FLAGS_WITHOUT_VALUE
                and _NEGATIVE_VALUE.match(arg)):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def _emit(fmt: str, report: Report) -> int:
    if fmt == "csv":
        rows = report.rows() if report.rows else [[report.doc[key] for key in report.header]]
        csv.writer(sys.stdout, lineterminator="\n").writerows([report.header, *rows])
    elif fmt == "json":
        print(json.dumps(report.doc))
    else:
        print("\n".join(report.text() if fmt == "text" else report.latex()))
    return report.code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinrace",
        description="Exact analysis of the alternating biased-coin race game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, game_help=_GAME_HELP):
        p = sub.add_parser(name, help=help)
        for flag, text in game_help.items():
            p.add_argument(f"--{flag}", type=parse_rational, required=True, help=text)
        p.set_defaults(handler=handler)
        return p

    command("poly", "advantage polynomial for one game", _cmd_poly)
    command("pmf", "per-turn win probabilities for one player", _cmd_pmf)
    p = command("minimize", "bias minimizing the first player's advantage", _cmd_minimize)
    p.add_argument("--tol", type=float, default=1e-9, help="bracket width for the minimizer")
    command("pstar", "the paper's limiting optimal bias for large targets "
            "(the exact optimum's limit only for integer alpha/beta)", _cmd_pstar, {"alpha": None, "beta": None})

    p = command("simulate", "seeded Monte Carlo games", _cmd_simulate)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=parse_rational, help="coin bias")
    group.add_argument("--at-pstar", action="store_true", help="use the limiting optimal bias")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes to play the chunks on; the result does not depend on it")

    p = command("table", "regenerate a reference table from scratch", _cmd_table, {})
    p.add_argument("which", type=int, help="table number, 1-6")
    p.add_argument("--tol", type=float, default=1e-9, help="minimizer precision (table 6)")

    p = command("verify", "brute-force cross-check over a parameter grid", _cmd_verify, {})
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-alpha", type=int, default=3)
    p.add_argument("--max-beta", type=int, default=3)

    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="text")
    return parser


def _params(args) -> GameParams:
    return GameParams(args.n, args.alpha, args.beta)


def _exact(x) -> str:
    """``str(x)`` of an int or a Fraction, also past CPython's cap on the digits of an int, which Decimal lacks."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _cmd_poly(args) -> Report:
    result = advantage_polynomial(_params(args))
    poly = result.poly
    suffix = " (degenerate: advantage is 1 for every p)" if result.degenerate else ""
    n, alpha, beta = map(_exact, (args.n, args.alpha, args.beta))
    return Report(
        {"n": n, "alpha": alpha, "beta": beta,
         "l": result.bounds.l, "m": result.bounds.m, "degenerate": result.degenerate,
         "degree": poly.degree, "coefficients": [_exact(c) for c in poly.coeffs]},
        ["n", "alpha", "beta", "degenerate", "degree", "polynomial"],
        lambda: [[n, alpha, beta, result.degenerate, poly.degree, render(poly)]],
        lambda: [render(poly) + suffix],
        lambda: [f"${render(poly, latex=True)}$"],
    )


def _cmd_pmf(args) -> Report:
    dist = hit_time_distribution(normalize(_params(args)))
    support = dist.support()
    return Report(
        {"l": dist.bounds.l, "m": dist.bounds.m,
         "pmf": {str(k): list(dist.pmf[k].coeffs) for k in support}},
        ["k", "polynomial"],
        lambda: [[k, render(dist.pmf[k])] for k in support],
        lambda: [f"k={k}: {render(dist.pmf[k])}" for k in support],
        lambda: [f"{k} & ${render(dist.pmf[k], latex=True)}$ \\\\" for k in support],
    )


def _cmd_minimize(args) -> Report:
    r = minimize_advantage(_params(args), args.tol)

    def text():
        if r.degenerate:
            return ["degenerate: advantage is 1 for every p"]
        lines = [f"minimizing bias = {r.bias:.12g}", f"advantage at minimum = {r.value:.12g}"]
        if r.tie:
            lines.append("tie: another critical point attains the same value")
        return lines

    bias = "-" if r.degenerate else f"{r.bias:.6f}"
    n, alpha, beta = map(_exact, (args.n, args.alpha, args.beta))
    return Report(
        {"n": n, "alpha": alpha, "beta": beta,
         "degenerate": r.degenerate, "bias": r.bias, "value": r.value, "tol": r.tol, "tie": r.tie,
         "bracket": [str(end) for end in r.bracket] if r.bracket else None},
        ["n", "alpha", "beta", "degenerate", "bias", "value", "tol"], None,
        text,
        lambda: [f"{n} & {alpha} & {beta} & {bias} & {r.value:.3f} \\\\"],
    )


def _cmd_pstar(args) -> Report:
    opt = asymptotic_optimum(args.alpha, args.beta)
    alpha, beta = _exact(args.alpha), _exact(args.beta)
    return Report(
        {"alpha": alpha, "beta": beta, "t": str(opt.t),
         "p_star": opt.bias, "variance": opt.variance},
        ["alpha", "beta", "t", "p_star", "variance"], None,
        lambda: [f"t = {opt.t}", f"p_star = {opt.bias!r}", f"variance at p_star = {opt.variance!r}"],
        lambda: [f"{alpha} & {beta} & {opt.bias:.9f} \\\\"],
    )


def _cmd_simulate(args) -> Report:
    params = _params(args)
    if args.at_pstar:
        r = simulate_at_pstar(params, args.trials, args.seed, args.workers)
    else:
        r = simulate(SimConfig(params, args.p, args.trials, args.seed, args.workers))
    return Report(
        {"trials": r.trials, "wins": r.wins, "frequency": r.frequency, "stderr": r.stderr,
         "seed": r.seed, "workers": args.workers,
         "turn_histogram": {str(k): v for k, v in r.turn_histogram.items()}},
        ["trials", "wins", "frequency", "stderr", "seed", "workers"], None,
        lambda: [f"trials = {r.trials}", f"wins = {r.wins}", f"frequency = {r.frequency!r}",
                 f"stderr = {r.stderr!r}", f"seed = {r.seed}"],
        lambda: [f"{r.trials} & {r.wins} & {r.frequency:.4f} & {r.stderr:.5f} \\\\"],
    )


def _cmd_table(args) -> Report:
    _check_tol(args.tol)
    if args.which in POLYNOMIAL_TABLES:
        rows = polynomial_table(args.which)
        alpha, beta, _ = POLYNOMIAL_TABLES[args.which]
        return Report(
            {"table": args.which, "alpha": alpha, "beta": beta,
             "rows": [{"n": n, "degenerate": result.degenerate,
                       "coefficients": list(result.poly.coeffs)} for n, result in rows]},
            ["n", "alpha", "beta", "polynomial"],
            lambda: [[n, alpha, beta, render(result.poly)] for n, result in rows],
            lambda: [f"n={n}: {render(result.poly)}" for n, result in rows],
            lambda: [f"{n} & ${render(result.poly, latex=True)}$ \\\\" for n, result in rows],
        )
    if args.which != 6:
        raise ParameterError(f"unknown table {args.which}; valid tables are 1-6")
    rows, tolerance = minimized_table(args.tol)
    annotated = [
        (row, "advisory: reference row inconsistent with exact recomputation"
         if row.flagged or not row.within_tolerance(tolerance) else "")
        for row in rows
    ]
    return Report(
        {"table": 6, "tolerance": tolerance,
         "rows": [{"n": row.n, "alpha": row.alpha, "beta": row.beta,
                   "min_value": round(row.min_value, 3), "limit_value": round(row.limit_value, 3),
                   "reference_min": row.reference_min, "reference_limit": row.reference_limit,
                   "flagged": bool(note)} for row, note in annotated]},
        ["n", "alpha", "beta", "min_value", "limit_value", "note"],
        lambda: [[row.n, row.alpha, row.beta, f"{row.min_value:.3f}", f"{row.limit_value:.3f}", note]
                 for row, note in annotated],
        lambda: [f"n={row.n} alpha={row.alpha} beta={row.beta}: min={row.min_value:.3f} "
                 f"at-limit-bias={row.limit_value:.3f}" + (f"  [{note}]" if note else "")
                 for row, note in annotated],
        lambda: [f"{row.n} & {row.alpha} & {row.beta} & {row.min_value:.3f} & "
                 f"{row.limit_value:.3f}" + (r" \footnotemark" if note else "") + " \\\\"
                 for row, note in annotated],
    )


def _cmd_verify(args) -> Report:
    """Verify's LaTeX output is its text output; its CSV rows end with the summary lines."""
    total, mismatches, skipped = run_grid_verification(
        args.max_n, args.max_alpha, args.max_beta, win_turn_slots)
    matched = total - len(mismatches)
    summary = [f"{matched}/{total} cases match"]
    doc = {"total": total, "matched": matched, "mismatches": mismatches}
    if skipped:
        summary.append(f"{len(skipped)} cases skipped: longer than the oracle's turn cap")
        doc["skipped"] = skipped
    columns = ["n", "alpha", "beta", "k"]

    def text():
        return [f"mismatch: n={m['n']} alpha={m['alpha']} beta={m['beta']} k={m['k']}"
                for m in mismatches] + summary

    return Report(
        doc, columns, lambda: [[m[c] for c in columns] for m in mismatches] + [[line] for line in summary],
        text, text, code=1 if mismatches else 0,
    )


if __name__ == "__main__":
    run()
