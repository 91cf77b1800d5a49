"""Command-line surface: compute, minimize, simulate, verify, reproduce tables.

Exit codes: 0 on success, 1 when verification finds a mismatch, 2 on usage or
parameter-domain errors.  Results go to stdout, diagnostics to stderr.
Rational arguments accept "a", "a/b" or finite decimals ("3/2" == "1.5").
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .advantage import advantage_polynomial
from .game import GameParams, ParameterError, normalize, parse_rational
from .minimize import asymptotic_optimum, minimize_advantage
from .oracle import brute_force_hit_pmf
from .polynomial import Poly, render
from .simulate import SimConfig, SimResult, simulate, simulate_at_pstar
from .stopping import hit_time_distribution
from .tables import POLYNOMIAL_TABLES, minimized_table, polynomial_table

FORMATS = ("text", "json", "csv", "latex")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinrace",
        description="Exact analysis of the alternating biased-coin race game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text")

    def add_params(p):
        p.add_argument("--n", type=parse_rational, required=True, help="points needed to win")
        p.add_argument("--alpha", type=parse_rational, required=True, help="points per tail")
        p.add_argument("--beta", type=parse_rational, required=True, help="bonus points per head")

    p = sub.add_parser("poly", help="advantage polynomial for one game")
    add_params(p)
    add_format(p)
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("pmf", help="per-turn win probabilities for one player")
    add_params(p)
    add_format(p)
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("minimize", help="bias minimizing the first player's advantage")
    add_params(p)
    p.add_argument("--tol", type=float, default=1e-9, help="bracket width for the minimizer")
    add_format(p)
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("pstar", help="limiting optimal bias for large targets")
    p.add_argument("--alpha", type=parse_rational, required=True)
    p.add_argument("--beta", type=parse_rational, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_pstar)

    p = sub.add_parser("simulate", help="seeded Monte Carlo games")
    add_params(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=parse_rational, help="coin bias")
    group.add_argument(
        "--at-pstar", action="store_true", help="use the limiting optimal bias"
    )
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_format(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("table", help="regenerate a reference table from scratch")
    p.add_argument("which", type=int, help="table number, 1-6")
    p.add_argument("--tol", type=float, default=1e-9, help="minimizer precision (table 6)")
    add_format(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="brute-force cross-check over a parameter grid")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-alpha", type=int, default=3)
    p.add_argument("--max-beta", type=int, default=3)
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _params(args) -> GameParams:
    return GameParams(args.n, args.alpha, args.beta)


def _coeff_strings(poly: Poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _csv_lines(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _cmd_poly(args) -> int:
    result = advantage_polynomial(_params(args))
    text_poly = render(result.poly)
    if args.format == "text":
        suffix = " (degenerate: advantage is 1 for every p)" if result.degenerate else ""
        print(f"{text_poly}{suffix}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "n": str(args.n),
                    "alpha": str(args.alpha),
                    "beta": str(args.beta),
                    "l": result.bounds.l,
                    "m": result.bounds.m,
                    "degenerate": result.degenerate,
                    "degree": result.poly.degree,
                    "coefficients": _coeff_strings(result.poly),
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "alpha", "beta", "degenerate", "degree", "polynomial"],
                [[args.n, args.alpha, args.beta, result.degenerate, result.poly.degree, text_poly]],
            )
        )
    else:
        print(f"${render(result.poly, latex=True)}$")
    return 0


def _cmd_pmf(args) -> int:
    dist = hit_time_distribution(normalize(_params(args)))
    if args.format == "text":
        for k in dist.support():
            print(f"k={k}: {render(dist.pmf[k])}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "l": dist.bounds.l,
                    "m": dist.bounds.m,
                    "pmf": {str(k): [int(c) for c in dist.pmf[k].coeffs] for k in dist.support()},
                }
            )
        )
    elif args.format == "csv":
        print(_csv_lines(["k", "polynomial"], [[k, render(dist.pmf[k])] for k in dist.support()]))
    else:
        for k in dist.support():
            print(f"{k} & ${render(dist.pmf[k], latex=True)}$ \\\\")
    return 0


def _cmd_minimize(args) -> int:
    result = minimize_advantage(_params(args), args.tol)
    if args.format == "text":
        if result.degenerate:
            print("degenerate: advantage is 1 for every p")
        else:
            print(f"minimizing bias = {result.bias:.12g}")
            print(f"advantage at minimum = {result.value:.12g}")
            if result.tie:
                print("tie: another critical point attains the same value")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "n": str(args.n),
                    "alpha": str(args.alpha),
                    "beta": str(args.beta),
                    "degenerate": result.degenerate,
                    "bias": result.bias,
                    "value": result.value,
                    "tol": result.tol,
                    "tie": result.tie,
                    "bracket": [str(end) for end in result.bracket] if result.bracket else None,
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "alpha", "beta", "degenerate", "bias", "value", "tol"],
                [[args.n, args.alpha, args.beta, result.degenerate, result.bias, result.value, result.tol]],
            )
        )
    else:
        bias = "-" if result.degenerate else f"{result.bias:.6f}"
        print(f"{args.n} & {args.alpha} & {args.beta} & {bias} & {result.value:.3f} \\\\")
    return 0


def _cmd_pstar(args) -> int:
    optimum = asymptotic_optimum(args.alpha, args.beta)
    if args.format == "text":
        print(f"t = {optimum.t}")
        print(f"p_star = {optimum.bias!r}")
        print(f"variance at p_star = {optimum.variance!r}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "alpha": str(args.alpha),
                    "beta": str(args.beta),
                    "t": str(optimum.t),
                    "p_star": optimum.bias,
                    "variance": optimum.variance,
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["alpha", "beta", "t", "p_star", "variance"],
                [[args.alpha, args.beta, optimum.t, repr(optimum.bias), repr(optimum.variance)]],
            )
        )
    else:
        print(f"{args.alpha} & {args.beta} & {optimum.bias:.9f} \\\\")
    return 0


def _cmd_simulate(args) -> int:
    params = _params(args)
    if args.at_pstar:
        result = simulate_at_pstar(params, args.trials, args.seed, args.workers)
    else:
        config = SimConfig(
            params=params, p=float(args.p), trials=args.trials, seed=args.seed, workers=args.workers
        )
        result = simulate(config)
    _print_sim_result(result, args)
    return 0


def _print_sim_result(result: SimResult, args) -> None:
    if args.format == "text":
        print(f"trials = {result.trials}")
        print(f"wins = {result.wins}")
        print(f"frequency = {result.frequency!r}")
        print(f"stderr = {result.stderr!r}")
        print(f"seed = {result.seed}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "trials": result.trials,
                    "wins": result.wins,
                    "frequency": result.frequency,
                    "stderr": result.stderr,
                    "seed": result.seed,
                    "workers": args.workers,
                    "turn_histogram": {str(k): v for k, v in result.turn_histogram.items()},
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["trials", "wins", "frequency", "stderr", "seed", "workers"],
                [[result.trials, result.wins, repr(result.frequency), repr(result.stderr), result.seed, args.workers]],
            )
        )
    else:
        print(f"{result.trials} & {result.wins} & {result.frequency:.4f} & {result.stderr:.5f} \\\\")


def _cmd_table(args) -> int:
    if args.which in POLYNOMIAL_TABLES:
        return _polynomial_table_out(args)
    if args.which == 6:
        return _minimized_table_out(args)
    print(f"error: unknown table {args.which}; valid tables are 1-6", file=sys.stderr)
    return 2


def _polynomial_table_out(args) -> int:
    rows = polynomial_table(args.which)
    alpha, beta, _ = POLYNOMIAL_TABLES[args.which]
    if args.format == "text":
        for n, result in rows:
            print(f"n={n}: {render(result.poly)}")
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "table": args.which,
                    "alpha": alpha,
                    "beta": beta,
                    "rows": [
                        {
                            "n": n,
                            "degenerate": result.degenerate,
                            "coefficients": [int(c) for c in result.poly.coeffs],
                        }
                        for n, result in rows
                    ],
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "alpha", "beta", "polynomial"],
                [[n, alpha, beta, render(result.poly)] for n, result in rows],
            )
        )
    else:
        for n, result in rows:
            print(f"{n} & ${render(result.poly, latex=True)}$ \\\\")
    return 0


def _minimized_table_out(args) -> int:
    rows, tolerance = minimized_table(args.tol)
    annotated = [
        (row, "advisory: reference row inconsistent with exact recomputation"
         if row.flagged or not row.within_tolerance(tolerance) else "")
        for row in rows
    ]
    if args.format == "text":
        for row, note in annotated:
            mark = f"  [{note}]" if note else ""
            print(
                f"n={row.n} alpha={row.alpha} beta={row.beta}: "
                f"min={row.min_value:.3f} at-limit-bias={row.limit_value:.3f}{mark}"
            )
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "table": 6,
                    "tolerance": tolerance,
                    "rows": [
                        {
                            "n": row.n,
                            "alpha": row.alpha,
                            "beta": row.beta,
                            "min_value": round(row.min_value, 3),
                            "limit_value": round(row.limit_value, 3),
                            "reference_min": row.reference_min,
                            "reference_limit": row.reference_limit,
                            "flagged": bool(note),
                        }
                        for row, note in annotated
                    ],
                }
            )
        )
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "alpha", "beta", "min_value", "limit_value", "note"],
                [
                    [row.n, row.alpha, row.beta, f"{row.min_value:.3f}", f"{row.limit_value:.3f}", note]
                    for row, note in annotated
                ],
            )
        )
    else:
        for row, note in annotated:
            mark = r" \footnotemark" if note else ""
            print(
                f"{row.n} & {row.alpha} & {row.beta} & "
                f"{row.min_value:.3f} & {row.limit_value:.3f}{mark} \\\\"
            )
    return 0


def run_grid_verification(
    max_n: int, max_alpha: int, max_beta: int, analytic=None
) -> tuple[int, list[dict], list[dict]]:
    """Compare analytic and oracle pmfs over an integer parameter grid.

    Returns (checked case count, mismatch records, skipped records).  Cases
    that last longer than the oracle's turn cap are skipped, not checked.
    ``analytic`` is injectable so the negative path is testable with a
    corrupted builder.  An empty grid is a ParameterError, not a pass.
    """
    if min(max_n, max_alpha, max_beta) < 1:
        raise ParameterError("max-n, max-alpha and max-beta must be >= 1")
    build = analytic if analytic is not None else hit_time_distribution
    mismatches = []
    skipped = []
    total = 0
    for n in range(1, max_n + 1):
        for alpha in range(1, max_alpha + 1):
            for beta in range(1, max_beta + 1):
                nparams = normalize(GameParams(n, alpha, beta))
                try:
                    expected = brute_force_hit_pmf(nparams)
                except ParameterError:
                    skipped.append({"n": n, "alpha": alpha, "beta": beta})
                    continue
                total += 1
                got = dict(build(nparams).pmf)
                if got != expected:
                    bad_k = next(
                        (k for k in sorted(set(got) | set(expected)) if got.get(k) != expected.get(k)),
                        None,
                    )
                    mismatches.append({"n": n, "alpha": alpha, "beta": beta, "k": bad_k})
    return total, mismatches, skipped


def _cmd_verify(args) -> int:
    total, mismatches, skipped = run_grid_verification(args.max_n, args.max_alpha, args.max_beta)
    matched = total - len(mismatches)
    summary = [f"{matched}/{total} cases match"]
    if skipped:
        summary.append(f"{len(skipped)} cases skipped: longer than the oracle's turn cap")
    if args.format == "json":
        doc = {"total": total, "matched": matched, "mismatches": mismatches}
        if skipped:
            doc["skipped"] = skipped
        print(json.dumps(doc))
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "alpha", "beta", "k"],
                [[m["n"], m["alpha"], m["beta"], m["k"]] for m in mismatches],
            )
        )
        print("\n".join(summary))
    else:
        for m in mismatches:
            print(f"mismatch: n={m['n']} alpha={m['alpha']} beta={m['beta']} k={m['k']}")
        print("\n".join(summary))
    return 1 if mismatches else 0


if __name__ == "__main__":
    run()
