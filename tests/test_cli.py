"""Command-line interface: formats, exit codes, round-trips."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_golden
import coinrace.cli as cli
from coinrace.advantage import advantage_at
from coinrace.game import GameParams, ParameterError
from coinrace.minimize import MinimizationResult
from coinrace.oracle import run_grid_verification
from coinrace.polynomial import Poly, render
from coinrace.stopping import win_turn_slots
from coinrace.tables import polynomial_table

GOLDEN = cli_golden.load()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "3", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert out.strip() == "1 - 2p + 5p^2 - 4p^3 + p^4"


def test_poly_writes_coefficients_past_the_int_digit_cap(capsys, monkeypatch):
    # 4516 decimal digits, past CPython's default cap of 4300 on str(int); no game is built
    from coinrace.advantage import AdvantageResult
    from coinrace.game import TurnBounds

    c = 3 * 10**4515 + 1
    assert c.bit_length() > 15000
    digits = "3" + "0" * 4514 + "1"
    head = len(digits) % 3 or 3
    grouped = ",".join([digits[:head], *(digits[i:i + 3] for i in range(head, len(digits), 3))])
    poly = Poly((c, -c))
    assert render(poly) == f"{digits} - {digits}p"
    assert render(poly, latex=True) == f"{grouped} - {grouped}p"
    result = AdvantageResult(None, TurnBounds(1, 2), poly, False, ())
    monkeypatch.setattr(cli, "advantage_polynomial", lambda params: result)
    argv = ("poly", "--n", "2", "--alpha", "1", "--beta", "1")
    assert run_cli(capsys, *argv) == (0, f"{digits} - {digits}p\n", "")
    assert run_cli(capsys, *argv, "--format", "latex") == (0, f"${grouped} - {grouped}p$\n", "")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == [digits, f"-{digits}"]


def test_poly_degenerate_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "2", "--alpha", "2", "--beta", "1")
    assert code == 0
    assert out.startswith("1 (degenerate")


def test_poly_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "poly", "--n", "5", "--alpha", "0", "--beta", "1")
    assert code == 2
    assert "alpha must be > 0" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(capsys, "poly", "--n", "5", "--alpha", "x", "--beta", "1")
    assert code == 2


def test_negative_values_are_joined_only_to_flags_that_take_one():
    # argparse reads "-1e-9" and "-1/2" as options; "--flag=value" lets them reach the flag
    argv = ["--tol", "-1e-9", "--n", "-1/2", "--p", "-.5", "--at-pstar", "-1.5", "--help", "-1e5",
            "--n=-1", "-2", "--", "-1e5", "--seed", "7"]
    assert cli._join_negative_values(argv) == [
        "--tol=-1e-9", "--n=-1/2", "--p=-.5", "--at-pstar", "-1.5", "--help", "-1e5",
        "--n=-1", "-2", "--", "-1e5", "--seed", "7"]


def test_every_option_without_a_value_is_known_to_the_negative_value_join():
    # an option missing from the tuple would turn "--flag -1" into "--flag=-1"
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in [parser, *subparsers.choices.values()]:
        for action in command._actions:
            for option in action.option_strings:
                if option.startswith("--") and action.nargs == 0:
                    assert option in cli._FLAGS_WITHOUT_VALUE, (command.prog, option)


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(params):
        raise MemoryError

    monkeypatch.setattr(cli, "advantage_polynomial", exhausted)
    code, out, err = run_cli(capsys, "poly", "--n", "1000000000", "--alpha", "1", "--beta", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: out of memory: this game is too large for this machine"]


@pytest.mark.parametrize("command,n", [("poly", "1e19"), ("minimize", "1e400"), ("pmf", "1e400")])
def test_a_game_past_pythons_int_and_list_sizes_exits_2_with_one_line(capsys, command, n):
    # a shift count or a list size overflows at once, before memory runs out
    code, out, err = run_cli(capsys, command, "--n", n, "--alpha", "1", "--beta", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: this game is too large to compute"]


@pytest.mark.parametrize("fmt", cli_golden.FORMATS)
@pytest.mark.parametrize("command,n", [("minimize", 1), ("poly", 2)])
def test_a_game_scaled_past_the_int_digit_cap_answers(capsys, command, n, fmt):
    # (n, 1, 1) times 10^5000: the echoes are 5001-digit integers, past str(int)'s default cap
    small = run_cli(capsys, command, "--n", str(n), "--alpha", "1", "--beta", "1", "--format", fmt)
    code, out, err = run_cli(capsys, command, "--n", f"{n}e5000", "--alpha", "1e5000", "--beta", "1e5000",
                             "--format", fmt)
    assert (code, out.replace("0" * 5000, ""), err) == small
    if fmt == "json":
        doc = json.loads(out)
        assert [doc["n"], doc["alpha"], doc["beta"]] == [f"{v}" + "0" * 5000 for v in (n, 1, 1)]


def test_a_tiny_scale_echoes_its_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--n", "1e-5000", "--alpha", "1e-5000", "--beta", "3e-5000",
                           "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [doc["n"], doc["alpha"], doc["beta"]] == [f"{v}/1" + "0" * 5000 for v in (1, 1, 3)]


def test_a_plain_decimal_past_the_int_digit_cap_is_still_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "minimize", "--n", "1" * 4301, "--alpha", "1", "--beta", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "invalid parse_rational value" in err


def test_poly_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--n", "7", "--alpha", "2", "--beta", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    poly = Poly(int(c) for c in doc["coefficients"])
    assert poly(Fraction(1, 2)) == advantage_at(GameParams(7, 2, 3), Fraction(1, 2))
    assert doc["degree"] == len(doc["coefficients"]) - 1


def test_rational_flag_spellings_agree(capsys):
    _, out_frac, _ = run_cli(capsys, "poly", "--n", "5", "--alpha", "3/2", "--beta", "1")
    _, out_dec, _ = run_cli(capsys, "poly", "--n", "5", "--alpha", "1.5", "--beta", "1")
    assert out_frac == out_dec
    assert "p^" in out_frac  # a non-trivial polynomial, not the degenerate constant


def test_pmf_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--n", "3", "--alpha", "1", "--beta", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"l": 2, "m": 3, "pmf": {"2": [0, 2, -1], "3": [1, -2, 1]}}


def test_pmf_text(capsys):
    _, out, _ = run_cli(capsys, "pmf", "--n", "2", "--alpha", "2", "--beta", "1")
    assert out.strip() == "k=1: 1"


def test_minimize_text(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--n", "5", "--alpha", "1", "--beta", "1")
    assert code == 0
    value = float(out.splitlines()[1].split("=")[1])
    assert abs(value - 0.700) <= 5e-4


def test_minimize_text_reports_a_tie(capsys, monkeypatch):
    tied = MinimizationResult(degenerate=False, bias=0.25, value=0.5, value_exact=Fraction(1, 2),
                              bracket=(Fraction(1, 4), Fraction(1, 4)), tol=1e-9, tie=True)
    monkeypatch.setattr(cli, "minimize_advantage", lambda params, tol: tied)
    code, out, _ = run_cli(capsys, "minimize", "--n", "5", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert out.splitlines() == [
        "minimizing bias = 0.25",
        "advantage at minimum = 0.5",
        "tie: another critical point attains the same value",
    ]


def test_minimize_degenerate(capsys):
    _, out, _ = run_cli(capsys, "minimize", "--n", "2", "--alpha", "2", "--beta", "1")
    assert "degenerate" in out


def test_pstar_nonpositive_value_exits_2(capsys):
    code, out, err = run_cli(capsys, "pstar", "--alpha", "0", "--beta", "1")
    assert (code, out, err) == (2, "", "error: alpha and beta must be > 0\n")


def test_pstar_values(capsys):
    for alpha, beta, expected in [("1", "1", 0.267949192), ("2", "1", 0.354248688), ("1", "2", 0.177124344)]:
        code, out, _ = run_cli(
            capsys, "pstar", "--alpha", alpha, "--beta", beta, "--format", "json"
        )
        assert code == 0
        assert abs(json.loads(out)["p_star"] - expected) <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["pstar", "--alpha", "1e103", "--beta", "1"],
        ["pstar", "--alpha", "1e400", "--beta", "1"],
        ["pstar", "--alpha", "1e-200", "--beta", "1"],  # the variance underflows
        ["simulate", "--n", "5", "--alpha", "1e-400", "--beta", "1", "--at-pstar", "--trials", "5"],
        ["pstar", "--alpha", "1e-400", "--beta", "1"],
    ],
)
def test_limit_bias_outside_the_float_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["pstar", "--alpha", "1", "--beta", "1e200"], [5e-201, 6.75e-200]),
        (["simulate", "--n", "5", "--alpha", "1e400", "--beta", "1", "--at-pstar", "--trials", "5"],
         [5, 5, 1.0, 0.0, 0, 1]),
    ],
)
def test_a_limit_bias_from_far_apart_values_answers(capsys, argv, expected):
    # the bias comes from the exact ratio, so alpha and beta need not be floats
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    assert [float(x) for x in out.splitlines()[1].split(",")[-len(expected):]] == expected


def test_simulate_deterministic_bias(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--alpha", "1", "--beta", "1",
        "--p", "0", "--trials", "100", "--seed", "7", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["frequency"] == 1.0


def test_simulate_rejects_bias_above_one(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "1", "--beta", "1", "--p", "1.5"
    )
    assert code == 2


def test_simulate_at_limit_bias(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--alpha", "1", "--beta", "1",
        "--at-pstar", "--trials", "2000", "--seed", "7", "--format", "json",
    )
    assert code == 0
    assert abs(json.loads(out)["frequency"] - 0.700) < 0.05


def test_table_csv_row_counts(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 13  # header + 12 rows
    assert rows[1] == ["1", "1", "1", "1"]  # n=1 is the constant game


def test_table_3_degenerate_rows(capsys):
    _, out, _ = run_cli(capsys, "table", "3", "--format", "csv")
    rows = {r[0]: r[3] for r in list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["2"] == "1" and rows["4"] == "1"


def test_table_unknown_index(capsys):
    code, _, err = run_cli(capsys, "table", "7")
    assert code == 2
    assert "unknown table" in err


def test_polynomial_table_rejects_an_unknown_table():
    with pytest.raises(ParameterError, match="unknown table 7; polynomial tables are 1-5"):
        polynomial_table(7)


def test_table_6_reports_and_annotates(capsys):
    code, out, _ = run_cli(capsys, "table", "6", "--format", "csv", "--tol", "1e-6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 18
    flagged = [r for r in rows if r[5]]
    assert flagged, "known-inconsistent reference rows must be annotated"
    clean = [r for r in rows if not r[5]]
    assert len(clean) >= 12


@pytest.mark.parametrize("fmt", cli_golden.FORMATS)
@pytest.mark.parametrize("argv", cli_golden.CASES)
def test_every_command_renders_in_every_format(argv, fmt):
    patch, args = argv
    args = args + ["--format", fmt]
    assert cli_golden.run(patch, args) == GOLDEN[cli_golden.key(patch, args)]


def test_the_reused_parser_replays_every_golden_case_in_reverse():
    # One parser serves every call, so no default (--tol, --workers, --format),
    # no choice in the --p/--at-pstar group and no patched dependency may
    # carry over from one call to the next.
    cases = [(patch, argv + ["--format", fmt])
             for patch, argv in cli_golden.CASES for fmt in cli_golden.FORMATS][::-1]
    pstar = ["pstar", "--alpha", "2", "--beta", "3"]
    for _ in range(2):
        for patch, args in cases:
            assert cli_golden.run(patch, args) == GOLDEN[cli_golden.key(patch, args)], args
        cli_golden.run(None, pstar + ["--format", "json"])
        assert cli_golden.run(None, pstar) == GOLDEN[cli_golden.key(None, pstar + ["--format", "text"])]


def test_verify_reports_match(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "5", "--max-alpha", "2", "--max-beta", "2"
    )
    assert code == 0
    assert out.strip().endswith("20/20 cases match")


def test_verify_default_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "8", "--max-alpha", "3", "--max-beta", "3"
    )
    assert code == 0
    assert out.strip() == "72/72 cases match"


def test_verify_reaches_past_twenty_turns(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "30", "--max-alpha", "1", "--max-beta", "1")
    assert code == 0
    assert out == "30/30 cases match\n"


def test_verify_without_skips_has_no_skipped_output(capsys):
    _, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--max-alpha", "1", "--max-beta", "1", "--format", "json")
    assert out == '{"total": 3, "matched": 3, "mismatches": []}\n'


def test_verify_skips_cases_beyond_the_oracle_cap(capsys, monkeypatch):
    import coinrace.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "MAX_TURNS", 3)
    argv = ["verify", "--max-n", "5", "--max-alpha", "1", "--max-beta", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "3/3 cases match\n2 cases skipped: longer than the oracle's turn cap\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["total"], doc["matched"], doc["mismatches"]) == (3, 3, [])
    assert doc["skipped"] == [{"n": 4, "alpha": 1, "beta": 1}, {"n": 5, "alpha": 1, "beta": 1}]


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [["minimize", "--n", "5", "--alpha", "1", "--beta", "1"], ["table", "1"], ["table", "6"]],
)
def test_non_finite_tol_exits_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == "error: tol must be finite and > 0\n"


@pytest.mark.parametrize("bounds", [(0, 3, 3), (5, 0, 1), (5, 1, -2)])
def test_empty_verify_grid_is_a_parameter_error(bounds):
    with pytest.raises(ParameterError):
        run_grid_verification(*bounds, win_turn_slots)


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
@pytest.mark.parametrize("flag", ["--max-n", "--max-alpha", "--max-beta"])
def test_verify_bound_below_one_exits_2(capsys, fmt, flag):
    code, out, err = run_cli(capsys, "verify", flag, "0", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: max-n, max-alpha and max-beta must be >= 1\n"


def test_verify_detects_corruption(capsys, monkeypatch):
    monkeypatch.setattr(cli, "win_turn_slots", cli_golden._corrupted)
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "4", "--max-alpha", "1", "--max-beta", "1"
    )
    assert code == 1
    assert "mismatch: n=3 alpha=1 beta=1" in out
    assert "3/4 cases match" in out


def test_verify_checks_each_normalized_game_once(monkeypatch):
    import coinrace.oracle as oracle_module
    from coinrace.game import normalize

    built = []

    def counting(k, params):
        built.append((k, params))
        return cli_golden._corrupted(k, params)

    raw = [(n, a, b) for n in range(1, 7) for a in (1, 2) for b in (1, 2)]
    games = {normalize(GameParams(*case)) for case in raw}
    assert len(games) < len(raw)
    total, mismatches, skipped = run_grid_verification(6, 2, 2, counting)
    assert (total, skipped) == (len(raw), [])
    assert mismatches == [{"n": 3, "alpha": 1, "beta": 1, "k": 3}, {"n": 6, "alpha": 2, "beta": 2, "k": 3}]
    # one call per turn of each game, and each game once
    assert len(built) == len(set(built))
    assert {params for _, params in built} == games

    # at a cap of 2 turns, (3, 1, 1) and (6, 2, 2) are one skipped game
    for cap in (3, 2):
        monkeypatch.setattr(oracle_module, "MAX_TURNS", cap)
        long = [(n, a, b) for n, a, b in raw if -(-n // a) > cap]
        total, _, skipped = run_grid_verification(6, 2, 2, counting)
        assert skipped == [{"n": n, "alpha": a, "beta": b} for n, a, b in long]
        assert total == len(raw) - len(long)


def subprocess_env() -> dict:
    """The environment for a child Python that imports this coinrace."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_141_without_a_traceback():
    # 148 KB of output, more than a pipe holds, so the CLI is still writing
    # when the reader closes its end after the first 100 bytes.
    argv = [sys.executable, "-m", "coinrace.cli", "pmf", "--n", "120", "--alpha", "1", "--beta", "1"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head.startswith(b"k=")
    assert err == b""


def test_the_parser_is_built_on_the_first_call_and_reused():
    # Counts the parsers (the top one and one per command) built after the
    # import, after a first main() call and after a second one.
    code = textwrap.dedent("""
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import coinrace.cli as cli
        counts = [len(built)]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["pstar", "--alpha", "1", "--beta", "1"]) == 0
            counts.append(len(built))
        print(counts)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env(), timeout=60, check=True).stdout
    after_import, after_first, after_second = json.loads(out)
    assert after_import == 0
    assert after_first > 0
    assert after_second == after_first


# --- the CLI contract as a property: exit 0, 1 or 2, and never a traceback ----

TOLS = ["1e-9", "1e-4", "2.220446049250313e-16", "1e-30", "0", "-1e-9", "nan", "inf", "x"]
SPOILERS = ["0", "-", "nan", "-inf", "inf", "Infinity", "x", "1/0", ""]  # "-" negates the value


@st.composite
def game_flags(draw, names=("n", "alpha", "beta")):
    """A small game (normalized m <= 50) in assorted spellings, a quarter of them with one field spoiled.

    All fields share one scale factor: an integer, a fraction, 10^k with |k|
    up to 6000, or 1/8 in decimal notation.  The scale reaches the big-number
    paths while the game stays small.
    """
    game = {"n": draw(st.integers(1, 50)), "alpha": draw(st.integers(1, 5)), "beta": draw(st.integers(1, 5))}
    scale = draw(st.sampled_from(["int", "frac", "exp", "dec"]))
    c = draw(st.integers(1, 10**6))
    k = draw(st.sampled_from([-6000, -4400, 4400, 6000]) | st.integers(-6000, 6000))

    def spell(v):
        if scale == "int":
            return str(v * c)
        if scale == "frac":
            return f"{v}/{c}"
        if scale == "exp":
            return draw(st.sampled_from([f"{v}e{k}", f"{v}0E{k - 1}", f"{v}.0e{k}"]))
        return repr(v / 8)  # exact: v/8 is a short binary fraction

    values = {name: spell(game[name]) for name in names}
    if draw(st.integers(0, 3)) == 0:
        name, spoiler = draw(st.sampled_from(names)), draw(st.sampled_from(SPOILERS))
        values[name] = "-" + values[name] if spoiler == "-" else spoiler
    return [arg for name in names for arg in (f"--{name}", values[name])]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["poly", "pmf", "minimize", "pstar", "simulate", "table", "verify"]))
    if command == "pstar":
        argv = [command, *draw(game_flags(("alpha", "beta")))]
    elif command == "table":
        argv = [command, str(draw(st.integers(-1, 7))), "--tol", draw(st.sampled_from(TOLS))]
    elif command == "verify":
        argv = [command, *(a for flag in ("--max-n", "--max-alpha", "--max-beta")
                           for a in (flag, str(draw(st.integers(-1, 4)))))]
    else:
        argv = [command, *draw(game_flags())]
    if command == "minimize":
        argv += ["--tol", draw(st.sampled_from(TOLS))]
    if command == "simulate":
        p = draw(st.sampled_from(["0", "1", "1/3", "0.5", "2.5e-1", "1e-5000", "-0.5", "3/2", "nan", None]))
        argv += ["--at-pstar"] if p is None else ["--p", p]
        argv += ["--trials", str(draw(st.integers(-1, 100))), "--workers", str(draw(st.integers(-1, 2))),
                 "--seed", str(draw(st.sampled_from([0, 1, 2**64 - 1, 2**64, -1])))]
    fmt = draw(st.sampled_from(cli_golden.FORMATS)) if draw(st.integers(0, 9)) else "xml"
    return argv + ["--format", fmt]


@settings(deadline=None, max_examples=300)
@given(cli_argv())
def test_every_command_line_ends_with_a_known_exit_code(argv):
    result = cli_golden.run(None, argv)  # an exception escaping main fails the test
    code, out, err = result["code"], result["stdout"], result["stderr"]
    assert code in (0, 1, 2)
    if code == 2 and not err.startswith("usage:"):  # a domain error, after parsing
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0:
        assert out and err == ""
        if argv[-1] == "json":
            json.loads(out)
