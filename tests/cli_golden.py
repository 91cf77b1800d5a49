"""Golden CLI bytes: stdout, stderr and exit code of every case in every format.

``tests/test_cli.py`` compares the CLI against ``tests/fixtures/cli_golden.json``
case by case.  To compare without pytest, or to rewrite the fixture after an
intended output change, run from the repository root:

    PYTHONPATH=src python tests/cli_golden.py --check
    PYTHONPATH=src python tests/cli_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import coinrace.cli as cli
import coinrace.oracle as oracle
from coinrace.stopping import win_turn_slots

FIXTURE = Path(__file__).with_name("fixtures") / "cli_golden.json"
FORMATS = ("text", "json", "csv", "latex")

# (patch, argv): each case runs once per format, with "--format <fmt>" appended.
CASES = [
    (None, ["poly", "--n", "5", "--alpha", "1", "--beta", "1"]),
    (None, ["pmf", "--n", "5", "--alpha", "1", "--beta", "1"]),
    (None, ["minimize", "--n", "5", "--alpha", "1", "--beta", "1"]),
    (None, ["minimize", "--n", "2", "--alpha", "2", "--beta", "1"]),
    (None, ["minimize", "--n", "4", "--alpha", "1", "--beta", "1"]),  # I'(1/2) = 0
    (None, ["pstar", "--alpha", "2", "--beta", "3"]),
    (None, ["simulate", "--n", "5", "--alpha", "1", "--beta", "1", "--p", "1/3",
            "--trials", "50", "--seed", "1"]),
    (None, ["table", "2"]),
    (None, ["table", "6", "--tol", "1e-4"]),
    (None, ["verify", "--max-n", "2", "--max-alpha", "1", "--max-beta", "2"]),
    (None, ["poly", "--n", "2", "--alpha", "2", "--beta", "1"]),
    (None, ["poly", "--n", "5", "--alpha", "3/2", "--beta", "1"]),
    (None, ["pmf", "--n", "2", "--alpha", "2", "--beta", "1"]),
    (None, ["minimize", "--n", "5/2", "--alpha", "1", "--beta", "1/2", "--tol", "1e-4"]),
    (None, ["simulate", "--n", "5", "--alpha", "1", "--beta", "1", "--at-pstar",
            "--trials", "50", "--seed", "1", "--workers", "2"]),
    *[(None, ["table", str(which)]) for which in (1, 3, 4, 5, 6)],
    (None, ["table", "7"]),
    (None, ["minimize", "--n", "5", "--alpha", "1", "--beta", "1", "--tol", "nan"]),
    (None, ["verify", "--max-n", "0"]),
    (None, ["poly", "--n", "5", "--alpha", "0", "--beta", "1"]),
    (None, ["poly", "--n", "1e19", "--alpha", "1", "--beta", "1"]),
    (None, ["simulate", "--n", "5", "--alpha", "1", "--beta", "1", "--p", "1e400",
            "--trials", "10"]),
    # negative values in exponent or fraction form reach their flags
    (None, ["simulate", "--n", "5", "--alpha", "1", "--beta", "1", "--p", "-1e400",
            "--trials", "10"]),
    (None, ["poly", "--n", "-1/2", "--alpha", "1", "--beta", "1"]),
    (None, ["minimize", "--n", "5", "--alpha", "1", "--beta", "1", "--tol", "-1e-9"]),
    ("corrupt-builder", ["verify", "--max-n", "4", "--max-alpha", "1", "--max-beta", "1"]),
    ("oracle-cap-3", ["verify", "--max-n", "5", "--max-alpha", "1", "--max-beta", "1"]),
    # the limit bias comes from the exact ratio: only a bias below the smallest float exits 2
    (None, ["pstar", "--alpha", "1", "--beta", "1"]),
    (None, ["pstar", "--alpha", "1e200", "--beta", "1e200"]),
    (None, ["pstar", "--alpha", "1e-400", "--beta", "1"]),
    (None, ["simulate", "--n", "5", "--alpha", "1e400", "--beta", "1", "--at-pstar", "--trials", "5"]),
]


def _corrupted(k, params):
    """The analytic counts with one more sequence in the last slot of (3, 1, 1) at k = 3."""
    j0, slots = win_turn_slots(k, params)
    if (k, params.n, params.alpha, params.beta) == (3, 3, 1, 1):
        slots = [*slots[:-1], slots[-1] + 1]
    return j0, slots


PATCHES = {
    "corrupt-builder": (cli, "win_turn_slots", _corrupted),
    "oracle-cap-3": (oracle, "MAX_TURNS", 3),
}


@contextlib.contextmanager
def _patched(patch):
    if patch is None:
        yield
        return
    module, name, value = PATCHES[patch]
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def run(patch, argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` and return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with _patched(patch), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(patch, argv: list[str]) -> str:
    return " ".join(argv) if patch is None else f"[{patch}] " + " ".join(argv)


def capture() -> dict:
    return {
        key(patch, argv + ["--format", fmt]): run(patch, argv + ["--format", fmt])
        for patch, argv in CASES
        for fmt in FORMATS
    }


def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        FIXTURE.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
        return 0
    if argv == ["--check"]:
        want, got = load(), capture()
        bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in bad:
            print(f"differs: {k}", file=sys.stderr)
        print(f"{len(got) - len(bad)}/{len(want)} golden cases match")
        return 1 if bad else 0
    print("usage: cli_golden.py --check | --write", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
