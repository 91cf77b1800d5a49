import copy
import json
import shutil
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import gate
import workloads
from calibrate import Clock
from run import import_library, run_pass

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = json.loads((ROOT / "tests" / "fixtures" / "table1.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return import_library(ROOT / "src")


def table_stdout(fixture):
    return json.dumps({"table": fixture["table"], "rows": [
        {"n": r["n"], "coefficients": [int(c) for c in r["coefficients"]]} for r in fixture["rows"]]})


def test_polynomial_table_gate_rejects_a_corrupted_coefficient():
    good = table_stdout(FIXTURE)
    assert gate.polynomial_table_matches(0, good, FIXTURE)
    bad = copy.deepcopy(FIXTURE)
    bad["rows"][5]["coefficients"][3] += 1
    assert not gate.polynomial_table_matches(0, table_stdout(bad), FIXTURE)
    assert not gate.polynomial_table_matches(1, good, FIXTURE)
    assert not gate.polynomial_table_matches(0, "not json", FIXTURE)


def test_verify_gate_rejects_a_wrong_count():
    assert gate.verify_passed(0, "144/144 cases match\n", 144)
    assert not gate.verify_passed(0, "143/144 cases match\n", 144)
    assert not gate.verify_passed(0, "36/36 cases match\n", 144)
    assert not gate.verify_passed(1, "144/144 cases match\n", 144)


def test_advantage_gate_rejects_a_changed_polynomial(lib):
    result = lib.advantage.advantage_polynomial(lib.game.GameParams(10, 1, 1))
    want = json.loads(workloads.REFERENCE.read_text())["advantage_sha256"]["10,1,1"]
    assert gate.advantage_matches(result, want)
    coeffs = gate.coefficients(result.poly)
    coeffs[4] -= 1
    assert not gate.advantage_matches(SimpleNamespace(poly=coeffs), want)
    assert gate.coefficients([Fraction(1, 2)]) is None


def test_minimum_gate_checks_width_and_that_the_bracket_holds_a_minimum(lib):
    params = lib.game.GameParams(10, 1, 1)
    coeffs = gate.coefficients(lib.advantage.advantage_polynomial(params).poly)
    result = lib.minimize.minimize_advantage(params, 1e-9)
    assert gate.minimum_plausible(result, coeffs, 1e-9)
    lo, hi = result.bracket
    assert not gate.minimum_plausible(result, coeffs, float(hi - lo) / 4)
    shifted = SimpleNamespace(bracket=(lo + Fraction(1, 100), hi + Fraction(1, 100)),
                              value_exact=result.value_exact)
    assert not gate.minimum_plausible(shifted, coeffs, 1e-9)
    wrong_value = SimpleNamespace(bracket=(lo, hi), value_exact=result.value_exact + Fraction(1, 10**6))
    assert not gate.minimum_plausible(wrong_value, coeffs, 1e-9)


def test_simulation_gate_uses_five_standard_errors():
    result = SimpleNamespace(frequency=0.6, stderr=0.01)
    assert gate.simulation_plausible(result, Fraction(64, 100))
    assert not gate.simulation_plausible(result, Fraction(66, 100))


def test_failed_checks_are_counted_not_fatal():
    ops = [
        workloads.Op("tables", "good", lambda: (0, table_stdout(FIXTURE)),
                     lambda out: gate.polynomial_table_matches(*out, FIXTURE)),
        workloads.Op("verify", "wrong count", lambda: (0, "143/144 cases match\n"),
                     lambda out: gate.verify_passed(*out, 144)),
        workloads.Op("verify", "raises", lambda: 1 / 0, lambda out: True),
    ]
    record = run_pass(ops, Clock("exact"))
    assert record.failures == ["wrong count", "raises"]
    assert set(record.stages) == {"tables", "verify"}


def test_paper_repro_pass_fails_only_the_table_whose_fixture_disagrees(lib, tmp_path):
    fixtures = tmp_path / "tests" / "fixtures"
    shutil.copytree(ROOT / "tests" / "fixtures", fixtures)
    doc = json.loads((fixtures / "table3.json").read_text())
    doc["rows"][-1]["coefficients"][-2] = int(doc["rows"][-1]["coefficients"][-2]) + 1
    (fixtures / "table3.json").write_text(json.dumps(doc))
    record = run_pass(workloads.paper_repro(lib, tmp_path, seed=0, size="smoke"), Clock("exact"))
    assert record.failures == ["table 3 --format json"]
