"""The result records: immutable named tuples whose reprs and fields stay put."""

import math
import pickle
from fractions import Fraction

import pytest

from coinrace import (
    GameParams,
    MinimizationResult,
    ParameterError,
    SimConfig,
    advantage_polynomial,
    asymptotic_optimum,
    hit_time_distribution,
    minimize_advantage,
    normalize,
    simulate,
    turn_bounds,
)
from coinrace.tables import MinimizedRow


def every_record():
    params = GameParams(3, 1, 1)
    nparams = normalize(params)
    config = SimConfig(params, 0.5, 10, seed=1)
    return [
        params,
        nparams,
        turn_bounds(nparams),
        hit_time_distribution(nparams),
        advantage_polynomial(params),
        minimize_advantage(params),
        asymptotic_optimum(1, 1),
        config,
        simulate(config),
        MinimizedRow(3, 1, 1, 0.75, 0.75, 0.75, 0.75, False),
    ]


def test_reprs_are_pinned():
    params = GameParams("5/2", "1/2", 1)
    nparams = normalize(params)
    assert repr(params) == "GameParams(n=Fraction(5, 2), alpha=Fraction(1, 2), beta=Fraction(1, 1))"
    assert repr(nparams) == "NormalizedParams(n=5, alpha=1, beta=2)"
    assert repr(turn_bounds(nparams)) == "TurnBounds(l=2, m=5)"
    assert repr(asymptotic_optimum(1, 1)) == (
        "AsymptoticOptimum(t=Fraction(1, 1), bias=0.2679491924311227, variance=10.392304845413264)"
    )


def test_every_record_is_distinct_and_its_fields_cannot_be_set():
    records = every_record()
    assert len({type(r) for r in records}) == 10
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance __dict__, GameParams included


def test_records_keep_their_defaults():
    assert SimConfig(GameParams(3, 1, 1), 0.5, 10, seed=1).workers == 1
    assert MinimizationResult(True, None, 1.0, Fraction(1), None, 1e-9).tie is False


@pytest.mark.parametrize("text", ["3/2", "1.5"])
def test_game_params_parse_their_inputs(text):
    params = GameParams(text, text, 1)
    assert params == (Fraction(3, 2), Fraction(3, 2), Fraction(1))
    assert all(type(v) is Fraction for v in params)
    replaced = params._replace(beta=text)
    assert replaced.beta == Fraction(3, 2) and type(replaced) is GameParams


@pytest.mark.parametrize("bad", [math.nan, "nan"])
def test_game_params_reject_nan(bad):
    with pytest.raises(ParameterError, match="not a valid rational"):
        GameParams(1, bad, 1)


@pytest.mark.parametrize(
    "record", [GameParams("5/2", "1/2", 1), SimConfig(GameParams(3, 1, 1), 0.25, 100, seed=7, workers=2)]
)
def test_inputs_survive_a_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record) and repr(back) == repr(record)
