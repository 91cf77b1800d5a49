import pytest

from spans import Span, Tracer, covered


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (6.0, 7.0)]) == pytest.approx(6.0)
    assert covered(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == pytest.approx(2.0)
    assert covered(2.0, 8.0, [(9.0, 12.0)]) == 0.0


def test_self_time_is_span_minus_the_part_its_children_cover():
    tracer = Tracer()
    tracer.spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("tables.polynomial_table", 1.0, 4.0, 0),
        Span("advantage.advantage_polynomial", 1.5, 3.5, 1),
        Span("tables.minimized_table", 5.0, 9.0, 0),
    ]
    assert tracer.self_times() == pytest.approx([3.0, 1.0, 2.0, 4.0])
    assert tracer.total("cli.main") == pytest.approx(10.0)


def test_instrument_records_nested_spans_and_restores_the_library():
    from fractions import Fraction

    import coinrace.advantage as advantage
    import coinrace.minimize as minimize
    from coinrace.game import GameParams

    original = minimize.advantage_at
    tracer = Tracer()
    with tracer.instrument():
        assert minimize.advantage_at is not original
        value = minimize.advantage_at_asymptotic(GameParams(5, 1, 1))
    assert minimize.advantage_at is original and advantage.advantage_at is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "minimize.advantage_at_asymptotic"
    assert "advantage.advantage_polynomial" in names and "stopping.hit_time_distribution" in names
    poly = tracer.named("advantage.advantage_polynomial")[0]
    assert tracer.spans[poly.parent].name == "advantage.advantage_at"
    assert tracer.spans[0].result == value and isinstance(Fraction(value), Fraction)
    assert all(t >= 0 for t in tracer.self_times())
