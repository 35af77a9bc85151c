import dataclasses
import itertools

import pytest

from prqmf.sweep import CENTERS, DB_TOL, DELTAS, REFERENCES, SweepPoint, best_matches, run_sweep


@pytest.fixture(scope="module")
def results():
    return run_sweep()


def test_point_fields():
    fields = [f.name for f in dataclasses.fields(SweepPoint)]
    assert fields == ["ref", "center", "delta", "param", "lowpass_db", "highpass_db"]


def test_references_in_order(results):
    assert list(results) == [ref.name for ref in REFERENCES]


@pytest.mark.parametrize("ref", REFERENCES, ids=lambda ref: ref.name)
def test_points_follow_the_product_order(results, ref):
    points = results[ref.name]
    assert len(points) == len(CENTERS) * len(DELTAS) * len(ref.params)
    assert [(p.center, p.delta, p.param) for p in points] == list(
        itertools.product(CENTERS, DELTAS, ref.params)
    )
    assert all(p.ref is ref for p in points)


def test_worst_err_and_within_derive_from_the_reference(results):
    for points in results.values():
        for p in points:
            low, high = abs(p.lowpass_db - p.ref.lowpass_db), abs(p.highpass_db - p.ref.highpass_db)
            assert p.worst_err == max(low, high)
            assert p.within() == (p.worst_err <= DB_TOL)


def test_within_at_the_tolerance_edge():
    ref = REFERENCES[0]
    at_edge = SweepPoint(ref, 0.5, 0.05, None, ref.lowpass_db + DB_TOL, ref.highpass_db)
    beyond = dataclasses.replace(at_edge, highpass_db=ref.highpass_db - 2 * DB_TOL)
    assert at_edge.worst_err == DB_TOL and at_edge.within()
    assert not beyond.within()


def test_best_match_has_the_smallest_worst_err(results):
    best = best_matches(results)
    assert list(best) == list(results)
    for name, points in results.items():
        assert best[name] in points
        assert best[name].worst_err == min(p.worst_err for p in points)
