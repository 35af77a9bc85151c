import dataclasses
import itertools

import pytest

from prqmf import prototype, refine, sweep
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


def test_sweep_memo_traffic():
    # 16 bands at n = 10 and 16 at n = 20, windowed 5 and 3 ways; every m = 1 design is
    # at n = 10 and shares the zero (0.0,), and each m = 2 band has its own (0, wp/2), so
    # the zero-forcing memo, keyed on the zeros alone, has the cosine memo's 17 keys
    prototype.trapezoid_taps.cache_clear()
    refine._cosines.cache_clear()
    refine._zero_forcing.cache_clear()
    run_sweep()
    assert prototype.trapezoid_taps.cache_info()[:2] == (96, 32)
    assert refine._cosines.cache_info()[:2] == (111, 17)
    assert refine._zero_forcing.cache_info()[:2] == (111, 17)
    run_sweep()
    assert prototype.trapezoid_taps.cache_info()[:2] == (224, 32)
    assert refine._cosines.cache_info()[:2] == (239, 17)
    assert refine._zero_forcing.cache_info()[:2] == (239, 17)


def test_warm_sweep_designs_are_byte_identical(monkeypatch):
    # every design of a sweep on cold memos, then again on warm ones
    design_bank, designs = sweep.design_bank, []

    def recorded(spec):
        bank = design_bank(spec)
        designs.append((bank.h0.tobytes(), bank.h1.tobytes(), bank.delay, bank.scale.hex()))
        return bank

    monkeypatch.setattr(sweep, "design_bank", recorded)
    prototype.trapezoid_taps.cache_clear()
    refine._cosines.cache_clear()
    refine._zero_forcing.cache_clear()
    prototype.window_weights.cache_clear()
    run_sweep()
    run_sweep()
    assert len(designs) == 256
    assert designs[:128] == designs[128:]
