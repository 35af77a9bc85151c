import math

import pytest
from hypothesis import given, settings, strategies as st

from prqmf import poly, qmf_core, refine
from prqmf.analysis import NoDelayFound, verify_pr
from prqmf.bank import design_bank
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import DegeneratePassband, SingularSystem, basic_mate, normalize_passband, solve
from prqmf.refine import SingularRefinement, refine_h1

DESIGN_ERRORS = (SingularSystem, DegeneratePassband, SingularRefinement, NoDelayFound)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_one_check_per_design(monkeypatch, m):
    """No stage of design_bank checks the prototype's symmetry: design_h0 builds it
    symmetric. FilterBank and the certificate's transfer coerce with as_poly."""
    calls = {"_symmetric": 0, "as_poly": 0}

    def counting(name):
        fn = getattr(poly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(poly, name, counting(name))
    bank = design_bank(DesignSpec(n=10, m=m))
    assert bank.max_spurious <= 1e-9
    assert calls == {"_symmetric": 0, "as_poly": 4}


def counted_solves(monkeypatch) -> list:
    """The systems qmf_core.solve is called on, rebound as the bench's tracer does
    in every module that holds it."""
    calls = []

    def counting(system):
        calls.append(system)
        return solve(system)

    for module in (qmf_core, refine):
        monkeypatch.setattr(module, "solve", counting)
    return calls


@pytest.mark.parametrize("m", [0, 1, 2])
def test_every_solve_is_qmf_core_solve(monkeypatch, m):
    """Off pi/2 the mate and the refinement both solve through qmf_core.solve: the mate
    on every design, the refinement once per zero set, on a miss of its memo."""
    refine._zero_forcing.cache_clear()
    calls = counted_solves(monkeypatch)
    spec = DesignSpec(n=10, edges=BandEdges(0.45 * math.pi, 0.65 * math.pi), m=m)
    assert design_bank(spec).max_spurious <= 1e-9
    assert len(calls) == (1 if m == 0 else 2)
    assert design_bank(spec).max_spurious <= 1e-9
    assert len(calls) == (2 if m == 0 else 3)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_half_band_design_solves_only_the_refinement(monkeypatch, m):
    """A half-band prototype's mate is the pure delay: neither build_system nor the
    mate's solve runs, and only the refinement solves, once per zero set."""
    refine._zero_forcing.cache_clear()
    calls = counted_solves(monkeypatch)

    def refused(h0):
        raise AssertionError("build_system called on a half-band prototype")

    monkeypatch.setattr(qmf_core, "build_system", refused)
    for _ in range(2):
        assert design_bank(DesignSpec(n=10, m=m)).max_spurious <= 1e-9
        assert len(calls) == (0 if m == 0 else 1)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_refinement_is_refine_refine_h1(monkeypatch, m):
    """design_bank refines through refine.refine_h1, the name the bench's tracer
    rebinds: once for m >= 1, never for m = 0."""
    calls = []

    def counting(h0, h1, zero_freqs):
        calls.append(zero_freqs)
        return refine_h1(h0, h1, zero_freqs)

    monkeypatch.setattr(refine, "refine_h1", counting)
    spec = DesignSpec(n=10, m=m)
    assert design_bank(spec).max_spurious <= 1e-9
    assert calls == ([spec.zero_freqs] if m else [])


specs = st.builds(
    DesignSpec,
    n=st.integers(1, 40),
    # centred on pi/2 (half-band: the mate is the delay) or off it (the mate is solved)
    edges=st.builds(
        lambda c, d: BandEdges((c - d) * math.pi, (c + d) * math.pi),
        st.sampled_from([0.5, 0.55]),
        st.floats(0.02, 0.44),
    ),
    window=st.sampled_from(
        [WindowSpec(kind) for kind in ("rectangular", "hamming", "gaussian", "kaiser")]
    ),
    m=st.integers(0, 2),
)


def staged_design(spec):
    """The design through the stages, one call each: prototype, mate, refinement, and one
    normalization of the final high-pass."""
    h0 = design_h0(spec)
    h1 = basic_mate(h0)
    if spec.m >= 1:
        h1 = refine_h1(h0, h1, spec.zero_freqs)
    h1 = normalize_passband(h1)
    return h0, h1, verify_pr(h0, h1)


@settings(max_examples=150, deadline=None)
@given(specs)
def test_design_bank_is_the_public_stages(spec):
    """design_bank is the stages and nothing more: the same bits and the same
    certificate as the stages called one by one, or the same exception."""
    try:
        h0, h1, report = staged_design(spec)
    except DESIGN_ERRORS as exc:
        with pytest.raises(type(exc)):
            design_bank(spec)
        return
    bank = design_bank(spec)
    assert bank.h0.tobytes() == h0.tobytes()
    assert bank.h1.dtype == h1.dtype and bank.h1.tobytes() == h1.tobytes()
    assert bank.certificate == report
