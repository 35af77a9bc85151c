"""One-call design of a certified perfect-reconstruction bank."""

from __future__ import annotations

from . import analysis, refine
from .prototype import DesignSpec, design_h0
from .qmf_core import basic_mate, normalize_passband


def design_bank(spec: DesignSpec) -> analysis.FilterBank:
    """Prototype, solve for the mate, refine (if m > 0), normalize, assemble, certify."""
    h0 = design_h0(spec)
    h1 = basic_mate(h0)
    if spec.m >= 1:
        h1 = refine.refine_h1(h0, h1, spec.zero_freqs)  # linear in h1, so normalized once after
    bank = analysis.FilterBank(h0, normalize_passband(h1), spec)
    bank.certificate  # certify here, so NoDelayFound is raised by the design
    return bank
