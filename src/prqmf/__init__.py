"""Two-channel perfect-reconstruction QMF FIR filter pair design."""

from .analysis import (
    FilterBank,
    NoDelayFound,
    PrReport,
    ProcessReport,
    ResponseMetrics,
    mse,
    process_bank,
    synthesis_filters,
    transfer,
    validate_case_a,
    verify_pr,
)
from .bank import design_bank
from .prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from .qmf_core import DegeneratePassband, SingularSystem, basic_mate
from .refine import SingularRefinement, refine_h1

__all__ = [
    "BandEdges",
    "DegeneratePassband",
    "DesignSpec",
    "FilterBank",
    "NoDelayFound",
    "PrReport",
    "ProcessReport",
    "ResponseMetrics",
    "SingularRefinement",
    "SingularSystem",
    "WindowSpec",
    "basic_mate",
    "design_bank",
    "design_h0",
    "mse",
    "process_bank",
    "refine_h1",
    "synthesis_filters",
    "transfer",
    "validate_case_a",
    "verify_pr",
]
