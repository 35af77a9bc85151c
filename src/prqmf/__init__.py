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
from .prototype import BandEdges, DesignSpec, WindowSpec
from .qmf_core import DegeneratePassband, SingularSystem
from .refine import SingularRefinement

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
    "design_bank",
    "mse",
    "process_bank",
    "synthesis_filters",
    "transfer",
    "validate_case_a",
    "verify_pr",
]
