"""The paper's analysis contribution.

Given a parsed RRC signaling trace, this package extracts the serving
cell set sequence (Appendix B), detects 5G ON-OFF loops and classifies
them as persistent or semi-persistent (Figure 4), assigns each loop its
sub-type (S1E1..N2E2, Figures 13-15), computes the performance metrics
of sections 4.2-4.3, and fits the section-6 loop-probability model.
"""

from repro.core.cellset import (
    CellSet,
    CellSetInterval,
    extract_cellset_sequence,
    five_g_timeline,
)
from repro.core.loops import LoopDetection, LoopKind, detect_loop, loop_window
from repro.core.classify import LoopSubtype, classify_loop
from repro.core.metrics import CycleMetrics, RunPerformance, loop_cycles, run_performance
from repro.core.pipeline import RunAnalysis, analyze_trace
from repro.core.prediction import (
    LocationFeatures,
    S1LoopPredictor,
    fit_s1e3_model,
    logistic_usage,
    s1e3_probability,
)

__all__ = [
    "CellSet",
    "CellSetInterval",
    "CycleMetrics",
    "LocationFeatures",
    "LoopDetection",
    "LoopKind",
    "LoopSubtype",
    "RunAnalysis",
    "RunPerformance",
    "S1LoopPredictor",
    "analyze_trace",
    "classify_loop",
    "detect_loop",
    "extract_cellset_sequence",
    "fit_s1e3_model",
    "five_g_timeline",
    "logistic_usage",
    "loop_cycles",
    "loop_window",
    "run_performance",
    "s1e3_probability",
]
