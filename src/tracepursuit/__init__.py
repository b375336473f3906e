"""Model-free variable selection by trace pursuit.

Conditional-independence trace tests built on the SIR, SAVE, and
directional-regression kernels, calibrated against weighted chi-square null
laws, and the stepwise / forward / hybrid selection algorithms on top of
them, plus a simulation bench.  The selectors ``stp_run``, ``ftp_run`` and
``htp_run`` take ``(d, s, method)`` and their options by keyword; STP and
HTP test at level ``alpha``, 0.1/p by default.

The names below are the supported API.  The pieces of the per-candidate
scalar route (``residualize``, ``auxiliary_stats``, ``trace_diff``,
``influence_samples``, ``omega_hat``, ...) are imported from their modules,
``tracepursuit.kernels`` and ``tracepursuit.nulldist``.
"""

from .data import (
    Dataset,
    MomentStats,
    SliceAssignment,
    compute_moments,
    slice_response,
)
from .errors import TracePursuitError
from .kernels import Method, trace_kernel
from .nulldist import TraceTestResult, trace_test, weighted_chisq_upper_quantile
from .selectors import (
    SelectionReport,
    SolutionPath,
    TrailEntry,
    bic_score,
    ftp_run,
    htp_run,
    replay_trail,
    stp_run,
)
from .simbench import (
    ExperimentResult,
    SelectionMetrics,
    SimDesign,
    evaluate,
    generate,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentResult",
    "Method",
    "MomentStats",
    "SelectionMetrics",
    "SelectionReport",
    "SimDesign",
    "SliceAssignment",
    "SolutionPath",
    "TraceTestResult",
    "TracePursuitError",
    "TrailEntry",
    "bic_score",
    "compute_moments",
    "evaluate",
    "ftp_run",
    "generate",
    "htp_run",
    "replay_trail",
    "run_experiment",
    "slice_response",
    "stp_run",
    "trace_kernel",
    "trace_test",
    "weighted_chisq_upper_quantile",
]
