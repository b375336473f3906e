"""Model-free variable selection by trace pursuit.

Conditional-independence trace tests built on the SIR, SAVE, and
directional-regression kernels, calibrated against weighted chi-square null
laws, and the stepwise / forward / hybrid selection algorithms on top of
them, plus a simulation bench.
"""

from .data import (
    Dataset,
    MomentStats,
    SliceAssignment,
    compute_moments,
    slice_response,
)
from .errors import TracePursuitError
from .kernels import (
    AuxiliaryStats,
    Method,
    ResidualStats,
    auxiliary_stats,
    residualize,
    trace_diff,
    trace_kernel,
)
from .nulldist import (
    TraceTestResult,
    influence_samples,
    omega_hat,
    trace_test,
    weighted_chisq_quantile_mc,
    weighted_chisq_upper_quantile,
)
from .selectors import (
    SelectionReport,
    SolutionPath,
    StpConfig,
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
    "AuxiliaryStats",
    "Dataset",
    "ExperimentResult",
    "Method",
    "MomentStats",
    "ResidualStats",
    "SelectionMetrics",
    "SelectionReport",
    "SimDesign",
    "SliceAssignment",
    "SolutionPath",
    "StpConfig",
    "TraceTestResult",
    "TracePursuitError",
    "TrailEntry",
    "auxiliary_stats",
    "bic_score",
    "compute_moments",
    "evaluate",
    "ftp_run",
    "generate",
    "htp_run",
    "influence_samples",
    "omega_hat",
    "replay_trail",
    "residualize",
    "run_experiment",
    "slice_response",
    "stp_run",
    "trace_diff",
    "trace_kernel",
    "trace_test",
    "weighted_chisq_quantile_mc",
    "weighted_chisq_upper_quantile",
]
