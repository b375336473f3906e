"""Exception types shared across the package.

Each error carries a short machine-readable ``category`` used by the CLI to
label failures, plus a one-line ``hint`` suggesting a remedy.
"""

from __future__ import annotations


class TracePursuitError(Exception):
    """Base class for all domain errors raised by this package."""

    category = "error"
    hint = ""


class DegenerateSlicingError(TracePursuitError):
    category = "degenerate-slicing"
    hint = "reduce --slices, or treat the response as discrete"


class IllPosedMomentsError(TracePursuitError):
    category = "ill-posed-moments"
    hint = "the working set must be smaller than the sample size"


class WorkingSetIndexError(TracePursuitError):
    category = "index-out-of-range"
    hint = "predictor indices are 1-based and must lie in 1..p, without repeats"


class SingularDesignError(TracePursuitError):
    category = "singular-design"
    hint = "drop constant or collinear predictors from the working set"


class CollinearCandidateError(TracePursuitError):
    category = "collinear-candidate"
    hint = "the candidate is numerically a linear function of the working set"


class NumericalFailureError(TracePursuitError):
    category = "numerical-failure"
    hint = "non-finite values entered a computation; check the input data"


class DegenerateDistributionError(TracePursuitError):
    category = "degenerate-distribution"
    hint = "all weights are zero, so the null distribution is a point mass at 0"


class FileAccessError(TracePursuitError):
    category = "io-error"
    hint = "check that the input file exists and that the --out directory exists and is writable"


class IngestionError(TracePursuitError):
    category = "ingestion"
    hint = "check the CSV file layout"


class MissingResponseError(IngestionError):
    category = "missing-response"
    hint = "exactly one column must be named 'y' (case-insensitive)"


class NonNumericCellError(IngestionError):
    category = "non-numeric-cell"
    hint = "every predictor/response cell must parse as a number"


class CellValueError(IngestionError):
    category = "invalid-cell-value"
    hint = (
        "every cell must be finite, and a predictor's largest deviation from its "
        "mean must lie within about 1e-154..1e154; rescale or drop the named column"
    )


class TooFewSamplesError(IngestionError):
    category = "too-few-samples"
    hint = "at least 10 rows are required"
