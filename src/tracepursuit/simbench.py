"""Simulation designs and selection metrics for the benchmark experiments.

Three response models over p predictors with active set {1, 2, p-1, p}:

    I    y = sgn(x1 + xp) * exp(x2 + x[p-1]) + eps
    II   y = 2 x1^2 xp^2 - 2 x2^2 x[p-1]^2 + eps
    III  y = x1^4 - xp^4 + 3 exp(0.8 x2 + 0.6 x[p-1]) + eps

Normal predictors have covariance rho^|i-j| (one symmetric square-root
factorization per (p, rho), reused across replications); the nonnormal
cases draw i.i.d. coordinates and ignore rho.  Replications derive child
seeds via spawn keys, so results are reproducible and independent of
execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import Dataset, IndexSet, as_integer, slice_response
from .errors import TracePursuitError
from .kernels import Method
from .selectors import StpConfig, ftp_run, htp_run, stp_run

PREDICTOR_DISTS = ("normal", "uniform12", "exponential1", "geometric_half")
ALGORITHMS = ("stp", "ftp", "htp")

_sqrt_cov_cache: dict[tuple[int, float], np.ndarray] = {}


@dataclass(frozen=True)
class SimDesign:
    """One simulation scenario; ``seed`` pins the whole replication stream."""

    model: str  # "I" | "II" | "III"
    n: int = 300
    p: int = 10
    rho: float = 0.0
    sigma_noise: float = 0.2
    predictor_dist: str = "normal"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "p", "seed"):
            as_integer(getattr(self, name), name)
        if self.model not in ("I", "II", "III"):
            raise ValueError(f"model must be I, II, or III, got {self.model!r}")
        if self.p < 4:
            raise ValueError("models reference x1, x2, x[p-1], xp; need p >= 4")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0,1), got {self.rho}")
        if self.sigma_noise <= 0.0:
            raise ValueError("sigma_noise must be positive")
        if self.predictor_dist not in PREDICTOR_DISTS:
            raise ValueError(f"predictor_dist must be one of {PREDICTOR_DISTS}")


def _sqrt_cov(p: int, rho: float) -> np.ndarray:
    key = (p, rho)
    factor = _sqrt_cov_cache.get(key)
    if factor is None:
        idx = np.arange(p)
        cov = rho ** np.abs(idx[:, None] - idx[None, :])
        evals, evecs = np.linalg.eigh(cov)
        factor = evecs @ (evecs * np.sqrt(np.clip(evals, 0.0, None))).T
        _sqrt_cov_cache[key] = factor
    return factor


def model_response(model: str, x: np.ndarray) -> np.ndarray:
    """Noise-free response surface of each model."""
    p = x.shape[1]
    x1, x2 = x[:, 0], x[:, 1]
    xq, xp = x[:, p - 2], x[:, p - 1]
    if model == "I":
        return np.sign(x1 + xp) * np.exp(x2 + xq)
    if model == "II":
        return 2.0 * x1**2 * xp**2 - 2.0 * x2**2 * xq**2
    if model == "III":
        return x1**4 - xp**4 + 3.0 * np.exp(0.8 * x2 + 0.6 * xq)
    raise ValueError(f"unknown model {model!r}")


def generate(design: SimDesign, replication: int = 0) -> tuple[Dataset, IndexSet]:
    """Draw one dataset; (design.seed, replication) pins the stream."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=design.seed, spawn_key=(replication,))
    )
    n, p = design.n, design.p
    if design.predictor_dist == "normal":
        x = rng.standard_normal((n, p))
        if design.rho != 0.0:
            x = x @ _sqrt_cov(p, design.rho)
    elif design.predictor_dist == "uniform12":
        x = rng.uniform(1.0, 2.0, size=(n, p))
    elif design.predictor_dist == "exponential1":
        x = rng.exponential(1.0, size=(n, p))
    else:  # geometric_half, support {1, 2, ...}
        x = rng.geometric(0.5, size=(n, p)).astype(np.float64)
    eps = rng.normal(0.0, design.sigma_noise, size=n)
    y = model_response(design.model, x) + eps
    d = Dataset.from_arrays(x, y)
    return d, (1, 2, p - 1, p)


@dataclass(frozen=True)
class SelectionMetrics:
    """Underfit/correct-fit/overfit counts and average model size."""

    uf: int
    cf: int
    of_: int
    ms: float
    n_reps: int


def evaluate(selected_sets: Iterable[IndexSet], true_active: IndexSet) -> SelectionMetrics:
    """Classify each selected set against the true active set.

    Underfit: misses at least one active index.  Correct: equals the active
    set.  Overfit: strict superset.  The three events partition the outcomes.
    """
    truth = frozenset(true_active)
    uf = cf = of_ = 0
    sizes = []
    for sel in selected_sets:
        chosen = frozenset(sel)
        sizes.append(len(chosen))
        if not truth <= chosen:
            uf += 1
        elif chosen == truth:
            cf += 1
        else:
            of_ += 1
    if not sizes:
        raise ValueError("evaluate requires at least one selected set")
    return SelectionMetrics(
        uf=uf, cf=cf, of_=of_, ms=float(np.mean(sizes)), n_reps=len(sizes)
    )


@dataclass(frozen=True)
class ExperimentResult:
    metrics: SelectionMetrics
    failures: int
    failure_categories: tuple[str, ...]
    elapsed_seconds: float


def run_experiment(
    design: SimDesign,
    algorithm: str,
    method: Method,
    n_reps: int,
    alpha: float | None = None,
    h_count: int = 4,
) -> ExperimentResult:
    """Run one benchmark cell: generate, slice, select, aggregate.

    For ``ftp`` the selected set is the BIC-chosen prefix of the forward
    path.  Replication failures are counted separately and never folded
    into the fit counts.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if as_integer(n_reps, "n_reps") < 1:
        raise ValueError("n_reps must be >= 1")

    t0 = time.perf_counter()
    selected: list[IndexSet] = []
    truth: IndexSet = ()
    failures: list[str] = []
    for rep in range(n_reps):
        d, truth = generate(design, replication=rep)
        try:
            s = slice_response(d.y, h_count)
            if algorithm == "htp":
                report = htp_run(d, s, method, StpConfig(method=method, alpha=alpha))
                selected.append(report.selected)
            elif algorithm == "stp":
                report = stp_run(d, s, StpConfig(method=method, alpha=alpha))
                selected.append(report.selected)
            else:
                path = ftp_run(d, s, method)
                selected.append(path.prefix(path.bic_argmin()))
        except TracePursuitError as err:
            failures.append(err.category)
    if not selected:
        raise TracePursuitError("every replication failed")
    metrics = evaluate(selected, truth)
    return ExperimentResult(
        metrics=metrics,
        failures=len(failures),
        failure_categories=tuple(failures),
        elapsed_seconds=time.perf_counter() - t0,
    )
