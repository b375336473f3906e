"""Stepwise (STP), forward (FTP), and hybrid (HTP) trace pursuit.

STP alternates a forward addition (largest trace gain over candidates
outside the working set, admitted when n times the gain exceeds the
upper-alpha quantile of its estimated null law) with a backward deletion
(the member whose removal costs the least, removed when its statistic falls
below its own threshold).  FTP greedily grows a nested solution
path by trace gain alone and scores each prefix with a modified BIC; HTP
screens with FTP, keeps the BIC-minimizing prefix, and refines it with STP.

Forward scans are vectorized: a ``ScanState`` keeps the residuals of the
candidate columns given the working set, updated by one rank-1 projection
per addition, and scores all candidates with a few BLAS calls, so an FTP
step costs O(n (p - |F|) H + |F|^2) for SIR (O(n (p - |F|) |F|) for SAVE
and DR).  FTP keeps one state for its whole path; STP keeps one across its
forward passes and builds a new one only after a deletion.  The scalar
route (``residualize``, ``auxiliary_stats``, ``trace_diff``) scores single
candidates: the winner of an STP forward scan, whose statistic and
threshold are then computed, and the members in the STP backward pass.

Every STP decision is a pure function of the question (F, j): the moments
of F are the same bits whenever they are read.  So each test is computed
once per run and reused, as when the backward pass asks about the member
just added, and each gain once while the working set stays the same.

Ties in every argmax break toward the smallest index (forward gains within
``TIE_RTOL`` of the best count as tied), and a visited-set cycle guard makes
STP terminate on data that oscillates at a threshold boundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .data import Dataset, IndexSet, SliceAssignment, compute_moments, validate_working_set
from .errors import TracePursuitError
from .kernels import Method, ScanState, auxiliary_stats, residualize, trace_diff
from .nulldist import influence_dim, statistic_and_threshold


# Relative gap below which two trace gains are a tie.  Gains that agree in
# exact arithmetic (duplicated columns, or the two remaining members of a
# collinear set) differ in their last bits once BLAS sums the columns in
# different orders; this keeps the tie-break on the index, not the rounding.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class StpConfig:
    """Configuration for the stepwise selector.

    ``alpha`` defaults to 0.1/p when left as None; ``max_set_size`` defaults
    to min(p, n - H - 2), keeping the working-set covariance invertible with
    slack for the slices.  Either is lowered, for SAVE and DR, until every
    test the run can make has fewer influence dimensions than samples, so no
    null law rests on a rank-deficient weight matrix.
    """

    method: Method
    alpha: float | None = None
    max_iterations: int = 100
    max_set_size: int | None = None

    def __post_init__(self) -> None:
        try:
            operator.index(self.max_iterations)
            if self.max_set_size is not None:
                operator.index(self.max_set_size)
        except TypeError:
            raise ValueError(
                "max_iterations and max_set_size must be integers, got "
                f"{self.max_iterations!r} and {self.max_set_size!r}"
            ) from None
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    def resolved_alpha(self, p: int) -> float:
        alpha = 0.1 / p if self.alpha is None else self.alpha
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        return alpha

    def resolved_max_set_size(self, n: int, p: int, h_count: int) -> int:
        cap = default_path_cap(n, p, h_count)
        size = cap if self.max_set_size is None else self.max_set_size
        if not 1 <= size < n:
            raise ValueError(f"max_set_size must be in 1..n-1, got {size}")
        size = min(size, cap)
        # the largest working set tested has size - 1 members
        while size > 0 and influence_dim(self.method, size - 1, h_count) >= n:
            size -= 1
        return size


def default_path_cap(n: int, p: int, h_count: int) -> int:
    """Largest working-set size kept numerically and statistically sane."""
    return min(p, n - h_count - 2)


@dataclass(frozen=True)
class PathStep:
    added_index: int
    trace_value: float
    bic_value: float


@dataclass(frozen=True)
class SolutionPath:
    """Nested forward path with per-step trace and BIC values."""

    method: Method
    steps: tuple[PathStep, ...]
    k_max: int  # realized path length
    skipped: tuple[int, ...] = ()

    def prefix(self, k: int) -> IndexSet:
        return tuple(sorted(step.added_index for step in self.steps[:k]))

    def bic_argmin(self) -> int:
        """1-based prefix length minimizing BIC; ties go to the shorter prefix."""
        best_k, best = 0, math.inf
        for k, step in enumerate(self.steps, start=1):
            if step.bic_value < best:
                best_k, best = k, step.bic_value
        return best_k


@dataclass(frozen=True)
class TrailEntry:
    action: str  # "add" | "delete" | "skip" | "stop"
    index: int | None
    statistic: float | None
    threshold: float | None
    note: str = ""


@dataclass(frozen=True)
class SelectionReport:
    """Final selected set plus the audit trail that reproduces it."""

    selected: IndexSet
    trail: tuple[TrailEntry, ...]
    method: Method
    stage_sizes: tuple[int, int]  # (screened universe size, final size)


def replay_trail(trail: Iterable[TrailEntry]) -> IndexSet:
    """Re-derive the selected set from the add/delete actions of a trail."""
    current: set[int] = set()
    for entry in trail:
        if entry.action == "add":
            current.add(entry.index)
        elif entry.action == "delete":
            current.discard(entry.index)
    return tuple(sorted(current))


def bic_score(trace_value: float, set_size: int, n: int, p: int) -> float:
    """Modified BIC: -log(trace) plus |F| (log n + 2 log p) / n.

    Nonpositive traces score +inf so they are never selected.
    """
    if set_size < 1:
        raise ValueError("bic_score is defined for nonempty sets")
    if trace_value <= 0.0:
        return math.inf
    return -math.log(trace_value) + set_size * (math.log(n) + 2.0 * math.log(p)) / n


def _scan_candidates(state: ScanState, method: Method):
    """Best candidate of a scan state: (best_j, best_gain, skipped).

    ``best_j`` is None when every candidate is skipped.  Gains within
    ``TIE_RTOL`` of the best are ties, and ties go to the smallest index.
    """
    gains, skipped = state.gains(method)
    top = gains.max()
    if top == -math.inf:
        return None, -math.inf, skipped
    i = int(np.argmax(gains >= top - TIE_RTOL * abs(top)))
    return int(state.columns[i]), float(gains[i]), skipped


def ftp_run(
    d: Dataset,
    s: SliceAssignment,
    method: Method,
    k_max: int | None = None,
) -> SolutionPath:
    """Greedy forward path of trace-maximizing additions with BIC scores.

    The path trace accumulates the closed-form gains, which matches the
    kernel trace of each prefix to floating point; for SIR the gains are
    nonnegative so the path trace is nondecreasing.
    """
    cap = default_path_cap(d.n, d.p, s.h_count)
    if k_max is None:
        k_max = cap
    if not 1 <= k_max <= cap:
        raise ValueError(f"k_max must be in 1..{cap}, got {k_max}")

    steps: list[PathStep] = []
    skipped_all: list[int] = []
    trace_value = 0.0
    state = ScanState(d, s, tuple(range(1, d.p + 1)))

    for k in range(1, k_max + 1):
        best_j, best_gain, skipped = _scan_candidates(state, method)
        skipped_all.extend(j for j, _ in skipped)
        if best_j is None:
            break  # every remaining candidate failed; path ends early
        trace_value += best_gain
        steps.append(
            PathStep(
                added_index=best_j,
                trace_value=trace_value,
                bic_value=bic_score(trace_value, k, d.n, d.p),
            )
        )
        state.add(best_j)

    return SolutionPath(
        method=method,
        steps=tuple(steps),
        k_max=len(steps),
        skipped=tuple(sorted(set(skipped_all))),
    )


def stp_run(
    d: Dataset,
    s: SliceAssignment,
    cfg: StpConfig,
    universe: Iterable[int] | None = None,
) -> SelectionReport:
    """Stepwise selection over ``universe`` (all predictors by default).

    Each pass attempts one tested addition and one tested deletion; the run
    stops when a full pass changes nothing, a prior working set recurs, or
    the pass budget is exhausted.  The final trail entry names the reason:
    "converged", "set-size cap reached" (no addition was tried because the
    working set has ``resolved_max_set_size`` members), "cycle detected" or
    "iteration cap reached".
    """
    method = cfg.method
    if universe is None:
        universe = range(1, d.p + 1)
    uni = validate_working_set(universe, d.p)
    if not uni:
        return SelectionReport(
            selected=(),
            trail=(TrailEntry("stop", None, None, None, "empty universe"),),
            method=method,
            stage_sizes=(0, 0),
        )
    alpha = cfg.resolved_alpha(d.p)
    max_size = cfg.resolved_max_set_size(d.n, d.p, s.h_count)

    current: set[int] = set()
    visited = {frozenset()}
    trail: list[TrailEntry] = []
    skipped_seen: set[int] = set()

    def record_skips(skips):
        for j, category in skips:
            if j not in skipped_seen:
                skipped_seen.add(j)
                trail.append(TrailEntry("skip", j, None, None, category))

    # Decisions depend on (F, j) alone: each test is kept for the run, each
    # untested gain until the working set changes.  The parts behind a gain
    # grow as n |F|, so only those of the question a pass will test are held:
    # the forward winner, or the first smallest new backward gain.
    gains: dict = {}  # (F, j) -> trace gain, or the skip category
    tests: dict = {}  # (F, j) -> (statistic, threshold)
    held: dict = {}  # at most one (F, j) -> (m, r, aux)

    def score(f, j, skips):
        """Trace gain of adding ``j`` to ``f``; None after noting its skip."""
        if (f, j) not in gains:
            m = compute_moments(d, s, f)
            try:
                r = residualize(d, s, m, j)
                aux = None if method is Method.SIR else auxiliary_stats(m, r)
                gains[f, j] = trace_diff(method, m, r, aux)
                if not held or gains[f, j] < gains[next(iter(held))]:
                    held.clear()
                    held[f, j] = (m, r, aux)
            except TracePursuitError as err:
                gains[f, j] = err.category
        if isinstance(gains[f, j], str):
            skips.append((j, gains[f, j]))
            return None
        return gains[f, j]

    def test(f, j):
        """Statistic and threshold of adding the scored ``j`` to ``f``."""
        if (f, j) not in tests:
            tests[f, j] = statistic_and_threshold(method, d, s, *held[f, j], alpha)[:2]
        held.clear()
        return tests[f, j]

    def record_change(action, j, stat, thr) -> bool:
        """Log a tested add or delete; True when the new set recurs."""
        trail.append(TrailEntry(action, j, stat, thr))
        for key in gains.keys() - tests.keys():
            del gains[key]
        state = frozenset(current)
        if state in visited:
            trail.append(TrailEntry("stop", None, None, None, "cycle detected"))
            return True
        visited.add(state)
        return False

    scan = None  # the forward scan state of ``current``, kept while it only grows
    for _ in range(cfg.max_iterations):
        changed = False

        # forward addition: the scan's best candidate, then its test
        if len(current) < min(max_size, len(uni)):
            f = tuple(sorted(current))
            if scan is None:
                scan = ScanState(d, s, uni, f)
            best_j, _, skips = _scan_candidates(scan, method)
            gain = None if best_j is None else score(f, best_j, skips)
            record_skips(skips)
            if gain is not None:
                stat, thr = test(f, best_j)
                if stat > thr:
                    current.add(best_j)
                    scan.add(best_j)
                    changed = True
                    if record_change("add", best_j, stat, thr):
                        return _finish(current, trail, method, uni)

        # backward deletion: the member whose removal costs least, then its test
        if current:
            best_d, best_loss, skips = None, math.inf, []
            for j in sorted(current):
                loss = score(tuple(sorted(current - {j})), j, skips)
                if loss is not None and loss < best_loss:
                    best_d, best_loss = j, loss
            record_skips(skips)
            if best_d is not None:
                stat, thr = test(tuple(sorted(current - {best_d})), best_d)
                if stat < thr:
                    current.remove(best_d)
                    scan = None
                    changed = True
                    if record_change("delete", best_d, stat, thr):
                        return _finish(current, trail, method, uni)

        if not changed:
            # a pass with no forward step ends at the cap, not at a test
            stop_note = "set-size cap reached" if len(current) >= max_size else "converged"
            break
    else:
        stop_note = "iteration cap reached"

    trail.append(TrailEntry("stop", None, None, None, stop_note))
    return _finish(current, trail, method, uni)


def _finish(current, trail, method, universe) -> SelectionReport:
    return SelectionReport(
        selected=tuple(sorted(current)),
        trail=tuple(trail),
        method=method,
        stage_sizes=(len(universe), len(current)),
    )


def htp_run(
    d: Dataset,
    s: SliceAssignment,
    method: Method,
    cfg: StpConfig | None = None,
    k_max: int | None = None,
) -> SelectionReport:
    """Two-stage hybrid: FTP screening, BIC prefix choice, then STP refinement.

    The refinement reuses the original slicing and tests only indices inside
    the BIC-chosen prefix.
    """
    if cfg is None:
        cfg = StpConfig(method=method)
    elif cfg.method is not method:
        cfg = replace(cfg, method=method)

    path = ftp_run(d, s, method, k_max=k_max)
    m_hat = path.bic_argmin()
    screened = path.prefix(m_hat)
    if not screened:
        return SelectionReport(
            selected=(),
            trail=(TrailEntry("stop", None, None, None, "screening produced no set"),),
            method=method,
            stage_sizes=(0, 0),
        )
    report = stp_run(d, s, cfg, universe=screened)
    return replace(report, stage_sizes=(len(screened), len(report.selected)))
