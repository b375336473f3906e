"""Stepwise (STP), forward (FTP), and hybrid (HTP) trace pursuit.

STP alternates a forward addition (largest trace gain over candidates
outside the working set, admitted when n times the gain exceeds the
upper-alpha quantile of its estimated null law) with a backward deletion
(the member whose removal costs the least, removed when its statistic falls
below its own threshold).  FTP greedily grows a nested solution
path by trace gain alone and scores each prefix with a modified BIC; HTP
screens with FTP, keeps the BIC-minimizing prefix, and refines it with STP.

HTP-SIR stops its screening path once BIC can no longer improve.  The
whitened SIR slice means satisfy sum_h p_h u_h u_h' <= sum_h p_h V_h = I and
have rank at most H - 1 (their weighted sum is zero), so the SIR kernel trace
of any working set is at most H - 1 (Li 1991).  A prefix of length k then
has BIC >= -log(H - 1) + k (log n + 2 log p) / n, a floor that grows with k;
once the floor at the next length reaches the best BIC so far, no longer
prefix can win, and ties go to the shorter prefix, so the chosen prefix is
the full path's.  ``ftp_run`` keeps the full path, and so do SAVE and DR,
whose traces have no constant bound.

Forward scans are vectorized: a ``ScanState`` for the run's kernel holds
the standardized candidate columns, allocated once, and keeps current only
the slice statistics of their residuals given the working set that the
gains read.  An addition costs one product of the new basis vector with
the columns, O(n p), for SIR, and for SAVE and DR one product of 2H slice
vectors with them, O(H (n + |F|) p); no n x p block of residuals is formed,
and besides the projections on the working set the kept statistics take
O(H p).  A scan then costs O(H (p - |F|)) for every kernel.  FTP keeps
one state for its whole path; STP keeps one across its forward passes and
builds a new one only after a deletion.  HTP's refinement builds none
until its first deletion: while its working set is the path prefix F_k,
its forward winner is the path's step k + 1.  That step is the argmax of the same gains over every
candidate outside F_k, a superset of the refinement's candidates U - F_k
(U the BIC prefix) that holds the winner, and both break ties toward the
smallest index; a candidate of U skipped at F_k would stay skipped and
never have joined the path.  The backward pass scores every member from one
whitening of F (``deletion_gains``): one Cholesky factorization plus
O(n |F|^2 + H |F|^3) work.  Only the question a pass tests,
the forward winner or the cheapest member, goes through ``trace_test``, and
each test is computed once per run: every STP decision is a pure function
of (F, j), because each moment of F is a product of fixed shape in the
dataset, the slicing and the sorted F.

Ties break toward the smallest index (gains within ``TIE_RTOL`` of the
best, the largest forward or the smallest backward, count as tied), and a
visited-set cycle guard makes STP terminate on data that oscillates at a
threshold boundary.

The three selectors take ``(d, s, method)`` and keyword-only options:
``k_max`` caps a forward path, and STP and HTP test at level ``alpha``,
0.1/p by default.  Both check it, and ``stp_set_cap``, before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import (
    Dataset,
    IndexSet,
    SliceAssignment,
    as_integer,
    check_slicing,
    compute_moments,
    validate_working_set,
)
from .errors import CollinearCandidateError, SingularDesignError
from .kernels import Method, ScanState, deletion_gains
from .nulldist import influence_dim, trace_test


# Relative slack on the SIR trace bound H - 1, for rounding in the path trace
# accumulated from closed-form gains.
SIR_TRACE_RTOL = 1e-12

# Relative gap below which two trace gains are a tie.  Gains that agree in
# exact arithmetic (duplicated columns, or the two remaining members of a
# collinear set) differ in their last bits once BLAS sums the columns in
# different orders; this keeps the tie-break on the index, not the rounding.
TIE_RTOL = 1e-12


# Passes (one tested addition and one tested deletion each) after which
# STP stops with "iteration cap reached".
STP_MAX_PASSES = 100


def default_path_cap(n: int, p: int, h_count: int) -> int:
    """Largest working-set size kept numerically and statistically sane,
    min(p, n - H - 2).  A size below 1 raises ``ValueError``: no set fits."""
    size = min(p, n - h_count - 2)
    if size < 1:
        raise ValueError(f"n={n} leaves no room for a working set beside {h_count} slices")
    return size


def stp_set_cap(method: Method, n: int, p: int, h_count: int) -> int:
    """Largest working set an STP run grows.

    ``default_path_cap``: min(p, n - H - 2), which keeps the working-set
    covariance invertible with slack for the slices, lowered for SAVE and DR
    until every test the run can make has fewer influence dimensions than
    samples, so no null law rests on a rank-deficient weight matrix.  A size
    below 1 raises ``ValueError``: no test could be made.
    """
    size = default_path_cap(n, p, h_count)
    # the largest working set tested has size - 1 members
    while size > 0 and influence_dim(method, size - 1, h_count) >= n:
        size -= 1
    if size < 1:
        dim = influence_dim(method, 0, h_count)
        raise ValueError(
            f"n={n} leaves no room for a {method.value.upper()} test beside "
            f"{h_count} slices: its influence vector has {dim} dimensions"
        )
    return size


def _stp_options(
    d: Dataset, s: SliceAssignment, method: Method, alpha: float | None
) -> tuple[float, int]:
    """An STP run's level, 0.1/p unless given, and its ``stp_set_cap``,
    checked before any work; a slicing of another length is reported first."""
    check_slicing(d, s)
    alpha = 0.1 / d.p if alpha is None else alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    return alpha, stp_set_cap(method, d.n, d.p, s.h_count)


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
    skipped: tuple[int, ...] = ()

    @property
    def k_max(self) -> int:
        """Realized path length."""
        return len(self.steps)

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


def _first_best(values: np.ndarray) -> int:
    """Position of the first value within ``TIE_RTOL`` of the largest."""
    top = values.max()
    return int(np.argmax(values >= top - TIE_RTOL * abs(top)))


def _scan_candidates(state: ScanState):
    """Best candidate of a scan state: (best_j, best_gain, skipped).

    ``best_j`` is None when every candidate is skipped.  Gains within
    ``TIE_RTOL`` of the best are ties, and ties go to the smallest index.
    """
    gains, skipped = state.gains()
    if gains.max() == -math.inf:
        return None, -math.inf, skipped
    i = _first_best(gains)
    return int(state.columns[i]), float(gains[i]), skipped


def ftp_run(
    d: Dataset,
    s: SliceAssignment,
    method: Method,
    *,
    k_max: int | None = None,
) -> SolutionPath:
    """Greedy forward path of trace-maximizing additions with BIC scores.

    The path trace accumulates the closed-form gains, which matches the
    kernel trace of each prefix to floating point; for SIR the gains are
    nonnegative so the path trace is nondecreasing.
    """
    return _forward_path(d, s, method, k_max, bic_stop=False)


def _forward_path(
    d: Dataset,
    s: SliceAssignment,
    method: Method,
    k_max: int | None,
    bic_stop: bool,
) -> SolutionPath:
    """``ftp_run``'s path; with ``bic_stop`` a SIR path ends once the BIC
    floor of the next prefix, ``bic_score`` of the trace bound H - 1, reaches
    the best BIC so far (module docstring), keeping its ``bic_argmin`` prefix.
    """
    cap = default_path_cap(d.n, d.p, s.h_count)
    k_max = cap if k_max is None else as_integer(k_max, "k_max")
    if not 1 <= k_max <= cap:
        raise ValueError(f"k_max must be in 1..{cap}, got {k_max}")
    trace_bound = (s.h_count - 1) * (1.0 + SIR_TRACE_RTOL)
    bic_stop = bic_stop and method is Method.SIR

    steps: list[PathStep] = []
    skipped_all: list[int] = []
    trace_value = 0.0
    best_bic = math.inf
    state = ScanState(d, s, method, np.arange(1, d.p + 1))

    for k in range(1, k_max + 1):
        best_j, best_gain, skipped = _scan_candidates(state)
        skipped_all.extend(j for j, _ in skipped)
        if best_j is None:
            break  # every remaining candidate failed; path ends early
        trace_value += best_gain
        bic_value = bic_score(trace_value, k, d.n, d.p)
        steps.append(PathStep(added_index=best_j, trace_value=trace_value, bic_value=bic_value))
        best_bic = min(best_bic, bic_value)
        if k == k_max or bic_stop and bic_score(trace_bound, k + 1, d.n, d.p) >= best_bic:
            break  # no scan reads the state after this step
        state.add(best_j)

    return SolutionPath(
        method=method,
        steps=tuple(steps),
        skipped=tuple(sorted(set(skipped_all))),
    )


def stp_run(
    d: Dataset,
    s: SliceAssignment,
    method: Method,
    *,
    alpha: float | None = None,
    universe: Iterable[int] | None = None,
) -> SelectionReport:
    """Stepwise selection at level ``alpha`` (0.1/p by default) over
    ``universe`` (all predictors by default).

    Each pass attempts one tested addition and one tested deletion; the run
    stops when a full pass changes nothing, a prior working set recurs, or
    ``STP_MAX_PASSES`` passes are done.  The final trail entry names the
    reason: "converged", "set-size cap reached" (no addition was tried
    because the working set has ``stp_set_cap`` members), "cycle detected"
    or "iteration cap reached".
    """
    alpha, max_size = _stp_options(d, s, method, alpha)
    if universe is None:
        universe = range(1, d.p + 1)
    uni = validate_working_set(universe, d.p)
    if not uni:
        return _finish((), [TrailEntry("stop", None, None, None, "empty universe")], method, uni)
    return _stepwise(d, s, method, alpha, max_size, uni, order=())


def _stepwise(
    d: Dataset, s: SliceAssignment, method: Method, alpha: float, max_size: int,
    uni: IndexSet, order: IndexSet,
) -> SelectionReport:
    """``stp_run`` over the validated, nonempty universe ``uni``.  While no
    deletion has been made, the forward pass proposes ``order[len(current)]``
    without a scan; ``order`` must then be the forward path's order of
    ``uni`` (module docstring), and ``()`` scans from the start."""
    current: set[int] = set()
    visited = {frozenset()}
    trail: list[TrailEntry] = []
    skipped_seen: set[int] = set()

    def record_skips(skips):
        for j, category in skips:
            if j not in skipped_seen:
                skipped_seen.add(j)
                trail.append(TrailEntry("skip", j, None, None, category))

    tests: dict = {}  # (F, j) -> (statistic, threshold), or the skip category

    def test(f, j):
        """Statistic and threshold of adding ``j`` to ``f``; None after recording its skip."""
        if (f, j) not in tests:
            try:
                result = trace_test(method, d, s, f, j, alpha)
                tests[f, j] = result.statistic, result.threshold
            except (SingularDesignError, CollinearCandidateError) as err:
                tests[f, j] = err.category
        if isinstance(tests[f, j], str):
            record_skips([(j, tests[f, j])])
            return None
        return tests[f, j]

    def record_change(action, j, stat, thr) -> bool:
        """Log a tested add or delete; True when the new set recurs."""
        trail.append(TrailEntry(action, j, stat, thr))
        state = frozenset(current)
        if state in visited:
            trail.append(TrailEntry("stop", None, None, None, "cycle detected"))
            return True
        visited.add(state)
        return False

    scan = None  # the forward scan state of ``current``, kept while it only grows
    kept = None  # the set whose backward pass last changed nothing
    for _ in range(STP_MAX_PASSES):
        changed = False

        # forward addition: the path's next entry or the scan's best
        # candidate, then its test
        if len(current) < min(max_size, len(uni)):
            f = tuple(sorted(current))
            if order:
                best_j = order[len(current)]
            else:
                if scan is None:
                    scan = ScanState(d, s, method, uni, f)
                best_j, _, skips = _scan_candidates(scan)
                record_skips(skips)
            outcome = None if best_j is None else test(f, best_j)
            if outcome is not None and outcome[0] > outcome[1]:
                current.add(best_j)
                if scan is not None:
                    scan.add(best_j)
                changed = True
                if record_change("add", best_j, *outcome):
                    return _finish(current, trail, method, uni)

        # backward deletion: the member whose removal costs least, then its
        # test; none on a set that fails the floor (its forward scan skipped
        # every candidate) or whose last backward pass changed nothing
        if current and current != kept:
            kept = frozenset(current)
            f = tuple(sorted(current))
            best_d = f[0]  # the only member
            if len(f) > 1:
                try:
                    best_d = f[_first_best(-deletion_gains(method, compute_moments(d, s, f)))]
                except SingularDesignError:
                    best_d = None
            rest = tuple(j for j in f if j != best_d)
            outcome = None if best_d is None else test(rest, best_d)
            if outcome is not None and outcome[0] < outcome[1]:
                current.remove(best_d)
                scan, order = None, ()
                changed = True
                if record_change("delete", best_d, *outcome):
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
    *,
    alpha: float | None = None,
    k_max: int | None = None,
) -> SelectionReport:
    """Two-stage hybrid: FTP screening, BIC prefix choice, then STP refinement
    at level ``alpha`` (0.1/p by default).

    A SIR screening path stops once no longer prefix can win the BIC (module
    docstring), so the chosen prefix is the full path's.  The refinement
    reuses the original slicing and tests only indices inside the BIC-chosen
    prefix.  It is ``stp_run`` over that prefix, but its forward passes read
    their candidates from the path until its first deletion and build a scan
    state only after it: the path's next entry is the argmax of the same gains
    over a superset of the refinement's candidates (module docstring).
    """
    alpha, max_size = _stp_options(d, s, method, alpha)
    path = _forward_path(d, s, method, k_max, bic_stop=True)
    m_hat = path.bic_argmin()
    screened = path.prefix(m_hat)
    if not screened:
        stop = TrailEntry("stop", None, None, None, "screening produced no set")
        return _finish((), [stop], method, screened)
    order = tuple(step.added_index for step in path.steps[:m_hat])
    return _stepwise(d, s, method, alpha, max_size, screened, order)
