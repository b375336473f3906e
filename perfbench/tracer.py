"""Span tracer that wraps the package's public functions from the outside.

The package is left untouched: ``Tracer.install`` replaces each traced
function by a wrapper in every ``tracepursuit`` module that binds it.  The
callers import with ``from .x import f``, so rebinding only the defining
module would miss most calls.

Each call records one span (function, start, end, parent span, op id) in
flat arrays that stay in memory until the run ends; self time is the span's
duration minus the durations of its traced children.  A wrapper returns the
wrapped function's value and re-raises its exception object unchanged,
because the selectors catch ``TracePursuitError`` from ``residualize`` to
record skips.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function) pairs traced, named "<module>.<function>" in the report.
TARGETS = (
    ("data", "compute_moments"),
    ("data", "slice_response"),
    ("kernels", "residualize"),
    ("kernels", "auxiliary_stats"),
    ("kernels", "trace_diff"),
    ("nulldist", "trace_test"),
    ("nulldist", "statistic_and_threshold"),
    ("nulldist", "influence_samples"),
    ("nulldist", "omega_hat"),
    ("nulldist", "weighted_chisq_upper_quantile"),
    ("selectors", "ftp_run"),
    ("selectors", "stp_run"),
    ("selectors", "htp_run"),
    ("simbench", "generate"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)

# Only called while inputs are built, so counted over set-up spans.
SETUP_NAMES = frozenset({"simbench.generate", "data.slice_response"})

# Op id of spans recorded outside the timed phase.
SETUP = -1

# Attribute set on every wrapper; its value is the wrapped function.
MARK = "_perfbench_wrapped"


def package_modules(package_name: str = "tracepursuit"):
    """The loaded modules of the package, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package_name or name.startswith(package_name + "."))
    ]


def installed_wrappers(package_name: str = "tracepursuit") -> list[str]:
    """Names of package bindings that are tracer wrappers (empty when clean)."""
    found = []
    for mod in package_modules(package_name):
        for attr, value in vars(mod).items():
            if callable(value) and hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    """Records one span per traced call; ``op_id`` tags spans with the op."""

    def __init__(self, package_name: str = "tracepursuit"):
        self.package_name = package_name
        self.op_id = SETUP
        self._stack: list[int] = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._errors = [0] * len(NAMES)
        self._moment_sets: set = set()
        self._moment_calls = 0
        self._decisive = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = package_modules(self.package_name)
        by_name = {m.__name__: m for m in mods}
        for idx, (mod_name, fn_name) in enumerate(TARGETS):
            original = getattr(by_name[f"{self.package_name}.{mod_name}"], fn_name)
            wrapper = self.wrap(idx, original)
            for mod in mods:
                if vars(mod).get(fn_name) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    def wrap(self, idx: int, fn):
        stack = self._stack
        now = time.perf_counter
        name = NAMES[idx] if idx >= 0 else "probe"

        def span(*args, **kwargs):
            k = len(self._start)
            self._name.append(idx)
            self._parent.append(stack[-1] if stack else -1)
            self._op.append(self.op_id)
            self._start.append(0.0)
            self._end.append(0.0)
            stack.append(k)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if idx >= 0 and self.op_id != SETUP:
                    self._errors[idx] += 1
                raise
            finally:
                t1 = now()
                stack.pop()
                self._start[k] = t0
                self._end[k] = t1
            if self.op_id != SETUP:
                self._note(name, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        setattr(span, MARK, fn)
        return span

    def _note(self, name: str, result) -> None:
        if name == "data.compute_moments":
            self._moment_calls += 1
            self._moment_sets.add((self.op_id, result.f))
        elif name == "selectors.stp_run":
            self._decisive += sum(e.action in ("add", "delete") for e in result.trail)

    def report(self, op_seconds: float) -> dict[str, float]:
        """Per-function calls and self seconds, waste counters, coverage.

        ``op_seconds`` is the summed latency of the timed ops; coverage is the
        share of it that traced spans account for.
        """
        count = len(self._start)
        dur = [self._end[k] - self._start[k] for k in range(count)]
        child = [0.0] * count
        for k in range(count):
            parent = self._parent[k]
            if parent >= 0:
                child[parent] += dur[k]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        covered = 0.0
        for k in range(count):
            idx = self._name[k]
            timed = self._op[k] != SETUP
            if timed:
                covered += dur[k] - child[k]
            if timed == (NAMES[idx] not in SETUP_NAMES):
                calls[idx] += 1
                self_s[idx] += dur[k] - child[k]

        stp = NAMES.index("selectors.stp_run")
        sat = NAMES.index("nulldist.statistic_and_threshold")
        stp_tests = sum(
            1
            for k in range(count)
            if self._name[k] == sat and self._op[k] != SETUP and self._has_ancestor(k, stp)
        )

        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_s[idx]
        out["kernels.residualize.errors"] = self._errors[NAMES.index("kernels.residualize")]
        out["data.compute_moments.distinct_ratio"] = (
            len(self._moment_sets) / self._moment_calls if self._moment_calls else 0.0
        )
        out["selectors.stp.decisive_ratio"] = self._decisive / stp_tests if stp_tests else 0.0
        out["trace.coverage"] = covered / op_seconds if op_seconds > 0 else 0.0
        return out

    def _has_ancestor(self, k: int, name_idx: int) -> bool:
        parent = self._parent[k]
        while parent >= 0:
            if self._name[parent] == name_idx:
                return True
            parent = self._parent[parent]
        return False


def check_transparent(error_type: type[BaseException]) -> list[str]:
    """Problems found when a wrapper's value or exception differs from the
    wrapped function's (empty when the wrapper is transparent)."""
    tracer = Tracer()
    problems = []
    sentinel = object()
    if tracer.wrap(-1, lambda: sentinel)() is not sentinel:
        problems.append("wrapper changed a return value")
    raised = error_type("probe")

    def fail():
        raise raised

    try:
        tracer.wrap(-1, fail)()
    except Exception as exc:  # noqa: BLE001 - the probe inspects any exception
        if exc is not raised:
            problems.append(f"wrapper replaced {error_type.__name__} by {type(exc).__name__}")
    else:
        problems.append("wrapper swallowed an exception")
    return problems
