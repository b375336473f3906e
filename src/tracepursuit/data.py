"""Dataset representation, response slicing, and slice-conditional moments.

All moment estimators use the n-divisor convention and one global
standardization of the predictors: each column is centered and divided by
its standard deviation (``Dataset.column_means`` and ``column_scales``, a
constant column becomes zeros), and a working set selects those columns
rather than re-centering.  The traces, gains and statistics do not depend
on the units of a column, and with standardized columns neither do the
floors: Sigma_F is the correlation matrix of F, so ``EIGENVALUE_FLOOR``
bounds its eigenvalue spread whatever the units.  ``Dataset.x`` keeps the
raw units; no standardized copy of it is stored.

``MomentStats`` holds the standardized columns X_F of a working set and owns
the working-set algebra: the terms that depend on F alone, and so are shared
by all candidates of a scan, come from one whitening W with
W W' = Sigma_F^{-1}, built on one ``eigh`` of Sigma_F = X_F' X_F / n that
runs at most once per instance, and are cached there.  These are W itself,
the whitened columns Z = X_F W, the whitened slice moments, which are read
from Z alone (slice means M Z with the slice-averaging matrix M of the
slicing, and slice second moments Z_h' Z_h / n_h), and ``kappa``, the SIR
kernel trace on F.  The traces, gains and null weights depend on Sigma_F
only through W W', so any other whitening W O, O orthogonal, gives the same
values.  The kernels module keeps only the work that depends on the
candidate.  A ``MomentStats`` also holds the dataset ``d`` and the slicing
``s`` it was built from, so everything downstream reads n, the slice
proportions, rows and averaging matrix from the moments themselves and
cannot pair them with another slicing.

Everything here is a pure function of its inputs; the returned objects are
treated as immutable apart from those caches.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSlicingError,
    IllPosedMomentsError,
    SingularDesignError,
    WorkingSetIndexError,
)

# Relative eigenvalue floor for the working-set correlation matrix (the
# covariance of the standardized columns); below this the design is reported
# singular rather than regularized, which would break the exact trace-gain
# identities.
EIGENVALUE_FLOOR = 1e-12

# Working sets are tuples of 1-based predictor indices, strictly increasing.
IndexSet = tuple[int, ...]


def is_singular_spectrum(evals: np.ndarray) -> bool:
    """The ``EIGENVALUE_FLOOR`` verdict on ascending eigenvalues of Sigma_F."""
    return evals.size > 0 and bool(
        evals[-1] <= 0.0 or evals[0] < EIGENVALUE_FLOOR * evals[-1]
    )


def as_integer(value, name: str) -> int:
    """``value`` through ``operator.index``; a float, a string or any other
    non-integer raises ``ValueError`` naming the argument ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """A predictor matrix (n x p, raw units) with a scalar response."""

    x: np.ndarray
    y: np.ndarray
    n: int
    p: int
    column_names: tuple[str, ...] | None = None

    @classmethod
    def from_arrays(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        column_names: Sequence[str] | None = None,
    ) -> "Dataset":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]  # single predictor
        x = _readonly(x)
        y = _readonly(np.asarray(y).ravel())
        n, p = x.shape
        if n < 2 or p < 1:
            raise ValueError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        if y.shape != (n,):
            raise ValueError(f"y has length {y.shape[0]}, expected {n}")
        names = tuple(column_names) if column_names is not None else None
        if names is not None and len(names) != p:
            raise ValueError("column_names length must equal p")

        def label(a: int) -> str:
            return f"{a + 1}" + (f" ({names[a]!r})" if names is not None else "")

        finite = np.isfinite(x).all(axis=0)
        if not finite.all():
            raise ValueError(f"x column {label(int(np.argmin(finite)))} has non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        d = cls(x=x, y=y, n=n, p=p, column_names=names)
        # Every moment sums squares and products of centered columns, so the
        # squared deviations of a nonconstant column must stay normal floats:
        # below that they lose digits, above it they overflow.
        means = d.column_means()
        top, bottom = x.max(axis=0), x.min(axis=0)
        with np.errstate(over="ignore", under="ignore"):
            dev2 = np.maximum(top - means, means - bottom) ** 2
            bad = (top > bottom) & ~((dev2 >= np.finfo(np.float64).tiny) & np.isfinite(n * dev2))
        if bad.any():
            raise ValueError(
                f"x column {label(int(np.argmax(bad)))} has squared deviations "
                "outside the normal float range"
            )
        return d

    def __getstate__(self) -> dict:
        """The fields alone: the caches are rebuilt on use, not pickled."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def column_means(self) -> np.ndarray:
        """Per-column means, each computed as a 1-D reduction of that column."""
        cached = getattr(self, "_col_means", None)
        if cached is None:
            cached = np.array([self.x[:, a].mean() for a in range(self.p)])
            cached.setflags(write=False)
            object.__setattr__(self, "_col_means", cached)
        return cached

    def column_scales(self) -> np.ndarray:
        """Per-column 1/sd (n-divisor), each from a 1-D reduction of that
        column, and 0 for a constant column: (x - mean) * scale is the
        standardized column, or zeros."""
        cached = getattr(self, "_col_scales", None)
        if cached is None:
            means = self.column_means()
            cached = np.zeros(self.p)
            for a in np.flatnonzero(self.x.max(axis=0) > self.x.min(axis=0)):
                dev = self.x[:, a] - means[a]
                cached[a] = 1.0 / math.sqrt(dev @ dev / self.n)
            cached.setflags(write=False)
            object.__setattr__(self, "_col_scales", cached)
        return cached


@dataclass(frozen=True)
class SliceAssignment:
    """A partition of the sample into H response slices.

    ``membership`` holds slice labels in 1..h_count; ``proportions[h-1]`` is
    the exact slice-h count divided by n.  ``rows`` caches the row indices of
    each slice (in original sample order).
    """

    h_count: int
    membership: np.ndarray
    proportions: np.ndarray
    rows: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rows:
            rows = tuple(
                np.flatnonzero(self.membership == h)
                for h in range(1, self.h_count + 1)
            )
            object.__setattr__(self, "rows", rows)

    @property
    def counts(self) -> np.ndarray:
        return np.array([r.size for r in self.rows])

    @cached_property
    def averaging(self) -> np.ndarray:
        """Slice-averaging matrix M, (H, n): M[h-1, i] = 1/n_h if sample i is
        in slice h, else 0, so M a holds the slice means of a per-sample a."""
        m = np.zeros((self.h_count, self.membership.size))
        for idx, rows in enumerate(self.rows):
            m[idx, rows] = 1.0 / rows.size
        m.setflags(write=False)
        return m


def slice_response(y: np.ndarray, h_count: int, discrete: bool = False) -> SliceAssignment:
    """Partition the response sample into nonempty slices.

    Continuous responses get equal-frequency slices by rank (ties broken by
    original sample index, slice sizes differing by at most one).  Discrete
    responses get one slice per distinct value, smallest value first, and the
    slice count is reset to the number of distinct values.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    h_count = as_integer(h_count, "h_count")
    if h_count < 2:
        raise ValueError(f"h_count must be >= 2, got {h_count}")
    if n < h_count:
        raise DegenerateSlicingError(
            f"cannot form {h_count} nonempty slices from {n} samples"
        )

    if discrete:
        values = np.unique(y)
        if values.size > h_count:
            raise DegenerateSlicingError(
                f"discrete response has {values.size} distinct values, "
                f"more than h_count={h_count}"
            )
        if values.size < 2:
            raise DegenerateSlicingError("discrete response is constant")
        membership = np.searchsorted(values, y) + 1
        h = int(values.size)
    else:
        if np.unique(y).size < h_count:
            raise DegenerateSlicingError(
                f"response has fewer than {h_count} distinct values; "
                "equal-frequency slicing would be degenerate"
            )
        order = np.argsort(y, kind="stable")
        membership = np.empty(n, dtype=np.int64)
        base, extra = divmod(n, h_count)
        pos = 0
        for h_label in range(1, h_count + 1):
            size = base + (1 if h_label <= extra else 0)
            membership[order[pos : pos + size]] = h_label
            pos += size
        h = h_count

    counts = np.bincount(membership, minlength=h + 1)[1:]
    proportions = _readonly(counts / n)
    return SliceAssignment(h_count=h, membership=membership, proportions=proportions)


@dataclass
class MomentStats:
    """Slice-conditional moments of the standardized predictors on a working set.

    ``xc`` holds the standardized working-set columns X_F (n x |F|), in the
    sorted order of ``f``, so downstream residual computations do not
    re-center.  Every other moment is derived from it with the n-divisor
    convention: the correlation matrix Sigma_F = X_F' X_F / n is decomposed
    once and not stored, and the slice moments are kept only in the whitened
    coordinates of ``whitening``.  Each is a product of fixed shape in the
    dataset, the slicing and the sorted F, so it is the same bits for every
    call that names the same working set.  ``d`` and ``s`` are the dataset
    and the slicing the moments were built from; n, the slice proportions,
    rows and averaging matrix are read from them.

    Instances are immutable after construction apart from cached properties.
    ``whitening`` and the whitened moments built on it raise
    ``SingularDesignError`` when the smallest eigenvalue of the correlation
    matrix Sigma_F falls below ``EIGENVALUE_FLOOR`` times the largest
    (condition number above 1e12, in any units of the columns).
    """

    f: IndexSet
    xc: np.ndarray  # (n, |F|) standardized working-set columns
    d: Dataset = field(repr=False)
    s: SliceAssignment = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.f)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray, bool]:
        evals, evecs = np.linalg.eigh(self.xc.T @ self.xc / self.d.n)
        return evals, evecs, is_singular_spectrum(evals)

    @cached_property
    def whitening(self) -> np.ndarray:
        """W = V Lambda^{-1/2} from ``eigh`` of Sigma_F, so W W' = Sigma_F^{-1}."""
        evals, evecs, singular = self._eigh
        if singular:
            raise SingularDesignError(
                f"working-set correlation matrix is numerically singular "
                f"(eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}])"
            )
        return evecs / np.sqrt(evals)

    @cached_property
    def white_xc(self) -> np.ndarray:
        """Whitened columns Z = X_F W, (n, |F|), with Z'Z/n = I."""
        return self.xc @ self.whitening

    @cached_property
    def white_u(self) -> np.ndarray:
        """Whitened slice means M Z, (H, |F|)."""
        return self.s.averaging @ self.white_xc

    @cached_property
    def white_v(self) -> np.ndarray:
        """Whitened slice second moments Z_h' Z_h / n_h, (H, |F|, |F|)."""
        z = self.white_xc
        v = np.empty((self.s.h_count, self.size, self.size))
        for h, rows in enumerate(self.s.rows):
            zh = z[rows]
            v[h] = zh.T @ zh / rows.size
        return v

    @cached_property
    def kappa(self) -> float:
        """SIR kernel trace on F, sum_h p_h |(M Z)_h|^2 (0 when empty)."""
        return float(self.s.proportions @ np.einsum("ha,ha->h", self.white_u, self.white_u))


def validate_working_set(f: Iterable[int], p: int) -> IndexSet:
    """Canonicalize a working set to a sorted tuple of distinct 1-based integers."""
    fs = tuple(f)
    try:
        fs = tuple(map(operator.index, fs))
    except TypeError:
        raise WorkingSetIndexError(f"working set has a non-integer index: {fs}") from None
    if len(set(fs)) != len(fs):
        raise WorkingSetIndexError(f"working set has repeated indices: {fs}")
    for j in fs:
        if not 1 <= j <= p:
            raise WorkingSetIndexError(f"index {j} outside 1..{p}")
    return tuple(sorted(fs))


def check_slicing(d: Dataset, s: SliceAssignment) -> None:
    """Raise ``ValueError`` unless the slicing labels the dataset's n rows."""
    if s.membership.size != d.n:
        raise ValueError(
            f"slicing has {s.membership.size} rows but the dataset has n={d.n}"
        )


def compute_moments(d: Dataset, s: SliceAssignment, f: Iterable[int]) -> MomentStats:
    """Estimate working-set moments shared by every kernel and test.

    The empty working set is allowed and yields 0-dimensional moment blocks,
    which the kernel traces and residual computations treat as the
    no-conditioning case.  Raises ``ValueError`` when the slicing does not
    have the dataset's n rows.
    """
    check_slicing(d, s)
    fs = validate_working_set(f, d.p)
    k = len(fs)
    if k >= d.n:
        raise IllPosedMomentsError(
            f"working set of size {k} with only n={d.n} samples"
        )

    idx = np.array(fs, dtype=np.int64) - 1
    xc = d.x[:, idx] - d.column_means()[idx]
    xc *= d.column_scales()[idx]
    return MomentStats(f=fs, xc=xc, d=d, s=s)
