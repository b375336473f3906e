"""Dataset representation, response slicing, and slice-conditional moments.

All moment estimators use the n-divisor convention and one global
standardization of the predictors: each column is centered and divided by
its standard deviation (``Dataset.means`` and ``scales``, computed once
when the dataset is built; a constant column becomes zeros), and a working
set selects those columns rather than re-centering.  The traces, gains and
statistics do not depend on the units of a column, and with standardized
columns neither do the floors: Sigma_F is the correlation matrix of F, so
``EIGENVALUE_FLOOR`` bounds its eigenvalue spread whatever the units.
``Dataset.x`` keeps the raw units; no standardized copy of it is stored.

``MomentStats`` holds the standardized columns X_F of a working set and owns
the working-set algebra: the terms that depend on F alone, and so are shared
by all candidates of a scan, come from one whitening W with
W W' = Sigma_F^{-1}, the inverse of the upper Cholesky factor U of
Sigma_F = X_F' X_F / n = U'U, factored at most once per instance, and are
cached there.  U is the triangular factor R_Q / sqrt(n) of the forward
scan's X_F = Q R_Q (the R of a QR is the Cholesky factor of X'X), so the
scan and the test share one whitening, sqrt(n) Q = X_F W = Z row for row,
and both take the floor verdict from their factor through
``is_singular_factor``.  These are W itself, the whitened columns
Z = X_F W, the whitened slice moments, which are read from Z alone (slice
means M Z with the slice-averaging matrix M of the slicing, and slice
second moments Z_h' Z_h / n_h), and ``kappa``, the SIR kernel trace on F.
The traces, gains and null weights depend on Sigma_F only through W W', so
any other whitening W O, O orthogonal, gives the same values.  The kernels
module keeps only the work that depends on the candidate.  A
``MomentStats`` also holds the dataset ``d`` and the slicing ``s`` it was
built from, so everything downstream reads n, the slice proportions, rows
and averaging matrix from the moments themselves and cannot pair them with
another slicing.

``Dataset`` and ``SliceAssignment`` hold only arrays computed once, when
``Dataset.from_arrays`` and ``slice_response`` build them: the column
statistics of a dataset, and the counts, proportions, rows and indicator
matrix of a slicing.  Every per-sample array, here and downstream, keeps
the dataset's sample order; a slice is read through its rows or the
indicator, never by re-sorting the samples, so the layout of the slices
is known here alone.  Everything here is a pure function of its inputs;
the returned objects are treated as immutable apart from the cached
properties of ``MomentStats`` and ``SliceAssignment.averaging``.
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

# Columns per pass of ``Dataset.from_arrays``'s column statistics: each pass
# copies n x _STAT_CHUNK_COLS floats, so the copy stays small next to x.
_STAT_CHUNK_COLS = 512

# Working sets are tuples of 1-based predictor indices, strictly increasing.
IndexSet = tuple[int, ...]


def is_singular_spectrum(evals: np.ndarray) -> bool:
    """The ``EIGENVALUE_FLOOR`` verdict on ascending eigenvalues of Sigma_F."""
    return evals.size > 0 and bool(
        evals[-1] <= 0.0 or evals[0] < EIGENVALUE_FLOOR * evals[-1]
    )


def is_singular_factor(r: np.ndarray, n: float, inv_norm2: float) -> bool:
    """The ``EIGENVALUE_FLOOR`` verdict on Sigma_F = R'R / n, usually without
    eigvalsh, for an upper triangular R of k standardized columns and
    inv_norm2 = |R^{-1}|_F^2 (inf for a zero pivot, which fails the rule).

    Each standardized column has squared norm n (or 0), so lambda_max <=
    |R|_F^2 / n <= k, and lambda_min >= 1 / (n |R^{-1}|_F^2): n k
    |R^{-1}|_F^2 below 1 / EIGENVALUE_FLOOR proves the rule passes; half
    that bound leaves room for rounding in R^{-1} and the sum.  A failed
    bound leaves the verdict to the eigenvalues of R'R / n.
    """
    if n * r.shape[0] * inv_norm2 < 0.5 / EIGENVALUE_FLOOR:
        return False
    if inv_norm2 == math.inf:
        return True
    return is_singular_spectrum(np.linalg.eigvalsh(r.T @ r / n))


def as_integer(value, name: str) -> int:
    """``value`` through ``operator.index``; a float, a string or any other
    non-integer raises ``ValueError`` naming the argument ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(a, name: str) -> np.ndarray:
    """``a`` as an array; a complex one raises ``ValueError``, as converting
    it to float would drop its imaginary part."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} has complex dtype {a.dtype}")
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """A predictor matrix (n x p, raw units) with a scalar response.

    ``means`` and ``scales`` hold each column's mean and 1/sd (n-divisor),
    with scale 0 for a constant column, whose mean is its value, so (x -
    mean) * scale is the standardized column or exact zeros.
    ``from_arrays`` computes both once, for all columns, and every array
    field is read-only.  Each statistic of a nonconstant column is the same
    bits as the 1-D reduction of that column alone, ``x[:, a].mean()`` and
    ``1 / sqrt(dev @ dev / n)`` with dev = x[:, a] - mean: a chunk of
    columns is copied to a C-order array of rows, so each row is one column
    and the row-wise ``mean`` runs the same pairwise sum, and the row-wise
    ``matmul`` of each row with itself runs the same dot product.
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    p: int
    means: np.ndarray
    scales: np.ndarray
    column_names: tuple[str, ...] | None = None

    @classmethod
    def from_arrays(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        column_names: Sequence[str] | None = None,
    ) -> "Dataset":
        x, y = _real(x, "x"), _real(y, "y").ravel()
        if x.ndim == 1:
            x = x[:, None]  # single predictor
        if x.ndim != 2:
            raise ValueError(f"x must be 1-D or 2-D, got shape {x.shape}")
        x, y = _readonly(x), _readonly(y)
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
        means, sumsq = np.empty(p), np.empty(p)
        top, bottom = x.max(axis=0), x.min(axis=0)
        varies = top > bottom
        with np.errstate(over="ignore", under="ignore"):
            for a in range(0, p, _STAT_CHUNK_COLS):
                cols = slice(a, a + _STAT_CHUNK_COLS)
                dev = np.array(x[:, cols].T, order="C")  # row i is column a + i
                means[cols] = dev.mean(axis=1)
                dev -= means[cols, None]
                sumsq[cols] = np.matmul(dev[:, None, :], dev[:, :, None])[:, 0, 0]
            # a constant column's mean is its value, also where its sum overflows
            np.copyto(means, top, where=~varies)
            # Every moment sums squares and products of centered columns, so
            # the squared deviations of a nonconstant column must stay normal
            # floats: below that they lose digits, above it they overflow.
            dev2 = np.maximum(top - means, means - bottom) ** 2
            bad = varies & ~((dev2 >= np.finfo(np.float64).tiny) & np.isfinite(n * dev2))
        if bad.any():
            raise ValueError(
                f"x column {label(int(np.argmax(bad)))} has squared deviations "
                "outside the normal float range"
            )
        scales = np.zeros(p)
        np.divide(1.0, np.sqrt(sumsq / n), out=scales, where=varies)
        return cls(
            x=x, y=y, n=n, p=p, means=_readonly(means), scales=_readonly(scales),
            column_names=names,
        )

    def standardized(self, columns, out=None) -> np.ndarray:
        """(x - mean) * scale of the 0-based ``columns`` (an index, or an
        ascending array of distinct indices) in a new array, or in ``out``:
        each column centered and divided by its sd, or zeros if constant.
        Rows stay in sample order.  All p columns take no gather: the result
        is x - means, C-contiguous like x, scaled in place."""
        x = self.x if np.shape(columns) == (self.p,) else self.x[:, columns]
        x = np.subtract(x, self.means[columns], out=out)
        x *= self.scales[columns]
        return x


@dataclass(frozen=True)
class SliceAssignment:
    """A partition of the sample into H response slices.

    ``membership`` holds slice labels in 1..h_count, ``counts[h-1]`` the
    size of slice h, ``proportions[h-1]`` that count divided by n,
    ``rows[h-1]`` the row indices of slice h in original sample order, and
    ``indicator`` the (n, H) slice indicator matrix S, S[i, h-1] = 1 if
    sample i is in slice h, else 0 (Fortran order).  ``slice_response``
    computes them all once, from ``membership``; the arrays are read-only.
    """

    h_count: int
    membership: np.ndarray
    counts: np.ndarray
    proportions: np.ndarray
    rows: tuple[np.ndarray, ...] = field(repr=False)
    indicator: np.ndarray = field(repr=False)

    @cached_property
    def averaging(self) -> np.ndarray:
        """Slice-averaging matrix M, (H, n): M[h-1, i] = 1/n_h if sample i is
        in slice h, else 0, so M a holds the slice means of a per-sample a."""
        m = (self.indicator / self.counts).T
        m.setflags(write=False)
        return m


def sorted_runs(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending sort order of a finite ``y`` and, along it, True
    where a value differs from the one before (and at the first), so that
    the count of True is the number of distinct values (0.0 and -0.0 are
    one).  ``np.unique`` would import ``numpy.ma`` into every process."""
    order = np.argsort(y, kind="stable")
    ys = y[order]
    first = np.empty(ys.size, dtype=bool)
    first[:1] = True
    np.not_equal(ys[1:], ys[:-1], out=first[1:])
    return order, first


def slice_response(y: np.ndarray, h_count: int, discrete: bool = False) -> SliceAssignment:
    """Partition the response sample into nonempty slices.

    Continuous responses get equal-frequency slices by rank (ties broken by
    original sample index, slice sizes differing by at most one).  Discrete
    responses get one slice per distinct value, smallest value first, and the
    slice count is reset to the number of distinct values.  A NaN or
    infinite response raises ``ValueError``, as does a complex one.
    """
    y = np.asarray(_real(y, "y"), dtype=np.float64).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite entries")
    n = y.size
    h_count = as_integer(h_count, "h_count")
    if h_count < 2:
        raise ValueError(f"h_count must be >= 2, got {h_count}")
    if n < h_count:
        raise DegenerateSlicingError(
            f"cannot form {h_count} nonempty slices from {n} samples"
        )

    by_value, first = sorted_runs(y)
    distinct = int(np.count_nonzero(first))
    if discrete:
        if distinct > h_count:
            raise DegenerateSlicingError(
                f"discrete response has {distinct} distinct values, "
                f"more than h_count={h_count}"
            )
        if distinct < 2:
            raise DegenerateSlicingError("discrete response is constant")
        labels = np.cumsum(first)  # rank of each sorted value among the distinct ones
        h = distinct
    else:
        if distinct < h_count:
            raise DegenerateSlicingError(
                f"response has fewer than {h_count} distinct values; "
                "equal-frequency slicing would be degenerate"
            )
        base, extra = divmod(n, h_count)
        labels = np.repeat(np.arange(1, h_count + 1), base + (np.arange(h_count) < extra))
        h = h_count
    membership = np.empty(n, dtype=np.int64)
    membership[by_value] = labels

    counts = np.bincount(membership, minlength=h + 1)[1:]
    order = np.argsort(membership, kind="stable")  # slice by slice, in sample order
    indicator = np.zeros((n, h), order="F")
    indicator[np.arange(n), membership - 1] = 1.0
    for a in (membership, counts, order, indicator):
        a.setflags(write=False)
    return SliceAssignment(
        h_count=h, membership=membership, counts=counts,
        proportions=_readonly(counts / n),
        rows=tuple(np.split(order, np.cumsum(counts)[:-1])), indicator=indicator,
    )


@dataclass
class MomentStats:
    """Slice-conditional moments of the standardized predictors on a working set.

    ``xc`` holds the standardized working-set columns X_F (n x |F|), in the
    sorted order of ``f``, so downstream residual computations do not
    re-center.  Every other moment is derived from it with the n-divisor
    convention: the correlation matrix Sigma_F = X_F' X_F / n is factored
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
    (condition number above 1e12, in any units of the columns) or its
    Cholesky factorization fails; the verdict is cached with the factor.
    """

    f: IndexSet
    xc: np.ndarray  # (n, |F|) standardized working-set columns
    d: Dataset = field(repr=False)
    s: SliceAssignment = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.f)

    @cached_property
    def _whitening(self) -> np.ndarray | None:
        """U^{-1} for the upper Cholesky factor U of Sigma_F = U'U, or None
        when Sigma_F fails the floor rule or cannot be factored; an empty F
        has the 0 x 0 whitening and nothing to factor."""
        if self.size == 0:
            return np.empty((0, 0))
        try:
            u = np.linalg.cholesky(self.xc.T @ self.xc / self.d.n).T
        except np.linalg.LinAlgError:
            return None
        w = np.linalg.inv(u)
        return None if is_singular_factor(u, 1.0, float(np.vdot(w, w))) else w

    @cached_property
    def whitening(self) -> np.ndarray:
        """W = U^{-1}, upper triangular, so W W' = Sigma_F^{-1}; it equals
        sqrt(n) R_Q^{-1} of a forward scan grown over F in ascending order."""
        if self._whitening is None:
            evals = np.linalg.eigvalsh(self.xc.T @ self.xc / self.d.n)
            raise SingularDesignError(
                f"working-set correlation matrix is numerically singular "
                f"(eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}])"
            )
        return self._whitening

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

    xc = d.standardized(np.array(fs, dtype=np.int64) - 1)
    return MomentStats(f=fs, xc=xc, d=d, s=s)
