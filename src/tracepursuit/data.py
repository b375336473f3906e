"""Dataset representation, response slicing, and slice-conditional moments.

All moment estimators use the n-divisor convention and a single global
centering of the predictors; a working set selects sub-blocks of the
centered columns rather than re-centering.

The moments of every working set are read from one moment cache per
(dataset, slicing) pair, which splits the columns into fixed tiles of
``_TILE`` columns.  A tile's centered columns and slice means are kept once
a working set touches it; the covariance block of a pair of tiles is one
matrix product over whole tiles, and its slice second-moment blocks are one
product per slice, made on the first read of ``MomentStats.v``.  The block
of tiles (J, I) is the exact transpose of (I, J), and each diagonal block
is mirrored from its lower triangle.  Every entry therefore comes from a
product of fixed shape, so the moments of a working set are the same bits
whatever working sets filled the cache before, the moments of a subset are
exact sub-blocks of a superset's, and ``sigma_f`` and every ``v[h]`` are
exactly symmetric.  The cache lives as long as the dataset, holds a strong
reference to the slicing, is not thread-safe, and is neither pickled nor
copied with the dataset.

``MomentStats`` also owns the working-set algebra: the terms that depend
on F alone, and so are shared by all candidates of a scan, come from one
whitening W with W W' = Sigma_F^{-1}, built on one ``eigh(sigma_f)`` that
runs at most once per instance, and are cached there.  These are W itself,
the whitened moments X_F W, u W and W' v W, and ``kappa``, the SIR kernel
trace on F.  The traces, gains and null weights depend on Sigma_F only
through W W', so any other whitening W O, O orthogonal, gives the same
values.  The kernels module keeps only the work that depends on the
candidate.

Everything here is a pure function of its inputs; the returned objects are
treated as immutable apart from those caches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSlicingError,
    IllPosedMomentsError,
    SingularDesignError,
    WorkingSetIndexError,
)

# Relative eigenvalue floor for the working-set covariance; below this the
# design is reported singular rather than regularized, which would break the
# exact trace-gain identities.
EIGENVALUE_FLOOR = 1e-12

# Working sets are tuples of 1-based predictor indices, strictly increasing.
IndexSet = tuple[int, ...]

# Column tile width of the moment cache.  Small enough that the blocks of a
# few scattered columns stay small next to the data when p >> n.
_TILE = 16


def is_singular_spectrum(evals: np.ndarray) -> bool:
    """The ``EIGENVALUE_FLOOR`` verdict on ascending covariance eigenvalues."""
    return evals.size > 0 and bool(
        evals[-1] <= 0.0 or evals[0] < EIGENVALUE_FLOOR * evals[-1]
    )


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
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        names = tuple(column_names) if column_names is not None else None
        if names is not None and len(names) != p:
            raise ValueError("column_names length must equal p")
        return cls(x=x, y=y, n=n, p=p, column_names=names)

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

    def centered_column(self, a: int) -> np.ndarray:
        """Centered copy of 0-based column ``a``."""
        return np.ascontiguousarray(self.x[:, a]) - self.column_means()[a]


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


def slice_response(y: np.ndarray, h_count: int, discrete: bool = False) -> SliceAssignment:
    """Partition the response sample into nonempty slices.

    Continuous responses get equal-frequency slices by rank (ties broken by
    original sample index, slice sizes differing by at most one).  Discrete
    responses get one slice per distinct value, smallest value first, and the
    slice count is reset to the number of distinct values.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
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
    """Slice-conditional moments of the centered predictors on a working set.

    Fields follow the n-divisor convention throughout: ``sigma_f`` is the
    sample covariance of the centered working-set columns, ``u[h-1]`` the
    slice-h mean and ``v[h-1]`` the slice-h second-moment matrix of the same
    centered columns.  ``xc`` holds the centered column block itself (n x |F|)
    so downstream residual computations do not re-center.

    ``sigma_f``, ``u``, ``xc`` and ``v`` are read from the moment cache of
    the dataset and slicing, so they are the same bits for every call that
    names the same working set, ``sigma_f`` and each ``v[h]`` are exactly
    symmetric, and the moments of a subset of F are exact sub-blocks of
    these.  ``v`` is read on first use.

    Instances are immutable after construction apart from cached properties.
    ``whitening`` and the whitened moments built on it raise
    ``SingularDesignError`` when the smallest eigenvalue of ``sigma_f`` falls
    below ``EIGENVALUE_FLOOR`` times the largest (condition number above
    1e12).
    """

    f: IndexSet
    sigma_f: np.ndarray
    u: np.ndarray  # (H, |F|) slice means
    xc: np.ndarray  # (n, |F|) centered working-set columns
    n: int
    h_count: int
    proportions: np.ndarray
    slice_rows: tuple[np.ndarray, ...]
    _read_v: Callable[[], np.ndarray] = field(kw_only=True, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.f)

    @cached_property
    def v(self) -> np.ndarray:
        """Slice second moments (H, |F|, |F|)."""
        return self._read_v()

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray, bool]:
        evals, evecs = np.linalg.eigh(self.sigma_f)
        return evals, evecs, is_singular_spectrum(evals)

    @cached_property
    def whitening(self) -> np.ndarray:
        """W = V Lambda^{-1/2} from ``eigh(sigma_f)``, so W W' = Sigma_F^{-1}."""
        evals, evecs, singular = self._eigh
        if singular:
            raise SingularDesignError(
                f"working-set covariance is numerically singular "
                f"(eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}])"
            )
        return evecs / np.sqrt(evals)

    @cached_property
    def white_xc(self) -> np.ndarray:
        """Whitened centered columns Z = X_F W, (n, |F|), with Z'Z/n = I."""
        return self.xc @ self.whitening

    @cached_property
    def white_u(self) -> np.ndarray:
        """Whitened slice means u W, (H, |F|)."""
        return self.u @ self.whitening

    @cached_property
    def white_v(self) -> np.ndarray:
        """Whitened slice second moments W' v_h W, (H, |F|, |F|)."""
        w = self.whitening
        return w.T @ self.v @ w

    @cached_property
    def kappa(self) -> float:
        """SIR kernel trace on F, sum_h p_h |u_h W|^2 (0 when empty)."""
        return float(self.proportions @ np.einsum("ha,ha->h", self.white_u, self.white_u))


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


# A run of working-set members in one tile: (tile, 0-based columns within the
# tile, start, stop), where start:stop is the run's position in F.
_Run = tuple[int, np.ndarray, int, int]


class _MomentCache:
    """Moments of one dataset's centered columns under one slicing, by tile.

    Tile t holds the 0-based columns t*_TILE .. (t+1)*_TILE - 1.  Blocks are
    filled on first use and kept: ``tile`` (centered columns and slice
    means), ``sigma_block`` and ``v_block`` (tile pairs a <= b).
    """

    def __init__(self, d: Dataset, s: SliceAssignment):
        self.x = d.x
        self.means = d.column_means()
        self.n = d.n
        self.rows = s.rows
        self.tiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.sigma: dict[tuple[int, int], np.ndarray] = {}
        self.v: dict[tuple[int, int], np.ndarray] = {}

    def tile(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Centered columns (n, w) and slice means (H, w) of tile ``t``."""
        entry = self.tiles.get(t)
        if entry is None:
            cols = slice(t * _TILE, (t + 1) * _TILE)
            xc = self.x[:, cols] - self.means[cols]
            u = np.stack([xc[rows].sum(axis=0) / rows.size for rows in self.rows])
            entry = self.tiles[t] = (xc, u)
        return entry

    def sigma_block(self, a: int, b: int) -> np.ndarray:
        block = self.sigma.get((a, b))
        if block is None:
            block = (self.tile(a)[0].T @ self.tile(b)[0]) / self.n
            if a == b:
                block = _mirror_lower(block)
            self.sigma[a, b] = block
        return block

    def v_block(self, a: int, b: int) -> np.ndarray:
        block = self.v.get((a, b))
        if block is None:
            xa, xb = self.tile(a)[0], self.tile(b)[0]
            block = np.stack([(xa[rows].T @ xb[rows]) / rows.size for rows in self.rows])
            if a == b:
                block = _mirror_lower(block)
            self.v[a, b] = block
        return block


def _mirror_lower(m: np.ndarray) -> np.ndarray:
    """The symmetric matrix (or stack) with the lower triangle of ``m``."""
    return np.tril(m) + np.swapaxes(np.tril(m, -1), -1, -2)


def _gather_blocks(
    runs: list[_Run], block_of: Callable[[int, int], np.ndarray], lead: tuple[int, ...]
) -> np.ndarray:
    """The (lead..., |F|, |F|) working-set matrix assembled from tile blocks."""
    k = runs[-1][3] if runs else 0
    out = np.empty(lead + (k, k))
    for i, (t, loc, a, b) in enumerate(runs):
        for t2, loc2, a2, b2 in runs[: i + 1]:
            block = block_of(t2, t)[..., loc2[:, None], loc]
            out[..., a2:b2, a:b] = block
            if t2 != t:
                out[..., a:b, a2:b2] = np.swapaxes(block, -1, -2)
    return out


def _tile_runs(fs: IndexSet) -> list[_Run]:
    """Split a sorted working set into runs that share a tile."""
    runs: list[tuple[int, list[int], int]] = []
    for pos, j in enumerate(fs):
        t, c = divmod(j - 1, _TILE)
        if runs and runs[-1][0] == t:
            runs[-1][1].append(c)
        else:
            runs.append((t, [c], pos))
    return [(t, np.array(cols), a, a + len(cols)) for t, cols, a in runs]


def _moment_cache(d: Dataset, s: SliceAssignment) -> _MomentCache:
    """The moment cache of ``d`` under ``s``, kept on the dataset."""
    caches = getattr(d, "_moment_caches", None)
    if caches is None:
        caches = []
        object.__setattr__(d, "_moment_caches", caches)
    for slicing, cache in caches:
        if slicing is s:
            return cache
    cache = _MomentCache(d, s)
    caches.append((s, cache))
    return cache


def compute_moments(d: Dataset, s: SliceAssignment, f: Iterable[int]) -> MomentStats:
    """Estimate working-set moments shared by every kernel and test.

    The empty working set is allowed and yields 0-dimensional moment blocks,
    which the kernel traces and residual computations treat as the
    no-conditioning case.
    """
    fs = validate_working_set(f, d.p)
    k = len(fs)
    if k >= d.n:
        raise IllPosedMomentsError(
            f"working set of size {k} with only n={d.n} samples"
        )

    cache = _moment_cache(d, s)
    runs = _tile_runs(fs)
    xc = np.empty((d.n, k))
    u = np.empty((s.h_count, k))
    for t, loc, a, b in runs:
        tile_xc, tile_u = cache.tile(t)
        xc[:, a:b] = tile_xc[:, loc]
        u[:, a:b] = tile_u[:, loc]
    sigma = _gather_blocks(runs, cache.sigma_block, ())

    return MomentStats(
        f=fs,
        sigma_f=sigma,
        u=u,
        xc=xc,
        n=d.n,
        h_count=s.h_count,
        proportions=np.asarray(s.proportions),
        slice_rows=s.rows,
        _read_v=partial(_gather_blocks, runs, cache.v_block, (s.h_count,)),
    )
