"""Kernel traces and closed-form trace gains for SIR, SAVE, and DR.

``trace_kernel`` evaluates the trace of the working-set kernel matrix for
each method.  ``trace_diff`` evaluates the closed-form expression for the
gain trace(kernel on F + j) - trace(kernel on F) directly from residual
summaries, at O(|F|^2 H) per candidate instead of rebuilding both kernels;
it scores single candidates (the trace tests).  ``ScanState`` evaluates the
same gains for every candidate of a forward scan at once, from slice
statistics of the candidate residuals that it keeps current as the working
set grows, without forming the residuals, and ``deletion_gains`` those of
every member of F, from the whitening of F alone.  Besides the projections
Q'X of the candidates on a basis Q of F, every statistic the scan keeps is
an (H, p) array whatever the kernel, so a scan of the candidates costs
O(H (p - |F|)) for SIR, SAVE and DR alike.

The routes agree to floating point because every sample moment is an
n-divisor empirical average over the same observations and the candidate
residual is exactly orthogonal to the working set in sample.

The scalar route works in whitened coordinates: the terms that depend on
the working set alone (the whitening W = U^{-1} from the upper Cholesky
factor of Sigma_F = U'U, the whitened columns Z = X_F W and slice moments
M Z and Z_h' Z_h / n_h, and kappa) live on ``MomentStats`` and are computed
once per working set; ``residualize`` projects a candidate off Z and, with
``auxiliary_stats``, does only the per-candidate work on top of them, taking
slice means with the same averaging matrix M.  ``ScanState`` keeps the same
factor as R_Q = sqrt(n) U and its basis as Q = Z / sqrt(n), in the same
sample order, reading slices through the slicing's indicator and rows, and
both take the floor verdict from the factor through
``is_singular_factor``.  Every trace and gain depends on W only through
W W', so any other whitening W O, O orthogonal, gives the same values.
``residualize(m, j)`` returns a
``ResidualStats`` that holds ``m`` (and through it the dataset and the
slicing) and ``j``, and caches the cross-moments ``nu`` on first use, so
``trace_diff(method, r)`` and the null law of the test take the residual
alone and cannot mix parts of different working sets or slicings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import (
    Dataset,
    IndexSet,
    MomentStats,
    SliceAssignment,
    check_slicing,
    is_singular_factor,
    validate_working_set,
)
from .errors import CollinearCandidateError, SingularDesignError, WorkingSetIndexError

# Residual variance of a standardized candidate (its share of the
# candidate's own variance) below this is treated as exact collinearity.
COLLINEARITY_FLOOR = 1e-12

# A candidate's residual sum of squares, kept by subtraction, has lost about
# -log10(_REFRESH) digits to cancellation once it falls below _REFRESH times
# its value when last computed from the explicit residual.  ScanState then
# computes that column's statistics again from its residual, as LAPACK's
# pivoted QR does with its column norms (Drmac and Bujanovic 2008), so a
# nearly collinear candidate keeps its gain to about 1e-10.
_REFRESH = 1e-4

# Entries of the squared residual block that ScanState forms at once: 64 KB,
# below glibc's default mmap threshold of 128 KB, so the square reuses heap
# pages where one n x m square would be a fresh mapping whose page faults
# cost more than the arithmetic.
_SQUARE_CHUNK = 8192


class Method(enum.Enum):
    """The three inverse-moment kernels supported by the trace tests."""

    SIR = "sir"
    SAVE = "save"
    DR = "dr"


@dataclass(frozen=True)
class ResidualStats:
    """Standardized residual of candidate ``j`` given the working set of ``m``.

    The residual is that of the n-divisor least-squares fit of the
    standardized candidate on the standardized working-set columns;
    ``gamma_per_sample`` is the residual divided by its sample standard
    deviation; ``gamma_by_slice`` / ``zeta_by_slice`` are slice means of the
    residual and of its square.  ``m`` carries the dataset and slicing, so
    the gain and the null law of the test of (F, j) read everything from
    the residual alone.  ``nu`` is formed on first use: SIR never needs it.
    """

    m: MomentStats = field(repr=False)
    j: int
    gamma_by_slice: np.ndarray
    zeta_by_slice: np.ndarray
    gamma_per_sample: np.ndarray

    @cached_property
    def nu(self) -> np.ndarray:
        """``auxiliary_stats`` of this residual, (H, |F|), computed once."""
        return auxiliary_stats(self)


def residualize(m: MomentStats, j: int) -> ResidualStats:
    """Regress column ``j`` on the working set of ``m`` and summarize by slice.

    With an empty working set the residual is the standardized candidate
    itself.  Raises ``SingularDesignError`` for an ill-conditioned working
    set and ``CollinearCandidateError`` when the residual variance of the
    standardized candidate is below ``COLLINEARITY_FLOOR`` (a constant
    candidate has none).
    """
    d = m.d
    (j,) = validate_working_set((j,), d.p)
    if j in m.f:
        raise WorkingSetIndexError(f"candidate {j} already in working set {m.f}")

    xj = d.standardized(j - 1)
    if m.size == 0:
        resid = xj
    else:
        z = m.white_xc
        resid = xj - z @ (z.T @ xj) / d.n

    mean_r = resid.mean()
    sigma2 = float(resid @ resid) / d.n - mean_r**2
    if sigma2 < COLLINEARITY_FLOOR:
        raise CollinearCandidateError(
            f"candidate {j} has residual variance {sigma2:.3e} given {m.f}"
        )

    gamma = resid / np.sqrt(sigma2)
    return ResidualStats(
        m=m,
        j=j,
        gamma_by_slice=m.s.averaging @ gamma,
        zeta_by_slice=m.s.averaging @ gamma**2,
        gamma_per_sample=gamma,
    )


def auxiliary_stats(r: ResidualStats) -> np.ndarray:
    """Whitened slice cross-moments nu of the residual with the working set.

    ``nu[h-1]`` is the slice-h mean of Z times the standardized residual,
    where Z = X_F W are the whitened working-set columns; (H, |F|).
    """
    return r.m.s.averaging @ (r.m.white_xc * r.gamma_per_sample[:, None])


def trace_kernel(method: Method, m: MomentStats) -> float:
    """Trace of the method's kernel matrix on the working set (0 when empty).

    In whitened moments ub_h = u_h W and vt_h = W' v_h W: SIR is kappa =
    sum_h p_h |ub_h|^2, SAVE sum_h p_h |I - vt_h + ub_h ub_h'|_F^2, and DR
    2 sum_h p_h |vt_h|_F^2 + 2 |sum_h p_h ub_h ub_h'|_F^2 + 2 kappa^2 - 2|F|.
    """
    k = m.size
    if k == 0:
        return 0.0
    p_hat = m.s.proportions

    if method is Method.SIR:
        return m.kappa

    ub, vt = m.white_u, m.white_v
    if method is Method.SAVE:
        b = np.eye(k) - vt + ub[:, :, None] * ub[:, None, :]
        return float(p_hat @ np.einsum("hab,hab->h", b, b))

    if method is Method.DR:
        w = np.einsum("h,ha,hb->ab", p_hat, ub, ub)
        first = float(p_hat @ np.einsum("hab,hab->h", vt, vt))
        second = float(np.sum(w * w))
        return 2.0 * first + 2.0 * second + 2.0 * m.kappa**2 - 2.0 * k

    raise ValueError(f"unknown method {method!r}")


def _gain(method, p_hat, g, z=None, nu2=None, phi2=None, iota_sum2=None, kappa=None):
    """The method's trace gain from inputs indexed by slice first: g and z are
    the slice means of the standardized residual and of its square, nu2 =
    |nu_h|^2, phi2 = |g_h ub_h - nu_h|^2, iota_sum2 = |sum_h p_h g_h ub_h|^2
    and kappa the SIR trace of F.  SIR reads g alone, SAVE also z and phi2."""
    varrho = p_hat @ g**2
    if method is Method.SIR:
        return varrho
    if method is Method.SAVE:
        return p_hat @ ((1.0 - z + g**2) ** 2 + 2.0 * phi2)
    if method is Method.DR:
        diag_cross = 2.0 * (p_hat @ ((1.0 - z) ** 2 + 2.0 * nu2))
        return diag_cross + 4.0 * varrho**2 + 4.0 * iota_sum2 + 4.0 * kappa * varrho
    raise ValueError(f"unknown method {method!r}")


def trace_diff(method: Method, r: ResidualStats) -> float:
    """Closed-form trace gain from adding ``r.j`` to the working set ``r.m.f``.

    SAVE and DR read ``r.nu``; SIR does not form it.  The SIR gain is a
    weighted sum of squares and hence always >= 0.
    """
    m, g = r.m, r.gamma_by_slice
    p_hat = m.s.proportions
    if method is Method.SIR:
        return float(_gain(method, p_hat, g))
    nu = r.nu
    iota = m.white_u * g[:, None]
    phi, iota_sum = iota - nu, p_hat @ iota
    nu2, phi2 = np.einsum("ha,ha->h", nu, nu), np.einsum("ha,ha->h", phi, phi)
    z = r.zeta_by_slice
    return float(_gain(method, p_hat, g, z, nu2, phi2, iota_sum @ iota_sum, m.kappa))


def deletion_gains(method: Method, m: MomentStats) -> np.ndarray:
    """Trace gain of each member j of ``m.f`` over F - j, aligned with ``m.f``.

    With c_j row j of W scaled to unit length, Z c_j is the standardized
    residual of j given the other members and Z (I - c_j c_j') whitens F - j
    (the sweep operator, Goodnight 1979), so every input of the gain is a
    form in c_j of the whitened moments of F: O(H |F|^3) on top of them.
    Raises ``SingularDesignError`` when F fails the floor; when it passes, so
    does every F - j (interlacing), and no member is collinear: its residual
    keeps the share 1/(A_jj Sigma_jj) >= 1/cond(Sigma_F), A = W W', of its variance.
    """
    w, ub, p_hat = m.whitening, m.white_u, m.s.proportions
    c = w.T / np.sqrt(np.einsum("ja,ja->j", w, w))  # column j is c_j
    g = ub @ c
    z = nu2 = phi2 = iota_sum2 = kappa = None
    if method is not Method.SIR:
        vc = m.white_v @ c  # vc[h, :, j] = vt_h c_j
        z = np.einsum("haj,aj->hj", vc, c)
        if method is Method.SAVE:
            phi = ub[:, :, None] * g[:, None, :] - vc
            phi2 = np.einsum("haj,haj->hj", phi, phi) - (g**2 - z) ** 2
        else:
            nu2 = np.einsum("haj,haj->hj", vc, vc) - z**2
            varrho = p_hat @ g**2
            iota_sum = np.einsum("h,ha,hj->aj", p_hat, ub, g)
            iota_sum2 = np.einsum("aj,aj->j", iota_sum, iota_sum) - varrho**2
            kappa = m.kappa - varrho
    return _gain(method, p_hat, g, z, nu2, phi2, iota_sum2, kappa)


class ScanState:
    """Trace gains of every candidate column over a growing working set F.

    The vectorized counterpart of ``residualize``, ``auxiliary_stats`` and
    ``trace_diff`` for scans with one kernel, ``method``: the candidates are
    the ``columns`` (1-based, ascending) outside F, and ``f`` lists the
    members in the order added.  It holds the standardized columns X as a
    block, an orthonormal basis Q and the triangular factor R_Q of
    the standardized working set (X_F = Q R_Q, so Sigma_F = R_Q' R_Q / n),
    the projections Q'X, and R_Q^{-1} with its squared Frobenius norm,
    which with |R_Q|_F^2 = n |F| bounds the spread of Sigma_F's
    eigenvalues.  The residuals R = X - Q Q'X are not formed: the state
    keeps only what the gains read of them, namely the slice sums S'R, S
    the slicing's ``indicator``, and the residual sums of squares, and for
    SAVE and DR the slice sums of squares and, by column, nu2_h =
    |Q_h' R_h|^2, with, for SAVE alone, mc_h = s_h' Q_h' R_h, s_h the row
    of S'Q: the gains read the slice cross-moments Q_h' R_h only through
    these two contractions, so no array of |F| H entries per column is
    kept.  Each is computed from X at |F| = 0 and then updated, as pivoted
    QR keeps its column norms (Businger and Golub 1965);
    as there, a column whose sum of squares has lost most of its digits to
    cancellation is computed again from its explicit residual
    (``_REFRESH``).  The one trigger on rss serves nu2 as well.  Since
    |Q_h|_2 <= 1, nu2_h <= sq_h <= rss, so the terms that update nu2 are no
    larger than those that update rss, and its rounding error, like that of
    rss, stays within about 1/``_REFRESH`` units of roundoff of the rss by
    which the gains divide it.

    ``add`` grows F by one member.  Its residual x_j - Q Q'x_j,
    orthogonalized twice (Giraud, Langou and Rozloznik 2005), gives the new
    basis vector q and the new column of R_Q, and one more column of
    R_Q^{-1} comes from one matrix-vector product.  The product w = q'X
    takes q out of the residuals (R loses q w'), so S'R loses (S'q) w' and
    the sums of squares lose w^2.  For SAVE and DR, with a_h = Q_h' q_h and
    v_h = Q_h a_h, the products of the slice parts q_h and of v_h with the
    block, less their products with Q times Q'X, give b_h = q_h' R_h and
    v_h' R_h.  Q_h' R_h loses a_h w' and gains the row t_h = b_h - |q_h|^2 w,
    so

        sq_h  -= 2 w b_h - |q_h|^2 w^2,
        nu2_h += t_h^2 - 2 w v_h' R_h + |a_h|^2 w^2,
        mc_h  += s_hk t_h - (s_h . a_h) w,

    elementwise over the columns, s_hk the new entry of s_h.  Of the
    coefficients that multiply Q'X, the rows q_h' Q repeat a_h and end in
    |q_h|^2, so only the rows v_h' Q, ending in |a_h|^2, take a product; the
    last column enters at half weight, so sq_h and nu2_h each gain -2 w
    times one row of the difference.  With m candidates an addition
    costs O(n m) for SIR and O(H (n + |F|) m) for SAVE and DR, in two
    matrix products; no n x m block is written.  ``gains`` then scores all
    candidates in O(H m) for every kernel.

    Every array is allocated once.  ``stats``, whose rows are the kept
    statistics, the C-ordered block and Q'X are row ranges of one array, and
    the candidates are its first ``m`` columns, so every product reads the
    prefix ``block[:, :m]``.  When j joins F its column of that array swaps
    with the last candidate's (rows of Q'X not yet written excepted) and
    ``m`` falls by one, as pivoted QR interchanges columns (LAPACK xGEQP3);
    ``index`` maps positions to ``columns`` and ``position`` back, and
    ``gains`` reports by column.  The array has one shape for every kernel,
    so a process reuses one scan's memory for the next.  Rows keep the
    dataset's sample order, and the slices are read through the slicing's
    ``indicator`` and ``rows``.
    R_Q / sqrt(n) is the upper Cholesky factor of Sigma_F, so W = sqrt(n)
    R_Q^{-1} is ``MomentStats.whitening`` of F taken in ascending order, and
    Q = X_F W / sqrt(n) row for row: sqrt(n) Q is ``MomentStats.white_xc``.
    The gains read W only through Q.
    """

    def __init__(
        self, d: Dataset, s: SliceAssignment, method: Method, columns: IndexSet, f: IndexSet = ()
    ):
        check_slicing(d, s)
        self.n = d.n
        self.method = method
        self.columns = np.asarray(columns, dtype=np.int64)
        self.f: list[int] = []
        self.s = s
        width, hc = self.columns.size, s.h_count
        self.m = width  # candidates: the first m positions of the block and statistics
        self.index = np.arange(width)  # position -> index into columns
        self.position = np.arange(width)  # index into columns -> position
        cap = min(width, d.n)
        kept = 2 + 4 * hc  # rows of stats; an addition swaps one column of _rows
        self._rows = np.empty((kept + d.n + cap, width))
        self.stats, self.block = self._rows[:kept], self._rows[kept : kept + d.n]
        self.qx = self._rows[kept + d.n :]  # Q'X of the block
        d.standardized(self.columns - 1, out=self.block)
        self.stats.fill(0.0)
        self.q = np.empty((d.n, cap), order="F")
        self.slice_q = np.empty((hc, cap))  # S'Q, slice sums of the basis
        self.rq = np.zeros((cap, cap))
        self.singular = False
        self._rinv_t = np.zeros((cap, cap))  # R_Q^{-T}: row k is column k of R_Q^{-1}
        self._inv_norm2 = 0.0  # |R_Q^{-1}|_F^2
        self.rss, self.base = self.stats[0], self.stats[1]  # |R|^2, and when last computed
        # S'R, then for SAVE and DR the slice sums of R^2 and |Q_h' R_h|^2, and
        # for SAVE (S'Q)_h' Q_h' R_h; the rows a kernel does not keep stay zero
        rows = (self.stats[2 + i * hc : 2 + (i + 1) * hc] for i in range(4))
        self.sums, self.sq, self.nu2, self.mc = rows
        self._refresh(slice(None))
        for j in f:
            self.add(j)

    def add(self, j: int) -> None:
        """Move column ``j`` from the candidates into the working set."""
        i = int(self.columns.searchsorted(j))
        if i == self.columns.size or self.columns[i] != j:
            raise WorkingSetIndexError(f"column {j} is not among the scanned columns")
        a, b = int(self.position[i]), self.m - 1
        if a > b:
            raise WorkingSetIndexError(f"candidate {j} already in working set")
        k = len(self.f)
        # j takes the last candidate's place; rows of Q'X not yet written stay untouched
        x = self._rows[: self.stats.shape[0] + self.n + k]
        x[:, a], x[:, b] = x[:, b], x[:, a].copy()
        self.index[a], self.index[b] = self.index[b], self.index[a]
        self.position[self.index[a]], self.position[self.index[b]] = a, b
        self.m = b
        self.f.append(int(j))
        if self.singular:
            return  # a singular Sigma_F stays singular as F grows (interlacing)
        basis, c = self.q[:, :k], self.qx[:k, b]  # Q and Q'x_j
        r = self.block[:, b] - basis @ c
        c2 = basis.T @ r  # the second Gram-Schmidt pass
        r -= basis @ c2
        self.rq[:k, k] = c + c2
        self.rq[k, k] = math.sqrt(r @ r)
        self.singular = self._is_singular(k + 1)
        if self.singular:
            return
        q = r / self.rq[k, k]
        self.q[:, k] = q
        self.slice_q[:, k] = self.s.indicator.T @ q
        self._update(k, q)

    def _update(self, k: int, q: np.ndarray) -> None:
        """Take the new basis vector q, column k of Q, out of the kept
        statistics of the candidates."""
        m, indicator = self.m, self.s.indicator
        # views of the candidates' prefix, updated in place (``v[:, :m] += x``
        # would also write the view back onto itself)
        block, sums, rss = self.block[:, :m], self.sums[:, :m], self.rss[:m]
        if self.method is Method.SIR:
            self.qx[k, :m] = w = q @ block
        else:
            hc, basis = self.s.h_count, self.q[:, :k]
            split = np.empty((self.n, 2 * hc), order="F")  # columns q_h, then v_h
            np.multiply(q[:, None], indicator, out=split[:, :hc])
            coef = np.empty((2 * hc, k + 1))  # rows q_h' Q, then v_h' Q
            np.matmul(split[:, :hc].T, self.q[:, : k + 1], out=coef[:hc])  # row h: (a_h', |q_h|^2)
            a = coef[:hc, :k]  # a_h = Q_h' q_h
            np.multiply((a @ basis.T).T, indicator, out=split[:, hc:])  # v_h = Q_h a_h
            np.matmul(split[:, hc:].T, self.q[:, : k + 1], out=coef[hc:])  # last column: |a_h|^2
            coef[:, k] *= 0.5
            prod = split.T @ block
            self.qx[k, :m] = w = prod[:hc].sum(axis=0)
            prod -= coef @ self.qx[: k + 1, :m]  # b_h - |q_h|^2 w / 2, v_h' R_h - |a_h|^2 w / 2
            t = prod[:hc] - coef[:hc, k, None] * w  # t_h, the new row of Q_h' R_h
            if self.method is Method.SAVE:
                sa = np.einsum("hk,hk->h", self.slice_q[:, :k], a)  # s_h . a_h
                mc = self.mc[:, :m]
                mc += self.slice_q[:, k, None] * t - sa[:, None] * w
            prod *= -2.0 * w
            sq, nu2 = self.sq[:, :m], self.nu2[:, :m]
            sq += prod[:hc]
            nu2 += prod[hc:] + t * t
        sums -= self.slice_q[:, k, None] * w
        rss -= w * w
        stale = rss < _REFRESH * self.base[:m]
        if stale.any():
            self._refresh(np.flatnonzero(stale))

    def _refresh(self, slots) -> None:
        """Compute the kept statistics of the block's columns ``slots`` from
        their residuals given F, orthogonalized twice against Q."""
        k = len(self.f)
        basis, r = self.q[:, :k], self.block[:, slots]
        if k:
            r = r - basis @ (basis.T @ r)
            r -= basis @ (basis.T @ r)
        self.sums[:, slots] = self.s.indicator.T @ r
        if self.method is Method.SIR:
            self.rss[slots] = self.base[slots] = np.einsum("ij,ij->j", r, r)
            return
        ind_t, sq = self.s.indicator.T, np.zeros((self.s.h_count, r.shape[1]))
        step = max(1, _SQUARE_CHUNK // r.shape[1])
        for i in range(0, self.n, step):  # S'(R * R), a few rows at a time
            ri = r[i : i + step]
            sq += ind_t[:, i : i + step] @ (ri * ri)
        self.sq[:, slots] = sq
        self.rss[slots] = self.base[slots] = sq.sum(axis=0)
        for h, rows in enumerate(self.s.rows if k else ()):  # at |F| = 0, Q_h' R_h is empty
            c = basis[rows].T @ r[rows]  # Q_h' R_h
            self.nu2[h, slots] = np.einsum("kj,kj->j", c, c)
            if self.method is Method.SAVE:
                self.mc[h, slots] = self.slice_q[h, :k] @ c

    def _is_singular(self, k: int) -> bool:
        """The ``is_singular_factor`` verdict on R_Q.  The new column (r; rho)
        of R_Q extends R_Q^{-1} by the column (-R^{-1} r / rho; 1 / rho) and
        |R_Q^{-1}|_F^2 by one term, so the bound costs one matrix-vector
        product per addition."""
        rk = self.rq[:k, :k]
        r, rho = rk[:-1, -1], float(rk[-1, -1])
        if rho > 0.0:
            t = r @ self._rinv_t[: k - 1, : k - 1]  # R^{-1} r
            self._rinv_t[k - 1, : k - 1] = t / -rho
            self._rinv_t[k - 1, k - 1] = 1.0 / rho
            self._inv_norm2 += (float(t @ t) + 1.0) / rho / rho
        else:
            self._inv_norm2 = math.inf
        return is_singular_factor(rk, self.n, self._inv_norm2)

    def gains(self) -> tuple[np.ndarray, list[tuple[int, str]]]:
        """Trace gain of each column over F, with the skipped candidates.

        Returns the gains aligned with ``columns`` (-inf for members and
        skipped candidates) and ``(j, category)`` for each skipped candidate
        in ascending order: all of them as ``singular-design`` once Sigma_F
        fails the ``EIGENVALUE_FLOOR`` rule, otherwise those whose residual
        variance fails the ``COLLINEARITY_FLOOR`` rule of ``residualize``.
        """
        out = np.full(self.columns.size, -np.inf)
        m, index = self.m, self.index[: self.m]
        if self.singular:
            category = SingularDesignError.category
            return out, [(j, category) for j in sorted(self.columns[index].tolist())]
        n, method = self.n, self.method
        sums = self.sums[:, :m]
        sigma2 = self.rss[:m] / n - (sums.sum(0) / n) ** 2
        collinear, skipped = sigma2 < COLLINEARITY_FLOOR, []
        if collinear.any():
            category = CollinearCandidateError.category
            skipped = [(j, category) for j in sorted(self.columns[index[collinear]].tolist())]
            sigma2[collinear] = 1.0
        nh, p_hat = self.s.counts[:, None], self.s.proportions
        g = sums / (nh * np.sqrt(sigma2))  # slice means of the standardized residual

        z = nu2 = phi2 = iota_sum2 = kappa = None
        if method is not Method.SIR:
            z = self.sq[:, :m] / (nh * sigma2)
            mh = self.slice_q[:, : len(self.f)] / nh  # whitened slice means / sqrt(n)
            nu2 = self.nu2[:, :m] * (n / (nh**2 * sigma2))  # |nu_h|^2
            gram = n * (mh @ mh.T)  # Gram of the whitened slice means
            if method is Method.SAVE:
                iota_nu = g * self.mc[:, :m] * (n / (nh**2 * np.sqrt(sigma2)))
                phi2 = g**2 * np.diag(gram)[:, None] - 2.0 * iota_nu + nu2
            else:
                pg = p_hat[:, None] * g
                iota_sum2 = np.einsum("hj,hj->j", pg, gram @ pg)
                kappa = p_hat @ np.diag(gram)
        gain = _gain(method, p_hat, g, z, nu2, phi2, iota_sum2, kappa)
        if skipped:
            gain[collinear] = -np.inf
        out[index] = gain
        return out, skipped
