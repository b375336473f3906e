"""Kernel traces and closed-form trace gains for SIR, SAVE, and DR.

``trace_kernel`` evaluates the trace of the working-set kernel matrix for
each method.  ``trace_diff`` evaluates the closed-form expression for the
gain trace(kernel on F + j) - trace(kernel on F) directly from residual
summaries, at O(|F|^2 H) per candidate instead of rebuilding both kernels;
it scores single candidates (the trace tests).  ``ScanState`` evaluates the
same gains for every candidate of a forward scan at once, from residuals it
keeps up to date as the working set grows, and ``deletion_gains`` those of
every member of F, from the whitening of F alone.

The routes agree to floating point because every sample moment is an
n-divisor empirical average over the same observations and the candidate
residual is exactly orthogonal to the working set in sample.

The scalar route works in whitened coordinates: the terms that depend on
the working set alone (the whitening W with W W' = Sigma_F^{-1}, the
whitened columns Z = X_F W and slice moments M Z and Z_h' Z_h / n_h, and
kappa) live on ``MomentStats`` and are computed once per working set;
``residualize`` and ``auxiliary_stats`` do only the per-candidate work on
top of them, taking slice means with the same averaging matrix M.  Every
trace and gain depends on W only through W W', so it does not matter which
whitening ``MomentStats`` picks.  ``residualize(m, j)`` returns a
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
    EIGENVALUE_FLOOR,
    Dataset,
    IndexSet,
    MomentStats,
    SliceAssignment,
    check_slicing,
    is_singular_spectrum,
    validate_working_set,
)
from .errors import CollinearCandidateError, SingularDesignError, WorkingSetIndexError

# Residual variance of a standardized candidate (its share of the
# candidate's own variance) below this is treated as exact collinearity.
COLLINEARITY_FLOOR = 1e-12

# ScanState drops the members from its residual block once they fill
# 1/_REPACK of it, and updates the block in row chunks of about _BLOCK
# entries: narrow blocks in one call, wide ones with a small temporary.
_REPACK = 8
_BLOCK = 1 << 16


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

    xj = (d.x[:, j - 1] - d.column_means()[j - 1]) * d.column_scales()[j - 1]
    if m.size == 0:
        resid = xj
    else:
        b = (m.xc.T @ xj) / d.n
        w = m.whitening
        resid = xj - m.xc @ (w @ (w.T @ b))

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
    ``trace_diff`` for scans: the candidates are the ``columns`` (1-based,
    ascending) outside F, and ``f`` lists the members in the order added.
    It holds the residuals given F of the standardized candidate columns, an
    orthonormal basis Q and the triangular factor R_Q of the standardized
    working set (X_F = Q R_Q, so Sigma_F = R_Q' R_Q / n), the projections Q'X
    of the held columns, the slice indicator matrix and R_Q^{-1} with its
    squared Frobenius norm, which with |R_Q|_F^2 = n |F| bounds the spread
    of Sigma_F's eigenvalues.  ``add`` grows F by one member: one modified
    Gram-Schmidt vector q, one in-place rank-1 projection of every held
    residual column onto the complement of q, one new column of R_Q read
    from Q'X, and one new column of R_Q^{-1} from one matrix-vector product,
    so with m columns an addition costs O(n (m - |F|) + |F|^2) and nothing
    is rebuilt.
    ``gains`` then scores all candidates with a few BLAS calls:
    O(n (m - |F|) H) for SIR and O(n (m - |F|) |F|) for SAVE and DR, which
    need the slice cross-moments Q_h' R_h.

    The residual block holds the columns at positions ``live`` (ascending)
    and stays C-contiguous: once members fill 1/``_REPACK`` of its width it
    is copied without them, in the same order.  Rows are kept slice by
    slice, so each slice is a contiguous block; the gains are sums over
    samples within slices, which row order does not change.  With Q the
    whitening is W = sqrt(n) R_Q^{-1} (X_F = Q R_Q), which satisfies
    W W' = Sigma_F^{-1}; the gains depend on the whitening only through such
    products, so no Sigma_F^{-1/2} is formed.
    """

    def __init__(self, d: Dataset, s: SliceAssignment, columns: IndexSet, f: IndexSet = ()):
        check_slicing(d, s)
        self.n = d.n
        self.columns = np.asarray(columns, dtype=np.int64)
        self.f: list[int] = []
        self._pos = {int(j): i for i, j in enumerate(self.columns)}
        self.member = np.zeros(self.columns.size, dtype=bool)
        self.counts = s.counts.astype(np.float64)
        self.proportions = np.asarray(s.proportions)
        ends = np.cumsum(s.counts)
        self.bounds = list(zip(ends - s.counts, ends))
        self.indicator = np.zeros((d.n, s.h_count), order="F")
        for h, (a, b) in enumerate(self.bounds):
            self.indicator[a:b, h] = 1.0
        idx = self.columns - 1
        self.resid = d.x[np.ix_(np.concatenate(s.rows), idx)]
        self.resid -= d.column_means()[idx]
        self.resid *= d.column_scales()[idx]
        self.live = np.arange(self.columns.size)  # positions of the resid columns
        self._dead = 0  # members among them
        cap = min(self.columns.size, d.n)
        self.q = np.empty((d.n, cap), order="F")
        self.slice_q = np.empty((s.h_count, cap))  # S'Q, slice sums of the basis
        self.qx = np.empty((cap, self.live.size))  # Q'X of the held columns
        self.rq = np.zeros((cap, cap))
        self.singular = False
        self._rinv_t = np.zeros((cap, cap))  # R_Q^{-T}: row k is column k of R_Q^{-1}
        self._inv_norm2 = 0.0  # |R_Q^{-1}|_F^2
        for j in f:
            self.add(j)

    def _slice_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Slice sums of the held residuals and of their squares, each (H, width)."""
        r = self.resid
        sq = np.array([np.einsum("ij,ij->j", r[a:b], r[a:b]) for a, b in self.bounds])
        return self.indicator.T @ r, sq

    def add(self, j: int) -> None:
        """Move column ``j`` from the candidates into the working set."""
        i = self._pos[int(j)]
        if self.member[i]:
            raise WorkingSetIndexError(f"candidate {j} already in working set")
        k = len(self.f)
        self.member[i] = True
        self.f.append(int(j))
        if self.singular:
            return  # a singular Sigma_F stays singular as F grows (interlacing)
        slot = int(self.live.searchsorted(i))
        r = self.resid[:, slot]
        self.rq[:k, k] = self.qx[:k, slot]
        self.rq[k, k] = math.sqrt(r @ r)
        self.singular = self._is_singular(k + 1)
        if self.singular:
            return
        q = r / self.rq[k, k]
        self.q[:, k] = q
        self.slice_q[:, k] = self.indicator.T @ q
        self._dead += 1
        if _REPACK * self._dead >= self.live.size:  # drop members, keep the order
            keep = ~self.member[self.live]
            self.live = self.live[keep]
            self.resid = np.compress(keep, self.resid, axis=1)  # C order, as resid[:, keep] is not
            qx = np.empty((self.qx.shape[0], self.live.size))
            qx[:k] = self.qx[:k, keep]
            self.qx = qx
            self._dead = 0
        w = q @ self.resid
        self.qx[k] = w
        step = max(1, _BLOCK // max(1, w.size))
        for a in range(0, self.n, step):
            self.resid[a : a + step] -= q[a : a + step, None] * w

    def _is_singular(self, k: int) -> bool:
        """The ``EIGENVALUE_FLOOR`` verdict on Sigma_F, usually without eigvalsh.

        With Sigma_F = R_Q' R_Q / n, lambda_max <= |R_Q|_F^2 / n = k, since
        each standardized column has squared norm n, and lambda_min >=
        1 / (n |R_Q^{-1}|_F^2), so n k |R_Q^{-1}|_F^2 below
        1 / EIGENVALUE_FLOOR proves the rule passes; half that bound leaves
        room for rounding in R_Q^{-1} and the sum.  The new column (r; rho)
        of R_Q extends R_Q^{-1} by the column (-R^{-1} r / rho; 1 / rho) and
        the sum by one term.  A zero pivot (a constant column) or a failed
        bound leaves the verdict to the eigenvalues of R_Q' R_Q / n.
        """
        rk = self.rq[:k, :k]
        r, rho = rk[:-1, -1], float(rk[-1, -1])
        if rho > 0.0:
            t = r @ self._rinv_t[: k - 1, : k - 1]  # R^{-1} r
            self._rinv_t[k - 1, : k - 1] = t / -rho
            self._rinv_t[k - 1, k - 1] = 1.0 / rho
            self._inv_norm2 += (float(t @ t) + 1.0) / rho / rho
            if self.n * k * self._inv_norm2 < 0.5 / EIGENVALUE_FLOOR:
                return False
        return is_singular_spectrum(np.linalg.eigvalsh(rk.T @ rk / self.n))

    def gains(self, method: Method) -> tuple[np.ndarray, list[tuple[int, str]]]:
        """Trace gain of each column over F, with the skipped candidates.

        Returns the gains aligned with ``columns`` (-inf for members and
        skipped candidates) and ``(j, category)`` for each skipped candidate
        in ascending order: all of them as ``singular-design`` once Sigma_F
        fails the ``EIGENVALUE_FLOOR`` rule, otherwise those whose residual
        variance fails the ``COLLINEARITY_FLOOR`` rule of ``residualize``.
        """
        out = np.full(self.columns.size, -np.inf)
        if self.singular:
            category = SingularDesignError.category
            return out, [(int(j), category) for j in self.columns[~self.member]]
        n = self.n
        cand = ~self.member[self.live]
        sums, sq = self._slice_sums()
        sigma2 = sq.sum(0) / n - (sums.sum(0) / n) ** 2
        collinear = cand & (sigma2 < COLLINEARITY_FLOOR)
        ok = cand & ~collinear
        category = CollinearCandidateError.category
        skipped = [(int(j), category) for j in self.columns[self.live[collinear]]]
        sigma2 = np.where(ok, sigma2, 1.0)
        nh = self.counts[:, None]
        p_hat = self.proportions
        g = sums / (nh * np.sqrt(sigma2))  # slice means of the standardized residual

        z = nu2 = phi2 = iota_sum2 = kappa = None
        if method is not Method.SIR:
            z = sq / (nh * sigma2)
            k = len(self.f)
            q = self.q[:, :k]
            mh = self.slice_q[:, :k] / nh  # whitened slice means / sqrt(n)
            nu2, mc = np.empty_like(g), np.empty_like(g)
            for h, (a, b) in enumerate(self.bounds):
                c = q[a:b].T @ self.resid[a:b]  # slice-h cross-moments, (k, width)
                nu2[h] = np.einsum("ij,ij->j", c, c)
                mc[h] = mh[h] @ c
            nu2 *= n / (nh**2 * sigma2)  # |nu_h|^2
            gram = n * (mh @ mh.T)  # Gram of the whitened slice means
            if method is Method.SAVE:
                iota_nu = g * mc * (n / (nh * np.sqrt(sigma2)))
                phi2 = g**2 * np.diag(gram)[:, None] - 2.0 * iota_nu + nu2
            else:
                pg = p_hat[:, None] * g
                iota_sum2 = np.einsum("hj,hj->j", pg, gram @ pg)
                kappa = p_hat @ np.diag(gram)
        gain = _gain(method, p_hat, g, z, nu2, phi2, iota_sum2, kappa)
        out[self.live[ok]] = gain[ok]
        return out, skipped
