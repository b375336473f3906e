"""Kernel traces and closed-form trace gains for SIR, SAVE, and DR.

``trace_kernel`` evaluates the trace of the working-set kernel matrix for
each method.  ``trace_diff`` evaluates the closed-form expression for the
gain trace(kernel on F + j) - trace(kernel on F) directly from residual
summaries, which is the production path inside selection loops: it costs
O(|F|^2 H) per candidate instead of rebuilding both kernels.

The two routes agree to floating point because every sample moment is an
n-divisor empirical average over the same observations and the candidate
residual is exactly orthogonal to the working set in sample.

The terms that depend on the working set alone (Sigma_F^{-1},
Sigma_F^{-1/2}, the whitened slice means and kappa) live on ``MomentStats``
and are computed once per working set; ``residualize`` and
``auxiliary_stats`` do only the per-candidate work on top of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import Dataset, IndexSet, MomentStats, SliceAssignment
from .errors import CollinearCandidateError, WorkingSetIndexError

# Residual variance below this fraction of the candidate's own variance is
# treated as exact collinearity.
COLLINEARITY_FLOOR = 1e-12


class Method(enum.Enum):
    """The three inverse-moment kernels supported by the trace tests."""

    SIR = "sir"
    SAVE = "save"
    DR = "dr"


@dataclass(frozen=True)
class ResidualStats:
    """Standardized residual of a candidate column given the working set.

    ``theta`` solves the n-divisor normal equations of the candidate on the
    centered working-set columns; ``gamma_per_sample`` is the residual divided
    by its sample standard deviation; ``gamma_by_slice`` / ``zeta_by_slice``
    are slice means of the residual and of its square.
    """

    j: int
    f: IndexSet
    theta: np.ndarray
    sigma2_jf: float
    gamma_by_slice: np.ndarray
    zeta_by_slice: np.ndarray
    gamma_per_sample: np.ndarray


@dataclass(frozen=True)
class AuxiliaryStats:
    """Slice summaries needed by the second-order (SAVE and DR) formulas.

    ``cross_by_slice[h-1]`` holds the slice-h mean of (centered working-set
    columns) times the standardized residual; ``nu_by_slice``/``phi_by_slice``
    and ``iota_by_slice`` are its whitened combinations with the slice means;
    ``varrho`` and ``kappa`` are the scalar aggregates entering the DR gain.
    """

    phi_by_slice: np.ndarray  # (H, |F|)
    nu_by_slice: np.ndarray  # (H, |F|)
    iota_by_slice: np.ndarray  # (H, |F|)
    iota_sum: np.ndarray  # (|F|,)
    varrho: float
    kappa: float
    cross_by_slice: np.ndarray  # (H, |F|)


def residualize(d: Dataset, s: SliceAssignment, m: MomentStats, j: int) -> ResidualStats:
    """Regress the candidate column on the working set and summarize by slice.

    With an empty working set the residual is the centered candidate itself.
    Raises ``SingularDesignError`` for an ill-conditioned working set and
    ``CollinearCandidateError`` when the residual variance is negligible
    relative to the candidate's own variance.
    """
    j = int(j)
    if not 1 <= j <= d.p:
        raise WorkingSetIndexError(f"candidate index {j} outside 1..{d.p}")
    if j in m.f:
        raise WorkingSetIndexError(f"candidate {j} already in working set {m.f}")

    xj = d.centered_column(j - 1)
    k = m.size
    if k == 0:
        theta = np.empty(0)
        resid = xj
    else:
        b = (m.xc.T @ xj) / d.n
        theta = m.solve(b)
        resid = xj - m.xc @ theta

    mean_r = resid.mean()
    sigma2 = float(resid @ resid) / d.n - mean_r**2
    var_j = float(xj @ xj) / d.n - xj.mean() ** 2
    if sigma2 <= 0.0 or sigma2 < COLLINEARITY_FLOOR * var_j:
        raise CollinearCandidateError(
            f"candidate {j} has residual variance {sigma2:.3e} given {m.f}"
        )

    sigma = np.sqrt(sigma2)
    gamma = resid / sigma
    h = s.h_count
    gamma_by_slice = np.empty(h)
    zeta_by_slice = np.empty(h)
    for idx, rows in enumerate(s.rows):
        g = gamma[rows]
        gamma_by_slice[idx] = g.sum() / rows.size
        zeta_by_slice[idx] = float(g @ g) / rows.size

    return ResidualStats(
        j=j,
        f=m.f,
        theta=theta,
        sigma2_jf=sigma2,
        gamma_by_slice=gamma_by_slice,
        zeta_by_slice=zeta_by_slice,
        gamma_per_sample=gamma,
    )


def auxiliary_stats(m: MomentStats, r: ResidualStats) -> AuxiliaryStats:
    """Whitened slice cross-moments of the residual with the working set."""
    p_hat = m.proportions
    gamma = r.gamma_per_sample

    cross = np.empty((m.h_count, m.size))
    for idx, rows in enumerate(m.slice_rows):
        cross[idx] = (m.xc[rows].T @ gamma[rows]) / rows.size

    nu = cross @ m.inverse_sqrt
    iota = m.whitened_means * r.gamma_by_slice[:, None]
    phi = iota - nu

    return AuxiliaryStats(
        phi_by_slice=phi,
        nu_by_slice=nu,
        iota_by_slice=iota,
        iota_sum=p_hat @ iota,
        varrho=float(p_hat @ r.gamma_by_slice**2),
        kappa=m.kappa,
        cross_by_slice=cross,
    )


def trace_kernel(method: Method, m: MomentStats) -> float:
    """Trace of the method's kernel matrix on the working set (0 when empty)."""
    k = m.size
    if k == 0:
        return 0.0
    p_hat = m.proportions

    if method is Method.SIR:
        return m.kappa

    inv = m.inverse
    if method is Method.SAVE:
        total = 0.0
        for h in range(m.h_count):
            b = m.sigma_f - m.v[h] + np.outer(m.u[h], m.u[h])
            c = inv @ b
            total += p_hat[h] * float(np.sum(c * c.T))
        return total

    if method is Method.DR:
        w = np.einsum("h,ha,hb->ab", p_hat, m.u, m.u)
        cw = inv @ w
        second = float(np.sum(cw * cw.T))
        first = 0.0
        for h in range(m.h_count):
            cv = inv @ m.v[h]
            first += p_hat[h] * float(np.sum(cv * cv.T))
        return 2.0 * first + 2.0 * second + 2.0 * m.kappa**2 - 2.0 * k

    raise ValueError(f"unknown method {method!r}")


def trace_diff(
    method: Method,
    m: MomentStats,
    r: ResidualStats,
    aux: AuxiliaryStats | None = None,
) -> float:
    """Closed-form trace gain from adding candidate ``r.j`` to ``m.f``.

    SAVE and DR require the auxiliary slice summaries; SIR ignores them.
    The SIR gain is a weighted sum of squares and hence always >= 0.
    """
    p_hat = m.proportions
    g = r.gamma_by_slice

    if method is Method.SIR:
        return float(p_hat @ g**2)

    if aux is None:
        raise ValueError(f"{method.value} trace gain requires auxiliary stats")

    z = r.zeta_by_slice
    if method is Method.SAVE:
        diag = (1.0 - z + g**2) ** 2
        cross = 2.0 * np.einsum("ha,ha->h", aux.phi_by_slice, aux.phi_by_slice)
        return float(p_hat @ (diag + cross))

    if method is Method.DR:
        diag = (1.0 - z) ** 2
        cross = 2.0 * np.einsum("ha,ha->h", aux.nu_by_slice, aux.nu_by_slice)
        return float(
            2.0 * (p_hat @ (diag + cross))
            + 4.0 * aux.varrho**2
            + 4.0 * (aux.iota_sum @ aux.iota_sum)
            + 4.0 * aux.kappa * aux.varrho
        )

    raise ValueError(f"unknown method {method!r}")
