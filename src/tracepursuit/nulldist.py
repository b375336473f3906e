"""Null calibration for the trace tests: influence samples, weight matrices,
and weighted chi-square upper quantiles.

Under conditional independence of the candidate given the working set, n
times the trace gain converges to a weighted sum of independent 1-df
chi-squares.  The weights are eigenvalues of the covariance of a stacked
influence vector; this module evaluates that vector at every sample with
all population quantities replaced by their full-sample estimates, so the
estimated weight matrix is an exact empirical outer product (and hence PSD,
with influence columns averaging to zero up to float roundoff).

Per-coordinate signs of the stacked influence vector do not affect the
weights: flipping signs conjugates the outer product by a diagonal
orthogonal matrix, which preserves eigenvalues.  Nor does the whitening of
the working set: the vector is written in the coordinates of
``MomentStats.whitening``, and another whitening W O (O orthogonal, since
W O O' W' = W W' = Sigma_F^{-1}) right-multiplies each |F|-dimensional
block by the same O.  The stacked vector is then multiplied by a
block-diagonal orthogonal matrix, which conjugates the outer product and
again preserves its eigenvalues.

The path from moments to threshold passes plain arrays: ``influence_samples``
returns the (n, dim) samples L and ``omega_hat`` the weight matrix
Omega = L'L/n.  The two-moment threshold needs only sum w = tr Omega and
sum w^2 = ||Omega||_F^2 (``weight_moments``), so a test decomposes no
Omega.  Eigenvalue weights, with their PSD clamp check, come from
``omega_weights`` only where they are used: the Monte Carlo quantile and
reports (``null_weights``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv

from .data import Dataset, IndexSet, MomentStats, SliceAssignment, compute_moments
from .errors import DegenerateDistributionError, NumericalFailureError
from .kernels import Method, ResidualStats, auxiliary_stats, residualize, trace_diff

# Clamp window for trailing eigenvalues of the estimated weight matrix; more
# negative values indicate a bug since the matrix is an outer product.
NEGATIVE_WEIGHT_TOLERANCE = 1e-10

# Relative roundoff allowed in the PSD invariant sum w^2 <= (sum w)^2 of the
# two-moment threshold, i.e. in effective dof >= 1.
DOF_TOLERANCE = 1e-10

# Rows of chi-square draws the Monte Carlo quantile holds at once.
MC_CHUNK_ROWS = 10_000


def influence_dim(method: Method, f_size: int, h_count: int) -> int:
    """Column count of the stacked influence vector for each method."""
    if method is Method.SIR:
        return h_count
    if method is Method.SAVE:
        return (f_size + 1) * h_count
    if method is Method.DR:
        return 2 * h_count + 1 + f_size * (h_count + 1)
    raise ValueError(f"unknown method {method!r}")


def influence_samples(
    method: Method,
    d: Dataset,
    s: SliceAssignment,
    m: MomentStats,
    r: ResidualStats,
    nu: np.ndarray | None = None,
) -> np.ndarray:
    """The method's stacked influence vector at every sample, (n, dim).

    ``nu`` from ``auxiliary_stats`` is required for SAVE and DR and ignored
    for SIR.  The |F|-dimensional blocks are in the whitened coordinates of
    ``m.whitening``.  All population symbols in the first-order expansions
    are replaced by their full-sample estimates; each resulting column has
    exactly zero sample mean (up to roundoff) by the normal equations and
    the exactness of slice averages.
    """
    n = d.n
    h = s.h_count
    p_hat = np.asarray(s.proportions)
    sqrt_p = np.sqrt(p_hat)

    gamma = r.gamma_per_sample
    g_h = r.gamma_by_slice
    z_h = r.zeta_by_slice
    z = m.white_xc  # (n, k), Z'Z/n = I
    ubar = m.white_u  # (H, k)

    # indic[i, h] = 1{sample i in slice h} / p_hat[h]
    indic = np.zeros((n, h))
    for idx, rows in enumerate(s.rows):
        indic[rows, idx] = 1.0 / p_hat[idx]

    # gamma*_(i,h): slice-mean influence of the standardized residual; the
    # last term is that of the fit on F, gamma_i Z_i' (u_h W).
    g_star = (gamma[:, None] - g_h[None, :]) * indic - gamma[:, None]
    g_star -= (z @ ubar.T) * gamma[:, None]

    if method is Method.SIR:
        return g_star * sqrt_p[None, :]

    # zeta*_(i,h): slice-mean influence of the squared standardized residual.
    z_star = (
        (gamma[:, None] ** 2 - z_h[None, :]) * indic
        - 2.0 * gamma[:, None] * g_h[None, :]
        - gamma[:, None] ** 2
        + 1.0
    )
    z_star -= 2.0 * (z @ nu.T) * gamma[:, None]

    # nu*_(i,h): influence of the whitened slice cross-moments, (H, n, k).
    zg = z * gamma[:, None]
    nu_star = (zg - nu[:, None, :]) * indic.T[:, :, None]
    nu_star -= gamma[None, :, None] * ubar[:, None, :]
    nu_star -= g_h[:, None, None] * z
    nu_star -= zg @ m.white_v
    iota_star = g_star.T[:, :, None] * ubar[:, None, :]  # (H, n, k)
    phi_star = iota_star - nu_star

    if method is Method.SAVE:
        blocks = [z_star * sqrt_p[None, :]]
        for idx in range(h):
            blocks.append(np.sqrt(2.0) * sqrt_p[idx] * phi_star[idx])
        return np.hstack(blocks)

    if method is Method.DR:
        blocks = [-np.sqrt(2.0) * z_star * sqrt_p[None, :]]
        for idx in range(h):
            blocks.append(2.0 * sqrt_p[idx] * nu_star[idx])
        blocks.append(np.zeros((n, 1)))  # identically-zero component, kept
        blocks.append(2.0 * np.einsum("h,hnk->nk", p_hat, iota_star))
        blocks.append(2.0 * np.sqrt(m.kappa * p_hat)[None, :] * g_star)
        return np.hstack(blocks)

    raise ValueError(f"unknown method {method!r}")


def omega_hat(ell: np.ndarray) -> np.ndarray:
    """Weight matrix Omega = L'L/n of the (n, dim) influence samples L."""
    if not np.all(np.isfinite(ell)):
        raise NumericalFailureError("influence samples contain non-finite entries")
    n, dim = ell.shape
    if n <= dim:
        warnings.warn(
            f"estimating a {dim}-dimensional weight matrix from only {n} samples",
            RuntimeWarning,
            stacklevel=2,
        )
    omega = (ell.T @ ell) / n
    return 0.5 * (omega + omega.T)


def omega_weights(omega: np.ndarray) -> np.ndarray:
    """Eigenvalue weights of a weight matrix, nonincreasing and clamped at 0.

    Raises ``NumericalFailureError`` for an eigenvalue below the
    ``NEGATIVE_WEIGHT_TOLERANCE`` clamp window.
    """
    weights = np.linalg.eigvalsh(omega)[::-1].copy()
    scale = max(weights[0], 1.0) if weights.size else 1.0
    if weights.size and weights[-1] < -NEGATIVE_WEIGHT_TOLERANCE * scale:
        raise NumericalFailureError(
            f"weight matrix has eigenvalue {weights[-1]:.3e} below the clamp window"
        )
    np.clip(weights, 0.0, None, out=weights)
    return weights


def weight_moments(omega: np.ndarray) -> tuple[float, float]:
    """(sum w, sum w^2) of the weights of ``omega``: tr Omega and ||Omega||_F^2."""
    return float(np.trace(omega)), float(np.vdot(omega, omega))


def _checked_weights(weights: np.ndarray, alpha: float) -> np.ndarray:
    """The weights as a flat float array, after the checks both quantiles share."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if w.size == 0 or np.all(w <= 0.0):
        raise DegenerateDistributionError("no positive weights")
    if not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    return w


def scaled_chisq_upper_quantile(sum_w: float, sum_w2: float, alpha: float) -> float:
    """Two-moment upper quantile of sum_k w_k chi2_1 from sum w and sum w^2.

    The law a * chi2_d with a = sum_w2/sum_w and d = sum_w^2/sum_w2 has the
    mean and variance of the weighted sum (Box 1954).  Nonnegative weights
    give d >= 1; a ``sum_w2`` above ``sum_w^2`` by more than
    ``DOF_TOLERANCE`` relative cannot come from a PSD weight matrix and
    raises ``NumericalFailureError``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not (np.isfinite(sum_w) and np.isfinite(sum_w2) and sum_w >= 0.0 and sum_w2 >= 0.0):
        raise ValueError("weight moments must be finite and nonnegative")
    if sum_w == 0.0 or sum_w2 == 0.0:
        raise DegenerateDistributionError("no positive weights")
    if sum_w2 > (1.0 + DOF_TOLERANCE) * sum_w**2:
        raise NumericalFailureError(
            f"weight moments sum_w={sum_w:.6e}, sum_w2={sum_w2:.6e} give an "
            "effective dof below 1, so the weight matrix is not PSD"
        )
    scale = sum_w2 / sum_w
    dof = sum_w**2 / sum_w2
    return scale * 2.0 * float(gammainccinv(dof / 2.0, alpha))


def weighted_chisq_upper_quantile(weights: np.ndarray, alpha: float) -> float:
    """Two-moment (scaled chi-square) upper quantile of sum_k w_k chi2_1.

    Matches the mean and variance with a * chi2_d, a = sum(w^2)/sum(w) and
    d = sum(w)^2/sum(w^2); exact for a single weight and for equal weights,
    and exactly scale-equivariant in the weights.  Only the two sums enter,
    so the trace tests call ``scaled_chisq_upper_quantile`` with tr Omega
    and ||Omega||_F^2 and never form the weights.
    """
    w = _checked_weights(weights, alpha)
    return scaled_chisq_upper_quantile(float(w.sum()), float(w @ w), alpha)


def weighted_chisq_quantile_mc(
    weights: np.ndarray,
    alpha: float,
    n_draws: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo upper quantile of the weighted chi-square (diagnostics).

    The draws come ``MC_CHUNK_ROWS`` rows at a time from one generator, so
    memory stays bounded in the weight count and the draws are those of a
    single (n_draws, k) block.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    w = _checked_weights(weights, alpha)
    rng = np.random.default_rng(seed)
    pos = w[w > 0.0]
    draws = np.empty(n_draws)
    for start in range(0, n_draws, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, n_draws - start)
        draws[start : start + rows] = rng.chisquare(1.0, size=(rows, pos.size)) @ pos
    return float(np.quantile(draws, 1.0 - alpha))


@dataclass(frozen=True)
class TraceTestResult:
    """Outcome of one conditional-independence trace test.

    ``weight_sum`` is sum w = tr Omega and ``effective_dof`` is
    (sum w)^2 / sum w^2, the degrees of freedom of the two-moment law.
    """

    method: Method
    f: IndexSet
    j: int
    alpha: float
    statistic: float
    threshold: float
    reject: bool
    weight_sum: float
    effective_dof: float


def statistic_and_threshold(
    method: Method,
    d: Dataset,
    s: SliceAssignment,
    m: MomentStats,
    r: ResidualStats,
    nu: np.ndarray | None,
    alpha: float,
    quantile: str = "two-moment",
    mc_draws: int = 100_000,
    seed: int = 0,
) -> tuple[float, float, tuple[float, float]]:
    """Test statistic, its calibrated threshold, and the weight moments
    (sum w, sum w^2) of the estimated null law."""
    statistic = d.n * trace_diff(method, m, r, nu)
    omega = omega_hat(influence_samples(method, d, s, m, r, nu))
    moments = weight_moments(omega)
    if quantile == "two-moment":
        threshold = scaled_chisq_upper_quantile(*moments, alpha)
    elif quantile == "monte-carlo":
        threshold = weighted_chisq_quantile_mc(omega_weights(omega), alpha, mc_draws, seed)
    else:
        raise ValueError(f"unknown quantile scheme {quantile!r}")
    return statistic, threshold, moments


def _test_parts(
    method: Method, d: Dataset, s: SliceAssignment, f: IndexSet, j: int
) -> tuple[MomentStats, ResidualStats, np.ndarray | None]:
    """Moments of ``f``, the residual of ``j`` and, for SAVE/DR, its cross-moments."""
    m = compute_moments(d, s, f)
    r = residualize(d, s, m, j)
    return m, r, None if method is Method.SIR else auxiliary_stats(m, r)


def null_weights(
    method: Method, d: Dataset, s: SliceAssignment, f: IndexSet, j: int
) -> np.ndarray:
    """Eigenvalue weights of the null law of the test of ``j`` given ``f``,
    for reports; the test itself reads only their two moments."""
    m, r, nu = _test_parts(method, d, s, f, j)
    return omega_weights(omega_hat(influence_samples(method, d, s, m, r, nu)))


def trace_test(
    method: Method,
    d: Dataset,
    s: SliceAssignment,
    f: IndexSet,
    j: int,
    alpha: float,
    quantile: str = "two-moment",
    mc_draws: int = 100_000,
    seed: int = 0,
) -> TraceTestResult:
    """Test whether candidate ``j`` adds information beyond working set ``f``.

    The statistic is n times the closed-form trace gain; the threshold is the
    upper-alpha quantile of the estimated weighted chi-square null law.
    """
    m, r, nu = _test_parts(method, d, s, f, j)
    statistic, threshold, (sum_w, sum_w2) = statistic_and_threshold(
        method, d, s, m, r, nu, alpha, quantile, mc_draws, seed
    )
    return TraceTestResult(
        method=method,
        f=m.f,
        j=int(j),
        alpha=float(alpha),
        statistic=statistic,
        threshold=threshold,
        reject=bool(statistic > threshold),
        weight_sum=sum_w,
        effective_dof=sum_w**2 / sum_w2,
    )
