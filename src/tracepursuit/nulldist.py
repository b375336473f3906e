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
``MomentStats.whitening``, the inverse U^{-1} of the upper Cholesky factor
of Sigma_F, and any other whitening W with W W' = Sigma_F^{-1} is
U^{-1} O for the orthogonal O = U W (O O' = U W W' U' = I).  It
right-multiplies each |F|-dimensional block by the same O, so the stacked
vector is multiplied by a block-diagonal orthogonal matrix, which
conjugates the outer product and again preserves its eigenvalues; the
eigh whitening V Lambda^{-1/2} and the forward scan's sqrt(n) R_Q^{-1} give
the same weights.

For SAVE and DR, every column of the samples L is, apart from terms that
carry the slice indicator, a linear combination of the columns of
a = [gamma | Z | Z gamma | gamma* | 1 - gamma^2], where gamma is the
standardized residual, Z the whitened working set and gamma* the SIR
influence block; the coefficients are built from the slice means, the
whitened slice moments V_h and the per-block scales sqrt(p_h).  So L is one
product a @ coef of size n x (2|F| + H + 2) by (2|F| + H + 2) x dim.  The
indicator terms are then added where they are nonzero: the zeta* block
gets an (n, H) correction, and each row's update of the nu*/phi* blocks
goes only to the block of its own slice, a gather and scatter of n x |F|
entries.  No (H, n, |F|) array is formed.

A test of (F, j) reads both of its numbers from one residual
``r = residualize(compute_moments(d, s, f), j)``: ``trace_diff(method, r)``
for the statistic and ``influence_samples(method, r)`` for the null law,
which take the dataset, the slicing, the moments and nu from ``r``.  From
there the path passes plain arrays: ``influence_samples`` returns the
(n, dim) samples L and ``omega_hat`` the weight matrix Omega = L'L/n.
The two-moment threshold needs only sum w = tr Omega and
sum w^2 = ||Omega||_F^2 (``weight_moments``), so a test decomposes no
Omega.  Eigenvalue weights, with their PSD clamp check, come from
``omega_weights`` only where they are used: the Monte Carlo quantile and
reports (``trace_test_with_weights``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, IndexSet, SliceAssignment, as_integer, compute_moments
from .errors import DegenerateDistributionError, NumericalFailureError
from .kernels import Method, ResidualStats, residualize, trace_diff

# Clamp window for trailing eigenvalues of the estimated weight matrix; more
# negative values indicate a bug since the matrix is an outer product.
NEGATIVE_WEIGHT_TOLERANCE = 1e-10

# Relative roundoff allowed in the PSD invariant sum w^2 <= (sum w)^2 of the
# two-moment threshold, i.e. in effective dof >= 1.
DOF_TOLERANCE = 1e-10

# Rows of chi-square draws the Monte Carlo quantile holds at once.
MC_CHUNK_ROWS = 10_000

# Default number of Monte Carlo draws of the weighted chi-square.
MC_DRAWS = 100_000


def influence_dim(method: Method, f_size: int, h_count: int) -> int:
    """Column count of the stacked influence vector for each method."""
    if method is Method.SIR:
        return h_count
    if method is Method.SAVE:
        return (f_size + 1) * h_count
    if method is Method.DR:
        return 2 * h_count + 1 + f_size * (h_count + 1)
    raise ValueError(f"unknown method {method!r}")


def influence_samples(method: Method, r: ResidualStats) -> np.ndarray:
    """The method's stacked influence vector at every sample, (n, dim).

    SAVE and DR read ``r.nu``; SIR does not form it.  The |F|-dimensional
    blocks are in the whitened coordinates of ``r.m.whitening``.  All
    population symbols in the first-order expansions are replaced by their
    full-sample estimates; each resulting column has exactly zero sample
    mean (up to roundoff) by the normal equations and the exactness of
    slice averages.
    """
    m = r.m
    s = m.s
    n = m.d.n
    h = s.h_count
    p_hat = s.proportions
    sqrt_p = np.sqrt(p_hat)

    gamma = r.gamma_per_sample
    g_h = r.gamma_by_slice
    z_h = r.zeta_by_slice
    z = m.white_xc  # (n, k), Z'Z/n = I
    ubar = m.white_u  # (H, k)

    indic = n * s.averaging.T  # indic[i, h] = 1{sample i in slice h} / p_hat[h]

    # gamma*_(i,h): slice-mean influence of the standardized residual; the
    # last term is that of the fit on F, gamma_i Z_i' (u_h W).
    g_star = (gamma[:, None] - g_h[None, :]) * indic - gamma[:, None]
    g_star -= (z @ ubar.T) * gamma[:, None]

    if method is Method.SIR:
        return g_star * sqrt_p[None, :]

    # zeta*_(i,h) = (gamma_i^2 - z_h) indic[i, h] + 1 - gamma_i^2 - 2 g_h gamma_i
    #               - 2 gamma_i Z_i nu_h,
    # nu*_(i,h)   = (Z_i gamma_i - nu_h) indic[i, h] - gamma_i ub_h - g_h Z_i
    #               - gamma_i Z_i V_h,
    # iota*_(i,h) = gamma*_(i,h) ub_h.
    nu = r.nu
    k = m.size
    hk = h * k
    gg = gamma**2
    zg = z * gamma[:, None]
    a = np.concatenate((gamma[:, None], z, zg, g_star, 1.0 - gg[:, None]), axis=1)
    zg_rows, g_rows = slice(1 + k, 1 + 2 * k), slice(1 + 2 * k, 1 + 2 * k + h)
    coef = np.zeros((a.shape[1], influence_dim(method, k, h)))
    coef[0, :h] = -2.0 * g_h  # zeta*_h, columns :h
    coef[zg_rows, :h] = -2.0 * nu.T
    coef[-1, :h] = 1.0
    # block_coef[:, idx] gives column block idx: -nu*_h, plus iota*_h for SAVE
    block_coef = coef[:, h : h + hk].reshape(a.shape[1], h, k)
    block_coef[0] = ubar
    block_coef[1 : 1 + k] = np.eye(k)[:, None, :] * g_h[:, None]
    block_coef[zg_rows] = m.white_v.transpose(1, 0, 2)
    if method is Method.SAVE:
        # [sqrt(p_h) zeta*_h | sqrt(2 p_h) (iota*_h - nu*_h) for each h]
        block_coef[g_rows] = np.eye(h)[:, :, None] * ubar
        zeta_scale, block_scale = sqrt_p, np.sqrt(2.0 * p_hat)
    elif method is Method.DR:
        # [-sqrt(2 p_h) zeta*_h | 2 sqrt(p_h) nu*_h for each h | 0 |
        #  2 sum_h p_h iota*_h | 2 sqrt(kappa p_h) gamma*_h]
        tail = h + hk + 1
        coef[g_rows, tail : tail + k] = 2.0 * p_hat[:, None] * ubar
        coef[g_rows, tail + k :] = np.diag(2.0 * np.sqrt(m.kappa * p_hat))
        zeta_scale, block_scale = -np.sqrt(2.0) * sqrt_p, -2.0 * sqrt_p
    else:
        raise ValueError(f"unknown method {method!r}")
    coef[:, :h] *= zeta_scale
    block_coef *= block_scale[:, None]
    ell = a @ coef

    ell[:, :h] += (gg[:, None] - z_h) * (indic * zeta_scale)
    blocks = ell[:, h : h + hk].reshape(n, h, k)  # a view: blocks[:, idx] is block idx
    label = s.membership - 1  # the slice of each row, whose block it updates
    blocks[np.arange(n), label] -= (block_scale / p_hat)[label, None] * (zg - nu[label])
    return ell


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
    omega = ell.T @ ell  # exactly symmetric: numpy forms L'L as a rank-k update
    omega /= n
    return omega


def omega_weights(omega: np.ndarray) -> np.ndarray:
    """Eigenvalue weights of a weight matrix, nonincreasing and clamped at 0.

    Eigenvalues up to ``NEGATIVE_WEIGHT_TOLERANCE`` times the largest are
    set to 0, so the count of positive weights, and with it the shape of the
    Monte Carlo draws, is the rank of Omega and not the sign of its
    roundoff.  Raises ``NumericalFailureError`` for an eigenvalue below the
    negative clamp window.
    """
    weights = np.linalg.eigvalsh(omega)[::-1].copy()
    if weights.size == 0:
        return weights
    if weights[-1] < -NEGATIVE_WEIGHT_TOLERANCE * max(weights[0], 1.0):
        raise NumericalFailureError(
            f"weight matrix has eigenvalue {weights[-1]:.3e} below the clamp window"
        )
    weights[weights <= NEGATIVE_WEIGHT_TOLERANCE * weights[0]] = 0.0
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
    # imported here: scipy.special is most of the package's import time, and
    # only a trace test needs it
    from scipy.special import gammainccinv

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
    n_draws: int = MC_DRAWS,
    seed: int = 0,
) -> float:
    """Monte Carlo upper quantile of the weighted chi-square (diagnostics).

    The draws come ``MC_CHUNK_ROWS`` rows at a time from one generator, so
    memory stays bounded in the weight count and the draws are those of a
    single (n_draws, k) block.
    """
    n_draws = as_integer(n_draws, "n_draws")
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
    method: Method, r: ResidualStats, alpha: float
) -> tuple[float, float, tuple[float, float]]:
    """Test statistic of the residual ``r``, its two-moment threshold, and
    the weight moments (sum w, sum w^2) of the estimated null law."""
    statistic = r.m.d.n * trace_diff(method, r)
    moments = weight_moments(omega_hat(influence_samples(method, r)))
    return statistic, scaled_chisq_upper_quantile(*moments, alpha), moments


def _result(
    method: Method,
    r: ResidualStats,
    alpha: float,
    statistic: float,
    threshold: float,
    moments: tuple[float, float],
) -> TraceTestResult:
    sum_w, sum_w2 = moments
    return TraceTestResult(
        method=method,
        f=r.m.f,
        j=r.j,
        alpha=float(alpha),
        statistic=statistic,
        threshold=threshold,
        reject=bool(statistic > threshold),
        weight_sum=sum_w,
        effective_dof=sum_w**2 / sum_w2,
    )


def trace_test(
    method: Method,
    d: Dataset,
    s: SliceAssignment,
    f: IndexSet,
    j: int,
    alpha: float,
) -> TraceTestResult:
    """Test whether candidate ``j`` adds information beyond working set ``f``.

    The statistic is n times the closed-form trace gain; the threshold is the
    two-moment upper-alpha quantile of the estimated weighted chi-square null
    law (the Monte Carlo quantile is in ``trace_test_with_weights``).
    """
    r = residualize(compute_moments(d, s, f), j)
    return _result(method, r, alpha, *statistic_and_threshold(method, r, alpha))


def trace_test_with_weights(
    method: Method,
    d: Dataset,
    s: SliceAssignment,
    f: IndexSet,
    j: int,
    alpha: float,
    quantile: str = "two-moment",
    seed: int = 0,
) -> tuple[TraceTestResult, np.ndarray]:
    """``trace_test`` and the eigenvalue weights of its null law, for reports.

    The statistic, the threshold and the weights come from one weight
    matrix, decomposed once.  ``quantile`` is "two-moment", which makes the
    decision that of ``trace_test``, or "monte-carlo", the quantile of
    ``MC_DRAWS`` draws from generator ``seed``.
    """
    r = residualize(compute_moments(d, s, f), j)
    omega = omega_hat(influence_samples(method, r))
    weights = omega_weights(omega)
    statistic = d.n * trace_diff(method, r)
    moments = weight_moments(omega)
    if quantile == "two-moment":
        threshold = scaled_chisq_upper_quantile(*moments, alpha)
    elif quantile == "monte-carlo":
        threshold = weighted_chisq_quantile_mc(weights, alpha, seed=seed)
    else:
        raise ValueError(f"unknown quantile scheme {quantile!r}")
    return _result(method, r, alpha, statistic, threshold, moments), weights
