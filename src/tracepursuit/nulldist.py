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
(n, dim) samples L and ``omega_hat`` the weight matrix Omega = L'L/n.  A
SAVE or DR test writes a, L and Omega into one allocation with ``out=``
(``_weight_matrix``).  glibc gives freed pages at the top of its heap back
to the system once they pass twice the largest block it has freed from a
mapping; the three arrays of one test at large |F| passed that together,
so each test page-faulted them back (about 140 minor faults for DR at
|F| = 30, n = 300), while one block of their total size raises the limit
above them.  SIR's samples are n x H and keep their own arrays.
The two-moment threshold needs only sum w = tr Omega and
sum w^2 = ||Omega||_F^2 (``weight_moments``), so a test decomposes no
Omega.  Eigenvalue weights, with their PSD clamp check, come from
``omega_weights`` only where they are used: the Monte Carlo quantile and
reports (``trace_test_with_weights``).

The two-moment threshold is a multiple of a chi-square quantile at a
non-integer dof, computed here from ``math`` alone: the regularized
incomplete gamma tails from their series and continued fraction, and their
inverse by bracketed Newton-Halley steps (``_upper_gamma_inv``).
"""

from __future__ import annotations

import math
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

_EPS = 2.0**-52

# Relative step, or bracket width, at which the gamma quantile stops.
_INV_RTOL = 16 * _EPS

# Lentz's stand-in for a zero denominator of the continued fraction.
_LENTZ_TINY = 1e-300

# Shapes a >= _STIRLING_MIN take log Gamma(a) from its Stirling series,
# whose terms are B_2k / (2k (2k - 1) a^(2k - 1)), k = 1..7; at a >= 10 the
# first term left out is below 1e-16.
_STIRLING_MIN = 10.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


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
    slice averages.  For SAVE and DR the array is a view of a block that
    also holds the design matrix a and room for Omega (module docstring).
    """
    return _influence(method, r)[0]


def _weight_matrix(method: Method, r: ResidualStats) -> np.ndarray:
    """``omega_hat(influence_samples(method, r))``; for SAVE and DR the
    design matrix, the samples and Omega are one allocation."""
    ell, out = _influence(method, r)
    return omega_hat(ell, out=out)


def _influence(method: Method, r: ResidualStats) -> tuple[np.ndarray, np.ndarray | None]:
    """``influence_samples(method, r)`` and, for SAVE and DR, an
    uninitialized (dim, dim) array for its Omega in the same allocation
    (None for SIR)."""
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
        return g_star * sqrt_p[None, :], None

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
    width, dim = 2 * k + h + 2, influence_dim(method, k, h)
    # a, L and Omega in one block, so that they are not page-faulted back
    # at every test (module docstring)
    buf = np.empty(n * (width + dim) + dim * dim)
    a = buf[: n * width].reshape(n, width)
    ell = buf[n * width : n * (width + dim)].reshape(n, dim)
    np.concatenate((gamma[:, None], z, zg, g_star, 1.0 - gg[:, None]), axis=1, out=a)
    zg_rows, g_rows = slice(1 + k, 1 + 2 * k), slice(1 + 2 * k, 1 + 2 * k + h)
    coef = np.zeros((width, dim))
    coef[0, :h] = -2.0 * g_h  # zeta*_h, columns :h
    coef[zg_rows, :h] = -2.0 * nu.T
    coef[-1, :h] = 1.0
    # block_coef[:, idx] gives column block idx: -nu*_h, plus iota*_h for SAVE
    block_coef = coef[:, h : h + hk].reshape(width, h, k)
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
    np.matmul(a, coef, out=ell)

    ell[:, :h] += (gg[:, None] - z_h) * (indic * zeta_scale)
    blocks = ell[:, h : h + hk].reshape(n, h, k)  # a view: blocks[:, idx] is block idx
    label = s.membership - 1  # the slice of each row, whose block it updates
    blocks[np.arange(n), label] -= (block_scale / p_hat)[label, None] * (zg - nu[label])
    return ell, buf[n * (width + dim) :].reshape(dim, dim)


def omega_hat(ell: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Weight matrix Omega = L'L/n of the (n, dim) influence samples L,
    written to the C-contiguous (dim, dim) array ``out`` when one is given."""
    if not np.all(np.isfinite(ell)):
        raise NumericalFailureError("influence samples contain non-finite entries")
    n, dim = ell.shape
    if n <= dim:
        warnings.warn(
            f"estimating a {dim}-dimensional weight matrix from only {n} samples",
            RuntimeWarning,
            stacklevel=2,
        )
    omega = np.matmul(ell.T, ell, out=out)  # exactly symmetric: a rank-k update
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


def _log_gamma_front(a: float, x: float) -> float:
    """log of x^a e^-x / Gamma(a), the common factor of both gamma tails.

    From ``math.lgamma`` below ``_STIRLING_MIN``.  Above it, a log x, x and
    log Gamma(a) are large and nearly cancel, so the log is taken as
    -a phi(x/a) + log(a/(2 pi))/2 - (Stirling series), with phi(l) = l - 1 -
    log l from ``log1p`` near l = 1: its error is then a few units of
    roundoff of |x - a|, not of a log x.
    """
    if a < _STIRLING_MIN:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    phi = t - math.log1p(t) if t > -0.5 else x / a - 1.0 - math.log(x / a)
    inv_a2 = 1.0 / (a * a)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv_a2 + c
    return -a * phi + 0.5 * math.log(a / (2.0 * math.pi)) - series / a


def _log_gamma_tails(a: float, x: float) -> tuple[float, float, float]:
    """(log P(a, x), log Q(a, x), log front) of the regularized incomplete
    gamma functions at a, x > 0, front = x^a e^-x / Gamma(a).

    One tail is summed from terms of one sign and the other is its
    complement: for x < a + 1, P = front/a (1 + x/(a+1) + x^2/((a+1)(a+2))
    + ...); for x >= a + 1, Q = front / (x + 1 - a - 1 (1 - a) / (x + 3 - a
    - 2 (2 - a) / (x + 5 - a - ...))), the continued fraction by the
    modified Lentz method.  Each runs until its next term changes the result
    by less than a unit of roundoff.
    """
    log_front = _log_gamma_front(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > total * _EPS:
            ap += 1.0
            term *= x / ap
            total += term
        log_p = log_front + math.log(total)
        return log_p, math.log1p(-math.exp(log_p)), log_front
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    log_q = log_front + math.log(h)
    return math.log1p(-math.exp(log_q)), log_q, log_front


def _upper_gamma_inv(a: float, q: float) -> float:
    """The x > 0 with Q(a, x) = q, for 0 < q < 1 and the shapes a = d/2 of
    the two-moment law, d >= 1 up to ``DOF_TOLERANCE``.

    Solves log T(x) = log t for the smaller tail, T = Q and t = q for q <=
    1/2, else T = P and t = 1 - q (exact), so the root keeps the digits of
    the tail that is given (DiDonato and Morris 1986).  The start is
    Wilson-Hilferty's (1931) cube of a normal quantile, or x^a / Gamma(a + 1)
    = t where that cube is not positive.  Each evaluation moves one end of a
    bracket [lo, hi] of the root to x; the next x is a Newton step on log T
    with Halley's correction, or, where that step leaves the bracket or is
    not below half the step before it, the bracket's midpoint (2 lo while
    hi is unbounded).  The steps so shrink at least geometrically, and the
    loop ends once a step, or the bracket, is within ``_INV_RTOL`` of x.

    With L = log T, L'' = L' ((a - 1)/x - 1 - L'), and L''' is one more
    derivative of that, so each evaluation also bounds the step that would
    follow a Halley step h: about C h^3, C = L'''/(6 L') - (L''/(2 L'))^2
    at x.  Where twice |C h^3| is within ``_INV_RTOL`` of the new x, the
    loop returns it without the evaluation that would only confirm it, so
    a start good to about 1e-3 takes two evaluations.
    """
    lower = q > 0.5
    target = math.log1p(-q) if lower else math.log(q)
    sign = 1.0 if lower else -1.0  # sign of d log T / dx
    u = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = u - (2.515517 + 0.802853 * u + 0.010328 * u * u) / (
        1.0 + 1.432788 * u + 0.189269 * u * u + 0.001308 * u**3
    )  # upper min(q, 1 - q) quantile of N(0, 1), to 4.5e-4 (Abramowitz and Stegun 26.2.23)
    v = 1.0 / (9.0 * a)
    cube = 1.0 - v + (-z if lower else z) * math.sqrt(v)
    if cube > 0.0:
        x = a * cube**3
    else:
        x = math.exp((target + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    step_before = step = math.inf
    while True:
        log_p, log_q, log_front = _log_gamma_tails(a, x)
        log_t = log_p if lower else log_q
        g = log_t - target
        if sign * g < 0.0:
            lo = x
        else:
            hi = x
        slope = sign * math.exp(log_front - log_t) / x  # L' = d log T / dx
        next_step = math.inf  # bound on the step after a Halley step
        if slope == 0.0:
            x_new = math.inf  # out of the bracket
        else:
            newton = g / slope
            curv = (a - 1.0) / x - 1.0 - slope  # L'' / L'
            halley = 0.5 * newton * curv
            if abs(halley) < 0.5:
                x_new = x - newton / (1.0 - halley)
                third = curv * curv - (a - 1.0) / (x * x) - slope * curv  # L''' / L'
                next_step = 2.0 * abs(third / 6.0 - curv * curv / 4.0) * abs(x_new - x) ** 3
            else:
                x_new = x - newton
        if abs(x_new - x) <= _INV_RTOL * x:
            return x_new
        if hi - lo <= _INV_RTOL * x:
            return x
        if not lo < x_new < hi or abs(x_new - x) > 0.5 * abs(step_before):
            x_new = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        elif next_step <= _INV_RTOL * x_new:
            return x_new
        step_before, step = step, x_new - x
        x = x_new


def scaled_chisq_upper_quantile(sum_w: float, sum_w2: float, alpha: float) -> float:
    """Two-moment upper quantile of sum_k w_k chi2_1 from sum w and sum w^2.

    The law a * chi2_d with a = sum_w2/sum_w and d = sum_w^2/sum_w2 has the
    mean and variance of the weighted sum (Box 1954).  Nonnegative weights
    give d >= 1; a ``sum_w2`` above ``sum_w^2`` by more than
    ``DOF_TOLERANCE`` relative cannot come from a PSD weight matrix and
    raises ``NumericalFailureError``.  The chi2_d quantile is twice the
    inverse of the regularized upper incomplete gamma function at d/2
    (``_upper_gamma_inv``), within 1e-13 relative of scipy's
    ``gammainccinv`` for d in [1, 10^4] and alpha in [1e-12, 1 - 1e-9].
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    try:
        sum_w_sq = sum_w**2
    except OverflowError:  # raised by a Python float square, where numpy gives inf
        sum_w_sq = math.inf
    if not (math.isfinite(sum_w_sq) and np.isfinite(sum_w2) and sum_w >= 0.0 and sum_w2 >= 0.0):
        raise ValueError("weight moments must be finite and nonnegative")
    if sum_w == 0.0 or sum_w2 == 0.0:
        raise DegenerateDistributionError("no positive weights")
    if sum_w2 > (1.0 + DOF_TOLERANCE) * sum_w_sq:
        raise NumericalFailureError(
            f"weight moments sum_w={sum_w:.6e}, sum_w2={sum_w2:.6e} give an "
            "effective dof below 1, so the weight matrix is not PSD"
        )
    scale = sum_w2 / sum_w
    dof = sum_w_sq / sum_w2
    return scale * 2.0 * _upper_gamma_inv(dof / 2.0, alpha)


def weighted_chisq_upper_quantile(weights: np.ndarray, alpha: float) -> float:
    """Two-moment (scaled chi-square) upper quantile of sum_k w_k chi2_1.

    Matches the mean and variance with a * chi2_d, a = sum(w^2)/sum(w) and
    d = sum(w)^2/sum(w^2); within 1e-13 of the chi-square quantile for a
    single weight and for equal weights, and scale-equivariant in the weights
    up to the rounding of d.  Only the two sums enter, so the trace tests
    call ``scaled_chisq_upper_quantile`` with tr Omega and ||Omega||_F^2 and
    never form the weights.
    """
    w = _checked_weights(weights, alpha)
    with np.errstate(over="ignore"):  # an overflowing sum raises ValueError below
        sum_w, sum_w2 = float(w.sum()), float(w @ w)
    return scaled_chisq_upper_quantile(sum_w, sum_w2, alpha)


def weighted_chisq_quantile_mc(
    weights: np.ndarray,
    alpha: float,
    n_draws: int = MC_DRAWS,
    seed: int = 0,
) -> float:
    """Monte Carlo upper quantile of the weighted chi-square (diagnostics).

    The draws come ``MC_CHUNK_ROWS`` rows at a time from one generator, so
    memory stays bounded in the weight count and the draws are those of a
    single (n_draws, k) block.  The quantile is ``np.quantile``'s default
    ("linear") one, bit for bit, interpolated here between the two order
    statistics that one ``np.partition`` places, since ``np.quantile``
    imports ``numpy.ma``.  Weights whose draws overflow raise
    ``ValueError``, as the two-moment quantile does for them.
    """
    n_draws = as_integer(n_draws, "n_draws")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    w = _checked_weights(weights, alpha)
    rng = np.random.default_rng(seed)
    pos = w[w > 0.0]
    draws = np.empty(n_draws)
    with np.errstate(over="ignore"):
        for start in range(0, n_draws, MC_CHUNK_ROWS):
            rows = min(MC_CHUNK_ROWS, n_draws - start)
            draws[start : start + rows] = rng.chisquare(1.0, size=(rows, pos.size)) @ pos
    if not np.isfinite(draws).all():
        raise ValueError("weighted chi-square draws overflow: the weights are too large")
    at = (n_draws - 1) * (1.0 - alpha)
    lo = math.floor(at)
    hi = min(lo + 1, n_draws - 1)
    draws.partition((lo, hi))
    a, b, t = float(draws[lo]), float(draws[hi]), at - lo
    # numpy's linear interpolation, from the nearer order statistic
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


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
    moments = weight_moments(_weight_matrix(method, r))
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
    omega = _weight_matrix(method, r)
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
