"""Independent reference implementations used as test oracles.

Everything here is written from scratch against the defining formulas with
explicit loops and full matrix materialization, deliberately avoiding the
shortcuts the production code takes (whitened moments, closed-form trace
gains, collapsed influence terms).
"""

from __future__ import annotations

import math

import numpy as np


def center_columns(x: np.ndarray) -> np.ndarray:
    n, p = x.shape
    out = np.empty_like(x, dtype=np.float64)
    for a in range(p):
        out[:, a] = x[:, a] - sum(x[:, a]) / n
    return out


def column_statistics(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and 1/sd (n-divisor, 0 for a constant column), each
    from a 1-D reduction of that column alone, one column at a time; a
    constant column's mean is its value."""
    n, p = x.shape
    varies = x.max(axis=0) > x.min(axis=0)
    means = np.array([x[:, a].mean() if varies[a] else x[0, a] for a in range(p)])
    scales = np.zeros(p)
    for a in np.flatnonzero(varies):
        dev = x[:, a] - means[a]
        scales[a] = 1.0 / math.sqrt(dev @ dev / n)
    return means, scales


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Centered columns divided by their n-divisor standard deviation; a
    constant column becomes zeros."""
    n, p = x.shape
    out = center_columns(x)
    for a in range(p):
        if x[:, a].max() > x[:, a].min():
            out[:, a] /= np.sqrt(sum(out[:, a] ** 2) / n)
        else:
            out[:, a] = 0.0
    return out


def naive_moments(x: np.ndarray, membership: np.ndarray, f0: list[int]):
    """Double-loop moment oracle on 0-based columns ``f0``.

    Returns (p_hat, sigma, u, v) with the n-divisor convention.
    """
    n = x.shape[0]
    k = len(f0)
    xc = center_columns(x)[:, f0]
    labels = sorted(set(membership.tolist()))
    hh = len(labels)
    p_hat = np.array([np.sum(membership == lab) / n for lab in labels])
    sigma = np.zeros((k, k))
    for i in range(n):
        for a in range(k):
            for b in range(k):
                sigma[a, b] += xc[i, a] * xc[i, b] / n
    u = np.zeros((hh, k))
    v = np.zeros((hh, k, k))
    for hi, lab in enumerate(labels):
        rows = np.flatnonzero(membership == lab)
        for i in rows:
            for a in range(k):
                u[hi, a] += xc[i, a] / rows.size
                for b in range(k):
                    v[hi, a, b] += xc[i, a] * xc[i, b] / rows.size
    return p_hat, sigma, u, v


def ols_slice_means(x: np.ndarray, membership: np.ndarray, f0: list[int], j0: int):
    """From-scratch OLS of column ``j0`` on columns ``f0`` (all 0-based),
    then slice means of the standardized residual.

    Returns (theta, sigma2, gamma_by_slice, gamma).
    """
    n = x.shape[0]
    xc = center_columns(x)
    xf = xc[:, f0]
    xj = xc[:, j0]
    if len(f0):
        gram = np.zeros((len(f0), len(f0)))
        rhs = np.zeros(len(f0))
        for i in range(n):
            gram += np.outer(xf[i], xf[i]) / n
            rhs += xf[i] * xj[i] / n
        theta = np.linalg.solve(gram, rhs)
        resid = xj - xf @ theta
    else:
        theta = np.zeros(0)
        resid = xj.copy()
    sigma2 = float(np.sum(resid**2)) / n - (float(np.sum(resid)) / n) ** 2
    gamma = resid / np.sqrt(sigma2)
    labels = sorted(set(membership.tolist()))
    gbs = np.array([gamma[membership == lab].mean() for lab in labels])
    return theta, sigma2, gbs, gamma


def inverse_sqrt_psd(a: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(a)
    return evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T


def explicit_kernel_matrix(method: str, x: np.ndarray, membership: np.ndarray, f0: list[int]) -> np.ndarray:
    """Materialize the kernel matrix on 0-based columns ``f0`` explicitly."""
    k = len(f0)
    if k == 0:
        return np.zeros((0, 0))
    p_hat, sigma, u, v = naive_moments(x, membership, f0)
    s_half = inverse_sqrt_psd(sigma)
    hh = p_hat.size
    if method == "sir":
        core = np.zeros((k, k))
        for h in range(hh):
            core += p_hat[h] * np.outer(u[h], u[h])
        return s_half @ core @ s_half
    if method == "save":
        total = np.zeros((k, k))
        for h in range(hh):
            b = s_half @ (sigma - v[h] + np.outer(u[h], u[h])) @ s_half
            total += p_hat[h] * (b @ b)
        return total
    if method == "dr":
        first = np.zeros((k, k))
        for h in range(hh):
            dv = s_half @ v[h] @ s_half
            first += p_hat[h] * (dv @ dv)
        w = np.zeros((k, k))
        kappa = 0.0
        sig_inv = s_half @ s_half
        for h in range(hh):
            w += p_hat[h] * (s_half @ np.outer(u[h], u[h]) @ s_half)
            kappa += p_hat[h] * float(u[h] @ sig_inv @ u[h])
        return 2.0 * first + 2.0 * (w @ w) + 2.0 * kappa * w - 2.0 * np.eye(k)
    raise ValueError(method)


def explicit_trace_kernel(method: str, x: np.ndarray, membership: np.ndarray, f0: list[int]) -> float:
    return float(np.trace(explicit_kernel_matrix(method, x, membership, f0)))


def sir_omega_from_components(x: np.ndarray, membership: np.ndarray, f0: list[int], j0: int) -> np.ndarray:
    """Assemble the SIR weight matrix from separately coded expansion pieces.

    Per sample: sigma* = X X' - Sigma; (Sigma^-1)* = -S^-1 sigma* S^-1;
    U*_h = (X - U_h) R_h / p_h - X; theta* = S^-1 (x_j X - E(x_j X))
    + (S^-1)* E(x_j X); gamma*_h = (u*_jh - theta*' U_h - theta' U*_h)/sigma.
    """
    n = x.shape[0]
    k = len(f0)
    xc = center_columns(x)
    xf = xc[:, f0]
    xj = xc[:, j0]
    labels = sorted(set(membership.tolist()))
    hh = len(labels)
    p_hat = np.array([np.sum(membership == lab) / n for lab in labels])
    _, sigma, u, _ = naive_moments(x, membership, f0)
    uj = np.array([xj[membership == lab].mean() for lab in labels])
    exj = np.array([float(xf[:, a] @ xj) / n for a in range(k)])
    if k:
        sig_inv = np.linalg.inv(sigma)
        theta = sig_inv @ exj
    else:
        sig_inv = np.zeros((0, 0))
        theta = np.zeros(0)
    resid = xj - (xf @ theta if k else 0.0)
    sigma2 = float(resid @ resid) / n - (resid.sum() / n) ** 2
    sig_jf = np.sqrt(sigma2)

    omega = np.zeros((hh, hh))
    for i in range(n):
        xi = xf[i]
        ri = np.array([1.0 if membership[i] == lab else 0.0 for lab in labels])
        if k:
            sigma_star = np.outer(xi, xi) - sigma
            sig_inv_star = -sig_inv @ sigma_star @ sig_inv
            theta_star = sig_inv @ (xj[i] * xi - exj) + sig_inv_star @ exj
        gamma_star = np.empty(hh)
        for h in range(hh):
            u_star_h = (xi - u[h]) * ri[h] / p_hat[h] - xi
            uj_star_h = (xj[i] - uj[h]) * ri[h] / p_hat[h] - xj[i]
            val = uj_star_h
            if k:
                val -= float(theta_star @ u[h]) + float(theta @ u_star_h)
            gamma_star[h] = val / sig_jf
        ell = np.sqrt(p_hat) * gamma_star
        omega += np.outer(ell, ell) / n
    return omega


def reference_influence_samples(method, d, s, m, r, nu):
    """Stacked influence samples (n, dim) built slice by slice: every
    (H, n, |F|) term of nu*_h, iota*_h and phi*_h is formed over all n rows,
    with the slice indicator as a dense factor, then scaled and stacked."""
    from tracepursuit.kernels import Method

    n = d.n
    h = s.h_count
    p_hat = np.asarray(s.proportions)
    sqrt_p = np.sqrt(p_hat)

    gamma = r.gamma_per_sample
    g_h = r.gamma_by_slice
    z_h = r.zeta_by_slice
    z = m.white_xc
    ubar = m.white_u

    indic = np.zeros((n, h))  # indic[i, h] = 1{sample i in slice h} / p_hat[h]
    for idx, rows in enumerate(s.rows):
        indic[rows, idx] = 1.0 / p_hat[idx]

    g_star = (gamma[:, None] - g_h[None, :]) * indic - gamma[:, None]
    g_star -= (z @ ubar.T) * gamma[:, None]

    if method is Method.SIR:
        return g_star * sqrt_p[None, :]

    z_star = (
        (gamma[:, None] ** 2 - z_h[None, :]) * indic
        - 2.0 * gamma[:, None] * g_h[None, :]
        - gamma[:, None] ** 2
        + 1.0
    )
    z_star -= 2.0 * (z @ nu.T) * gamma[:, None]

    zg = z * gamma[:, None]
    nu_star = (zg - nu[:, None, :]) * indic.T[:, :, None]
    nu_star -= gamma[None, :, None] * ubar[:, None, :]
    nu_star -= g_h[:, None, None] * z
    nu_star -= zg @ m.white_v
    iota_star = g_star.T[:, :, None] * ubar[:, None, :]
    phi_star = iota_star - nu_star

    if method is Method.SAVE:
        blocks = [z_star * sqrt_p[None, :]]
        for idx in range(h):
            blocks.append(np.sqrt(2.0) * sqrt_p[idx] * phi_star[idx])
        return np.hstack(blocks)

    blocks = [-np.sqrt(2.0) * z_star * sqrt_p[None, :]]
    for idx in range(h):
        blocks.append(2.0 * sqrt_p[idx] * nu_star[idx])
    blocks.append(np.zeros((n, 1)))
    blocks.append(2.0 * np.einsum("h,hnk->nk", p_hat, iota_star))
    blocks.append(2.0 * np.sqrt(m.kappa * p_hat)[None, :] * g_star)
    return np.hstack(blocks)


def mc_weighted_chisq_quantile(weights, alpha: float, n_draws: int, seed: int) -> float:
    """Monte Carlo oracle via squared standard normals."""
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    total = np.zeros(n_draws)
    for wk in w:
        z = rng.standard_normal(n_draws)
        total += wk * z * z
    return float(np.quantile(total, 1.0 - alpha))


def scalar_scan(d, s, method, f, candidates):
    """Per-candidate reference scan: residualize, auxiliary stats and the
    closed-form gain one candidate at a time over working set ``f``.

    Returns (best_j, best_gain, best residual, [(j, category), ...]); gains
    within ``TIE_RTOL`` of the best are ties, broken toward the smallest index.
    """
    from tracepursuit import compute_moments
    from tracepursuit.errors import TracePursuitError
    from tracepursuit.kernels import residualize, trace_diff
    from tracepursuit.selectors import TIE_RTOL

    m = compute_moments(d, s, f)
    scored, skipped = [], []
    for j in sorted(candidates):
        try:
            r = residualize(m, j)
            scored.append((j, trace_diff(method, r), r))
        except TracePursuitError as err:
            skipped.append((j, err.category))
    if not scored:
        return None, -np.inf, None, skipped
    top = max(gain for _, gain, _ in scored)
    for j, gain, r in scored:
        if gain >= top - TIE_RTOL * abs(top):
            return j, gain, r, skipped


def reference_ftp(d, s, method, k_max):
    """Forward path by ``scalar_scan``: (added indices, traces, sorted skips)."""
    added, traces, skipped, trace = [], [], set(), 0.0
    for _ in range(k_max):
        best_j, gain, _, skips = scalar_scan(
            d, s, method, tuple(sorted(added)), set(range(1, d.p + 1)) - set(added)
        )
        skipped.update(j for j, _ in skips)
        if best_j is None:
            break
        trace += gain
        added.append(best_j)
        traces.append(trace)
    return added, traces, sorted(skipped)


def reference_stp_trail(d, s, method, alpha, max_size, universe, max_iterations=100):
    """Stepwise trail as (action, index, statistic, threshold, note) tuples,
    forward additions chosen by ``scalar_scan``.  The deletion candidate is
    the member whose loss, scored one member at a time by the scalar route,
    is smallest, with losses within ``TIE_RTOL`` of it tied and ties going to
    the smallest index; a working set that fails the floor tests no
    deletion."""
    from tracepursuit import compute_moments
    from tracepursuit.errors import SingularDesignError, TracePursuitError
    from tracepursuit.kernels import residualize, trace_diff
    from tracepursuit.nulldist import statistic_and_threshold
    from tracepursuit.selectors import TIE_RTOL

    uni = tuple(sorted(universe))
    current, visited, trail, seen = set(), {frozenset()}, [], set()

    def record_skips(skips):
        for j, category in skips:
            if j not in seen:
                seen.add(j)
                trail.append(("skip", j, None, None, category))

    def record_change(action, j, stat, thr):
        trail.append((action, j, stat, thr, ""))
        state = frozenset(current)
        if state in visited:
            trail.append(("stop", None, None, None, "cycle detected"))
            return True
        visited.add(state)
        return False

    for _ in range(max_iterations):
        changed = False
        candidates = [j for j in uni if j not in current]
        if len(current) < max_size and candidates:
            best_j, _, best_r, skips = scalar_scan(
                d, s, method, tuple(sorted(current)), candidates
            )
            record_skips(skips)
            if best_j is not None:
                stat, thr, _ = statistic_and_threshold(method, best_r, alpha)
                if stat > thr:
                    current.add(best_j)
                    changed = True
                    if record_change("add", best_j, stat, thr):
                        return trail
        if current:
            members = sorted(current)
            try:
                compute_moments(d, s, tuple(members)).whitening
            except SingularDesignError:
                members = []
            scored, skips = [], []
            for j in members:
                m = compute_moments(d, s, tuple(sorted(current - {j})))
                try:
                    r = residualize(m, j)
                    scored.append((j, trace_diff(method, r), r))
                except TracePursuitError as err:
                    skips.append((j, err.category))
            record_skips(skips)
            if scored:
                low = min(loss for _, loss, _ in scored)
                best_d, _, best_r = next(
                    t for t in scored if t[1] <= low + TIE_RTOL * abs(low)
                )
                stat, thr, _ = statistic_and_threshold(method, best_r, alpha)
                if stat < thr:
                    current.remove(best_d)
                    changed = True
                    if record_change("delete", best_d, stat, thr):
                        return trail
        if not changed:
            note = "set-size cap reached" if len(current) >= max_size else "converged"
            trail.append(("stop", None, None, None, note))
            return trail
    trail.append(("stop", None, None, None, "iteration cap reached"))
    return trail
