"""Independent oracles for the test suite.

Everything here is re-derived from first principles (explicitly formed
joint Gaussians, dense textbook formulas, brute-force estimates) and
shares no code path with the library implementations it checks.  One
exception to first principles is the per-step Kalman reference
(``filter_per_step`` and the functions after it): it runs every
covariance recursion at every step, as the library did before it learned
to stop them once they settle, so tests can check the library's
steady-state path at sizes the joint-Gaussian oracles cannot reach.  Its
filter returns a record of its own (``PerStepFilter``), with the
innovation covariances and gains by LU solves; the RTS reference returns
the library's ``SmoothPass``.  The other is the full-width
SBL E-step (``estep_full_width``), which factors every row of [A B] on
all its entries and inverts the Cholesky factor by a general inverse, as
the library did before it compacted each row to its active entries, and
the inner loop it drives (``sbl_em_full_width``), which runs that E-step
afresh in every iteration and takes the residual on the full-width
coefficients, as the library did before it kept the loop's state in a
compact layout.

The regression design (``DesignRegression``, ``assemble_regression``) and
the expected complete-data log-likelihood (``q_function``) are here too:
the library works on sufficient statistics alone and calls neither, but
tests use them to state its results in textbook terms.

The exact rational DSF (``exact_dsf_small``, with ``RationalMatrix``) is
the oracle for the library's sampled DSF.  It builds every entry as a
ratio of polynomials by the characteristic-polynomial adjugate recursion
on the hidden block, so it shares no evaluation code with the sampled
path.  The outputs are the first p states (C = [I 0]), so it partitions
A and B into their measured and hidden blocks itself, and the noise
coupling sigma [I; 0] into sigma I and a zero hidden block.

``random_pdiag_network`` is a data generator, not an oracle: it draws
truths of the p_diag class, which the library's generator (diag_b class
only) does not, on the library's own mask and closure rule.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from netrecon import DSFError, RegressionData


@dataclass(kw_only=True)
class DesignRegression(RegressionData):
    """A regression given by its design: ``targets[t]`` the smoothed state
    x_{N-t}, ``regressors[t]`` the matching [x_{N-t-1}; u_{N-t-1}] (row 0
    corresponds to k = N).  The sufficient statistics are computed from
    them; after changing either, call ``__post_init__`` again.  ``y_vec``
    and ``phi`` are the stacked targets and the dense design matrix."""

    targets: np.ndarray        # (N, n)
    regressors: np.ndarray     # (N, n+m)
    zz: np.ndarray | None = None
    xz: np.ndarray | None = None
    y_sq_rows: np.ndarray | None = None

    def __post_init__(self):
        self.zz = self.regressors.T @ self.regressors
        self.xz = self.targets.T @ self.regressors
        self.y_sq_rows = (self.targets**2).sum(axis=0)

    @property
    def y_vec(self):
        return self.targets.ravel()

    @property
    def phi(self):
        blocks = [np.kron(row[None, :], np.eye(self.n)) for row in self.regressors]
        return np.vstack(blocks)


def assemble_regression(sp, data, n):
    """Build the regression design from smoothed state means (plug-in states)."""
    xs = sp.x_sm
    if xs.shape != (data.N + 1, n):
        raise ValueError(f"smoothed means have shape {xs.shape}, "
                         f"expected {(data.N + 1, n)}")
    targets = xs[1:][::-1].copy()
    regressors = np.hstack([xs[:-1], data.U])[::-1].copy()
    return DesignRegression(targets=targets, regressors=regressors,
                            n=n, m=data.U.shape[1], N=data.N)


def q_function(A, B, sigma2, m0, R0, es, N):
    """Expected complete-data log-likelihood (constants dropped):

        -2 Q = log det R0 + N n log sigma^2 + tr(R0^{-1} E0)
               + sigma^{-2} tr(S_xx - L S_xz' - S_xz L' + L S_zz L')

    with L = [A B].  A singular R0 is regularized with a trace-scaled
    jitter and flagged with a RuntimeWarning.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    L = np.hstack([A, B])
    m0 = np.asarray(m0, dtype=float).reshape(n)
    R0 = np.atleast_2d(np.asarray(R0, dtype=float))
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")

    dev = es.x0_sm - m0
    E0 = es.P0_sm + np.outer(dev, dev)

    sign, logdet = np.linalg.slogdet(R0)
    if sign <= 0 or not np.isfinite(logdet):
        jitter = 1e-10 * max(np.trace(R0) / n, 1.0)
        warnings.warn("q_function: singular R0 regularized with jitter",
                      RuntimeWarning)
        R0 = R0 + jitter * np.eye(n)
        sign, logdet = np.linalg.slogdet(R0)
    tr0 = float(np.trace(np.linalg.solve(R0, E0)))

    LSzz = L @ es.S_zz
    trace_term = float(np.trace(es.S_xx)) - 2.0 * float(np.sum(L * es.S_xz)) \
        + float(np.sum(LSzz * L))
    return -0.5 * (logdet + N * n * np.log(sigma2) + tr0 + trace_term / sigma2)


def lgssm_joint(model, U):
    """Exact joint Gaussian of z = (x_0..x_N, y_1..y_N) under the model the
    filter assumes: x_{k+1} = A x_k + B u_k + sigma w_k with w ~ N(0, I),
    y_k = C x_k + e_k with e ~ N(0, I), x_0 ~ N(m0, R0), all independent.

    Returns (mean, cov, x_slice, y_slice) where x_slice(k) / y_slice(k)
    give the index ranges of x_k (k = 0..N) and y_k (k = 1..N).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    N = len(U)
    n, p = model.n, model.p
    n_noise = n + N * n + N * p

    Mx = np.zeros(((N + 1) * n, n_noise))
    cx = np.zeros((N + 1) * n)
    Mx[0:n, 0:n] = np.eye(n)
    cx[0:n] = model.m0
    for k in range(1, N + 1):
        rows = slice(k * n, (k + 1) * n)
        prev = slice((k - 1) * n, k * n)
        Mx[rows] = model.A @ Mx[prev]
        cx[rows] = model.A @ cx[prev] + model.B @ U[k - 1]
        Mx[rows, n + (k - 1) * n: n + k * n] += model.sigma * np.eye(n)

    My = np.zeros((N * p, n_noise))
    cy = np.zeros(N * p)
    for k in range(1, N + 1):
        r = slice((k - 1) * p, k * p)
        xr = slice(k * n, (k + 1) * n)
        My[r] = model.C @ Mx[xr]
        cy[r] = model.C @ cx[xr]
        My[r, n + N * n + (k - 1) * p: n + N * n + k * p] += np.eye(p)

    M = np.vstack([Mx, My])
    c = np.concatenate([cx, cy])
    noise_cov = np.eye(n_noise)
    noise_cov[:n, :n] = model.R0
    cov = M @ noise_cov @ M.T

    def x_slice(k):
        return slice(k * n, (k + 1) * n)

    def y_slice(k):
        base = (N + 1) * n
        return slice(base + (k - 1) * p, base + k * p)

    return c, cov, x_slice, y_slice


def condition_gaussian(mean, cov, target_idx, obs_idx, obs_val):
    """Conditional mean and covariance of z[target] given z[obs] = obs_val."""
    t = np.asarray(target_idx)
    o = np.asarray(obs_idx)
    S_tt = cov[np.ix_(t, t)]
    S_to = cov[np.ix_(t, o)]
    S_oo = cov[np.ix_(o, o)]
    gain = np.linalg.solve(S_oo, S_to.T).T
    mu = mean[t] + gain @ (obs_val - mean[o])
    Sig = S_tt - gain @ S_to.T
    return mu, Sig


def smoothed_oracle(model, data):
    """Posterior of all states given all measurements: returns smoothed means
    (N+1, n), covariances (N+1, n, n) and lag-one blocks (N+1, n, n) with
    lag[k] = Cov(x_k, x_{k-1} | Y), k = 1..N."""
    mean, cov, xs, ys = lgssm_joint(model, data.U)
    N, n = data.N, model.n
    obs_idx = np.arange(ys(1).start, ys(N).stop)
    target_idx = np.arange(0, (N + 1) * n)
    mu, Sig = condition_gaussian(mean, cov, target_idx, obs_idx, data.Y.ravel())
    means = mu.reshape(N + 1, n)
    covs = np.array([Sig[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(N + 1)])
    lags = np.zeros((N + 1, n, n))
    for k in range(1, N + 1):
        lags[k] = Sig[k * n:(k + 1) * n, (k - 1) * n: k * n]
    return means, covs, lags


def filtered_oracle(model, data, k):
    """Posterior of x_k given y_1..y_k only."""
    mean, cov, xs, ys = lgssm_joint(model, data.U)
    n = model.n
    target_idx = np.arange(xs(k).start, xs(k).stop)
    obs_idx = np.arange(ys(1).start, ys(k).stop)
    return condition_gaussian(mean, cov, target_idx, obs_idx,
                              data.Y[:k].ravel())


def loglik_oracle(model, data):
    """Log density of the stacked measurement vector under the joint Gaussian."""
    mean, cov, xs, ys = lgssm_joint(model, data.U)
    N = data.N
    idx = np.arange(ys(1).start, ys(N).stop)
    mu = mean[idx]
    S = cov[np.ix_(idx, idx)]
    r = data.Y.ravel() - mu
    sign, logdet = np.linalg.slogdet(S)
    return -0.5 * (idx.size * np.log(2 * np.pi) + logdet
                   + r @ np.linalg.solve(S, r))


def ridge_posterior_dense(Phi, y, gamma, sigma2):
    """Textbook normal-equations posterior on the active columns."""
    act = gamma > 0
    Pa = Phi[:, act]
    Sig_a = np.linalg.inv(np.diag(1.0 / gamma[act]) + Pa.T @ Pa / sigma2)
    mu_a = Sig_a @ Pa.T @ y / sigma2
    mu = np.zeros(Phi.shape[1])
    Sig = np.zeros((Phi.shape[1], Phi.shape[1]))
    mu[act] = mu_a
    Sig[np.ix_(act, act)] = Sig_a
    return mu, Sig


def pinv_posterior_dense(Phi, y, gamma):
    """Noiseless-limit posterior via the explicit Moore-Penrose formula."""
    act = gamma > 0
    G12 = np.sqrt(gamma[act])
    Pg = Phi[:, act] * G12[None, :]
    pinv = np.linalg.pinv(Pg)
    mu = np.zeros(Phi.shape[1])
    mu[act] = G12 * (pinv @ y)
    return mu


def evidence_dense(Phi, y, gamma, sigma2):
    """Direct dense evaluation of the log marginal likelihood."""
    Sy = sigma2 * np.eye(len(y)) + (Phi * gamma[None, :]) @ Phi.T
    sign, logdet = np.linalg.slogdet(Sy)
    return -0.5 * (len(y) * np.log(2 * np.pi) + logdet
                   + y @ np.linalg.solve(Sy, y))


def estep_full_width(reg, gamma, sigma2):
    """SBL E-step of all rows of [A B] on all d = n + m entries: pruned
    entries get a unit diagonal and no coupling, and the Cholesky factor is
    inverted by ``np.linalg.inv``.  Returns the posterior means and
    variances in row layout (row i of [A B] along the first axis, zero on
    pruned entries), the log evidence, each row's column order (the
    identity) and the inverse Cholesky factors R (n x d x d, zero on pruned
    columns), whose row blocks sigma2 R_i' R_i are the posterior
    covariance."""
    n, d = reg.n, reg.n + reg.m
    g = gamma.reshape((d, n)).T
    act = g > 0
    H = np.where(act[:, :, None] & act[:, None, :], reg.zz, 0.0)
    diag = np.arange(d)
    H[:, diag, diag] += np.where(act, sigma2 / np.where(act, g, 1.0), 1.0)
    chol = np.linalg.cholesky(H)
    R = np.linalg.inv(chol) * act[:, None, :]
    b = np.where(act, reg.xz, 0.0)
    mu = (np.swapaxes(R, 1, 2) @ (R @ b[:, :, None]))[:, :, 0]
    var = sigma2 * (R**2).sum(axis=1)
    logdet = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum()
              + np.log(g[act]).sum())
    quad = (float(reg.y_sq_rows.sum()) - float(np.sum(b * mu))) / sigma2
    evidence = -0.5 * (reg.N_y * np.log(2.0 * np.pi) + logdet
                       + (reg.N_y - act.sum()) * np.log(sigma2) + quad)
    return mu, var, float(evidence), np.tile(diag, (n, 1)), R


def sbl_em_full_width(reg, mask, init, opts):
    """``sbl_em`` with a fresh full-width E-step (``estep_full_width``) in
    every iteration and the residual taken from the moments at the
    full-width coefficients.  Same prune, update and stop rules, dead-column
    pruning and evidence-decrease warnings; returns an ``SBLState`` whose
    ``mu_w`` is the full-width posterior mean at the final (gamma, sigma2)
    and whose ``Sigma_w`` is None."""
    from netrecon import SBLState

    n, d = reg.n, reg.n + reg.m
    gamma = np.where(mask.free, np.asarray(init.gamma, dtype=float), 0.0)
    sigma2 = max(float(init.sigma2), 1e-300)
    col_energy = np.diag(reg.zz)
    dead = col_energy < 1e-12 * max(col_energy.max(), 1e-300)
    gamma.reshape((d, n))[dead] = 0.0
    y_sq = float(reg.y_sq_rows.sum())
    evidence, n_active_path, warn_log = [], [], []
    iteration = 0
    for iteration in range(1, opts.max_iter + 1):
        gamma[gamma < opts.prune_tol] = 0.0
        active = gamma > 0
        n_active = int(active.sum())
        n_active_path.append(n_active)
        mu, var, ev, _, _ = estep_full_width(reg, gamma, sigma2)
        evidence.append(ev)
        if len(evidence) >= 2 and ev < evidence[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence[-2] - ev:.3e}")
        mu_w, var_w = mu.T.ravel(), var.T.ravel()
        gamma_new = np.zeros_like(gamma)
        # MacKay's update, its denominator kept at eps or above as sbl_em does
        gamma_new[active] = mu_w[active]**2 / np.maximum(
            1.0 - var_w[active] / gamma[active], np.finfo(float).eps)
        tr_sg = float((var_w[active] / gamma[active]).sum())
        rss = max(y_sq - 2.0 * float(np.sum(mu * reg.xz))
                  + float(np.sum((mu @ reg.zz) * mu)), 0.0)
        sigma2 = max((rss + sigma2 * (n_active - tr_sg)) / reg.N_y, 1e-300)
        delta = np.linalg.norm(gamma_new - gamma)
        scale = max(np.linalg.norm(gamma), 1e-300)
        gamma = gamma_new
        if n_active == 0 or delta <= opts.tol * scale:
            break
    gamma[gamma < opts.prune_tol] = 0.0
    mu_w = estep_full_width(reg, gamma, sigma2)[0].T.ravel()
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=mu_w, active=gamma > 0,
                    iteration=iteration, evidence=evidence,
                    n_active_path=n_active_path, warnings=warn_log)


def random_stable_model(rng, n, p, m, sigma=None, rich_prior=True):
    """Random stable system with C = [I 0] and arbitrary B."""
    from netrecon import StateSpaceModel

    A = rng.normal(size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    A *= rng.uniform(0.4, 0.9) / max(rho, 1e-12)
    B = rng.normal(size=(n, m))
    if rich_prior:
        W = rng.normal(size=(n, n))
        R0 = W @ W.T / n + 0.2 * np.eye(n)
        m0 = rng.normal(size=n)
    else:
        R0 = np.eye(n)
        m0 = np.zeros(n)
    if sigma is None:
        sigma = rng.uniform(0.3, 1.5)
    return StateSpaceModel(A=A, B=B, p=p, sigma=sigma, m0=m0, R0=R0)


def _sym(M):
    return 0.5 * (M + M.T)


@dataclass
class PerStepFilter:
    """``filter_per_step``'s pass: dense (N+1)-step arrays, the library's
    ``FilterPass`` fields but the factors, plus each step's innovation
    covariance S_k (``innov_cov``, the identity at 0) and gain K_k
    (``K_gain``, zero at 0).  Nothing settles (``k_steady`` is None), so
    the library's ``rts_smoother`` takes it as a pass."""

    x_pred: np.ndarray
    P_pred: np.ndarray
    x_filt: np.ndarray
    P_filt: np.ndarray
    K_gain: np.ndarray
    innovations: np.ndarray
    innov_cov: np.ndarray
    N: int
    k_steady: None = None


def filter_per_step(model, data):
    """Forward Kalman filter with the covariance recursion run at every
    step and the gain by an LU solve; same conventions and divergence
    guard as ``kalman_filter``.  Returns a ``PerStepFilter``."""
    from netrecon import FilterDivergedError

    n, p = model.n, model.p
    N = data.N
    A, B, C = model.A, model.B, model.C
    sig2I = model.sigma**2 * np.eye(n)
    Ip = np.eye(p)

    x_pred = np.zeros((N + 1, n))
    P_pred = np.zeros((N + 1, n, n))
    x_filt = np.zeros((N + 1, n))
    P_filt = np.zeros((N + 1, n, n))
    K_gain = np.zeros((N + 1, n, p))
    innovations = np.zeros((N + 1, p))
    innov_cov = np.zeros((N + 1, p, p))

    x_filt[0] = model.m0
    P_filt[0] = _sym(model.R0)
    x_pred[0] = model.m0
    P_pred[0] = P_filt[0]
    innov_cov[0] = Ip

    for k in range(1, N + 1):
        x_pred[k] = A @ x_filt[k - 1] + B @ data.U[k - 1]
        Pp = _sym(A @ P_filt[k - 1] @ A.T + sig2I)
        if not np.all(np.isfinite(Pp)) or np.abs(Pp).max() > 1e12 \
                or not np.all(np.isfinite(x_pred[k])):
            raise FilterDivergedError(k)
        P_pred[k] = Pp
        S = _sym(C @ Pp @ C.T + Ip)
        K = np.linalg.solve(S, C @ Pp).T
        innovations[k] = data.Y[k - 1] - C @ x_pred[k]
        innov_cov[k] = S
        K_gain[k] = K
        x_filt[k] = x_pred[k] + K @ innovations[k]
        P_filt[k] = _sym(Pp - K @ C @ Pp)
    return PerStepFilter(x_pred=x_pred, P_pred=P_pred, x_filt=x_filt,
                         P_filt=P_filt, K_gain=K_gain, innovations=innovations,
                         innov_cov=innov_cov, N=N)


def rts_per_step(model, fp):
    """RTS smoother with a gain solve and covariance update at every step."""
    from netrecon import SmoothPass

    N = fp.N
    n = fp.x_filt.shape[1]
    A = model.A
    x_sm = np.zeros((N + 1, n))
    P_sm = np.zeros((N + 1, n, n))
    J = np.zeros((N, n, n))
    x_sm[N] = fp.x_filt[N]
    P_sm[N] = fp.P_filt[N]
    pinv_steps = []
    for k in range(N - 1, -1, -1):
        PAt = fp.P_filt[k] @ A.T
        try:
            Jk = np.linalg.solve(fp.P_pred[k + 1].T, PAt.T).T
        except np.linalg.LinAlgError:
            Jk = PAt @ np.linalg.pinv(fp.P_pred[k + 1])
            pinv_steps.append(k)
        J[k] = Jk
        x_sm[k] = fp.x_filt[k] + Jk @ (x_sm[k + 1] - fp.x_pred[k + 1])
        P_sm[k] = _sym(fp.P_filt[k] + Jk @ (P_sm[k + 1] - fp.P_pred[k + 1]) @ Jk.T)
    return SmoothPass(x_sm=x_sm, P_sm=P_sm, J=J, M_sm=None,
                      pinv_steps=tuple(pinv_steps))


def lag_one_per_step(model, fp, sp):
    """Lag-one covariances M[k] = Cov(x_k, x_{k-1} | Y), every step; the
    gain K_N of the start value is solved from the pass's P_{N|N-1}."""
    N = fp.N
    n = fp.x_filt.shape[1]
    A, C = model.A, model.C
    Pp = fp.P_pred[N]
    K = np.linalg.solve(_sym(C @ Pp @ C.T + np.eye(model.p)), C @ Pp).T
    M = np.zeros((N + 1, n, n))
    M[N] = (np.eye(n) - K @ C) @ A @ fp.P_filt[N - 1]
    for k in range(N - 1, 0, -1):
        M[k] = fp.P_filt[k] @ sp.J[k - 1].T \
            + sp.J[k] @ (M[k + 1] - A @ fp.P_filt[k]) @ sp.J[k - 1].T
    return M


def loglik_per_step(fp, p):
    """Prediction-error log-likelihood, one determinant and solve per step,
    with S_k = C P_{k|k-1} C' + I formed from the pass's P_pred (the
    outputs are the first p states)."""
    from netrecon import FilterDivergedError

    total = 0.0
    for k in range(1, fp.N + 1):
        S = _sym(fp.P_pred[k][:p, :p] + np.eye(p))
        nu = fp.innovations[k]
        sign, logdet = np.linalg.slogdet(S)
        if sign <= 0:
            raise FilterDivergedError(k)
        total += -0.5 * (p * np.log(2.0 * np.pi) + logdet
                         + nu @ np.linalg.solve(S, nu))
    return float(total)


class UnsupportedSizeError(DSFError):
    """The exact rational path only supports small hidden blocks."""


class RationalMatrix:
    """Matrix of scalar rational functions, each a (num, den) coefficient pair.

    Coefficients are stored lowest power first and denominators are monic.
    An entry is identically zero when its numerator has no nonzero
    coefficient.
    """

    def __init__(self, entries):
        self.entries = entries
        self.shape = (len(entries), len(entries[0]))

    def num(self, i, j):
        return self.entries[i][j][0]

    def den(self, i, j):
        return self.entries[i][j][1]

    def is_zero(self, i, j):
        return not np.any(self.num(i, j))

    def zero_pattern(self):
        rows, cols = self.shape
        return np.array([[not self.is_zero(i, j) for j in range(cols)]
                         for i in range(rows)])

    def evaluate(self, q_points):
        """Evaluate every entry at the given complex points; returns (L, rows, cols)."""
        q = np.asarray(q_points, dtype=complex).ravel()
        rows, cols = self.shape
        out = np.empty((q.size, rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                num, den = self.entries[i][j]
                out[:, i, j] = npoly.polyval(q, num) / npoly.polyval(q, den)
        return out


def _faddeev_leverrier(M):
    """Characteristic polynomial and adjugate expansion of (qI - M).

    Returns (char, adj) where char has length h+1 (lowest power first,
    monic) and adj[d] is the h x h coefficient matrix of q^d in
    adj(qI - M) = sum_d q^d adj[d], so (qI - M)^{-1} = adj(q) / char(q).
    """
    h = M.shape[0]
    coeffs = np.zeros(h + 1)
    coeffs[h] = 1.0
    adj = np.zeros((h, h, h))
    Nk = np.eye(h)
    for k in range(1, h + 1):
        if k > 1:
            Nk = M @ Nk + c * np.eye(h)
        c = -np.trace(M @ Nk) / k
        coeffs[h - k] = c
        adj[h - k] = Nk
    return coeffs, adj


def _poly_trim(c):
    c = np.asarray(c, dtype=float)
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1)


def _canonical_zero(matrix_polys, rel_tol=1e-10):
    """Zero out entries whose coefficients all fall below rel_tol times the
    largest coefficient magnitude in the matrix (recursion round-off)."""
    scale = max((np.max(np.abs(c)) for row in matrix_polys for c in row), default=0.0)
    thresh = rel_tol * scale
    out = []
    for row in matrix_polys:
        out_row = []
        for c in row:
            c = np.where(np.abs(c) <= thresh, 0.0, c)
            out_row.append(_poly_trim(c))
        out.append(out_row)
    return out


def exact_dsf_small(model, max_hidden=12):
    """Exact rational (Q, P, H) via the adjugate recursion on the hidden block.

    Every entry in row i shares the monic denominator
    d_i(q) = q char(q) - w_ii(q), where char is the characteristic
    polynomial of the hidden block and w_ij collects the numerators of W.
    Only feasible for small hidden blocks; raises UnsupportedSizeError when
    n - p exceeds ``max_hidden``.
    """
    h = model.n - model.p
    if h > max_hidden:
        raise UnsupportedSizeError(
            f"exact path supports n - p <= {max_hidden}, got {h}")
    p, m = model.p, model.m
    A, B = model.A, model.B
    A11, A12, A21, A22 = A[:p, :p], A[:p, p:], A[p:, :p], A[p:, p:]
    B1, B2 = B[:p], B[p:]
    K1, K2 = model.sigma * np.eye(p), np.zeros((h, p))

    char, adj = _faddeev_leverrier(A22) if h > 0 else (np.ones(1), np.zeros((0, 0, 0)))

    def numerator_polys(first, second):
        # entries of first*char + A12 adj second, as (rows, cols) coeff arrays
        rows, cols = first.shape
        deg = h + 1
        out = np.zeros((deg, rows, cols))
        for d in range(len(char)):
            out[d] += first * char[d]
        for d in range(h):
            out[d] += A12 @ adj[d] @ second
        return [[_poly_trim(out[:, i, j]) for j in range(cols)] for i in range(rows)]

    w = numerator_polys(A11, A21)
    v = numerator_polys(B1, B2)
    l = numerator_polys(K1, K2)

    # row denominators d_i = q*char - w_ii, monic of degree h+1
    dens = []
    for i in range(p):
        dpoly = np.zeros(h + 2)
        dpoly[1:] = char
        wi = w[i][i]
        dpoly[: len(wi)] -= wi
        dens.append(_poly_trim(dpoly))

    zero = np.zeros(1)
    one = np.ones(1)

    q_nums = [[w[i][j] if i != j else zero for j in range(p)] for i in range(p)]
    h_nums = []
    for i in range(p):
        row = []
        for j in range(p):
            if i == j:
                row.append(_poly_trim(npoly.polyadd(l[i][i], dens[i])))
            else:
                row.append(_poly_trim(npoly.polysub(l[i][j], w[i][j])))
        h_nums.append(row)
    p_nums = []
    for i in range(p):
        row = []
        for j in range(m):
            num = v[i][j]
            if np.any(model.D):
                # (I - Qhat) D contribution: D_ij d_i - sum_{l != i} w_il D_lj
                num = npoly.polyadd(num, model.D[i, j] * dens[i])
                for l_idx in range(p):
                    if l_idx != i and model.D[l_idx, j] != 0.0:
                        num = npoly.polysub(num, model.D[l_idx, j] * w[i][l_idx])
            row.append(_poly_trim(num))
        p_nums.append(row)

    def build(nums, cols):
        nums = _canonical_zero(nums)
        return RationalMatrix([[(nums[i][j], dens[i].copy()) for j in range(cols)]
                               for i in range(len(nums))])

    return build(q_nums, p), build(p_nums, m), build(h_nums, p)


def random_pdiag_network(p, n, p22, seed, density=0.1):
    """A random stable system of the p_diag(p22) class, m = p, as a
    ``GroundTruth``.

    A is nonzero on a ``density`` share of the mask's free entries, and
    on every c_i (A12's diagonal block) and a_i (A22's) for i < p11 =
    p - p22, with entries uniform on +-[0.5, 1.0], then scaled to a
    spectral radius uniform in [0.5, 0.95].  Input i, with gain b_i
    uniform in [0.5, 1.5], enters hidden state i through B2's diagonal
    block for i < p11 and output i through B1's diagonal after that, so
    P is diagonal.  Q's structure is the closure of A's zero pattern, as
    for ``generate_random_network``; a draw whose Q has no edge is redrawn.
    """
    from netrecon import (GroundTruth, StateSpaceModel, identifiability_mask,
                          unpack_w)
    from netrecon.model import _q_closure

    rng = np.random.default_rng(seed)
    p11 = p - p22
    free = unpack_w(identifiability_mask(n, p, p, "p_diag", p22).free, n, p)[0]
    hidden = p + np.arange(p11)
    while True:
        pattern = (free == 1.0) & (rng.random((n, n)) < density)
        pattern[np.arange(p11), hidden] = True      # c_i
        pattern[hidden, hidden] = True              # a_i
        signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        A = np.where(pattern, signs * rng.uniform(0.5, 1.0, (n, n)), 0.0)
        q_structure = _q_closure(A, p)
        if q_structure.any():
            break
    A *= rng.uniform(0.5, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
    b = rng.uniform(0.5, 1.5, p)
    B = np.zeros((n, p))
    B[hidden, np.arange(p11)] = b[:p11]
    B[np.arange(p11, p), np.arange(p11, p)] = b[p11:]
    model = StateSpaceModel(A=A, B=B, p=p, sigma=1.0, m0=np.zeros(n),
                            R0=np.eye(n))
    return GroundTruth(model=model, q_structure=q_structure,
                       p_structure=np.eye(p, dtype=bool))
