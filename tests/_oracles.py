"""Independent oracles for the test suite.

Everything here is re-derived from first principles (explicitly formed
joint Gaussians, dense textbook formulas, brute-force estimates) and
shares no code path with the library implementations it checks.  The one
exception is the per-step Kalman reference (``filter_per_step`` and the
functions after it): it runs every covariance recursion at every step, as
the library did before it learned to stop them once they settle, so tests
can check the library's steady-state path at sizes the joint-Gaussian
oracles cannot reach.  It returns the library's own pass containers.
The other is the full-width SBL E-step (``estep_full_width``), which
factors every row of [A B] on all its entries and inverts the Cholesky
factor by a general inverse, as the library did before it compacted each
row to its active entries.
"""

import numpy as np


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
    inverted by ``np.linalg.inv``.  Returns the tuple of the library's
    ``_estep`` (means, variances, log evidence, order, R), with every
    row's order the identity and R zero on pruned columns."""
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


def random_stable_model(rng, n, p, m, sigma=None, rich_prior=True):
    """Random stable system with full-row-rank C = [I 0] and arbitrary B."""
    from netrecon import StateSpaceModel

    A = rng.normal(size=(n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    A *= rng.uniform(0.4, 0.9) / max(rho, 1e-12)
    B = rng.normal(size=(n, m))
    C = np.hstack([np.eye(p), np.zeros((p, n - p))])
    if rich_prior:
        W = rng.normal(size=(n, n))
        R0 = W @ W.T / n + 0.2 * np.eye(n)
        m0 = rng.normal(size=n)
    else:
        R0 = np.eye(n)
        m0 = np.zeros(n)
    if sigma is None:
        sigma = rng.uniform(0.3, 1.5)
    return StateSpaceModel(A=A, B=B, C=C, D=np.zeros((p, m)), sigma=sigma,
                           m0=m0, R0=R0)


def _sym(M):
    return 0.5 * (M + M.T)


def filter_per_step(model, data):
    """Forward Kalman filter with the covariance recursion run at every
    step; same conventions and divergence guard as ``kalman_filter``."""
    from netrecon import FilterDivergedError, FilterPass

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
    return FilterPass(x_pred=x_pred, P_pred=P_pred, x_filt=x_filt,
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
    """Lag-one covariances M[k] = Cov(x_k, x_{k-1} | Y), every step."""
    N = fp.N
    n = fp.x_filt.shape[1]
    A, C = model.A, model.C
    M = np.zeros((N + 1, n, n))
    M[N] = (np.eye(n) - fp.K_gain[N] @ C) @ A @ fp.P_filt[N - 1]
    for k in range(N - 1, 0, -1):
        M[k] = fp.P_filt[k] @ sp.J[k - 1].T \
            + sp.J[k] @ (M[k + 1] - A @ fp.P_filt[k]) @ sp.J[k - 1].T
    return M


def loglik_per_step(fp, p):
    """Prediction-error log-likelihood, one determinant and solve per step."""
    from netrecon import FilterDivergedError

    total = 0.0
    for k in range(1, fp.N + 1):
        S = fp.innov_cov[k]
        nu = fp.innovations[k]
        sign, logdet = np.linalg.slogdet(S)
        if sign <= 0:
            raise FilterDivergedError(k)
        total += -0.5 * (p * np.log(2.0 * np.pi) + logdet
                         + nu @ np.linalg.solve(S, nu))
    return float(total)
