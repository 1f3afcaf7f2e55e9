"""Sparse Bayesian learning for the state-regression form of the M-step.

The complete-data likelihood is rewritten as a linear regression
y = Phi w + noise with w = [vec(A); vec(B)], where y stacks the smoothed
states x_N..x_1 and each block of Phi is [x_{k-1}' (x) I, u_{k-1}' (x) I].
A zero-mean Gaussian prior with per-weight variances gamma is placed on w;
evidence maximization (an inner EM over gamma and sigma^2) drives most
variances to zero, pruning the corresponding weights.

Because each output row of the regression involves only that row of
[A B], the posterior, evidence and all updates decouple into n
independent (n+m)-dimensional problems sharing sigma^2.  All routines
exploit this; the dense design matrix is only materialized on request.

Network identifiability enters through masks that pin selected entries of
(A, B) to zero: either a diagonal top block of B (each input perturbs one
output), or the block zero pattern that guarantees a diagonal
input-to-output transfer matrix with hidden-state routing.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IdentifiabilityError",
    "RegressionData",
    "SBLState",
    "Mask",
    "SBLOptions",
    "assemble_regression",
    "posterior",
    "marginal_loglik",
    "identifiability_mask",
    "initial_sbl_state",
    "sbl_em",
    "unpack_w",
    "pack_w",
]


class IdentifiabilityError(ValueError):
    """The requested mask cannot guarantee a diagonal input-to-output map."""


@dataclass
class RegressionData:
    """Stacked regression view of the state sequence.

    ``targets[t]`` is the smoothed state x_{N-t} and ``regressors[t]`` the
    matching [x_{N-t-1}; u_{N-t-1}], so row 0 corresponds to k = N.  The
    Gram quantities (zz, xz, y_sq_rows) are precomputed once; ``phi``
    materializes the dense design matrix and is intended for small
    problems and cross-checks.
    """

    targets: np.ndarray      # (N, n)
    regressors: np.ndarray   # (N, n+m)
    n: int
    m: int
    N: int

    def __post_init__(self):
        self.zz = self.regressors.T @ self.regressors
        self.xz = self.targets.T @ self.regressors
        self.y_sq_rows = (self.targets**2).sum(axis=0)

    @property
    def N_y(self):
        return self.N * self.n

    @property
    def N_w(self):
        return self.n * (self.n + self.m)

    @property
    def y_vec(self):
        return self.targets.ravel()

    @property
    def phi(self):
        blocks = [np.kron(row[None, :], np.eye(self.n)) for row in self.regressors]
        return np.vstack(blocks)

    def row_indices(self, i):
        """Weight indices belonging to output row i of [A B]."""
        return i + self.n * np.arange(self.n + self.m)


@dataclass
class Mask:
    """Free/pinned pattern over the entries of vec(A) and vec(B)."""

    free: np.ndarray
    mode: str
    n: int
    p: int
    m: int
    p22: int | None = None


@dataclass
class SBLState:
    """Hyperparameters and posterior of the weight vector.

    gamma[i] = 0 exactly when coordinate i is masked or pruned, in which
    case mu_w[i] = 0 and the corresponding row/column of Sigma_w is zero.
    """

    gamma: np.ndarray
    sigma2: float
    mu_w: np.ndarray | None = None
    Sigma_w: np.ndarray | None = None
    active: np.ndarray | None = None
    iteration: int = 0
    evidence: list = field(default_factory=list)
    n_active_path: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


@dataclass
class SBLOptions:
    """Inner-loop controls.

    ``sigma2_denominator`` selects the normalization of the noise update:
    "n_y" divides by the total number of scalar observations (the exact
    M-step), "n_samples" divides by the number of time steps.

    ``dead_column_tol`` prunes weights whose regressor column carries
    essentially no energy (relative to the strongest column).  Evidence
    maximization on such columns has a degenerate optimum with unbounded
    prior variance, so they must be dropped rather than fit.
    """

    max_iter: int = 200
    tol: float = 1e-6
    prune_tol: float = 1e-12
    eps: float = 1e-16
    update_sigma2: bool = True
    sigma2_denominator: str = "n_y"
    dead_column_tol: float = 1e-12


def assemble_regression(sp, data, n):
    """Build the regression pair from smoothed state means (plug-in states)."""
    xs = sp.x_sm
    if xs.shape != (data.N + 1, n):
        raise ValueError(f"smoothed means have shape {xs.shape}, "
                         f"expected {(data.N + 1, n)}")
    targets = xs[1:][::-1].copy()
    regressors = np.hstack([xs[:-1], data.U])[::-1].copy()
    return RegressionData(targets=targets, regressors=regressors,
                          n=n, m=data.U.shape[1], N=data.N)


def regression_from_moments(es, n, m):
    """Regression view carrying the exact smoothed second moments.

    Plugging smoothed means into the design ignores the state uncertainty
    and attenuates the fit; this builder instead synthesizes a compact
    design with the same sufficient statistics as the expected
    complete-data quadratic: a square factor F of S_zz as regressors,
    targets solving F' t_i = S_xz[i], and one phantom row absorbing the
    residual mass so that sum(t^2) matches S_xx exactly.  Every downstream
    quantity (posterior, evidence, residuals) then equals its exact
    conditional expectation.
    """
    d, V = np.linalg.eigh(0.5 * (es.S_zz + es.S_zz.T))
    d = np.clip(d, 0.0, None)
    root = np.sqrt(d)
    F = root[:, None] * V.T
    inv_root = np.where(root > root.max() * 1e-14, 1.0 / np.where(root > 0, root, 1.0), 0.0)
    T = inv_root[:, None] * (V.T @ es.S_xz.T)
    resid_sq = np.clip(np.diag(es.S_xx) - (T**2).sum(axis=0), 0.0, None)
    targets = np.vstack([T, np.sqrt(resid_sq)[None, :]])
    regressors = np.vstack([F, np.zeros((1, n + m))])
    return RegressionData(targets=targets, regressors=regressors,
                          n=n, m=m, N=es.N)


def identifiability_mask(n, p, m, mode, p22=None):
    """Build the free-coordinate mask for a given identifiability regime.

    "unconstrained" leaves every entry free.  "diag_b" frees all of A and
    only the (i, i) entries of B's top p x p block.  "p_diag" applies the
    block zero pattern (with hidden dimension h = n - p and p11 = p - p22):

        A12 = [[c^, 0stat],  A22 = [[a^, x],   B1 = [[0, 0],   B2 = [[b^, 0],
               [0,  x   ]]          [0,  x]]         [0, F]]         [0,  0]]

    where a^, b^, c^ are diagonal p11 x p11 blocks (only their diagonals
    free), F is a free p22 x p22 block, and x marks free blocks.  A11 and
    A21 stay free.
    """
    if mode not in ("unconstrained", "diag_b", "p_diag"):
        raise ValueError(f"unknown mask mode {mode!r}")
    if n < p:
        raise ValueError("need n >= p")
    freeA = np.ones((n, n), dtype=bool)
    freeB = np.zeros((n, m), dtype=bool)
    if mode == "unconstrained":
        freeB[:] = True
    elif mode == "diag_b":
        if m != p:
            raise IdentifiabilityError(
                "diag_b requires m = p (square diagonal input map)")
        freeB[np.arange(p), np.arange(p)] = True
    else:
        if m != p:
            raise IdentifiabilityError(
                "p_diag requires m = p (square diagonal input map)")
        if p22 is None or not 0 <= p22 <= p:
            raise IdentifiabilityError(f"p_diag requires 0 <= p22 <= p, got {p22}")
        p11 = p - p22
        h = n - p
        if h < p11:
            raise IdentifiabilityError(
                f"p_diag with p22={p22} needs n - p >= {p11}, got {h}")
        A12 = np.zeros((p, h), dtype=bool)
        A12[:p11, :p11] = np.eye(p11, dtype=bool)
        A12[p11:, p11:] = True
        A22 = np.zeros((h, h), dtype=bool)
        A22[:p11, :p11] = np.eye(p11, dtype=bool)
        A22[:p11, p11:] = True
        A22[p11:, p11:] = True
        B1 = np.zeros((p, m), dtype=bool)
        B1[p11:, p11:] = True
        B2 = np.zeros((h, m), dtype=bool)
        B2[:p11, :p11] = np.eye(p11, dtype=bool)
        freeA[:p, p:] = A12
        freeA[p:, p:] = A22
        freeB[:p] = B1
        freeB[p:] = B2
    free = np.concatenate([freeA.ravel(order="F"), freeB.ravel(order="F")])
    return Mask(free=free, mode=mode, n=n, p=p, m=m, p22=p22)


def unpack_w(w, n, m):
    """Column-major de-vectorization of w = [vec(A); vec(B)]."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != n * n + n * m:
        raise ValueError(f"w must have length {n * n + n * m}, got {w.size}")
    A = w[: n * n].reshape((n, n), order="F")
    B = w[n * n:].reshape((n, m), order="F")
    return A, B


def pack_w(A, B):
    return np.concatenate([np.asarray(A).ravel(order="F"),
                           np.asarray(B).ravel(order="F")])


def _row_estep(reg, gamma, sigma2, eps, i, want_cov=False):
    """Posterior and evidence pieces for one output row.

    Returns (idx_active, mu_act, diag_act, cov_act_or_None, evidence_i,
    tr_sigma_gamma_inv_i).  Uses the SVD of the row design scaled by
    Gamma^{1/2}: with Phi Gamma^{1/2} = U S V', the mean is
    Gamma^{1/2} V S (S^2 + sigma^2 I + eps I)^{-1} U' y and the covariance
    Gamma^{1/2} (I - V diag(s^2/(s^2+sigma^2+eps)) V') Gamma^{1/2}, which
    stays accurate across the many orders of magnitude gamma spans near
    pruning and degrades gracefully to the pseudo-inverse as sigma2 -> 0.
    """
    N = reg.N
    idx = reg.row_indices(i)
    g_row = gamma[idx]
    act = g_row > 0
    ysq = float(reg.y_sq_rows[i])
    log2pi = np.log(2.0 * np.pi)
    if not np.any(act):
        evidence = np.nan
        if sigma2 > 0:
            evidence = -0.5 * (N * log2pi + N * np.log(sigma2) + ysq / sigma2)
        return idx[act], np.zeros(0), np.zeros(0), None, evidence, 0.0
    gr = g_row[act]
    sq = np.sqrt(gr)
    M = reg.regressors[:, act] * sq[None, :]
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    y = reg.targets[:, i]
    uty = U.T @ y
    s2 = s**2
    denom = s2 + sigma2 + eps
    mu_act = sq * (Vt.T @ (s * uty / denom))
    shrink = s2 / denom
    diag_act = gr * (1.0 - (Vt.T**2) @ shrink)
    evidence = np.nan
    if sigma2 > 0:
        logdet = float(np.log(s2 + sigma2).sum()) + (N - s.size) * np.log(sigma2)
        quad = (ysq - float((s2 / (s2 + sigma2) * uty**2).sum())) / sigma2
        evidence = -0.5 * (N * log2pi + logdet + quad)
    tr_sg = float((diag_act / gr).sum())
    cov = None
    if want_cov:
        core = np.eye(act.sum()) - (Vt.T * shrink[None, :]) @ Vt
        cov = (sq[:, None] * core) * sq[None, :]
    return idx[act], mu_act, diag_act, cov, evidence, tr_sg


def posterior(reg, gamma, sigma2, eps=1e-16):
    """Posterior mean and covariance of the weights at fixed (gamma, sigma2).

    Computed on the active (gamma > 0) coordinates via the eigendecomposed
    form of mu = Gamma^{1/2} V S (S^2 + sigma^2 I + eps I)^{-1} U' y; for
    sigma2 -> 0 this reproduces the pseudo-inverse limit.  Pruned
    coordinates get zero mean and zero covariance rows/columns; an empty
    active set returns an all-zero posterior.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    if np.any(gamma < 0):
        raise ValueError("gamma must be nonnegative")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    mu = np.zeros(reg.N_w)
    Sigma = np.zeros((reg.N_w, reg.N_w))
    for i in range(reg.n):
        idx_act, mu_act, _, cov, _, _ = _row_estep(
            reg, gamma, sigma2, eps, i, want_cov=True)
        if idx_act.size:
            mu[idx_act] = mu_act
            Sigma[np.ix_(idx_act, idx_act)] = cov
    return mu, Sigma


def marginal_loglik(reg, gamma, sigma2):
    """Log evidence: the Gaussian marginal of y with covariance
    sigma^2 I + Phi Gamma Phi', evaluated on the active set without ever
    forming the dense observation-space matrix."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    gamma = np.asarray(gamma, dtype=float)
    total = 0.0
    for i in range(reg.n):
        total += _row_estep(reg, gamma, sigma2, 0.0, i)[4]
    return float(total)


def initial_sbl_state(reg, mask, sigma2=None, gamma0=1.0):
    """Unit prior variances on free coordinates; sigma2 defaults to
    0.1 times the target variance."""
    gamma = np.where(mask.free, float(gamma0), 0.0)
    if sigma2 is None:
        sigma2 = 0.1 * float(np.var(reg.y_vec))
        if sigma2 <= 0:
            sigma2 = 1e-6
    return SBLState(gamma=gamma, sigma2=float(sigma2))


def sbl_em(reg, mask, init=None, opts=None):
    """Evidence maximization with pruning and identifiability masking.

    Each iteration prunes hyperparameters below ``prune_tol``, computes
    the posterior at the current (gamma, sigma2), then applies the
    updates gamma_i <- Sigma_ii + mu_i^2 and

        sigma2 <- (|y - Phi mu|^2 + sigma2_old tr(I - Sigma Gamma^{-1})) / N_y

    (the residual is evaluated exactly through the unpacked (A, B), not
    through Gram-matrix cancellation).  Masked coordinates stay at zero
    throughout; the loop stops when the relative change of gamma drops
    below ``tol`` or after ``max_iter`` iterations.  An evidence decrease
    beyond 1e-8 is recorded as a numerical warning and iteration
    continues.
    """
    opts = opts or SBLOptions()
    if opts.sigma2_denominator not in ("n_y", "n_samples"):
        raise ValueError("sigma2_denominator must be 'n_y' or 'n_samples'")
    if init is None:
        init = initial_sbl_state(reg, mask)
    gamma = np.asarray(init.gamma, dtype=float).copy()
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    gamma[~mask.free] = 0.0
    sigma2 = float(init.sigma2)

    col_energy = (reg.regressors**2).sum(axis=0)
    dead = col_energy < opts.dead_column_tol * max(col_energy.max(), 1e-300)
    if dead.any():
        dead_coords = (np.nonzero(dead)[0][:, None] * reg.n
                       + np.arange(reg.n)[None, :]).ravel()
        gamma[dead_coords] = 0.0

    evidence_path = []
    n_active_path = []
    warn_log = []
    denom_N = reg.N_y if opts.sigma2_denominator == "n_y" else reg.N

    iteration = 0
    for iteration in range(1, opts.max_iter + 1):
        gamma[gamma < opts.prune_tol] = 0.0
        active = gamma > 0
        n_active = int(active.sum())
        n_active_path.append(n_active)

        mu = np.zeros(reg.N_w)
        diag_sig = np.zeros(reg.N_w)
        tr_sg = 0.0
        evidence = 0.0
        for i in range(reg.n):
            idx_act, mu_act, d_act, _, ev_i, tr_i = _row_estep(
                reg, gamma, sigma2, opts.eps, i)
            evidence += ev_i
            tr_sg += tr_i
            if idx_act.size:
                mu[idx_act] = mu_act
                diag_sig[idx_act] = d_act
        evidence_path.append(float(evidence))
        if len(evidence_path) >= 2 and evidence < evidence_path[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence_path[-2] - evidence:.3e}")

        gamma_new = np.zeros_like(gamma)
        gamma_new[active] = diag_sig[active] + mu[active]**2

        if opts.update_sigma2:
            A_mu, B_mu = unpack_w(mu, reg.n, reg.m)
            resid = reg.targets - reg.regressors @ np.hstack([A_mu, B_mu]).T
            rss = float((resid**2).sum())
            sigma2 = max((rss + sigma2 * (n_active - tr_sg)) / denom_N, 1e-300)

        delta = np.linalg.norm(gamma_new - gamma)
        scale = max(np.linalg.norm(gamma), 1e-300)
        gamma = gamma_new
        if n_active == 0 or delta <= opts.tol * scale:
            break

    gamma[gamma < opts.prune_tol] = 0.0
    if warn_log:
        warnings.warn("sbl_em: evidence decreased during iteration "
                      "(numerical warning, see state.warnings)", RuntimeWarning)
    mu, Sigma = posterior(reg, gamma, sigma2, opts.eps)
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=mu, Sigma_w=Sigma,
                    active=gamma > 0, iteration=iteration,
                    evidence=evidence_path, n_active_path=n_active_path,
                    warnings=warn_log)
