"""Sparse Bayesian learning for the state-regression form of the M-step.

The complete-data likelihood is rewritten as a linear regression
y = Phi w + noise with w = [vec(A); vec(B)], where y stacks the smoothed
states x_N..x_1 and each block of Phi is [x_{k-1}' (x) I, u_{k-1}' (x) I].
A zero-mean Gaussian prior with per-weight variances gamma is placed on w;
evidence maximization (an inner EM over gamma and sigma^2) drives most
variances to zero, pruning the corresponding weights.

The posterior and the evidence depend on the data only through the
sufficient statistics zz = sum z z', xz = sum x z' and the per-row sums
of squared targets (Tipping, JMLR 2001), so every routine here reads only
those.  Each output row i of the regression involves only row i of
[A B], so the problem splits into n ridge problems sharing sigma^2.
Each is posed on its row's active (unpruned) entries only, and all are
solved together as one batch of positive definite systems, each padded
to the batch's largest active count with a unit diagonal and no
coupling; the posterior covariance comes from a triangular inverse of
each row's Cholesky factor.

Network identifiability enters through masks that pin selected entries of
(A, B) to zero: either a diagonal top block of B (each input perturbs one
output), or the block zero pattern that guarantees a diagonal
input-to-output transfer matrix with hidden-state routing.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri

__all__ = [
    "IdentifiabilityError",
    "RegressionData",
    "SBLState",
    "Mask",
    "SBLOptions",
    "posterior",
    "marginal_loglik",
    "identifiability_mask",
    "initial_sbl_state",
    "sbl_em",
    "unpack_w",
    "pack_w",
    "moment_rss",
]

# Weights whose regressor column carries less energy than this fraction of
# the strongest column's are pruned before the inner loop: evidence
# maximization on such columns has a degenerate optimum with unbounded prior
# variance, so they must be dropped rather than fit.
_DEAD_COLUMN_TOL = 1e-12


class IdentifiabilityError(ValueError):
    """The requested mask cannot guarantee a diagonal input-to-output map."""


@dataclass(kw_only=True)
class RegressionData:
    """Sufficient statistics of the stacked state regression.

    ``zz`` (d x d with d = n + m) is the sum of z z' over the regressors
    z = [x_{k-1}; u_{k-1}], ``xz`` (n x d) the sum of x_k z' and
    ``y_sq_rows`` (n) the per-row sums of squared targets, over k = 1..N;
    they are all the SBL routines read.
    """

    n: int
    m: int
    N: int
    zz: np.ndarray
    xz: np.ndarray
    y_sq_rows: np.ndarray

    @property
    def N_y(self):
        return self.N * self.n

    @property
    def N_w(self):
        return self.n * (self.n + self.m)


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
    """Inner-loop controls."""

    max_iter: int = 200
    tol: float = 1e-6
    prune_tol: float = 1e-12


def regression_from_moments(es, n, m):
    """Regression carrying the exact smoothed second moments.

    Plugging smoothed means into the design ignores the state uncertainty
    and attenuates the fit; the expected complete-data quadratic instead
    has the sufficient statistics S_zz, S_xz and diag(S_xx), so posterior,
    evidence and residuals all equal their exact conditional expectations.
    """
    return RegressionData(n=n, m=m, N=es.N, zz=es.S_zz.copy(),
                          xz=es.S_xz.copy(), y_sq_rows=np.diag(es.S_xx).copy())


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


def moment_rss(y_sq, xz, zz, L):
    """Residual sum of squares of the coefficients L (rows of [A B]) from
    the moments: sum y^2 - 2 <L, xz> + <L zz, L>, clipped at 0."""
    rss = y_sq - 2.0 * float(np.sum(L * xz)) + float(np.sum((L @ zz) * L))
    return max(rss, 0.0)


def _estep(reg, gamma, sigma2):
    """Posterior and log evidence of all n rows of [A B] at sigma2 > 0.

    Row i with prior variances g_i has, on its active entries, the
    posterior mean mu_i = H_i^{-1} xz[i] and covariance sigma2 H_i^{-1},
    where H_i = zz + sigma2 diag(1/g_i).  Each row is compacted to its
    c_i active entries, kept in their order, and padded to the batch's
    largest count k with a unit diagonal and no coupling, so every H_i is
    k x k and positive definite and all rows share one batched Cholesky
    factorization H_i = L_i L_i'.  The pad is trailing, so the leading
    c_i x c_i block of L_i is the factor of the active block alone; its
    triangular inverse R_i (H_i^{-1} = R_i' R_i on that block) is taken
    row by row, and R_i is zero on the pad.

    Returns the posterior means and variances in row layout (row i of
    [A B] along the first axis, zero on pruned entries), the log evidence
    -1/2 (N_y log 2 pi + sum log det H_i + sum log g_act
    + (N_y - n_act) log sigma2 + (sum y^2 - sum xz[i] . mu_i) / sigma2),
    and the compact blocks: ``order`` (n x k, the column of [A B] at each
    compact position; the pad holds pruned columns) and R (n x k x k).
    """
    n, d = reg.n, reg.n + reg.m
    g = gamma.reshape((d, n)).T
    counts = (g > 0).sum(axis=1)
    k = int(counts.max())
    # active columns first, in their order; pruned ones fill the pad
    order = np.argsort(g <= 0, axis=1, kind="stable")[:, :k]
    live = np.arange(k) < counts[:, None]
    gc = np.take_along_axis(g, order, axis=1)
    # flat indices: numpy takes and puts these faster than index pairs
    H = np.where(live[:, :, None] & live[:, None, :],
                 reg.zz.ravel()[order[:, :, None] * d + order[:, None, :]], 0.0)
    diag = np.arange(k)
    H[:, diag, diag] += np.where(live, sigma2 / np.where(live, gc, 1.0), 1.0)
    chol = np.linalg.cholesky(H)
    R = np.zeros_like(chol)
    for i in np.flatnonzero(counts):   # LAPACK rejects an empty block
        c = counts[i]
        R[i, :c, :c], info = dtrtri(chol[i, :c, :c], lower=1)
        if info:
            raise np.linalg.LinAlgError(f"dtrtri failed on row {i} (info {info})")
    b = np.take_along_axis(reg.xz, order, axis=1)
    mu_c = (np.swapaxes(R, 1, 2) @ (R @ b[:, :, None]))[:, :, 0]
    logdet = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum()
              + np.log(gc[live]).sum())
    quad = (float(reg.y_sq_rows.sum()) - float(np.sum(b * mu_c))) / sigma2
    evidence = -0.5 * (reg.N_y * np.log(2.0 * np.pi) + logdet
                       + (reg.N_y - counts.sum()) * np.log(sigma2) + quad)
    at = np.arange(n)[:, None] * d + order
    mu, var = np.zeros((n, d)), np.zeros((n, d))
    mu.ravel()[at] = mu_c
    var.ravel()[at] = sigma2 * (R**2).sum(axis=1)
    return mu, var, float(evidence), order, R


def posterior(reg, gamma, sigma2):
    """Posterior mean and covariance of the weights at fixed (gamma, sigma2).

    For sigma2 > 0 this is the ridge posterior of each row, assembled from
    the compact blocks of ``_estep``: sigma2 R_i' R_i is placed at the
    active entries of row i.  At sigma2 = 0 it is the noiseless limit:
    with K = G^{1/2} zz G^{1/2} on row i, mu = G^{1/2} K^+ G^{1/2} xz[i]
    and Sigma = G^{1/2} (I - K^+ K) G^{1/2}, so directions the data do not
    determine keep their prior variance.  Pruned coordinates get zero mean
    and zero covariance rows/columns; an empty active set returns an
    all-zero posterior.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    if np.any(gamma < 0):
        raise ValueError("gamma must be nonnegative")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    n, d = reg.n, reg.n + reg.m
    rows = np.arange(n)
    if sigma2 > 0:
        mu, _, _, order, R = _estep(reg, gamma, sigma2)
        cov = np.zeros((n, d, d))
        cov[rows[:, None, None], order[:, :, None], order[:, None, :]] = \
            sigma2 * (np.swapaxes(R, 1, 2) @ R)
    else:
        sq = np.sqrt(gamma.reshape((d, n)).T)
        K = sq[:, :, None] * reg.zz * sq[:, None, :]
        # K squares the design's singular values, and forming it leaves
        # rounding of order eps |K| in its null space: cut well above that
        K_pinv = np.linalg.pinv(K, rtol=1e-10, hermitian=True)
        mu = sq * (K_pinv @ (sq * reg.xz)[:, :, None])[:, :, 0]
        cov = sq[:, :, None] * (np.eye(d) - K_pinv @ K) * sq[:, None, :]
    Sigma = np.zeros((reg.N_w, reg.N_w))
    # w index i + n j holds row i, column j of [A B]: place row i's block
    Sigma.reshape((d, n, d, n))[:, rows, :, rows] = cov
    return mu.T.ravel(), Sigma


def marginal_loglik(reg, gamma, sigma2):
    """Log evidence: the Gaussian marginal of y with covariance
    sigma^2 I + Phi Gamma Phi', evaluated from the moments without ever
    forming the dense observation-space matrix."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _estep(reg, np.asarray(gamma, dtype=float), sigma2)[2]


def initial_sbl_state(reg, mask, sigma2=None, gamma0=1.0):
    """Unit prior variances on free coordinates; sigma2 defaults to
    0.1 times the mean squared target."""
    gamma = np.where(mask.free, float(gamma0), 0.0)
    if sigma2 is None:
        sigma2 = 0.1 * float(reg.y_sq_rows.sum()) / reg.N_y
        if sigma2 <= 0:
            sigma2 = 1e-6
    return SBLState(gamma=gamma, sigma2=float(sigma2))


def sbl_em(reg, mask, init=None, opts=None):
    """Evidence maximization with pruning and identifiability masking.

    Each iteration prunes hyperparameters below ``prune_tol``, computes
    the posterior of all rows at the current (gamma, sigma2), then applies
    the updates gamma_i <- Sigma_ii + mu_i^2 and

        sigma2 <- (rss(mu) + sigma2_old tr(I - Sigma Gamma^{-1})) / N_y

    with the residual sum of squares taken from the moments
    (``moment_rss``) and sigma2 floored at 1e-300.  Masked coordinates stay
    at zero throughout; the loop stops when the relative change of gamma
    drops below ``tol`` or after ``max_iter`` iterations.  An evidence
    decrease beyond 1e-8 is recorded in the returned state's ``warnings``
    and iteration continues.
    """
    opts = opts or SBLOptions()
    if init is None:
        init = initial_sbl_state(reg, mask)
    gamma = np.asarray(init.gamma, dtype=float).copy()
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    gamma[~mask.free] = 0.0
    sigma2 = max(float(init.sigma2), 1e-300)

    col_energy = np.diag(reg.zz)
    dead = col_energy < _DEAD_COLUMN_TOL * max(col_energy.max(), 1e-300)
    if dead.any():
        dead_coords = (np.nonzero(dead)[0][:, None] * reg.n
                       + np.arange(reg.n)[None, :]).ravel()
        gamma[dead_coords] = 0.0

    evidence_path = []
    n_active_path = []
    warn_log = []
    y_sq = float(reg.y_sq_rows.sum())

    iteration = 0
    for iteration in range(1, opts.max_iter + 1):
        gamma[gamma < opts.prune_tol] = 0.0
        active = gamma > 0
        n_active = int(active.sum())
        n_active_path.append(n_active)

        mu, var, evidence, _, _ = _estep(reg, gamma, sigma2)
        evidence_path.append(evidence)
        if len(evidence_path) >= 2 and evidence < evidence_path[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence_path[-2] - evidence:.3e}")

        mu_w, var_w = mu.T.ravel(), var.T.ravel()
        gamma_new = np.zeros_like(gamma)
        gamma_new[active] = var_w[active] + mu_w[active]**2

        tr_sg = float((var_w[active] / gamma[active]).sum())
        rss = moment_rss(y_sq, reg.xz, reg.zz, mu)
        sigma2 = max((rss + sigma2 * (n_active - tr_sg)) / reg.N_y, 1e-300)

        delta = np.linalg.norm(gamma_new - gamma)
        scale = max(np.linalg.norm(gamma), 1e-300)
        gamma = gamma_new
        if n_active == 0 or delta <= opts.tol * scale:
            break

    gamma[gamma < opts.prune_tol] = 0.0
    mu, Sigma = posterior(reg, gamma, sigma2)
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=mu, Sigma_w=Sigma,
                    active=gamma > 0, iteration=iteration,
                    evidence=evidence_path, n_active_path=n_active_path,
                    warnings=warn_log)
