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
solved together as one batch of positive definite systems.  A layout
(``_layout``) gathers each row's active entries, in their order, and pads
the row to the batch's largest active count; the pad has a unit diagonal
and no coupling.  One kernel (``_kernel``) then factors the batch and
takes the posterior covariance from the triangular inverse of each row's
Cholesky factor, computed in the factor's own buffer; ``posterior``,
``marginal_loglik`` and the "ml" fit call it on a fresh layout.

The inner loop (``sbl_em``) keeps its state in the compact row layout
for the whole call: gamma, the means and the variances never return to
w-order inside the loop, and sigma^2's residual comes from the means and
the gathered xz rows alone.  An entry pruned during the loop is masked in
place, as the pad is, and the layout is rebuilt only when the widest row
loses an entry, so that the batch narrows.  The result is mapped back to
w-order once, after the loop.

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
    "regression_from_moments",
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
    """Inner-loop controls: at least one iteration, nonnegative tolerances
    (a NaN is rejected)."""

    max_iter: int = 200
    tol: float = 1e-6
    prune_tol: float = 1e-12

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        for name in ("tol", "prune_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, "
                                 f"got {getattr(self, name)}")


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


@dataclass
class _Layout:
    """Rows of [A B] compacted to their active entries.

    Row i keeps the columns that were active when the layout was built,
    in their order, then a pad of pruned columns up to the batch width k:
    ``order`` (n x k) holds the column of [A B] at each compact position,
    ``zz`` (n x k x k) the gathered zz block of each row with the pad's
    rows and columns zero, and ``b`` (n x k) the gathered xz rows.  An
    entry pruned after the build is masked in place: its row and column
    of ``zz`` are zeroed, so it is treated exactly as the pad.
    """

    order: np.ndarray
    zz: np.ndarray
    b: np.ndarray


def _layout(reg, g):
    """Layout of the nonnegative prior variances g (n x d, row i of [A B]
    along the first axis) and the compact variances (n x k, zero on the
    pad)."""
    d = g.shape[1]
    width = (g > 0).sum(axis=1)
    k = int(width.max())
    # active columns first, in their order; pruned ones fill the pad
    order = np.argsort(g <= 0, axis=1, kind="stable")[:, :k]
    live = np.arange(k) < width[:, None]
    # flat indices: numpy takes and puts these faster than index pairs
    zz = np.where(live[:, :, None] & live[:, None, :],
                  reg.zz.ravel()[order[:, :, None] * d + order[:, None, :]], 0.0)
    lay = _Layout(order=order, zz=zz,
                  b=np.take_along_axis(reg.xz, order, axis=1))
    return lay, np.take_along_axis(g, order, axis=1)


def _scatter(compact, order, d):
    """Row layout (n x d) of compact values, zero off the layout."""
    out = np.zeros((len(order), d))
    np.put_along_axis(out, order, compact, axis=1)
    return out


def _kernel(reg, lay, gc, sigma2):
    """Posterior and log evidence of all n rows of [A B] at sigma2 > 0.

    Row i with compact prior variances gc_i (zero where pruned) has, on
    its active entries, the posterior mean mu_i = H_i^{-1} b_i and
    covariance sigma2 H_i^{-1}, where H_i = zz_i + sigma2 diag(1/gc_i).
    Pruned entries and the pad get a unit diagonal and no coupling, so
    every H_i is k x k and positive definite and all rows share one
    batched Cholesky factorization H_i = L_i L_i'.  Each L_i is inverted
    over the whole width k in its own buffer: the C-ordered lower factor,
    transposed, is a Fortran-ordered upper one, which ``dtrtri`` takes
    without a copy.  A pruned entry's row and column of L_i are the
    identity's, and so are its inverse's; zeroing their diagonal leaves
    R_i = L_i^{-1} with H_i^{-1} = R_i' R_i on the active entries and a
    zero row and column at each pruned entry.

    Returns the compact means and variances (n x k, zero where pruned),
    the log evidence -1/2 (N_y log 2 pi + sum log det H_i + sum log g_act
    + (N_y - n_act) log sigma2 + (sum y^2 - sum b_i . mu_i) / sigma2)
    and R (n x k x k).  ``lay`` is left unchanged.
    """
    live = gc > 0
    n, k = gc.shape
    H = lay.zz.copy()
    H.reshape(n, k * k)[:, ::k + 1] += np.where(
        live, sigma2 / np.where(live, gc, 1.0), 1.0)
    R = np.linalg.cholesky(H)
    diag = R.reshape(n, k * k)[:, ::k + 1]   # a view: R is C-contiguous
    logdet = 2.0 * np.log(diag).sum() + np.log(gc[live]).sum()
    for i in range(n if k else 0):   # LAPACK rejects an empty matrix
        info = dtrtri(R[i].T, lower=0, overwrite_c=1)[1]
        if info:
            raise np.linalg.LinAlgError(f"dtrtri failed on row {i} (info {info})")
    diag *= live
    mu = (np.swapaxes(R, 1, 2) @ (R @ lay.b[:, :, None]))[:, :, 0]
    quad = (float(reg.y_sq_rows.sum()) - float(np.sum(lay.b * mu))) / sigma2
    evidence = -0.5 * (reg.N_y * np.log(2.0 * np.pi) + logdet
                       + (reg.N_y - live.sum()) * np.log(sigma2) + quad)
    return mu, sigma2 * np.einsum("nij,nij->nj", R, R), float(evidence), R


def _estep(reg, gamma, sigma2):
    """Posterior and log evidence of all n rows of [A B] at sigma2 > 0,
    from a fresh layout of gamma (see ``_kernel``).

    Returns the posterior means and variances in row layout (row i of
    [A B] along the first axis, zero on pruned entries), the log
    evidence, and the compact blocks: ``order`` (n x k, the column of
    [A B] at each compact position; the pad holds pruned columns) and R.
    """
    d = reg.n + reg.m
    lay, gc = _layout(reg, gamma.reshape((d, reg.n)).T)
    mu, var, evidence, R = _kernel(reg, lay, gc, sigma2)
    return (_scatter(mu, lay.order, d), _scatter(var, lay.order, d),
            evidence, lay.order, R)


def _checked_gamma(reg, gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    if not np.all(gamma >= 0):   # NaN fails this too
        raise ValueError("gamma must be nonnegative, not NaN")
    return gamma


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
    gamma = _checked_gamma(reg, gamma)
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative, not NaN")
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
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive, not NaN")
    return _estep(reg, _checked_gamma(reg, gamma), sigma2)[2]


def initial_sbl_state(reg, mask, sigma2=None):
    """Unit prior variances on free coordinates; sigma2 defaults to
    0.1 times the mean squared target."""
    gamma = np.where(mask.free, 1.0, 0.0)
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

    with the residual sum of squares rss = sum y^2 - 2 b . mu + mu' zz mu,
    clipped at 0, and sigma2 floored at 1e-300.  Since H mu = b on each
    row's active entries, mu' zz mu = b . mu - sigma2_old sum mu_i^2 /
    gamma_i, and rss = sum y^2 - b . mu - sigma2_old sum mu_i^2 / gamma_i
    needs no product with zz.  Masked coordinates stay at zero
    throughout; the loop stops when the relative change of gamma drops
    below ``tol`` or after ``max_iter`` iterations.  An evidence decrease
    beyond 1e-8 is recorded in the returned state's ``warnings`` and
    iteration continues.

    The loop's state lives in the compact layout of its first iteration:
    gamma, the means and the variances are (n x k) arrays, and an entry
    pruned later is masked in place (unit diagonal, no coupling, a zero
    column of the inverse factor), so iterations reuse the gathered
    blocks.  The layout is rebuilt from the surviving entries only when
    the widest row loses one and the batch width k can shrink.  After the
    loop, gamma is mapped back to w-order and ``posterior`` gives the
    returned mean and covariance.
    """
    opts = opts or SBLOptions()
    if init is None:
        init = initial_sbl_state(reg, mask)
    gamma = _checked_gamma(reg, init.gamma).copy()
    gamma[~mask.free] = 0.0
    if not init.sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative, not NaN")
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
    n, d = reg.n, reg.n + reg.m

    gamma[gamma < opts.prune_tol] = 0.0
    lay, gc = _layout(reg, gamma.reshape((d, n)).T)
    iteration = 0
    for iteration in range(1, opts.max_iter + 1):
        low = (gc > 0) & (gc < opts.prune_tol)
        if low.any():
            gc[low] = 0.0
            if (gc > 0).sum(axis=1).max() < gc.shape[1]:
                lay, gc = _layout(reg, _scatter(gc, lay.order, d))
            else:
                rows, cols = np.nonzero(low)
                lay.zz[rows, cols, :] = 0.0
                lay.zz[rows, :, cols] = 0.0
        active = gc > 0
        n_active = int(active.sum())
        n_active_path.append(n_active)

        mu, var, evidence, _ = _kernel(reg, lay, gc, sigma2)
        evidence_path.append(evidence)
        if len(evidence_path) >= 2 and evidence < evidence_path[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence_path[-2] - evidence:.3e}")

        gamma_new = np.where(active, var + mu**2, 0.0)
        tr_sg = float((var[active] / gc[active]).sum())
        # mu' zz mu from H mu = b (see the docstring)
        rss = max(y_sq - float(np.sum(lay.b * mu))
                  - sigma2 * float((mu[active]**2 / gc[active]).sum()), 0.0)
        sigma2 = max((rss + sigma2 * (n_active - tr_sg)) / reg.N_y, 1e-300)

        delta = np.linalg.norm(gamma_new - gc)
        scale = max(np.linalg.norm(gc), 1e-300)
        gc = gamma_new
        if n_active == 0 or delta <= opts.tol * scale:
            break

    gamma = _scatter(gc, lay.order, d).T.ravel()
    gamma[gamma < opts.prune_tol] = 0.0
    mu, Sigma = posterior(reg, gamma, sigma2)
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=mu, Sigma_w=Sigma,
                    active=gamma > 0, iteration=iteration,
                    evidence=evidence_path, n_active_path=n_active_path,
                    warnings=warn_log)
