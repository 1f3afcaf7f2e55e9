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
and no coupling.  One kernel (``_kernel``) then factors each row and
takes the posterior covariance from the triangular inverse of its
Cholesky factor, both computed in one buffer per row; ``posterior``,
``marginal_loglik`` and the "ml" fit call it on a fresh layout.

The inner loop (``sbl_em``) keeps its state in the compact row layout
for the whole call: gamma, the means and the variances never return to
w-order inside the loop, and sigma^2's residual comes from the means and
the gathered xz rows alone.  An entry pruned during the loop is masked in
place, as the pad is, and the layout is compacted to the surviving entries
only when the widest row loses one, so that the batch narrows.  The result
is mapped back to w-order once, after the loop.

Network identifiability enters through masks that pin selected entries of
(A, B) to zero: either a diagonal top block of B (each input perturbs one
output), or the block zero pattern that guarantees a diagonal
input-to-output transfer matrix with hidden-state routing.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

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


# The identifiability regimes that ``identifiability_mask`` builds.
MASK_MODES = ("diag_b", "p_diag")


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
    """Free/pinned pattern over the entries of w = [vec(A); vec(B)]
    (``unpack_w(free, n, m)`` gives the patterns of A and B)."""

    free: np.ndarray


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


@dataclass(frozen=True)
class SBLOptions:
    """Inner-loop controls: at least one iteration, nonnegative tolerances
    (a NaN is rejected)."""

    max_iter: int = 60
    tol: float = 1e-6
    prune_tol: float = 1e-5

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

    Both regimes need a square input map, m = p.  "diag_b" frees all of A
    and only the (i, i) entries of B's top p x p block.  "p_diag" applies
    the block zero pattern (with hidden dimension h = n - p and
    p11 = p - p22):

        A12 = [[c^, 0stat],  A22 = [[a^, x],   B1 = [[0, 0],   B2 = [[b^, 0],
               [0,  x   ]]          [0,  x]]         [0, F]]         [0,  0]]

    where a^, b^, c^ are diagonal p11 x p11 blocks (only their diagonals
    free), F is a free p22 x p22 block, and x marks free blocks.  A11 and
    A21 stay free.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    if m != p:
        raise IdentifiabilityError(
            f"{mode} requires m = p (one independent input per output)")
    if n < p:
        raise ValueError("need n >= p")
    freeA = np.ones((n, n), dtype=bool)
    freeB = np.zeros((n, m), dtype=bool)
    if mode == "diag_b":
        freeB[np.arange(p), np.arange(p)] = True
    else:
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
    return Mask(free=free)


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
    n, d = g.shape
    live = g > 0
    width = live.sum(axis=1)
    k = int(width.max())
    # active columns first, in their order; pruned ones fill the pad
    order = np.argsort(~live, axis=1, kind="stable")[:, :k]
    # the pad reads an appended zero row and column of zz, through flat
    # indices: numpy takes these faster than index pairs
    at = np.where(np.arange(k) < width[:, None], order, d)
    zz = np.zeros((d + 1, d + 1))
    zz[:d, :d] = reg.zz
    rows = np.arange(n)[:, None]
    lay = _Layout(order=order,
                  zz=zz.ravel()[at[:, :, None] * (d + 1) + at[:, None, :]],
                  b=reg.xz[rows, order])
    return lay, g[rows, order]


def _scatter(compact, order, d):
    """Row layout (n x d) of compact values, zero off the layout."""
    out = np.zeros((len(order), d))
    out[np.arange(len(order))[:, None], order] = compact
    return out


def _kernel(reg, lay, gc, sigma2):
    """Posterior and log evidence of all n rows of [A B] at sigma2 > 0.

    Row i with compact prior variances gc_i (zero where pruned) has, on
    its active entries, the posterior mean mu_i = H_i^{-1} b_i and
    covariance sigma2 H_i^{-1}, where H_i = zz_i + D_i and D_i is
    diagonal: sigma2 / gc_i on active entries, 1 on pruned entries and
    the pad, which have no coupling, so every H_i is k x k and positive
    definite.  Each row is factored, H_i = L_i L_i', and L_i inverted in
    one k x k buffer: the C-ordered H_i, seen transposed, is a
    Fortran-ordered matrix that ``dpotrf`` and ``dtrtri`` take without a
    copy, as the upper factor L_i' and then its inverse.  A pruned entry's
    row and column of L_i are the identity's, and so are its inverse's;
    zeroing their diagonal leaves R_i = L_i^{-1} with H_i^{-1} = R_i' R_i
    on the active entries and a zero row and column at each pruned entry,
    so the means and variances there are exactly zero.

    With G_i = sigma2 D_i^{-1} (gc_i on active entries, sigma2 elsewhere)
    and diag(R_i) = 1 / diag(L_i), the sum over rows of log det H_i plus
    the sum of log g over all n_act active entries is
    sum_i (sum log G_i - 2 sum log diag(R_i)) - (n k - n_act) log sigma2,
    so the log evidence is -1/2 (N_y log 2 pi + (N_y - n k) log sigma2
    + sum_i (sum log G_i - 2 sum log diag(R_i)) + (sum y^2 - b . mu)
    / sigma2), with b . mu the sum over rows of b_i . mu_i.

    Returns the compact means and variances (n x k, zero where pruned),
    the log evidence, R (n x k x k), b . mu and D (n x k).  ``lay`` is
    left unchanged.
    """
    n, k = gc.shape
    live = gc > 0
    G = np.where(live, gc, sigma2)
    D = sigma2 / G
    R = lay.zz.copy()
    diag = R.reshape(n, k * k)[:, ::k + 1]   # a view: R is C-contiguous
    diag += D
    Rt = np.swapaxes(R, 1, 2)   # Rt[i] is Fortran-ordered
    for i in range(n if k else 0):   # LAPACK rejects an empty matrix
        Ri = Rt[i]
        # upper factor (zeroing the other triangle), then its inverse
        info = dpotrf(Ri, 0, 1, 1)[1] or dtrtri(Ri, 0, 0, 1)[1]
        if info:
            raise np.linalg.LinAlgError(
                f"SBL row {i} is not positive definite (info {info})")
    logdet = np.log(G).sum() - 2.0 * np.log(diag).sum()
    diag *= live
    mu = (Rt @ (R @ lay.b[:, :, None]))[:, :, 0]
    bmu = float(np.vdot(lay.b, mu))
    evidence = -0.5 * (reg.N_y * math.log(2.0 * math.pi)
                       + (reg.N_y - n * k) * math.log(sigma2) + logdet
                       + (float(reg.y_sq_rows.sum()) - bmu) / sigma2)
    return (mu, sigma2 * np.einsum("nij,nij->nj", R, R), float(evidence), R,
            bmu, D)


def _prune(lay, gc, keep):
    """Drop the entries of a resident layout outside ``keep`` (n x k).

    Each dropped entry's variance is zeroed and its row and column of
    ``lay.zz`` masked in place, as the pad is.  When the widest row loses
    an entry, each row's kept entries move to the front, in their order,
    and the batch is cut to the new width: on every kept entry the layout
    then equals a fresh ``_layout`` of the same variances.  Returns the
    layout and the compact variances.
    """
    rows, cols = np.nonzero((gc > 0) & ~keep)
    gc[rows, cols] = 0.0
    lay.zz[rows, cols, :] = 0.0
    lay.zz[rows, :, cols] = 0.0
    if keep.all(axis=1).any():   # the widest row keeps every entry
        return lay, gc
    n, width = gc.shape
    k = int(np.count_nonzero(keep, axis=1).max())
    sel = np.argsort(~keep, axis=1, kind="stable")[:, :k]
    # flat indices, as in ``_layout``
    at = (np.arange(n)[:, None, None] * width + sel[:, :, None]) * width
    lay = _Layout(order=np.take_along_axis(lay.order, sel, axis=1),
                  zz=lay.zz.ravel()[at + sel[:, None, :]],
                  b=np.take_along_axis(lay.b, sel, axis=1))
    return lay, np.take_along_axis(gc, sel, axis=1)


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
    mu, var, evidence, R, _, _ = _kernel(reg, lay, gc, sigma2)
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
    the compact blocks of ``_estep``: sigma2 R_i' R_i goes straight to
    row i's entries of the layout (zero on its pad).  At sigma2 = 0 it is
    the noiseless limit: with K = G^{1/2} zz G^{1/2} on row i,
    mu = G^{1/2} K^+ G^{1/2} xz[i] and Sigma = G^{1/2} (I - K^+ K) G^{1/2},
    so directions the data do not determine keep their prior variance.
    Pruned coordinates get zero mean and zero covariance rows/columns; an
    empty active set returns an all-zero posterior.
    """
    gamma = _checked_gamma(reg, gamma)
    if not sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative, not NaN")
    n, d = reg.n, reg.n + reg.m
    if sigma2 > 0:
        mu, _, _, order, R = _estep(reg, gamma, sigma2)
        cov = sigma2 * (np.swapaxes(R, 1, 2) @ R)
    else:
        sq = np.sqrt(gamma.reshape((d, n)).T)
        K = sq[:, :, None] * reg.zz * sq[:, None, :]
        # K squares the design's singular values, and forming it leaves
        # rounding of order eps |K| in its null space: cut well above that
        K_pinv = np.linalg.pinv(K, rtol=1e-10, hermitian=True)
        mu = sq * (K_pinv @ (sq * reg.xz)[:, :, None])[:, :, 0]
        cov = sq[:, :, None] * (np.eye(d) - K_pinv @ K) * sq[:, None, :]
        order = np.broadcast_to(np.arange(d), (n, d))
    Sigma = np.zeros((reg.N_w, reg.N_w))
    # w index i + n j holds row i, column j of [A B]: row i's block of
    # cov goes to the rows and columns i + n order_i
    rows = np.arange(n)[:, None, None]
    Sigma.reshape((d, n, d, n))[order[:, :, None], rows,
                                order[:, None, :], rows] = cov
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
    gamma, the means and the variances are (n x k) arrays, exactly zero on
    pruned entries and on the pad, so gamma_i <- Sigma_ii + mu_i^2 needs no
    mask.  One comparison of gamma with the prune threshold gives the
    active set and its size.  An entry pruned later is masked in place
    (unit diagonal, no coupling, a zero column of the inverse factor), so
    iterations reuse the gathered blocks; when the widest row loses one,
    the resident layout is compacted to the surviving entries and the
    batch width k shrinks (``_prune``).  The kernel returns b . mu for the
    residual and its added diagonal D, sigma2 / gamma on active entries,
    so that sigma2 tr(Sigma Gamma^{-1}) and sigma2 sum mu_i^2 / gamma_i
    are the dot products of D with the variances and the squared means.
    After the loop, gamma is mapped back to w-order and ``posterior``
    gives the returned mean and covariance.
    """
    opts = opts or SBLOptions()
    if init is None:
        init = initial_sbl_state(reg, mask)
    n, d = reg.n, reg.n + reg.m
    gamma = _checked_gamma(reg, init.gamma).reshape((d, n)).T
    if not init.sigma2 >= 0:
        raise ValueError("sigma2 must be nonnegative, not NaN")
    sigma2 = max(float(init.sigma2), 1e-300)

    # row view (row i of [A B]): the free, live-column entries at or above
    # prune_tol start the loop
    col_energy = np.diag(reg.zz)
    live = col_energy >= _DEAD_COLUMN_TOL * max(col_energy.max(), 1e-300)
    lay, gc = _layout(reg, np.where(mask.free.reshape((d, n)).T & live
                                    & (gamma >= opts.prune_tol), gamma, 0.0))

    evidence_path = []
    n_active_path = []
    warn_log = []
    y_sq = float(reg.y_sq_rows.sum())
    # gc >= floor is gc > 0 and gc >= prune_tol in one comparison
    floor = max(opts.prune_tol, np.nextafter(0.0, 1.0))
    n_active = np.count_nonzero(gc)
    iteration = 0
    for iteration in range(1, opts.max_iter + 1):
        active = gc >= floor
        n_kept = np.count_nonzero(active)
        if n_kept < n_active:
            lay, gc = _prune(lay, gc, active)
        n_active = n_kept
        n_active_path.append(n_active)

        mu, var, evidence, _, bmu, D = _kernel(reg, lay, gc, sigma2)
        evidence_path.append(evidence)
        if len(evidence_path) >= 2 and evidence < evidence_path[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence_path[-2] - evidence:.3e}")

        mu2 = mu * mu
        gamma_new = var + mu2
        # mu' zz mu from H mu = b (see the docstring); D = sigma2 / gamma
        # where mu and var can be nonzero
        rss = max(y_sq - bmu - float(np.vdot(mu2, D)), 0.0)
        sigma2 = max((rss + sigma2 * n_active - float(np.vdot(var, D)))
                     / reg.N_y, 1e-300)

        step = gamma_new - gc
        delta = math.sqrt(np.vdot(step, step))
        scale = max(math.sqrt(np.vdot(gc, gc)), 1e-300)
        gc = gamma_new
        if n_active == 0 or delta <= opts.tol * scale:
            break

    gc = np.where(gc >= opts.prune_tol, gc, 0.0)
    gamma = _scatter(gc, lay.order, d).T.ravel()
    mu, Sigma = posterior(reg, gamma, sigma2)
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=mu, Sigma_w=Sigma,
                    active=gamma > 0, iteration=iteration,
                    evidence=evidence_path, n_active_path=n_active_path,
                    warnings=warn_log)
