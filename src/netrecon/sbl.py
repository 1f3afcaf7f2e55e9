"""Sparse Bayesian learning for the state-regression form of the M-step.

The complete-data likelihood is rewritten as a linear regression
y = Phi w + noise with w = [vec(A); vec(B)], where y stacks the smoothed
states x_N..x_1 and each block of Phi is [x_{k-1}' (x) I, u_{k-1}' (x) I].
A zero-mean Gaussian prior with per-weight variances gamma is placed on w;
evidence maximization (an inner fixed-point loop: MacKay's update of
gamma, the EM update of sigma^2) drives most variances to zero, pruning
the corresponding weights.

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
Cholesky factor, both computed in one buffer per row.  ``posterior``
keeps the covariance as those row blocks (``Posterior``) and assembles
the dense N_w x N_w matrix only when it is read.

The inner loop (``sbl_em``) keeps gamma, the means and the variances in
the compact row layout and maps them back to w-order once, after the
loop.  Every iteration that prunes lays out the kept entries afresh, as
``posterior`` and ``marginal_loglik`` do on each call, so no layout is
written once built.

Network identifiability enters through masks that pin selected entries of
(A, B) to zero: either a diagonal top block of B (each input perturbs one
output), or the block zero pattern that guarantees a diagonal
input-to-output transfer matrix with hidden-state routing.
"""

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "IdentifiabilityError",
    "RegressionData",
    "SBLState",
    "Posterior",
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
_EPS = np.finfo(float).eps

_FLAPACK = "scipy.linalg._flapack"


def _load_lapack(root=None):
    """SciPy's compiled ``dpotrf`` and ``dtrtri``, without the package inits
    of ``scipy`` and ``scipy.linalg``: the latter imports much of numpy's
    namespace (f2py, testing, ma) and would be most of the cost of
    importing netrecon.

    The extension ``_flapack`` is loaded straight from the ``linalg``
    directory under ``root`` (by default the installed SciPy's, which
    ``importlib.util.find_spec`` locates without running its
    ``__init__``) under its own name, so a later ``import scipy.linalg``
    reuses it, as this reuses one already imported.  The import system
    sets a submodule as an attribute of its package only when it loads
    the submodule itself, so a ``scipy.linalg`` imported after netrecon
    has no ``_flapack`` attribute; ``from scipy.linalg import _flapack``
    (as SciPy's own ``lapack.py`` reads it) and ``scipy.linalg.lapack``
    give these same routines.  Nothing of SciPy's
    own set-up runs first, so the extension must find its BLAS/LAPACK
    library by itself, as the manylinux and macOS wheels let it through
    its RPATH.  Where SciPy is not found, the file is missing or its load
    raises ImportError or OSError, the routines come from the public
    ``scipy.linalg.lapack``.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        if root is None:
            found = importlib.util.find_spec("scipy")
            if found is not None and found.submodule_search_locations:
                root = found.submodule_search_locations[0]
        try:
            if root is None:
                raise ImportError("SciPy's directory not found")
            stem = os.path.join(root, "linalg", "_flapack")
            path = next(stem + s for s in importlib.machinery.EXTENSION_SUFFIXES
                        if os.path.isfile(stem + s))
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (StopIteration, ImportError, OSError):
            from scipy.linalg.lapack import dpotrf, dtrtri
            return dpotrf, dtrtri
        sys.modules[_FLAPACK] = module
    return module.dpotrf, module.dtrtri


dpotrf, dtrtri = _load_lapack()


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


@dataclass(eq=False)
class Posterior:
    """Posterior of the weights at fixed (gamma, sigma2), by rows of [A B].

    ``mu_w`` is the mean in w-order.  Row i's covariance is a k x k block
    over the columns ``order[i]`` of [A B] (zero on pruned entries and on
    the pad), and rows are uncorrelated.  ``blocks`` holds the inverse
    Cholesky factors R_i when sigma2 > 0, whose block is sigma2 R_i' R_i,
    and the blocks themselves at sigma2 = 0.  The dense N_w x N_w
    ``Sigma_w`` is assembled on first read and kept; ``mu, Sigma = post``
    unpacks the mean and that matrix.
    """

    mu_w: np.ndarray
    order: np.ndarray
    blocks: np.ndarray
    sigma2: float

    @functools.cached_property
    def Sigma_w(self):
        cov = self.blocks
        if self.sigma2 > 0:
            cov = self.sigma2 * (np.swapaxes(cov, 1, 2) @ cov)
        n, d = len(self.order), self.mu_w.size // len(self.order)
        Sigma = np.zeros((self.mu_w.size, self.mu_w.size))
        # w index i + n j holds row i, column j of [A B]: row i's block goes
        # to the rows and columns i + n order_i
        rows = np.arange(n)[:, None, None]
        Sigma.reshape((d, n, d, n))[self.order[:, :, None], rows,
                                    self.order[:, None, :], rows] = cov
        return Sigma

    def __iter__(self):
        return iter((self.mu_w, self.Sigma_w))


@dataclass
class SBLState:
    """Hyperparameters and posterior of the weight vector.

    gamma[i] = 0 exactly when coordinate i is masked or pruned, in which
    case mu_w[i] = 0 and the corresponding row/column of Sigma_w is zero.
    ``posterior`` holds the mean and the per-row covariance blocks; the
    read-only ``Sigma_w`` is its dense covariance, built on first read, or
    None when the state has no posterior.
    """

    gamma: np.ndarray
    sigma2: float
    mu_w: np.ndarray | None = None
    posterior: Posterior | None = None
    active: np.ndarray | None = None
    iteration: int = 0
    evidence: list = field(default_factory=list)
    n_active_path: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def Sigma_w(self):
        return None if self.posterior is None else self.posterior.Sigma_w


def _check_number_fields(obj):
    """ValueError unless each ``int`` field of dataclass ``obj`` holds an
    integer that ``operator.index`` accepts (a numpy integer, not 2.5), and
    each ``float`` field a real number (an int or a numpy float, not None
    or a string); an ``int | None`` field may hold None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is int or (f.type == int | None and value is not None):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{f.name} must be an integer, "
                                 f"got {value!r}") from None
        elif f.type is float and not isinstance(value, numbers.Real):
            raise ValueError(f"{f.name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SBLOptions:
    """Inner-loop controls of :func:`sbl_em`: an integer count of at least
    one iteration, nonnegative numbers as tolerances (a NaN or None is
    rejected).  ``reconstruct`` always fits at these defaults."""

    max_iter: int = 60
    tol: float = 1e-6
    prune_tol: float = 1e-5

    def __post_init__(self):
        _check_number_fields(self)
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        for name in ("tol", "prune_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, "
                                 f"got {getattr(self, name)}")


def regression_from_moments(es):
    """Regression carrying the exact smoothed second moments.

    Plugging smoothed means into the design ignores the state uncertainty
    and attenuates the fit; the expected complete-data quadratic instead
    has the sufficient statistics S_zz, S_xz and diag(S_xx), so posterior,
    evidence and residuals all equal their exact conditional expectations.
    """
    n, nm = es.S_xz.shape
    return RegressionData(n=n, m=nm - n, N=es.N, zz=es.S_zz.copy(),
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

    Row i keeps its active columns, in their order, then a pad of pruned
    columns up to the batch width k: ``order`` (n x k) holds the column of
    [A B] at each compact position, ``zz`` (n x k x k) the gathered zz
    block of each row with the pad's rows and columns zero, and ``b``
    (n x k) the gathered xz rows.
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

    Returns the compact means and the diagonals of the H_i^{-1} (n x k,
    the column sums of R_i squared; zero where pruned), the log evidence,
    R (n x k x k), b . mu and D (n x k).  The posterior variances are
    sigma2 times that diagonal.  ``lay`` is left unchanged.
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
    return mu, np.einsum("nij,nij->nj", R, R), float(evidence), R, bmu, D


def _checked_gamma(reg, gamma):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (reg.N_w,):
        raise ValueError(f"gamma must have length {reg.N_w}")
    if not np.all(gamma >= 0):   # NaN fails this too
        raise ValueError("gamma must be nonnegative, not NaN")
    return gamma.reshape((reg.n + reg.m, reg.n)).T   # row i: row i of [A B]


def posterior(reg, gamma, sigma2):
    """Posterior of the weights at fixed (gamma, sigma2), as a
    ``Posterior``: ``mu, Sigma = posterior(...)`` gives the mean and the
    dense covariance.

    For sigma2 > 0 this is the ridge posterior of each row, kept as the
    compact blocks of ``_kernel``: row i's covariance sigma2 R_i' R_i lies
    on its entries of the layout (zero on its pad).  At sigma2 = 0 it is
    the noiseless limit: with K = G^{1/2} zz G^{1/2} on row i,
    mu = G^{1/2} K^+ G^{1/2} xz[i] and Sigma = G^{1/2} (I - K^+ K) G^{1/2},
    so directions the data do not determine keep their prior variance.
    Pruned coordinates get zero mean and zero covariance rows/columns; an
    empty active set returns an all-zero posterior.  sigma2 must be
    finite; an infinite gamma (a flat prior, as the "ml" fit uses) needs
    sigma2 > 0.
    """
    g = _checked_gamma(reg, gamma)
    if not 0 <= sigma2 < math.inf:   # NaN fails this too
        raise ValueError(f"sigma2 must be nonnegative and finite, got {sigma2}")
    if sigma2 == 0 and np.isinf(g).any():
        raise ValueError("an infinite prior variance needs sigma2 > 0")
    n, d = g.shape
    if sigma2 > 0:
        lay, gc = _layout(reg, g)
        mu, _, _, blocks, _, _ = _kernel(reg, lay, gc, sigma2)
        mu, order = _scatter(mu, lay.order, d), lay.order
    else:
        sq = np.sqrt(g)
        K = sq[:, :, None] * reg.zz * sq[:, None, :]
        # K squares the design's singular values, and forming it leaves
        # rounding of order eps |K| in its null space: cut well above that
        K_pinv = np.linalg.pinv(K, rtol=1e-10, hermitian=True)
        mu = sq * (K_pinv @ (sq * reg.xz)[:, :, None])[:, :, 0]
        blocks = sq[:, :, None] * (np.eye(d) - K_pinv @ K) * sq[:, None, :]
        order = np.broadcast_to(np.arange(d), (n, d))
    return Posterior(mu_w=mu.T.ravel(), order=order, blocks=blocks,
                     sigma2=float(sigma2))


def marginal_loglik(reg, gamma, sigma2):
    """Log evidence: the Gaussian marginal of y with covariance
    sigma^2 I + Phi Gamma Phi', evaluated from the moments without ever
    forming the dense observation-space matrix; sigma2 must be positive
    and finite."""
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    lay, gc = _layout(reg, _checked_gamma(reg, gamma))
    return _kernel(reg, lay, gc, sigma2)[2]


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
    MacKay's fixed-point update (MacKay, Neural Comput. 4, 1992; Tipping,
    JMLR 1, 2001)

        gamma_i <- mu_i^2 / (1 - Sigma_ii / gamma_i)

    and the EM update

        sigma2 <- (rss(mu) + sigma2_old tr(I - Sigma Gamma^{-1})) / N_y

    with the residual sum of squares rss = sum y^2 - 2 b . mu + mu' zz mu,
    clipped at 0, and sigma2 floored at 1e-300.  The gamma update has the
    fixed points of the EM update gamma_i <- Sigma_ii + mu_i^2, and
    reaches them in far fewer iterations where prior variances decay
    toward the prune bound.  It is not monotone in the evidence by
    construction.  Since H mu = b on each row's active entries,
    mu' zz mu = b . mu - sigma2_old sum mu_i^2 / gamma_i, and rss = sum y^2
    - b . mu - sigma2_old sum mu_i^2 / gamma_i needs no product with zz.
    Masked coordinates stay at zero throughout; the loop stops when the
    relative change of gamma drops below ``tol``.  ``max_iter`` is a
    safeguard, not the usual stop: on desk-scale fits at the default
    tolerance the loop meets ``tol`` before it in all but about one call
    in a thousand, and a larger cap leaves the estimate unchanged.  An
    evidence decrease beyond 1e-8 is recorded in the returned state's
    ``warnings`` and iteration continues.  The initial gamma and sigma2
    must be finite.

    The loop's state lives in a compact layout (``_layout``): gamma, the
    means and the variances are (n x k) arrays, exactly zero on the pad,
    so the gamma update needs no mask.  Its Sigma_ii / gamma_i is
    D_i diag(H_i^{-1}), the kernel's added diagonal D = sigma2 / gamma
    times the column sums of R_i squared; taking it so, not as the
    variance over gamma, keeps it exact at the sigma2 floor, where the
    variances sigma2 diag(H_i^{-1}) underflow.  Its denominator lies in
    (0, 1]; where rounding takes it below machine epsilon, the data leave
    the entry undetermined and its mean is at rounding level, so epsilon
    bounds the quotient.  One comparison of gamma with the prune threshold
    gives the active set and its size; an iteration that prunes lays out
    the kept entries afresh, so k is always the widest row's active count.
    The kernel also returns b . mu for the residual, and with its D
    sigma2 tr(Sigma Gamma^{-1}) and sigma2 sum mu_i^2 / gamma_i are the
    dot products of D with the variances and the squared means.  After
    the loop, gamma is mapped back to w-order and ``posterior`` gives the
    returned mean and the per-row covariance blocks; the dense covariance
    is assembled only if ``Sigma_w`` is read.
    """
    opts = opts or SBLOptions()
    if init is None:
        init = initial_sbl_state(reg, mask)
    n, d = reg.n, reg.n + reg.m
    gamma = _checked_gamma(reg, init.gamma)
    if not np.isfinite(gamma).all():
        # the stop test would compare an infinite step with tol times an
        # infinite scale and end the loop after one iteration
        raise ValueError("sbl_em needs a finite initial gamma")
    if not 0 <= init.sigma2 < math.inf:
        raise ValueError(f"sigma2 must be nonnegative and finite, "
                         f"got {init.sigma2}")
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
            lay, gc = _layout(reg, _scatter(np.where(active, gc, 0.0),
                                            lay.order, d))
        n_active = n_kept
        n_active_path.append(n_active)

        mu, h, evidence, _, bmu, D = _kernel(reg, lay, gc, sigma2)
        evidence_path.append(evidence)
        if len(evidence_path) >= 2 and evidence < evidence_path[-2] - 1e-8:
            warn_log.append(f"iteration {iteration}: evidence decreased by "
                            f"{evidence_path[-2] - evidence:.3e}")

        mu2 = mu * mu
        var = sigma2 * h
        # MacKay's update; Sigma_ii / gamma_i = D_i h_i is zero on the pad,
        # where mu is zero too (see the docstring)
        gamma_new = mu2 / np.maximum(1.0 - D * h, _EPS)
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
    post = posterior(reg, gamma, sigma2)
    return SBLState(gamma=gamma, sigma2=sigma2, mu_w=post.mu_w, posterior=post,
                    active=gamma > 0, iteration=iteration,
                    evidence=evidence_path, n_active_path=n_active_path,
                    warnings=warn_log)
