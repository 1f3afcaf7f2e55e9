"""Kalman filtering and smoothing for the innovations-form model.

Implements the forward filter, the RTS smoother, the lag-one covariances,
the aggregated conditional expectations needed by the EM M-step, and the
observed-data log-likelihood via the prediction-error decomposition.

Index convention: arrays run k = 0..N with index 0 holding the initial
state t_0 (prior only, no measurement); measurements exist for k = 1..N.
The filter assumes process noise covariance sigma^2 I_n and unit
measurement covariance.  The outputs are the first p states, C = [I 0],
as ``StateSpaceModel`` builds it, so C P is the first p rows of P and
C x the first p entries of x; measurement feedthrough (nonzero D) is not
supported in estimation.

Steady state: the covariance recursions do not depend on the data, and
for a stable model they settle within a few dozen steps.  The filter
watches P_{k|k-1}; at the first step k >= 2 where one step changes it by
at most ``_STEADY_RTOL`` times its largest entry, it records k as
``FilterPass.k_steady`` and holds that step's P_{k|k-1}, P_{k|k}, gain and
innovation covariance for every later step, which then runs only the mean
recursion (Anderson & Moore, Optimal Filtering, 1979, ch. 4).  The RTS
smoother uses one gain over that segment and runs its backward covariance
recursion only until it settles by the same test; the log-likelihood
takes the quadratic terms of all the settled steps from the one factor
of the shared innovation covariance.  Steps before k_steady, and runs
where the test never passes, run every recursion at every step.  The RTS
gains, and the log-likelihood's determinants and quadratic forms, depend
only on covariances the filter has stored, so each pass factors those
once, the settled value as the last row of its stack, and only the
recursions run step by step.

Every symmetric positive definite matrix the E-step inverts (the filter's
innovation covariance S_k, the RTS pass's P_{k+1|k}) is factored once
into its inverse Cholesky factor, S^{-1} = R' R with R = L^{-1} for the
Cholesky factor L, by the ``dpotrf``/``dtrtri`` pair that the SBL kernel
uses (``sbl._inverse_factors``); each gain and quadratic form is then a
product with R, and log det S = -2 sum log diag(R).  This is the factor
form of Kalman computation (Bierman, Factorization Methods for Discrete
Sequential Estimation, 1977).  At these sizes an LU or triangular solve
costs far more than a product of the same shape, so the factor and two
products take less time than the solve they replace.  A matrix that is
not positive definite raises FilterDivergedError in the filter and the
log-likelihood, and sends the RTS gains to a per-step LU solve.

Storage: every covariance and gain sequence is a ``StepSeq``, which stores
each distinct matrix once and maps each step to its row.  The filter's
P_{k|k-1}, P_{k|k}, K_k and innovation covariance, and the RTS gains J_k,
hold the transient steps and then one settled value.  P_{k|N} holds three
segments: the steps before k_steady, one settled middle value, and the
backward transient near N.  The lag-one M_k = P_{k|N} J_{k-1}' inherits
their segments.  Where nothing settles, every step keeps its own row.  Sums
over steps (``StepSeq.total``) weight each row by its step count, so no
pass allocates N copies of a matrix.  The means stay dense (N+1)-row
arrays.  A caller that runs many passes over one record hands
``kalman_filter``, ``rts_smoother`` and ``lag_one_smoother`` a
``PassBuffers`` as ``out``: the passes then write their means,
innovations and steady-segment scratch, and the stored rows of every
covariance sequence, into its arrays instead of allocating fresh ones.
The covariance stacks grow to the rows a pass stores, not to N+1 rows
unless nothing settles: numpy asks for huge pages for arrays of 4 MB and
more.  The returned passes hold those arrays, means and covariance rows
alike, valid until the buffers' next use.  The buffers hold nothing
else: the RTS pass forms P_{k|k} A', the factors of P_{k+1|k} and its
backward P_{k|N} recursion in arrays of its own, so these are not held
through the M-step.  The RTS gains are the one returned sequence outside
the buffers: they are written over the call's P_{k|k} A' and stay with
the pass.

Over the steady segment the filtered and smoothed means follow a linear
recursion with one constant matrix, x_k = F x_{k-1} + g_k.  Both are
computed as a blocked prefix scan (``_linear_scan``): the recursion runs
inside blocks of ``_SCAN_BLOCK`` steps for all blocks at once, and
recursive doubling carries it across the block ends, so about 2b + log2 of
the block count products replace one small product per step, at about
twice the multiply-adds of the per-step loop.  The scan runs on a
block-major copy of its rows, one contiguous slab per position in the
block (rows i, b+i, 2b+i, ... in slab i), so each product reads and writes
contiguous rows instead of rows b apart; the passes keep that copy in
``PassBuffers.scratch``, and the RTS pass hands the scan its means in
reverse as a view.  Entries of the powers of F and of the block ends below
the smallest normal double are set to zero, and the doubling ends early
once a power is zero everywhere: such terms no longer change the result.
"""

from dataclasses import dataclass, replace

import numpy as np

from .sbl import _inverse_factors

__all__ = [
    "FilterDivergedError",
    "StepSeq",
    "PassBuffers",
    "FilterPass",
    "SmoothPass",
    "ESums",
    "kalman_filter",
    "rts_smoother",
    "lag_one_smoother",
    "smooth",
    "expectation_sums",
    "observed_loglik",
]

_DIVERGE_NORM = 1e12
# Relative change below which a covariance recursion counts as settled.
_STEADY_RTOL = 1e-13
# Smallest normal double: entries of a scan's powers and block ends below
# it are zeroed.
_TINY = np.finfo(float).tiny
# Rows per block of the blocked scan.
_SCAN_BLOCK = 8
# Multiply-adds per product in a scan.  OpenBLAS runs a product of at most
# 2^18 on one thread; split across threads, these skinny products cost more
# than they save.  With two processes on a 2-core x86_64 host and BLAS
# threads unpinned (the benchmark's process pool), a desk-size doubling
# scan took 73 ms unsplit and 2 ms in such blocks.  At full scale (n = 110,
# N = 1000) the blocked scan's in-block and carry products, (N/b) n^2 each,
# exceed it too and are split in the same way.
_SCAN_BLOCK_MACS = 2**18


class FilterDivergedError(RuntimeError):
    """Covariance blow-up: the current parameter iterate is unstable."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"Kalman filter diverged at step {step}")


def _sym(M, out):
    """0.5 (M + M'), written into ``out``."""
    np.add(M, M.T, out=out)
    out *= 0.5
    return out


class StepSeq:
    """Read-only sequence of equal-shape matrices over steps, each distinct
    matrix stored once: step k reads ``vals[idx[k]]``.

    ``StepSeq(vals)`` gives every step its own row; the constructor copies
    ``vals`` and ``idx``.  Indexing with an integer returns a read-only view
    of the stored row (shared by every step that maps to it); a slice or
    ``np.asarray`` gives the dense copy, and ``np.asarray(seq, copy=False)``
    raises ValueError, since no dense array exists to share.
    ``total(lo, hi)`` sums steps lo..hi-1 as step counts times rows.
    """

    __slots__ = ("vals", "idx")

    def __init__(self, vals, idx=None):
        self._set(np.array(vals, dtype=float),
                  np.arange(len(vals)) if idx is None
                  else np.array(idx, dtype=np.intp))

    @classmethod
    def _over(cls, vals, idx):
        """A StepSeq over rows of ``vals`` without copying them: the passes'
        own arrays, or rows of a ``PassBuffers`` stack."""
        seq = cls.__new__(cls)
        seq._set(vals.view(), idx)
        return seq

    def _set(self, vals, idx):
        # vals is the sequence's own array or view, so marking it read-only
        # leaves a buffer it views writeable
        self.vals, self.idx = vals, idx
        self.vals.flags.writeable = False
        self.idx.flags.writeable = False

    def __len__(self):
        return len(self.idx)

    def __getitem__(self, key):
        return self.vals[self.idx[key]]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a StepSeq stores each distinct matrix once, so "
                             "its dense array is always a copy")
        return np.asarray(self.vals[self.idx], dtype=dtype)

    def total(self, lo, hi):
        """Sum of the matrices of steps lo..hi-1."""
        counts = np.bincount(self.idx[lo:hi], minlength=len(self.vals))
        return np.tensordot(counts.astype(float), self.vals, axes=1)


class PassBuffers:
    """The arrays of a filter and RTS pass over N steps with n states and p
    outputs, for passes to write into instead of allocating them.
    ``kalman_filter`` fills x_pred, x_filt and innovations ((N+1)-row) and
    the stacks P_pred, P_filt, K_gain and innov_cov.  ``rts_smoother``
    fills x_sm and the stack P_sm; it forms its gain solve's operands and
    its backward recursion in arrays of its own, freed when it returns.
    Both passes run their steady segment's scan (``_linear_scan``) in
    ``scratch``: its ceil((N+1)/b) b rows, b = ``_SCAN_BLOCK``, hold the
    scan's block-major copy of up to N + 1 rows, and the filter also forms
    its tail products in a time-major view of its first rows, before and
    after the scan.  ``lag_one_smoother`` fills the stack M_sm.
    Each stack holds one row per stored matrix: it starts empty, and a pass
    that needs more rows than it has replaces it by one a quarter longer
    than needed (not past N + 1 rows unless it needs them), rows kept, so
    that later passes whose transient is a step or two longer reuse it.  A
    pass written into them returns these arrays themselves, and its
    StepSeqs are views of the stacks' rows, so the pass, covariances
    included, stays valid only until the buffers' next use.
    """

    __slots__ = ("x_pred", "x_filt", "innovations", "x_sm", "scratch",
                 "P_pred", "P_filt", "K_gain", "innov_cov", "P_sm", "M_sm")

    def __init__(self, N, n, p):
        self.x_pred = np.empty((N + 1, n))
        self.x_filt = np.empty((N + 1, n))
        self.innovations = np.empty((N + 1, p))
        self.x_sm = np.empty((N + 1, n))
        blocks = -(-(N + 1) // _SCAN_BLOCK)   # of a scan over N + 1 rows
        self.scratch = np.empty((blocks * _SCAN_BLOCK, n))
        for name, shape in (("P_pred", (n, n)), ("P_filt", (n, n)),
                            ("K_gain", (n, p)), ("innov_cov", (p, p)),
                            ("P_sm", (n, n)), ("M_sm", (n, n))):
            setattr(self, name, np.empty((0,) + shape))

    def _check(self, N, n, p):
        have = (len(self.x_pred) - 1, self.x_pred.shape[1],
                self.innovations.shape[1])
        if have != (N, n, p):
            raise ValueError(f"PassBuffers for (N, n, p) = {have} do not fit "
                             f"a pass of {(N, n, p)}")

    def _stack(self, name, rows):
        """The stack ``name`` with at least ``rows`` rows, grown (its rows
        kept) if it has fewer."""
        stack = getattr(self, name)
        if len(stack) < rows:
            room = max(rows, min(rows + rows // 4, len(self.x_pred)))
            grown = np.empty((room,) + stack.shape[1:])
            grown[:len(stack)] = stack
            setattr(self, name, grown)
            stack = grown
        return stack


def _held(vals, steps):
    """StepSeq of ``steps`` steps over the rows of ``vals``, without a copy,
    in step order: one step per row, the last row held to the end."""
    return StepSeq._over(vals, np.minimum(np.arange(steps), len(vals) - 1))


def _add_products(dst, src, M):
    """dst += src @ M' in row blocks of at most ``_SCAN_BLOCK_MACS``
    multiply-adds, the last rows first: when dst and src are overlapping
    rows of one array with dst below src (the doubling pass's
    ``ends[s:] += ends[:-s] @ P'``), each block reads rows of src above the
    rows already written, so every row read still holds its old value.
    The scan's other products, between separate slabs, take the same row
    blocks: the bits of a row depend on the rows it is multiplied with
    (BLAS picks its kernels by shape, and numpy takes a one-row product to
    ``gemv``)."""
    rows = max(1, _SCAN_BLOCK_MACS // M.size)
    for hi in range(len(dst), 0, -rows):
        lo = max(hi - rows, 0)
        dst[lo:hi] += src[lo:hi] @ M.T


def _linear_scan(F, X, buf=None):
    """Run X[k] <- F X[k-1] + X[k] for k = 1..len(X)-1 in place; on entry
    X[0] is the seed and X[k] the input of step k.  X may be any 2-d view,
    a reversed one included.

    Blocked scan (Blelloch, CMU-CS-90-190, 1990) over blocks of b =
    ``_SCAN_BLOCK`` rows, rows jb..jb+b-1 forming block j.  The rows are
    copied once into a block-major array Z of shape (b, ceil(len(X)/b), n)
    whose slab Z[i] holds rows i, b+i, 2b+i, ..., so that every product
    below reads and writes contiguous rows; the rows the last block lacks
    are never read.  Then:

    1. the recursion inside every block at once: for i = 1..b-1, one
       product adds F times slab i-1 to slab i;
    2. Hillis-Steele doubling (Hillis & Steele, CACM 1986) over the block
       ends, slab b-1, whose recursion has the matrix F^b: the pass with
       shift s adds (F^b)^s times the end s blocks back;
    3. for i = 0..b-2, one product adds F^(i+1) times the end of the
       previous block to row i of every later block, the rest of slab i;

    and the rows are copied back.  That is about 2 len(X) n^2 multiply-adds
    plus log2(len(X)/b) products over the len(X)/b block ends, where plain
    doubling over all rows does about log2 len(X) len(X) n^2.  Every
    product runs in row blocks of at most ``_SCAN_BLOCK_MACS``
    multiply-adds (``_add_products``), cut over the rows of X it updates,
    as when the products ran on rows b apart of X itself: BLAS gives every
    row the same bits either way, and a product on a contiguous slab takes
    about half the time of one whose rows are b apart.  Entries of a
    squared power and of the scanned block ends below the smallest normal
    double are set to zero, since the terms they add change nothing at
    double precision and products with subnormal operands are slow in
    BLAS; once a power of F^b is zero everywhere the doubling ends.

    ``buf``, a C-contiguous float array of at least ceil(len(X)/b) b n
    entries, holds Z; without it the call allocates Z.
    """
    b = _SCAN_BLOCK
    L, n = X.shape
    if L < 2:
        return
    full, nb = L // b, -(-L // b)
    size = b * nb * n
    Z = np.empty(size) if buf is None else buf.reshape(-1)[:size]
    Z = Z.reshape(b, nb, n)
    # rows[i] views the rows of slab i in the full blocks
    rows, rest = X[:full * b].reshape(full, b, n).swapaxes(0, 1), X[full * b:]
    Z[:, :full] = rows
    Z[:len(rest), -1] = rest
    count = [len(range(i, L, b)) for i in range(b)]   # rows of X in slab i
    for i in range(1, min(b, L)):
        _add_products(Z[i, :count[i]], Z[i - 1, :count[i]], F)
    if L > b:
        ends = Z[b - 1, :full]
        powers = [F]
        for _ in range(b - 1):
            powers.append(F @ powers[-1])
        P = powers[-1]
        P[np.abs(P) < _TINY] = 0.0
        s = 1
        while s < len(ends) and P.any():
            _add_products(ends[s:], ends[:-s], P)
            s *= 2
            if s < len(ends):
                P = P @ P
                P[np.abs(P) < _TINY] = 0.0
        ends[np.abs(ends) < _TINY] = 0.0
        for i in range(b - 1):
            _add_products(Z[i, 1:count[i]], ends[:count[i] - 1], powers[i])
    rows[...] = Z[:, :full]
    rest[...] = Z[:len(rest), -1]


def _first_nonfinite(x, lo, hi):
    """The first k in lo..hi-1 whose row x[k] is not all finite, or None.
    The rows are searched only when the block as a whole is not finite."""
    if np.isfinite(x[lo:hi]).all():
        return None
    return lo + int(np.argmax(~np.isfinite(x[lo:hi]).all(axis=1)))


def _settled(new, old):
    """True when ``new`` differs from ``old`` by at most _STEADY_RTOL times
    the largest entry of ``new``."""
    return np.abs(new - old).max() <= _STEADY_RTOL * np.abs(new).max()


@dataclass
class FilterPass:
    """Forward-pass quantities; index 0 holds the t_0 prior.

    x_pred[k], P_pred[k] are the one-step predictions x_{k|k-1}, P_{k|k-1};
    x_filt[k], P_filt[k] the filtered estimates; K_gain[k] the gain;
    innovations[k] and innov_cov[k] feed the observed-data likelihood.
    The means are dense (N+1)-row arrays; P_pred, P_filt, K_gain and
    innov_cov are StepSeqs of N+1 steps.  k_steady is the step from which
    those four hold one settled value, stored once (None if the covariances
    never settled, when every step has its own row).
    """

    x_pred: np.ndarray
    P_pred: StepSeq
    x_filt: np.ndarray
    P_filt: StepSeq
    K_gain: StepSeq
    innovations: np.ndarray
    innov_cov: StepSeq
    N: int
    k_steady: int | None = None


@dataclass
class SmoothPass:
    """Backward-pass quantities for k = 0..N.

    x_sm is a dense (N+1)-row array; P_sm, J and M_sm are StepSeqs.
    J[k] are the smoother gains for k = 0..N-1: the transient gains, then
    one steady gain from k_steady on.  P_sm (N+1 steps) holds the steps
    before k_steady, one settled middle value and the backward transient
    near N, each stored once.  M_sm[k] = P_sm[k] J[k-1]' is the lag-one
    covariance Cov(x_k, x_{k-1} | all data) for k = 1..N (index 0 is a zero
    matrix); it is None until ``lag_one_smoother`` has run.
    """

    x_sm: np.ndarray
    P_sm: StepSeq
    J: StepSeq
    M_sm: StepSeq | None = None
    pinv_steps: tuple = ()


@dataclass
class ESums:
    """Aggregated conditional expectations over k = 1..N.

    With the stacked regressor z_k = [x_{k-1}; u_{k-1}]:
    S_xx = sum E(x_k x_k'), S_xz = sum E(x_k z_k'), S_zz = sum E(z_k z_k'),
    and meas_rss = sum E|y_k - C x_k|^2, the expected squared measurement
    residual, all conditioned on the full measurement record.  x0_sm and
    P0_sm are the smoothed initial-state mean and covariance.
    """

    S_xx: np.ndarray
    S_xz: np.ndarray
    S_zz: np.ndarray
    meas_rss: float
    x0_sm: np.ndarray
    P0_sm: np.ndarray
    N: int


def kalman_filter(model, data, out=None):
    """Run the forward Kalman filter over the dataset.

    The recursion, for k = 1..N:

        x_{k|k-1} = A x_{k-1|k-1} + B u_{k-1}
        P_{k|k-1} = A P_{k-1|k-1} A' + sigma^2 I
        K_k       = P_{k|k-1} C' (C P_{k|k-1} C' + I)^{-1}
        x_{k|k}   = x_{k|k-1} + K_k (y_k - C x_{k|k-1})
        P_{k|k}   = P_{k|k-1} - K_k C P_{k|k-1}

    started from the prior x_{0|0} = m0, P_{0|0} = R0.  The outputs are
    the first p states, C = [I 0], as the model builds it: C P_{k|k-1} is
    the first p rows of P_{k|k-1}, C P_{k|k-1} C' its leading p x p block
    and C x_{k|k-1} the first p entries of x_{k|k-1}.  Nonzero D raises
    ValueError.  Raises FilterDivergedError when a covariance norm
    exceeds 1e12, an innovation covariance is not positive definite or a
    predicted mean is not finite, signalling an unstable (or non-finite)
    parameter iterate to the caller.

    The gain comes from the inverse Cholesky factor R_k of the innovation
    covariance S_k = C P_{k|k-1} C' + I, S_k^{-1} = R_k' R_k
    (``sbl._inverse_factors``, on a copy of S_k), as
    K_k' = R_k' (R_k C P_{k|k-1}): two small products in place of an LU
    solve.

    Once P_{k|k-1} changes by at most _STEADY_RTOL relative to its largest
    entry in one step (k >= 2), the covariances, gain and innovation
    covariance of step k hold for all later steps (``k_steady = k``): each
    is stored once, as the last row of its StepSeq.  The later filtered
    means then follow x_{j|j} = F x_{j-1|j-1} + g_j with
    F = (I - K C) A and g_j = (I - K C) B u_{j-1} + K y_j, where I - K C is
    the identity less K in its first p columns.  They come from a blocked
    scan seeded with x_{k|k} (``_linear_scan``); the predicted means and
    innovations are then formed in batch.

    Each transient step writes its means, covariances, gain and innovation
    into their stored rows through a few call-local scratch arrays, with no
    other temporaries, and takes one reduction, the largest |P_{k|k-1}|
    entry, for both the divergence test (written so that NaN fails it) and
    the settle test.  The mean recursion does not feed the covariances, so
    the predicted means are tested for finiteness once after the transient
    loop, once after the steady tail and when a covariance diverges; the
    first non-finite one raises FilterDivergedError at its step, as the
    per-step recursion does.  C P is read as rows of P, which gives the
    bits of the product, since C's zeros add only exact zeros.

    With ``out``, a ``PassBuffers`` for this record's N, n and p, the means
    and innovations are written into its arrays, the stored covariance,
    gain and innovation covariance rows into its stacks, and the tail
    products and the scan's block-major copy into its scratch, and the
    returned pass holds ``out.x_pred``, ``out.x_filt``,
    ``out.innovations`` and views of the stacks: the pass is valid until
    the buffers' next use.  Without ``out`` the call allocates
    its own; both give the same bits.
    """
    n, p, m = model.n, model.p, model.m
    if data.p != p or data.m != m:
        raise ValueError(f"dataset dimensions (p={data.p}, m={data.m}) do not "
                         f"match model (p={p}, m={m})")
    if model.sigma <= 0:
        raise ValueError("kalman_filter requires sigma > 0")
    if np.any(model.D):
        raise ValueError("nonzero D is not supported in estimation")

    N = data.N
    A, B = model.A, model.B
    sig2I = model.sigma**2 * np.eye(n)
    Ip = np.eye(p)

    if out is None:
        out = PassBuffers(N, n, p)
    out._check(N, n, p)
    x_pred, x_filt, innovations = out.x_pred, out.x_filt, out.innovations
    x_filt[0] = model.m0
    x_pred[0] = model.m0
    innovations[0] = 0.0
    # row k holds step k until the covariances settle
    stacks = ("P_pred", "P_filt", "K_gain", "innov_cov")
    P_pred, P_filt, K_gain, innov_cov = (out._stack(s, 1) for s in stacks)
    _sym(model.R0, out=P_filt[0])
    P_pred[0] = P_filt[0]
    K_gain[0] = 0.0
    innov_cov[0] = Ip

    k_steady = None
    # per-step scratch: S_k's inverse factor R_k, R_k C P, the gain's
    # transpose K' and the n x n products from which the stored rows are
    # formed.  Products take K as the transpose of the C-ordered K', as
    # they took an LU solve's, for the tail's tall Y K' (see _gains).
    Rk = np.empty((1, p, p))
    RCP, Kt = np.empty((p, n)), np.empty((p, n))
    T, T2 = np.empty((n, n)), np.empty((n, n))
    Bu = np.empty(n)
    for k in range(1, N + 1):
        if k == len(P_pred):
            P_pred, P_filt, K_gain, innov_cov = (out._stack(s, k + 1)
                                                 for s in stacks)
        xp = np.matmul(A, x_filt[k - 1], out=x_pred[k])
        xp += np.matmul(B, data.U[k - 1], out=Bu)
        np.matmul(np.matmul(A, P_filt[k - 1], out=T), A.T, out=T2)
        T2 += sig2I
        Pp = _sym(T2, out=P_pred[k])
        big = np.abs(Pp, out=T).max()   # NaN fails the test below as well
        if not big <= _DIVERGE_NORM:
            raise FilterDivergedError(_first_nonfinite(x_pred, 1, k + 1) or k)
        CP = Pp[:p]   # C P
        Rk[0] = np.add(CP[:, :p], Ip, out=innov_cov[k])
        if _inverse_factors(Rk) is not None:
            raise FilterDivergedError(_first_nonfinite(x_pred, 1, k + 1) or k)
        R = Rk[0]   # S_k^{-1} = R' R
        K = np.matmul(R.T, np.matmul(R, CP, out=RCP), out=Kt).T
        K_gain[k] = K
        nu = np.subtract(data.Y[k - 1], xp[:p], out=innovations[k])
        np.matmul(K, nu, out=x_filt[k])
        x_filt[k] += xp
        _sym(np.subtract(Pp, np.matmul(K, CP, out=T), out=T), out=P_filt[k])
        # P_pred[1] follows the prior, not the Riccati map, so compare from 2
        if k >= 2 and (np.abs(np.subtract(Pp, P_pred[k - 1], out=T), out=T).max()
                       <= _STEADY_RTOL * big):
            k_steady = k
            break

    rows = N + 1 if k_steady is None else k_steady + 1
    bad = _first_nonfinite(x_pred, 1, rows)
    if bad is not None:
        raise FilterDivergedError(bad)
    if k_steady is not None and k_steady < N:
        ks = k_steady
        tail = slice(ks + 1, N + 1)
        IKC = np.eye(n)   # I - K C, K the settled gain
        IKC[:, :p] -= K
        F = IKC @ A
        xf, xp, nu = x_filt[tail], x_pred[tail], innovations[tail]
        tmp = out.scratch[:N - ks]
        # the tall products take their small right operand C-ordered, as
        # K' is: with the transpose of a C-ordered matrix they took about
        # 1.7 times as long, for the same bits
        np.matmul(data.U[ks:], np.ascontiguousarray((IKC @ B).T), out=xf)
        xf += np.matmul(data.Y[ks:], K.T, out=tmp)
        _linear_scan(F, x_filt[ks:], out.scratch)
        np.matmul(x_filt[ks:N], np.ascontiguousarray(A.T), out=xp)
        xp += np.matmul(data.U[ks:], np.ascontiguousarray(B.T), out=tmp)
        bad = _first_nonfinite(x_pred, ks + 1, N + 1)
        if bad is not None:
            raise FilterDivergedError(bad)
        np.subtract(data.Y[ks:], xp[:, :p], out=nu)
    return FilterPass(x_pred=x_pred, P_pred=_held(P_pred[:rows], N + 1),
                      x_filt=x_filt, P_filt=_held(P_filt[:rows], N + 1),
                      K_gain=_held(K_gain[:rows], N + 1),
                      innovations=innovations,
                      innov_cov=_held(innov_cov[:rows], N + 1), N=N,
                      k_steady=k_steady)


def _steps(seq, lo, hi):
    """Steps lo..hi-1 of a StepSeq or a dense array: a view of the stored
    rows where they are rows lo..hi-1, else a gathered copy."""
    if isinstance(seq, StepSeq) and np.array_equal(seq.idx[lo:hi],
                                                   np.arange(lo, hi)):
        return seq.vals[lo:hi]
    return seq[lo:hi]


def _gains(A, fp, ks, pinv_steps):
    """RTS gains J_k = P_{k|k} A' P_{k+1|k}^{-1} for k = 0..hi-1, row k of
    the result, with ks the first settled step (N if none) and
    hi = min(ks + 1, N).  P_{k|k} A' is formed in a call-local array.  A
    call-local copy of the P_{k+1|k} rows, the steps k < ks, which the
    filter stores in step order, and then the held P_{ks+1|ks} of a settled
    gain (hi = ks + 1), is factored in place into inverse Cholesky factors,
    P_{k+1|k}^{-1} = R_k' R_k (``sbl._inverse_factors``); each gain's
    transpose J_k' = R_k' (R_k (P_{k|k} A')') is then written over its row
    of P_{k|k} A', and the gains are returned as their transposes.
    If a P_{k+1|k} is not positive definite the gains are solved by LU one
    step at a time, k = hi-1 first, each into its own array (its memory
    order sets the bits of products with it, so the per-step reference's
    bits hold), and each step whose P_{k+1|k} is singular takes the
    pseudo-inverse and is appended to ``pinv_steps``."""
    hi = min(ks + 1, fp.N)
    PAt = np.matmul(_steps(fp.P_filt, 0, hi), A.T)
    t = min(ks, hi)
    R = np.empty_like(PAt)
    R[:t] = _steps(fp.P_pred, 1, t + 1)
    if t < hi:
        R[t] = fp.P_pred[t + 1]
    if _inverse_factors(R) is None:
        # J_k' = R_k' (R_k (P_{k|k} A')'), a step at a time through one
        # n x n scratch (a batched product would hold a third stack).  The
        # gains are the transposes of these C-ordered rows, as an LU solve's
        # were: the pass's tall products X J' took 30-45 us with J' C-ordered
        # and 4-8 ms with J C-ordered, split across BLAS threads, in two
        # processes on two cores with threads unpinned.
        W = np.empty_like(PAt[0])
        for k in range(hi):
            np.matmul(R[k].T, np.matmul(R[k], PAt[k].T, out=W), out=PAt[k])
        return PAt.swapaxes(1, 2)
    gains = [None] * hi
    for k in range(hi - 1, -1, -1):
        Ppk = fp.P_pred[k + 1]
        try:
            gains[k] = np.linalg.solve(Ppk.T, PAt[k].T).T
        except np.linalg.LinAlgError:
            gains[k] = PAt[k] @ np.linalg.pinv(Ppk)
            pinv_steps.append(k)
    return gains


def rts_smoother(model, fp, out=None):
    """Backward RTS pass producing smoothed means and covariances.

    For k = N-1..0 (index 0 is the initial state):

        J_k     = P_{k|k} A' P_{k+1|k}^{-1}
        x_{k|N} = x_{k|k} + J_k (x_{k+1|N} - x_{k+1|k})
        P_{k|N} = P_{k|k} + J_k (P_{k+1|N} - P_{k+1|k}) J_k'

    A singular one-step covariance falls back to the pseudo-inverse; the
    affected steps are recorded in ``pinv_steps``, in backward step order.

    The gains depend only on stored filter covariances, so every gain of
    the pass comes from one factorization of those covariances
    (``_gains``): J_0..J_{ks-1} of the steps before ks = ``fp.k_steady``
    and the settled J_ks, or J_0..J_{N-1} if nothing settled.  If a
    P_{k+1|k} is not positive definite, the gains are solved step by step
    as above.  The mean and covariance recursions of the steps before ks
    then run step by step.

    From ks on, P_{k|k} and P_{k+1|k} are settled, so the one gain J = J_ks
    serves every step k >= ks (if its solve fails, the pseudo-inverse gain
    serves them all and each is listed in ``pinv_steps``); J stores the
    transient gains and then that gain once.  There the P_{k|N} recursion
    runs backwards only until it settles by the filter's test, and its last
    value is stored once for the rest of the segment: P_sm holds the steps
    before k_steady, that middle value, and the backward transient near N.
    The means x_{k|N} = J x_{k+1|N} + (x_{k|k} - J x_{k+1|k}) of that
    segment come from one blocked scan run backwards from x_{N|N}, on
    x_sm[ks:] reversed as a view: the scan's block-major copy reads and
    writes it in that order.

    With ``out``, a ``PassBuffers`` for the pass's N, n and p, the smoothed
    means are written into ``out.x_sm`` and the stored P_{k|N} rows into its
    P_sm stack, and the backward scan's copy lives in its scratch; the
    returned pass holds ``out.x_sm`` and a view of the stack, valid until
    the buffers' next use.  Without ``out`` the call allocates its own; both
    give the same bits.  Either way the gains' operands and the backward
    P_{k|N} recursion, until its rows are copied into P_sm in step order,
    live in arrays of the call's own.
    """
    N = fp.N
    n = fp.x_filt.shape[1]
    p = fp.innovations.shape[1]
    A = model.A
    if out is None:
        out = PassBuffers(N, n, p)
    out._check(N, n, p)
    x_sm = out.x_sm
    x_sm[N] = fp.x_filt[N]
    pinv_steps = []
    ks = N if fp.k_steady is None else fp.k_steady
    gains = _gains(A, fp, ks, pinv_steps)
    back = [fp.P_filt[N]]   # back[j] is P_{N-j|N}; the last, the settled value
    # scratch of the per-step recursions below, which form each product as
    # the plain expressions do, so the bits are the same
    D, T, v = np.empty((n, n)), np.empty((n, n)), np.empty(n)
    if ks < N:
        if pinv_steps[:1] == [ks]:   # the steady gain serves steps ks..N-1
            pinv_steps[:1] = range(N - 1, ks - 1, -1)
        Js = gains[ks]
        Pf, Pp = fp.P_filt[ks], fp.P_pred[ks + 1]
        for k in range(N - 1, ks - 1, -1):
            np.matmul(np.matmul(Js, np.subtract(back[-1], Pp, out=D), out=T),
                      Js.T, out=D)
            D += Pf
            back.append(_sym(D, out=np.empty((n, n))))
            if _settled(back[-1], back[-2]):
                break
    # rows in step order: the steps before ks, the settled value (row ks),
    # then the backward transient up to P_{N|N}
    j = len(back) - 1
    rows = ks + j + 1
    P_sm = out._stack("P_sm", rows)[:rows]
    np.stack(back[::-1], out=P_sm[ks:])
    del back   # before the scan's temporaries
    if ks < N:
        # h_k = x_{k|k} - J x_{k+1|k}, held in x_sm[ks:N] until the scan
        h = x_sm[ks:N]
        np.subtract(fp.x_filt[ks:N], np.matmul(fp.x_pred[ks + 1:], Js.T, out=h),
                    out=h)
        # run backwards from x_sm[N] = x_{N|N}, through the scan's copy
        _linear_scan(Js, x_sm[ks:][::-1], out.scratch)
    for k in range(ks - 1, -1, -1):
        Jk = gains[k]
        np.matmul(Jk, np.subtract(x_sm[k + 1], fp.x_pred[k + 1], out=v),
                  out=x_sm[k])
        x_sm[k] += fp.x_filt[k]
        np.matmul(np.matmul(Jk, np.subtract(P_sm[k + 1], fp.P_pred[k + 1],
                                            out=D), out=T), Jk.T, out=D)
        D += fp.P_filt[k]
        _sym(D, out=P_sm[k])
    # the settled row serves steps ks..N-j
    idx = np.arange(N + 1)
    idx[ks:] = ks + np.maximum(idx[ks:] - (N - j), 0)
    return SmoothPass(x_sm=x_sm, P_sm=StepSeq._over(P_sm, idx),
                      J=_held(np.asarray(gains), N), M_sm=None,
                      pinv_steps=tuple(pinv_steps))


def lag_one_smoother(sp, out=None):
    """Lag-one covariances M[k] = Cov(x_k, x_{k-1} | Y) = P_{k|N} J_{k-1}'
    for k = 1..N from an RTS pass (De Jong & MacKinnon, Biometrika 75(3),
    1988); index 0 is a zero matrix.  The start value M_N = (I - K_N C) A
    P_{N-1|N-1} of the Shumway & Stoffer (1982) recursion is the k = N case.

    M inherits the segments of the pass, one row per distinct pair of
    stored P_sm and J rows, in two batched products over slices of them:
    with t the last stored gain (k_steady, or N - 1 if nothing settled),
    the transient pairs P_{k|N} J_{k-1}' for k = 1..t, then every stored
    P_sm row from step t + 1 on against the held J_t.  That needs J to
    store steps 0..t and hold the last, and P_sm to store steps 0..t each
    in its own row, as ``rts_smoother`` leaves them; other segments raise
    ValueError.

    With ``out``, a ``PassBuffers``, M is written into rows of its M_sm
    stack, valid until the buffers' next use; without it the call
    allocates its own.  Both give the same bits.
    """
    P, J = sp.P_sm, sp.J
    N, t = len(J), len(J.vals) - 1
    if not (np.array_equal(J.idx, np.minimum(np.arange(N), t))
            and np.array_equal(P.idx[:t + 1], np.arange(t + 1))):
        raise ValueError("lag_one_smoother needs the segments of an "
                         "rts_smoother pass")
    lo = int(P.idx[t + 1:].min())   # the first stored row of steps > t
    rows = t + 1 + len(P.vals) - lo
    shape = (rows,) + J.vals.shape[1:]
    M = (np.empty(shape) if out is None else out._stack("M_sm", rows))[:rows]
    M[0] = 0.0
    Jt = np.swapaxes(J.vals, 1, 2)
    np.matmul(P.vals[1:t + 1], Jt[:t], out=M[1:t + 1])
    np.matmul(P.vals[lo:], Jt[t], out=M[t + 1:])
    idx = np.arange(N + 1)
    idx[t + 1:] = P.idx[t + 1:] + (t + 1 - lo)
    return StepSeq._over(M, idx)


def smooth(model, data):
    """Filter + RTS + lag-one in one call; returns (FilterPass, SmoothPass)
    with the lag-one covariances filled in."""
    fp = kalman_filter(model, data)
    sp = rts_smoother(model, fp)
    return fp, replace(sp, M_sm=lag_one_smoother(sp))


def expectation_sums(sp, data):
    """Assemble the EM sufficient statistics from a completed smoother pass.

    Uses the identities E(x_k x_k') = x_{k|N} x_{k|N}' + P_{k|N},
    E(x_k x_{k-1}') = x_{k|N} x_{k-1|N}' + M_{k|N}, and
    E(x_k u_{k-1}') = x_{k|N} u_{k-1}' (inputs are deterministic).  The
    covariance sums come from ``StepSeq.total``: each stored matrix times its
    step count.  The outputs are the first p states, so the measurement
    residual reads their smoothed means and the leading p x p block of the
    summed P_{k|N}, the one sum that S_xx adds.
    """
    if sp.M_sm is None:
        raise ValueError("run the lag-one smoother first (see smooth())")
    xs, Ps, Ms = sp.x_sm, sp.P_sm, sp.M_sm
    U = data.U
    N, p = data.N, data.p

    P_tot = Ps.total(1, N + 1)
    S_xx = xs[1:].T @ xs[1:] + P_tot
    xx_lag = xs[1:].T @ xs[:-1] + Ms.total(1, N + 1)
    xu = xs[1:].T @ U
    S_xz = np.hstack([xx_lag, xu])

    prev_xx = xs[:-1].T @ xs[:-1] + Ps.total(0, N)
    prev_xu = xs[:-1].T @ U
    S_zz = np.block([[prev_xx, prev_xu], [prev_xu.T, U.T @ U]])

    resid = data.Y - xs[1:, :p]
    meas_rss = float((resid**2).sum()) + float(np.trace(P_tot[:p, :p]))
    return ESums(S_xx=S_xx, S_xz=S_xz, S_zz=S_zz, meas_rss=meas_rss,
                 x0_sm=xs[0].copy(), P0_sm=Ps[0].copy(), N=N)


def observed_loglik(model, data, fp=None):
    """Observed-data log-likelihood via the prediction-error decomposition:
    the sum over k of log N(y_k; C x_{k|k-1}, C P_{k|k-1} C' + I).

    Pass an existing FilterPass as ``fp`` to reuse a completed forward pass.
    A copy of the innovation covariances of steps 1..ks, ks =
    ``fp.k_steady`` (N if nothing settled), whose last row is the settled
    S, is factored into inverse Cholesky factors, S_k^{-1} = R_k' R_k
    (``sbl._inverse_factors``); the first step whose S_k is not positive
    definite raises FilterDivergedError.  Then log det S_k =
    -2 sum log diag(R_k) and nu_k' S_k^{-1} nu_k = |R_k nu_k|^2.  The terms
    of the steps before ks (all N if nothing settled) are added one by one
    in step order, as a per-step pass adds them.  The settled steps share
    S, so their quadratic terms sum to trace(R G R'), with G the sum of
    their innovations' outer products.
    """
    if fp is None:
        fp = kalman_filter(model, data)
    p = data.p
    ks = fp.N if fp.k_steady is None else fp.k_steady
    last = fp.N if fp.k_steady is None else ks - 1   # the per-step terms
    R = np.array(fp.innov_cov[1:ks + 1])
    bad = _inverse_factors(R)
    if bad is not None:
        raise FilterDivergedError(1 + bad[0])
    logdet = -2.0 * np.log(R.reshape(ks, p * p)[:, ::p + 1]).sum(axis=1)
    nu = fp.innovations[1:last + 1]
    Rnu = np.matmul(R[:last], nu[:, :, None])[:, :, 0]
    terms = -0.5 * (p * np.log(2.0 * np.pi) + logdet[:last]
                    + np.einsum("ij,ij->i", Rnu, Rnu))
    total = 0.0
    for term in terms.tolist():   # term by term, in step order
        total += term
    if last < fp.N:
        nu = fp.innovations[last + 1:]
        Rs = R[-1]
        total += -0.5 * ((fp.N - last) * (p * np.log(2.0 * np.pi) + logdet[-1])
                         + float(np.vdot(Rs @ (nu.T @ nu), Rs)))
    return float(total)
