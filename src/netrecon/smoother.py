"""Kalman filtering and smoothing for the innovations-form model.

Implements the forward filter, the RTS smoother, the lag-one covariances,
the aggregated conditional expectations needed by the EM M-step, and the
observed-data log-likelihood via the prediction-error decomposition.

Index convention: arrays run k = 0..N with index 0 holding the initial
state t_0 (prior only, no measurement); measurements exist for k = 1..N.
The filter assumes process noise covariance sigma^2 I_n and unit
measurement covariance; measurement feedthrough (nonzero D) is not
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
factors the shared innovation covariance once.  Steps before k_steady, and
runs where the test never passes, run every recursion at every step.

Storage: every covariance and gain sequence is a ``StepSeq``, which stores
each distinct matrix once and maps each step to its row.  The filter's
P_{k|k-1}, P_{k|k}, K_k and innovation covariance, and the RTS gains J_k,
hold the transient steps and then one settled value.  P_{k|N} holds three
segments: the steps before k_steady, one settled middle value, and the
backward transient near N.  The lag-one M_k = P_{k|N} J_{k-1}' inherits
their segments.  Where nothing settles, every step keeps its own row.  Sums
over steps (``StepSeq.total``) weight each row by its step count, so no
pass allocates N copies of a matrix.  The means stay dense (N+1)-row
arrays.

Over the steady segment the filtered and smoothed means follow a linear
recursion with one constant matrix, x_k = F x_{k-1} + g_k.  Both are
computed as a prefix scan by recursive doubling (``_linear_scan``): about
log2 of the segment length matrix products instead of one small product
per step.  Entries of the powers of F below the smallest normal double
are set to zero, and the scan ends early once a power is zero everywhere:
such terms no longer change the result.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "FilterDivergedError",
    "StepSeq",
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
# Smallest normal double: entries of a scan's powers below it are zeroed.
_TINY = np.finfo(float).tiny
# Multiply-adds per product in a scan.  OpenBLAS runs a product of at most
# 2^18 on one thread; split across threads, these skinny products cost more
# than they save.  With two processes on a 2-core x86_64 host and BLAS
# threads unpinned (the benchmark's process pool), a desk-size scan took
# 73 ms unsplit and 2 ms in such blocks.
_SCAN_BLOCK_MACS = 2**18


class FilterDivergedError(RuntimeError):
    """Covariance blow-up: the current parameter iterate is unstable."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"Kalman filter diverged at step {step}")


def _sym(M):
    return 0.5 * (M + M.T)


class StepSeq:
    """Read-only sequence of equal-shape matrices over steps, each distinct
    matrix stored once: step k reads ``vals[idx[k]]``.

    ``StepSeq(vals)`` gives every step its own row.  Indexing with an integer
    returns a read-only view of the stored row (shared by every step that
    maps to it); a slice or ``np.asarray`` gives the dense copy.
    ``total(lo, hi)`` sums steps lo..hi-1 as step counts times rows.
    """

    __slots__ = ("vals", "idx")

    def __init__(self, vals, idx=None):
        self.vals = np.array(vals, dtype=float)
        self.idx = np.arange(len(self.vals)) if idx is None \
            else np.asarray(idx, dtype=np.intp)
        self.vals.flags.writeable = False
        self.idx.flags.writeable = False

    def __len__(self):
        return len(self.idx)

    def __getitem__(self, key):
        return self.vals[self.idx[key]]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.vals[self.idx], dtype=dtype)

    def total(self, lo, hi):
        """Sum of the matrices of steps lo..hi-1."""
        counts = np.bincount(self.idx[lo:hi], minlength=len(self.vals))
        return np.tensordot(counts.astype(float), self.vals, axes=1)


def _held(vals, steps):
    """StepSeq of ``steps`` steps over ``vals`` in step order: one step per
    value, the last value held to the end."""
    return StepSeq(vals, np.minimum(np.arange(steps), len(vals) - 1))


def _runs(back, held, at):
    """StepSeq over ``back``, values in backward step order (last step
    first), each for one step except ``back[at]``, which holds ``held``
    steps."""
    counts = np.ones(len(back), dtype=np.intp)
    counts[at] = held
    return StepSeq(back[::-1], np.repeat(np.arange(len(back)), counts[::-1]))


def _linear_scan(F, X):
    """Run X[k] <- F X[k-1] + X[k] for k = 1..len(X)-1 in place; on entry
    X[0] is the seed and X[k] the input of step k.

    Hillis-Steele doubling (Hillis & Steele, CACM 1986): the pass with shift
    s adds F^s X[k-s] to X[k], after which X[k] sums the inputs of the last
    2s steps, so ceil(log2 len(X)) products of shape (len(X) x n)(n x n)
    replace the per-step loop; each runs in row blocks of at most
    ``_SCAN_BLOCK_MACS`` multiply-adds.  Entries of a squared power below
    the smallest normal double are set to zero, since the terms they add
    change nothing at double precision and products with subnormal operands
    are slow in BLAS; once the power is zero everywhere the scan ends.
    """
    rows = max(1, _SCAN_BLOCK_MACS // F.size)
    P, s = F, 1
    while s < len(X) and P.any():
        # top block first, so every row read still holds its old value
        for hi in range(len(X), s, -rows):
            lo = max(hi - rows, s)
            X[lo:hi] += X[lo - s:hi - s] @ P.T
        s *= 2
        if s < len(X):
            P = P @ P
            P[np.abs(P) < _TINY] = 0.0


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
    all conditioned on the full measurement record.  E0 is the expected
    initial-state scatter about m0.
    """

    S_xx: np.ndarray
    S_xz: np.ndarray
    S_zz: np.ndarray
    E0: np.ndarray
    x0_sm: np.ndarray
    P0_sm: np.ndarray
    N: int


def kalman_filter(model, data):
    """Run the forward Kalman filter over the dataset.

    The recursion, for k = 1..N:

        x_{k|k-1} = A x_{k-1|k-1} + B u_{k-1}
        P_{k|k-1} = A P_{k-1|k-1} A' + sigma^2 I
        K_k       = P_{k|k-1} C' (C P_{k|k-1} C' + I)^{-1}
        x_{k|k}   = x_{k|k-1} + K_k (y_k - C x_{k|k-1})
        P_{k|k}   = P_{k|k-1} - K_k C P_{k|k-1}

    started from the prior x_{0|0} = m0, P_{0|0} = R0.  Raises
    FilterDivergedError when a covariance norm exceeds 1e12 or a predicted
    mean is not finite, signalling an unstable parameter iterate to the
    caller.

    Once P_{k|k-1} changes by at most _STEADY_RTOL relative to its largest
    entry in one step (k >= 2), the covariances, gain and innovation
    covariance of step k hold for all later steps (``k_steady = k``): each
    is stored once, as the last row of its StepSeq.  The later filtered
    means then follow x_{j|j} = F x_{j-1|j-1} + g_j with
    F = (I - K C) A and g_j = (I - K C) B u_{j-1} + K y_j.  They come from
    a doubling scan seeded with x_{k|k}, which stops early once the powers
    of F underflow; the predicted means and innovations are then formed in
    batch, and the first non-finite predicted mean raises
    FilterDivergedError at its step as in the per-step recursion.
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
    A, B, C = model.A, model.B, model.C
    sig2I = model.sigma**2 * np.eye(n)
    Ip = np.eye(p)

    x_pred = np.zeros((N + 1, n))
    x_filt = np.zeros((N + 1, n))
    innovations = np.zeros((N + 1, p))
    x_filt[0] = model.m0
    x_pred[0] = model.m0
    # one entry per step until the covariances settle
    P_filt = [_sym(model.R0)]
    P_pred = [P_filt[0]]
    K_gain = [np.zeros((n, p))]
    innov_cov = [Ip]

    k_steady = None
    for k in range(1, N + 1):
        x_pred[k] = A @ x_filt[k - 1] + B @ data.U[k - 1]
        Pp = _sym(A @ P_filt[-1] @ A.T + sig2I)
        if not np.all(np.isfinite(Pp)) or np.abs(Pp).max() > _DIVERGE_NORM \
                or not np.all(np.isfinite(x_pred[k])):
            raise FilterDivergedError(k)
        S = _sym(C @ Pp @ C.T + Ip)
        K = np.linalg.solve(S, C @ Pp).T
        innovations[k] = data.Y[k - 1] - C @ x_pred[k]
        x_filt[k] = x_pred[k] + K @ innovations[k]
        P_pred.append(Pp)
        innov_cov.append(S)
        K_gain.append(K)
        P_filt.append(_sym(Pp - K @ C @ Pp))
        # P_pred[1] follows the prior, not the Riccati map, so compare from 2
        if k >= 2 and _settled(Pp, P_pred[-2]):
            k_steady = k
            break

    if k_steady is not None and k_steady < N:
        ks = k_steady
        tail = slice(ks + 1, N + 1)
        K = K_gain[ks]
        IKC = np.eye(n) - K @ C
        F = IKC @ A
        x_filt[tail] = data.U[ks:] @ (IKC @ B).T + data.Y[ks:] @ K.T
        _linear_scan(F, x_filt[ks:])
        x_pred[tail] = x_filt[ks:N] @ A.T + data.U[ks:] @ B.T
        bad = ~np.isfinite(x_pred[tail]).all(axis=1)
        if bad.any():
            raise FilterDivergedError(ks + 1 + int(np.argmax(bad)))
        innovations[tail] = data.Y[ks:] - x_pred[tail] @ C.T
    return FilterPass(x_pred=x_pred, P_pred=_held(P_pred, N + 1),
                      x_filt=x_filt, P_filt=_held(P_filt, N + 1),
                      K_gain=_held(K_gain, N + 1), innovations=innovations,
                      innov_cov=_held(innov_cov, N + 1), N=N,
                      k_steady=k_steady)


def rts_smoother(model, fp):
    """Backward RTS pass producing smoothed means and covariances.

    For k = N-1..0 (index 0 is the initial state):

        J_k     = P_{k|k} A' P_{k+1|k}^{-1}
        x_{k|N} = x_{k|k} + J_k (x_{k+1|N} - x_{k+1|k})
        P_{k|N} = P_{k|k} + J_k (P_{k+1|N} - P_{k+1|k}) J_k'

    A singular one-step covariance falls back to the pseudo-inverse; the
    affected steps are recorded in ``pinv_steps``.

    From ``fp.k_steady`` on, P_{k|k} and P_{k+1|k} are settled, so one gain J
    serves every step k >= k_steady (if its solve fails, the pseudo-inverse
    gain serves them all and each is listed in ``pinv_steps``); J stores the
    transient gains and then that gain once.  There the P_{k|N} recursion
    runs backwards only until it settles by the filter's test, and its last
    value is stored once for the rest of the segment: P_sm holds the steps
    before k_steady, that middle value, and the backward transient near N.
    The means x_{k|N} = J x_{k+1|N} + (x_{k|k} - J x_{k+1|k}) of that
    segment come from one doubling scan run backwards from x_{N|N}, which
    stops early once the powers of J underflow.
    """
    N = fp.N
    n = fp.x_filt.shape[1]
    A = model.A
    x_sm = np.zeros((N + 1, n))
    x_sm[N] = fp.x_filt[N]
    # P_{k|N} and J_k in backward step order, each settled value once
    P_back = [fp.P_filt[N]]
    J_back = []
    mid_steps = 1   # steps of the settled P_{k|N}, the last of the segment
    pinv_steps = []
    ks = N if fp.k_steady is None else fp.k_steady
    if ks < N:
        Pf, Pp = fp.P_filt[ks], fp.P_pred[ks + 1]
        PAt = Pf @ A.T
        try:
            Js = np.linalg.solve(Pp.T, PAt.T).T
        except np.linalg.LinAlgError:
            Js = PAt @ np.linalg.pinv(Pp)
            pinv_steps.extend(range(N - 1, ks - 1, -1))
        J_back.append(Js)
        for k in range(N - 1, ks - 1, -1):
            P_back.append(_sym(Pf + Js @ (P_back[-1] - Pp) @ Js.T))
            if _settled(P_back[-1], P_back[-2]):
                break
        mid_steps = k - ks + 1
        h = fp.x_filt[ks:N] - fp.x_pred[ks + 1:] @ Js.T
        # scan a contiguous copy in backward order: numpy does not hand a
        # reversed view to BLAS, and the scan ran at half speed on one
        X = np.vstack((x_sm[N], h[::-1]))
        _linear_scan(Js, X)
        x_sm[ks:] = X[::-1]
    mid = len(P_back) - 1
    for k in range(ks - 1, -1, -1):
        PAt = fp.P_filt[k] @ A.T
        try:
            Jk = np.linalg.solve(fp.P_pred[k + 1].T, PAt.T).T
        except np.linalg.LinAlgError:
            Jk = PAt @ np.linalg.pinv(fp.P_pred[k + 1])
            pinv_steps.append(k)
        J_back.append(Jk)
        x_sm[k] = fp.x_filt[k] + Jk @ (x_sm[k + 1] - fp.x_pred[k + 1])
        P_back.append(_sym(fp.P_filt[k]
                           + Jk @ (P_back[-1] - fp.P_pred[k + 1]) @ Jk.T))
    return SmoothPass(x_sm=x_sm, P_sm=_runs(P_back, mid_steps, mid),
                      J=_held(J_back[::-1], N), M_sm=None,
                      pinv_steps=tuple(pinv_steps))


def lag_one_smoother(sp):
    """Lag-one covariances M[k] = Cov(x_k, x_{k-1} | Y) = P_{k|N} J_{k-1}'
    for k = 1..N from an RTS pass (De Jong & MacKinnon, Biometrika 75(3),
    1988); index 0 is a zero matrix.  The start value M_N = (I - K_N C) A
    P_{N-1|N-1} of the Shumway & Stoffer (1982) recursion is the k = N case.
    One batched product forms an M for each distinct pair of stored P_sm
    and J rows, so M inherits their segments.
    """
    key = sp.P_sm.idx[1:] * len(sp.J.vals) + sp.J.idx
    pairs, idx = np.unique(key, return_inverse=True)
    a, b = np.divmod(pairs, len(sp.J.vals))
    M = sp.P_sm.vals[a] @ np.swapaxes(sp.J.vals[b], 1, 2)
    return StepSeq(np.concatenate((np.zeros((1,) + M.shape[1:]), M)),
                   np.concatenate(([0], idx + 1)))


def smooth(model, data):
    """Filter + RTS + lag-one in one call; returns (FilterPass, SmoothPass)
    with the lag-one covariances filled in."""
    fp = kalman_filter(model, data)
    sp = rts_smoother(model, fp)
    return fp, replace(sp, M_sm=lag_one_smoother(sp))


def expectation_sums(sp, data, m0):
    """Assemble the EM sufficient statistics from a completed smoother pass.

    Uses the identities E(x_k x_k') = x_{k|N} x_{k|N}' + P_{k|N},
    E(x_k x_{k-1}') = x_{k|N} x_{k-1|N}' + M_{k|N}, and
    E(x_k u_{k-1}') = x_{k|N} u_{k-1}' (inputs are deterministic).  The
    covariance sums come from ``StepSeq.total``: each stored matrix times its
    step count.
    """
    if sp.M_sm is None:
        raise ValueError("run the lag-one smoother first (see smooth())")
    xs, Ps, Ms = sp.x_sm, sp.P_sm, sp.M_sm
    U = data.U
    N = data.N
    n = xs.shape[1]
    m = U.shape[1]
    m0 = np.asarray(m0, dtype=float).reshape(n)

    S_xx = xs[1:].T @ xs[1:] + Ps.total(1, N + 1)
    xx_lag = xs[1:].T @ xs[:-1] + Ms.total(1, N + 1)
    xu = xs[1:].T @ U
    S_xz = np.hstack([xx_lag, xu])

    prev_xx = xs[:-1].T @ xs[:-1] + Ps.total(0, N)
    prev_xu = xs[:-1].T @ U
    uu = U.T @ U
    S_zz = np.block([[prev_xx, prev_xu], [prev_xu.T, uu]])

    dev = xs[0] - m0
    E0 = Ps[0] + np.outer(dev, dev)
    return ESums(S_xx=S_xx, S_xz=S_xz, S_zz=_sym(S_zz), E0=E0,
                 x0_sm=xs[0].copy(), P0_sm=Ps[0].copy(), N=N)


def observed_loglik(model, data, fp=None):
    """Observed-data log-likelihood via the prediction-error decomposition:
    the sum over k of log N(y_k; C x_{k|k-1}, C P_{k|k-1} C' + I).

    Pass an existing FilterPass as ``fp`` to reuse a completed forward pass.
    From ``fp.k_steady`` on the innovation covariance is shared: it is
    factored once and the quadratic terms of those steps come from one solve
    (per step as before if its Cholesky factorization fails).
    """
    if fp is None:
        fp = kalman_filter(model, data)
    p = data.p
    total = 0.0
    last = fp.N
    L = None
    if fp.k_steady is not None:
        try:
            L = np.linalg.cholesky(fp.innov_cov[fp.k_steady])
            last = fp.k_steady - 1
        except np.linalg.LinAlgError:
            pass
    for k in range(1, last + 1):
        S = fp.innov_cov[k]
        nu = fp.innovations[k]
        sign, logdet = np.linalg.slogdet(S)
        if sign <= 0:
            raise FilterDivergedError(k)
        total += -0.5 * (p * np.log(2.0 * np.pi) + logdet
                         + nu @ np.linalg.solve(S, nu))
    if L is not None:
        Z = np.linalg.solve(L, fp.innovations[last + 1:].T)
        logdet = 2.0 * np.log(np.diag(L)).sum()
        total += -0.5 * ((fp.N - last) * (p * np.log(2.0 * np.pi) + logdet)
                         + float((Z * Z).sum()))
    return float(total)
