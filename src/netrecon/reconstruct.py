"""Outer EM loop: alternate Kalman smoothing with SBL parameter updates.

The model ties the measurement-noise scale to the process scale (the
simulator's single-innovation-scale convention): x_k = A x_{k-1} +
B u_{k-1} + sigma w_k and y_k = C x_k + sigma v_k.  One outer iteration
maps the iterate (A, B, sigma^2, m0, R0) to the next in two halves: the
E half (``_estep``) smooths the state sequence in units of the current
scale, where the unit-covariance filter is exact; the M half
(``_mstep``) re-estimates the initial-state moments, fits (A, B) on the
exact smoothed second moments, and updates sigma^2 from the pooled
expected state and measurement residual.  After the last iteration,
whether the run converged, hit its cap or diverged, the dynamical
structure function of the estimate is sampled and thresholded into a
Boolean network.

The prior mode only decides how (A, B) are fitted; both fit under the
same identifiability mask, and both take (A, B) from the mean of one
``sbl.posterior`` call.  "sbl" refits its sparse prior with the
sparse-Bayesian inner loop, which ends in that call, on every fifth outer
iteration; the iterations between hold the last fitted prior and make
only that call, a generalized-EM step in the sense of Neal & Hinton
(1998), whose M-step need not maximize.  The diagnostic "ml" mode is the
masked classical EM: the posterior mean at unbounded prior variance on
the mask's free entries, which is the least-squares fit of each row of
[A B] on its free entries.  In "ml" mode each outer iteration is the
exact EM step of the tied, masked model, so the observed-data
log-likelihood is non-decreasing.
"""

import copy
import time
import typing
from dataclasses import dataclass, field, fields, replace as _dc_replace

import numpy as np

from . import dsf as _dsf
from .fileio import adjacency_rows, fmt, fmt_row, record_lines, write_text
from .model import StateSpaceModel
from .sbl import (MASK_MODES, identifiability_mask,
                  initial_sbl_state, posterior, sbl_em, regression_from_moments,
                  moment_rss, unpack_w, pack_w, _check_number_fields)
from .smoother import (FilterDivergedError, PassBuffers, expectation_sums,
                       observed_loglik, kalman_filter, rts_smoother,
                       lag_one_smoother)

__all__ = [
    "ReconConfig",
    "ReconResult",
    "IterationRecord",
    "RECON_KEYS",
    "recon_config",
    "recon_settings",
    "reconstruct",
    "p22_sweep",
    "converged",
    "save_result",
]

# Lower bound of the noise-scale estimate sigma^2.
_SIGMA2_FLOOR = 1e-12
# "sbl" refits the sparse prior on outer iterations 1, 1 + K, 1 + 2K, ...;
# the iterations between take (A, B) from the last fitted prior.
_REFIT_EVERY = 5


@dataclass(frozen=True)
class ReconConfig:
    """Settings for one reconstruction run.

    ``n_states`` is the assumed state dimension.  It may exceed the true
    one.  Surplus states stay: the sparse fit prunes entries of [A B],
    not states, and on desk-scale runs no hidden state of the estimate
    lost both its A12 column and its A21 row.  The network is read off
    the dynamical structure function, which does not depend on the
    hidden coordinates.  ``mask_mode`` selects the
    identifiability mask ("diag_b" or "p_diag" with ``p22``);
    ``prior_mode`` is "sbl" for the sparse prior or "ml" for the classical
    EM of the same tied-noise model under the same mask (a least-squares
    fit of the free entries only), a diagnostic whose observed-data
    log-likelihood never decreases.

    Both modes smooth in units of the current noise scale and update
    sigma^2 from the pooled state and measurement residual.  The sparse
    inner loop works on the exact smoothed second moments and starts
    afresh, from unit prior variances, on every fifth outer iteration
    (1, 6, 11, ...), so support decisions made against early, poor state
    estimates are not locked in; the iterations between hold the last
    fitted prior and take (A, B) from one ``posterior`` call.  A
    held-prior step that meets ``outer_tol`` forces a refit on the next
    iteration, and only a refit may end the run as converged.  The fit
    runs at the fixed ``SBLOptions()`` defaults, and the refit period is
    a constant, not a setting.

    Every field is a scalar under its own name in ``RECON_KEYS``.  There
    is no given start: ``seed`` seeds the random start of A alone, B
    starts as the identity on its top block, and both are zero at each
    entry of [A B] that the mask pins.  The read-off takes no seed: the
    estimate's DSF is sampled at the fixed ``default_q_points()`` and an
    edge is kept where its peak gain exceeds ``structure_rel_tol`` times
    the largest.

    A setting that would make the run meaningless raises ValueError: a
    count (``n_states``, ``p22``, ``outer_max_iter``, ``seed``) that is not
    an integer, a tolerance (``outer_tol``, ``structure_rel_tol``) that is
    not a number, an unknown ``mask_mode`` or ``prior_mode``, "p_diag"
    without ``p22 >= 0``, ``outer_max_iter < 1``, a negative ``seed`` or
    ``outer_tol``, or a ``structure_rel_tol`` outside [0, 1); a NaN fails
    every range.
    ``n_states`` and ``p22`` are checked against the data by
    :func:`reconstruct`.  A config is a frozen dataclass of scalars, so it
    stays valid and compares and hashes by value; ``dataclasses.replace``
    derives a changed one and validates it.
    """

    n_states: int
    mask_mode: str = "diag_b"
    p22: int | None = None
    prior_mode: str = "sbl"
    outer_max_iter: int = 50
    outer_tol: float = 1e-4
    structure_rel_tol: float = 3e-2
    seed: int = 0

    def __post_init__(self):
        _check_number_fields(self)
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"unknown mask_mode {self.mask_mode!r}")
        if self.mask_mode == "p_diag" and (self.p22 is None or self.p22 < 0):
            raise ValueError(f"mask_mode 'p_diag' needs p22 >= 0, got {self.p22}")
        if self.prior_mode not in ("sbl", "ml"):
            raise ValueError(f"unknown prior_mode {self.prior_mode!r}")
        if not self.outer_max_iter >= 1:
            raise ValueError(f"outer_max_iter must be at least 1, "
                             f"got {self.outer_max_iter}")
        if not self.outer_tol >= 0:
            raise ValueError(f"outer_tol must be nonnegative, got {self.outer_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        _dsf._check_rel_tol(self.structure_rel_tol, "structure_rel_tol")


# Key -> type of each ReconConfig field (an ``int | None`` field reads as
# int): the one key set of the reconstruct config keys, benchmark
# recon_<key> entries and the result-file config echo; each CLI flag is
# its key with '-' for '_'.
RECON_KEYS = {f.name: (typing.get_args(f.type) or (f.type,))[0]
              for f in fields(ReconConfig)}


def recon_config(settings):
    """Build a ReconConfig from a flat ``{key: value}`` mapping.

    Keys are the setting names, those of ``RECON_KEYS``; flags are those
    names with '-' for '_'.  String values are parsed to the key's type.
    Keys left out keep the defaults.  A missing ``n_states``, an unknown
    key, an unparsable value or a setting the config rejects raises
    ValueError that names the key.
    """
    values = {}
    for key, raw in settings.items():
        if key not in RECON_KEYS:
            raise ValueError(f"unknown reconstruction setting '{key}'")
        try:
            values[key] = RECON_KEYS[key](raw) if isinstance(raw, str) else raw
        except ValueError:
            raise ValueError(f"setting '{key}': cannot parse {raw!r}") from None
    if "n_states" not in values:
        raise ValueError("missing required setting 'n_states'")
    return ReconConfig(**values)


def recon_settings(cfg):
    """The flat ``{key: value}`` view of ``cfg`` over ``RECON_KEYS``; the
    inverse of :func:`recon_config`."""
    return {key: getattr(cfg, key) for key in RECON_KEYS}


@dataclass
class IterationRecord:
    """One outer iteration.  ``estep_s`` (filter, RTS, lag-one,
    log-likelihood, expectation sums) and ``mstep_s`` (regression, the
    (A, B) fit, the sigma^2 update) are the wall seconds of the iteration's
    successful attempt; like ``ReconResult.wall_time`` they stay in memory,
    out of record equality and out of the result file."""

    iteration: int
    obs_loglik: float
    n_active: int
    sigma2: float
    gamma_max: float
    inner_iterations: int
    damped: bool
    evidence_decreases: int
    estep_s: float = field(compare=False)
    mstep_s: float = field(compare=False)


@dataclass
class ReconResult:
    """Estimate, network and trace of one run.  ``last_step`` is the final
    relative step |w - w_prev| / max(1, |w_prev|) that was compared with
    ``outer_tol`` (NaN if no iteration finished), and ``loglik_decreases``
    counts the iterations whose observed log-likelihood fell below the
    previous one's.  These and ``wall_time`` stay out of the result file."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    sigma2_hat: float
    m0_hat: np.ndarray
    R0_hat: np.ndarray
    dsf: _dsf.FreqSample
    network: _dsf.NetworkGraph
    trace: list
    status: str
    wall_time: float = 0.0
    last_step: float = float("nan")
    loglik_decreases: int = 0


def _relative_step(w_prev, w_curr):
    """|w_curr - w_prev| / max(1, |w_prev|)."""
    w_prev = np.asarray(w_prev, dtype=float).ravel()
    w_curr = np.asarray(w_curr, dtype=float).ravel()
    if w_prev.shape != w_curr.shape:
        raise ValueError("w_prev and w_curr must have equal length")
    return float(np.linalg.norm(w_curr - w_prev)
                 / max(1.0, np.linalg.norm(w_prev)))


def converged(w_prev, w_curr, tol):
    """Relative step criterion: |w_curr - w_prev| <= tol max(1, |w_prev|)."""
    return _relative_step(w_prev, w_curr) <= tol


def _initial_parameters(n, m, mask, Y, seed):
    """Seeded stable starting point (A, B, sigma2, m0, R0), zero at every
    entry of [A B] that the mask pins.

    A starts as a random matrix on the mask's free entries, scaled to
    spectral radius 0.5 so every assumed state is excited from the first
    smoothing pass; a decoupled start (for example 0.5 I) leaves the hidden
    coordinates with flat trajectories, which the sparse prior can never
    recover from.  B starts as the identity on its top block.  Outputs
    whose variance overflows raise ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        var_y = float(np.var(Y))
    if not np.isfinite(var_y):
        raise ValueError("the output scale is too large: the variance of Y "
                         "overflows; rescale the outputs")
    freeA, freeB = unpack_w(mask.free, n, m)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1A17]))
    A = np.where(freeA, rng.standard_normal((n, n)), 0.0)
    A *= 0.5 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    sigma2 = max(0.1 * var_y, 1e-6)
    return A, np.where(freeB, np.eye(n, m), 0.0), sigma2, np.zeros(n), np.eye(n)


@dataclass(frozen=True, eq=False)
class _Iterate:
    """The parameters of the tied-noise model that one outer iteration maps
    to the next, in data units: (A, B), the noise scale sigma2 and the
    initial-state moments m0 and R0; and the last fitted sparse prior, if
    any: the prior variances ``gamma`` of w = [vec(A); vec(B)] and the
    inner loop's noise variance ``sbl_sigma2``.  Since B scales with the
    noise scale, B's prior variances are kept in data units too."""

    A: np.ndarray
    B: np.ndarray
    sigma2: float
    m0: np.ndarray
    R0: np.ndarray
    gamma: np.ndarray | None = None
    sbl_sigma2: float | None = None


def _estep(data, it, bufs, model):
    """E half of one outer iteration: smooth the data at the iterate ``it``.

    The smoothing pass runs on the data and model divided by
    s = sqrt(sigma2), where the unit process and measurement covariances
    are exact.  Returns the expectation sums of that pass, in units of s,
    and the observed log-likelihood, in data units.  Raises
    FilterDivergedError if the pass diverges.

    ``model`` is a validated ``StateSpaceModel`` with sigma = 1 and the
    record's shape, which ``reconstruct`` builds once per run.  The pass
    runs on a copy of it that carries the iterate's scaled arrays
    unchecked, for speed only: ``reconstruct`` ends a run at the first
    non-finite iterate, so none reaches the pass.

    The filter and RTS passes write their means into ``bufs``, a
    ``PassBuffers`` for the record, which every iteration reuses; nothing
    returned refers to them (the sums, x0_sm and P0_sm are fresh arrays),
    so a retry may overwrite them.
    """
    p, N = data.p, data.N
    s = float(np.sqrt(it.sigma2))
    # data and model were checked when built: the scaled copies skip their
    # copies and checks
    scaled = copy.copy(data)
    scaled.Y = data.Y / s
    model = copy.copy(model)
    model.A, model.B, model.m0, model.R0 = it.A, it.B / s, it.m0 / s, it.R0 / s**2
    fp = kalman_filter(model, scaled, out=bufs)
    sp = rts_smoother(model, fp, out=bufs)
    sp = _dc_replace(sp, M_sm=lag_one_smoother(sp, out=bufs))
    obs_ll = observed_loglik(model, scaled, fp=fp) - N * p * np.log(s)
    return expectation_sums(sp, scaled), obs_ll


def _mstep(es, it, mask, cfg, p, refit):
    """M half of one outer iteration: the next iterate from the sums ``es``
    of the pass at ``it`` (of a model with ``p`` outputs).

    m0 and R0 become the smoothed initial-state moments; (A, B) are fitted
    on the scaled second moments; and sigma2 is rescaled by the pooled
    expected state and measurement residual per coordinate, which is the
    exact M-step of the tied scale at the new (A, B).  In "sbl" mode with
    ``refit``, ``sbl_em`` fits the sparse prior afresh; otherwise (A, B)
    is the ``posterior`` mean at the iterate's prior, one ridge solve, and
    the record shows no inner iteration.  "ml" fits by least squares on the
    mask's free entries: the ``posterior`` mean at unbounded prior
    variance.  Returns (next iterate, fields): ``fields`` holds the
    record's fit fields and ``sigma2``, so the SBL state, with its
    posterior's row blocks, dies with the call.
    """
    n, m = it.B.shape
    N = es.N
    s = float(np.sqrt(it.sigma2))
    reg = regression_from_moments(es)
    gamma, sbl_sigma2 = it.gamma, it.sbl_sigma2
    if cfg.prior_mode == "ml":   # every free weight fitted, no prior variances
        mu_w = posterior(reg, np.where(mask.free, np.inf, 0.0), 1.0).mu_w
        fit = dict(n_active=int(mask.free.sum()), gamma_max=0.0,
                   inner_iterations=1, evidence_decreases=0)
    elif refit:
        st = sbl_em(reg, mask, init=initial_sbl_state(reg, mask, sigma2=1.0))
        mu_w, sbl_sigma2 = st.mu_w, st.sigma2
        gamma = st.gamma.copy()
        gamma[n * n:] *= s**2   # B's prior variances, to data units
        fit = dict(n_active=int(st.active.sum()), inner_iterations=st.iteration,
                   gamma_max=float(st.gamma.max()),
                   evidence_decreases=len(st.warnings))
    else:
        g = gamma.copy()
        g[n * n:] /= s**2   # B's prior variances, to units of s
        mu_w = posterior(reg, g, sbl_sigma2).mu_w
        fit = dict(n_active=int(np.count_nonzero(g)), inner_iterations=0,
                   gamma_max=float(g.max()), evidence_decreases=0)
    A, B_fit = unpack_w(mu_w, n, m)
    rss = moment_rss(float(np.trace(es.S_xx)), es.S_xz, es.S_zz,
                     np.hstack([A, B_fit])) + es.meas_rss
    new = _Iterate(A=A, B=B_fit * s,
                   sigma2=max(it.sigma2 * (rss / (N * (n + p))), _SIGMA2_FLOOR),
                   m0=es.x0_sm * s, R0=es.P0_sm * s**2, gamma=gamma,
                   sbl_sigma2=sbl_sigma2)
    return new, dict(sigma2=new.sigma2, **fit)


def reconstruct(data, cfg):
    """Run the full reconstruction on a dataset; returns a ReconResult.

    Each outer iteration composes ``_estep`` and ``_mstep``, whose
    log-likelihood and fields make its trace record.  "sbl" refits the
    sparse prior on iterations 1, 1 + K, 1 + 2K, ... (K = ``_REFIT_EVERY``)
    and on the iteration after any other whose step meets ``outer_tol``;
    the run is declared converged only on a refit, so it never stops on a
    support that the sparse fit has not re-checked.

    A failed iterate has one exit, status "diverged", which keeps the
    previous iterate's (A, B, sigma^2) and the records of the iterations
    that finished.  An E-step that diverges (a covariance blow-up, or an
    innovation covariance or an RTS pass's P_{k+1|k} that is not positive
    definite) is retried once halfway back to the previous iterate in
    (A, B, sigma^2), and the run stops if that fails too; an M-step whose
    (A, B, sigma^2) is not finite stops the run at once, after its record.
    """
    t_start = time.perf_counter()
    p, m = data.p, data.m
    n = cfg.n_states
    if n < p:
        raise ValueError("n_states must be at least the output dimension")

    mask = identifiability_mask(n, p, m, cfg.mask_mode, cfg.p22)
    cur = _Iterate(*_initial_parameters(n, m, mask, data.Y, cfg.seed))
    bufs = PassBuffers(data.N, n, p)   # one set for every smoothing pass
    model = StateSpaceModel(A=cur.A, B=cur.B, p=p, sigma=1.0, m0=cur.m0,
                            R0=cur.R0)   # each E-step runs a copy of it
    prev = cur
    w_prev = pack_w(cur.A, cur.B)
    trace = []
    status = "max_iter"
    last_step = float("nan")
    # every "ml" step is a full M-step
    every = _REFIT_EVERY if cfg.prior_mode == "sbl" else 1
    refit = True
    for it in range(1, cfg.outer_max_iter + 1):
        for damped in (False, True):
            if damped:   # retry halfway back to the previous iterate
                cur = _dc_replace(cur, A=0.5 * (cur.A + prev.A),
                                  B=0.5 * (cur.B + prev.B),
                                  sigma2=0.5 * (cur.sigma2 + prev.sigma2))
            t0 = time.perf_counter()
            try:
                es, obs_ll = _estep(data, cur, bufs, model)
                break
            except FilterDivergedError:
                pass
        else:
            status = "diverged"
            break
        t1 = time.perf_counter()
        new, fit = _mstep(es, cur, mask, cfg, p, refit)
        prev, cur = cur, new
        trace.append(IterationRecord(iteration=it, obs_loglik=obs_ll,
                                     damped=damped, estep_s=t1 - t0,
                                     mstep_s=time.perf_counter() - t1, **fit))
        w = pack_w(cur.A, cur.B)
        last_step = _relative_step(w_prev, w)
        if not (np.isfinite(w).all() and np.isfinite(cur.sigma2)):
            status = "diverged"
            break
        if last_step <= cfg.outer_tol and refit:
            status = "converged"
            break
        refit = last_step <= cfg.outer_tol or it % every == 0
        w_prev = w
    # the loop's working set goes before the read-off's temporaries
    del bufs, model
    if status == "diverged":
        cur = _dc_replace(cur, A=prev.A, B=prev.B, sigma2=prev.sigma2)

    model_hat = StateSpaceModel(A=cur.A, B=cur.B, p=p,
                                sigma=float(np.sqrt(cur.sigma2)),
                                m0=cur.m0, R0=cur.R0)
    sample = _dsf.dsf_from_state_space(model_hat, _dsf.default_q_points())
    network = _dsf.boolean_structure(sample, cfg.structure_rel_tol)
    return ReconResult(A_hat=cur.A, B_hat=cur.B, sigma2_hat=float(cur.sigma2),
                       m0_hat=cur.m0, R0_hat=cur.R0, dsf=sample,
                       network=network, trace=trace, status=status,
                       wall_time=time.perf_counter() - t_start,
                       last_step=last_step,
                       loglik_decreases=int(sum(
                           b.obs_loglik < a.obs_loglik
                           for a, b in zip(trace, trace[1:]))))


def p22_sweep(data, cfg):
    """Reconstruct once per feasible hidden-feedthrough dimension p22.

    There is no known rule for selecting p22 (it has at most p choices);
    this sweep reports every feasible reconstruction so the results can be
    compared side by side.  Returns a list of (p22, ReconResult).
    """
    p = data.p
    out = []
    for p22 in range(p + 1):
        if cfg.n_states - p < p - p22:
            continue  # block pattern does not fit in the hidden dimension
        sub = _dc_replace(cfg, mask_mode="p_diag", p22=p22)
        out.append((p22, reconstruct(data, sub)))
    return out


def save_result(path, result, config_echo):
    """Write the reconstruction result file (parameters, adjacencies, the
    DSF's sample points, per-iteration trace, and the full effective
    configuration); the DSF values themselves are not written."""
    n = result.A_hat.shape[0]
    m = result.B_hat.shape[1]
    lines = ["# netrecon result v1", f"status {result.status}",
             f"n_states {n}", f"m {m}",
             f"sigma2 {fmt(result.sigma2_hat)}", "config"]
    for key in sorted(config_echo):
        lines.append(f"  {key} {config_echo[key]}")
    lines.append("end_config")
    for name in ("A_hat", "B_hat", "m0_hat", "R0_hat"):   # m0_hat: one row
        lines.append(name)
        lines.extend(map(fmt_row, np.atleast_2d(getattr(result, name))))
    lines += ["q_adjacency", *adjacency_rows(result.network.q_adj),
              "p_adjacency", *adjacency_rows(result.network.p_adj)]
    lines.append("dsf_q_points")
    lines.extend(f"{fmt(q.real)} {fmt(q.imag)}" for q in result.dsf.q_points)
    lines.append("trace")
    lines.extend(record_lines(IterationRecord, result.trace, " "))
    write_text(path, "\n".join(lines) + "\n")
