"""Outer EM loop: alternate Kalman smoothing with SBL parameter updates.

The model ties the measurement-noise scale to the process scale (the
simulator's single-innovation-scale convention): x_k = A x_{k-1} +
B u_{k-1} + sigma w_k and y_k = C x_k + sigma v_k.  One outer iteration
(``_em_step``) maps the parameters (A, B, sigma^2, m0, R0) to the next
ones: it smooths the state sequence in units of the current scale, where
the unit-covariance filter is exact, re-estimates the initial-state
moments, fits (A, B) on the exact smoothed second moments, and updates
sigma^2 from the pooled expected state and measurement residual.  On
convergence the dynamical structure function of the estimate is sampled
and thresholded into a Boolean network.

The prior mode only decides how (A, B) are fitted; both fit under the
same identifiability mask, and both take (A, B) from the mean of one
``sbl.posterior`` call.  "sbl" runs the sparse-Bayesian inner loop, which
ends in that call; the diagnostic "ml" mode is the masked classical EM:
the posterior mean at unbounded prior variance on the mask's free entries,
which is the least-squares fit of each row of [A B] on its free entries.
In "ml" mode each outer iteration is the exact EM step of the tied, masked
model, so the observed-data log-likelihood is non-decreasing.
"""

import copy
import time
import typing
from dataclasses import dataclass, field, fields, replace as _dc_replace

import numpy as np

from . import dsf as _dsf
from .fileio import adjacency_rows, fmt, fmt_row, record_lines, write_text
from .model import StateSpaceModel
from .sbl import (MASK_MODES, SBLOptions, identifiability_mask,
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
    afresh in every outer iteration, so support decisions made against
    early, poor state estimates are not locked in.

    ``A_init``/``B_init`` warm-start the outer loop; being arrays, they
    have no key in ``RECON_KEYS``.  Every start, given or not, is zero at
    each entry of [A B] that the mask pins.  ``seed`` seeds the random
    start of A alone.  The read-off takes no seed: the estimate's DSF is
    sampled at the fixed ``default_q_points()`` and an edge is kept where
    its peak gain exceeds ``structure_rel_tol`` times the largest.

    A setting that would make the run meaningless raises ValueError: a
    count (``n_states``, ``p22``, ``outer_max_iter``, ``seed``) that is not
    an integer, a tolerance (``outer_tol``, ``structure_rel_tol``) that is
    not a number, an unknown ``mask_mode`` or ``prior_mode``, "p_diag"
    without ``p22 >= 0``, ``outer_max_iter < 1``, a negative ``outer_tol``
    or a ``structure_rel_tol`` outside [0, 1); a NaN fails every range.
    ``n_states`` and ``p22`` are checked against the data by
    :func:`reconstruct`.  A config is frozen, so it stays valid;
    ``dataclasses.replace`` derives a changed one and validates it.
    """

    n_states: int
    mask_mode: str = "diag_b"
    p22: int | None = None
    prior_mode: str = "sbl"
    outer_max_iter: int = 50
    outer_tol: float = 1e-4
    inner: SBLOptions = field(default_factory=SBLOptions)
    structure_rel_tol: float = 3e-2
    seed: int | None = None
    A_init: np.ndarray | None = None
    B_init: np.ndarray | None = None

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
        _dsf._check_rel_tol(self.structure_rel_tol, "structure_rel_tol")


def _scalar_fields(cls, prefix=""):
    """(key, type) of each scalar field; SBLOptions nests as inner_<field>."""
    for f in fields(cls):
        if f.name == "inner":
            yield from _scalar_fields(SBLOptions, "inner_")
            continue
        kind = [k for k in typing.get_args(f.type) or (f.type,)
                if k is not type(None)][0]
        if kind in (int, float, str):   # not the A_init/B_init arrays
            yield prefix + f.name, kind


# Flat key -> type of every reconstruction setting: the one key set of the
# reconstruct config keys, benchmark recon_<key> entries and the result-file
# config echo; each CLI flag is its key with '-' for '_'.
RECON_KEYS = dict(_scalar_fields(ReconConfig))


def recon_config(settings):
    """Build a ReconConfig from a flat ``{key: value}`` mapping.

    Keys are the setting names, those of ``RECON_KEYS``; flags are those
    names with '-' for '_'.  String values are parsed to the key's type.
    Keys left out keep the defaults, the nested SBLOptions' included.  A
    missing ``n_states``, an unknown key, an unparsable value or a setting
    the configs reject raises ValueError that names the flat key
    (``inner_max_iter``, not ``max_iter``).
    """
    top, inner = {}, {}
    for key, raw in settings.items():
        if key not in RECON_KEYS:
            raise ValueError(f"unknown reconstruction setting '{key}'")
        try:
            value = RECON_KEYS[key](raw) if isinstance(raw, str) else raw
        except ValueError:
            raise ValueError(f"setting '{key}': cannot parse {raw!r}") from None
        if key.startswith("inner_"):
            inner[key[len("inner_"):]] = value
        else:
            top[key] = value
    if "n_states" not in top:
        raise ValueError("missing required setting 'n_states'")
    cfg = ReconConfig(**top)
    try:
        return _dc_replace(cfg, inner=_dc_replace(cfg.inner, **inner))
    except ValueError as exc:   # SBLOptions names its field first
        raise ValueError(f"inner_{exc}") from None


def recon_settings(cfg):
    """The flat ``{key: value}`` view of ``cfg`` over ``RECON_KEYS``; the
    inverse of :func:`recon_config`."""
    return {key: getattr(cfg.inner, key[len("inner_"):])
            if key.startswith("inner_") else getattr(cfg, key)
            for key in RECON_KEYS}


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
    pinv_steps: int
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


def _initial_parameters(n, m, mask, Y, cfg):
    """Seeded stable starting point, zero at every entry of [A B] that the
    mask pins.

    A starts as a random matrix on the mask's free entries, scaled to
    spectral radius 0.5 so every assumed state is excited from the first
    smoothing pass; a decoupled start (for example 0.5 I) leaves the hidden
    coordinates with flat trajectories, which the sparse prior can never
    recover from.  B starts as the identity on its top block.
    """
    freeA, freeB = unpack_w(mask.free, n, m)
    A, B = cfg.A_init, cfg.B_init
    for name, start, free in (("A_init", A, freeA), ("B_init", B, freeB)):
        if start is not None and np.shape(start) != free.shape:
            raise ValueError(f"{name} must have shape {free.shape}")
    if A is None:
        rng = np.random.default_rng(np.random.SeedSequence(
            [0 if cfg.seed is None else int(cfg.seed), 0x1A17]))
        A = np.where(freeA, rng.standard_normal((n, n)), 0.0)
        A *= 0.5 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    B = np.eye(n, m) if B is None else B
    sigma2 = max(0.1 * float(np.var(Y)), 1e-6)
    return (np.where(freeA, A, 0.0), np.where(freeB, B, 0.0), sigma2,
            np.zeros(n), np.eye(n))


def _em_step(data, params, mask, cfg, bufs):
    """One outer EM iteration of the tied-noise model.

    ``params`` is (A, B, sigma2, m0, R0).  The smoothing pass runs on the
    data and model divided by s = sqrt(sigma2), where the unit process and
    measurement covariances are exact; m0 and R0 become the smoothed
    initial-state moments, (A, B) are fitted on the scaled second moments
    (by ``sbl_em``, or in "ml" mode by least squares on the mask's free
    entries: the ``posterior`` mean at unbounded prior variance), and sigma2 is
    rescaled by the pooled expected state and measurement residual per
    coordinate, which is the exact M-step of the tied scale at the new
    (A, B).  Returns (new params, fields): ``fields`` holds every
    ``IterationRecord`` field but ``iteration`` and ``damped``, so the SBL
    state, with its posterior's row blocks, dies with the call.  Raises
    FilterDivergedError if the smoothing pass diverges.

    The filter and RTS passes write their means into ``bufs``, a
    ``PassBuffers`` for the record, which every iteration reuses; nothing
    returned refers to them (the new m0 and R0 and the expectation sums
    are fresh arrays), so a retry may overwrite them.
    """
    t0 = time.perf_counter()
    A, B, sigma2, m0, R0 = params
    n, p, m, N = A.shape[0], data.p, data.m, data.N
    s = float(np.sqrt(sigma2))
    # data was checked when built: the scaled copy skips Dataset's copies
    # and finiteness check
    scaled = copy.copy(data)
    scaled.Y = data.Y / s
    model = StateSpaceModel(A=A, B=B / s, p=p, sigma=1.0, m0=m0 / s,
                            R0=R0 / s**2)
    fp = kalman_filter(model, scaled, out=bufs)
    sp = rts_smoother(model, fp, out=bufs)
    sp = _dc_replace(sp, M_sm=lag_one_smoother(sp))
    obs_ll = observed_loglik(model, scaled, fp=fp) - N * p * np.log(s)
    es = expectation_sums(sp, scaled)
    t1 = time.perf_counter()

    reg = regression_from_moments(es)
    if cfg.prior_mode == "sbl":
        st = sbl_em(reg, mask, init=initial_sbl_state(reg, mask, sigma2=1.0),
                    opts=cfg.inner)
        mu_w = st.mu_w
        fit = dict(n_active=int(st.active.sum()), inner_iterations=st.iteration,
                   gamma_max=float(st.gamma.max()),
                   evidence_decreases=len(st.warnings))
    else:   # "ml": every free weight fitted, no prior variances
        mu_w = posterior(reg, np.where(mask.free, np.inf, 0.0), 1.0).mu_w
        fit = dict(n_active=int(mask.free.sum()), gamma_max=0.0,
                   inner_iterations=1, evidence_decreases=0)
    A, B_fit = unpack_w(mu_w, n, m)
    rss = moment_rss(float(np.trace(es.S_xx)), es.S_xz, es.S_zz,
                     np.hstack([A, B_fit])) + es.meas_rss
    new = (A, B_fit * s, max(sigma2 * (rss / (N * (n + p))), _SIGMA2_FLOOR),
           es.x0_sm * s, es.P0_sm * s**2)
    t2 = time.perf_counter()
    return new, dict(obs_loglik=obs_ll, sigma2=new[2],
                     pinv_steps=len(sp.pinv_steps), estep_s=t1 - t0,
                     mstep_s=t2 - t1, **fit)


def reconstruct(data, cfg):
    """Run the full reconstruction on a dataset; returns a ReconResult.

    Each outer iteration is one ``_em_step``, whose fields make its trace
    record.  On filter divergence the iteration is retried once with (A, B,
    sigma^2) halfway back to the previous iterate; a second failure stops
    the run with status "diverged", the previous iterate and a partial trace.
    """
    t_start = time.perf_counter()
    p, m = data.p, data.m
    n = cfg.n_states
    if n < p:
        raise ValueError("n_states must be at least the output dimension")

    mask = identifiability_mask(n, p, m, cfg.mask_mode, cfg.p22)
    params = _initial_parameters(n, m, mask, data.Y, cfg)
    bufs = PassBuffers(data.N, n, p)   # one set for every smoothing pass
    prev = params
    w_prev = pack_w(params[0], params[1])
    trace = []
    status = "max_iter"
    last_step = float("nan")
    for it in range(1, cfg.outer_max_iter + 1):
        damped = False
        try:
            new, record = _em_step(data, params, mask, cfg, bufs)
        except FilterDivergedError:
            damped = True
            A, B, sigma2, m0, R0 = params
            params = (0.5 * (A + prev[0]), 0.5 * (B + prev[1]),
                      0.5 * (sigma2 + prev[2]), m0, R0)
            try:
                new, record = _em_step(data, params, mask, cfg, bufs)
            except FilterDivergedError:
                status = "diverged"
                params = prev[:3] + params[3:]
                break
        prev, params = params, new
        trace.append(IterationRecord(iteration=it, damped=damped, **record))
        w = pack_w(params[0], params[1])
        last_step = _relative_step(w_prev, w)
        if last_step <= cfg.outer_tol:
            status = "converged"
            break
        w_prev = w

    A, B, sigma2, m0, R0 = params
    model_hat = StateSpaceModel(A=A, B=B, p=p, sigma=float(np.sqrt(sigma2)),
                                m0=m0, R0=R0)
    sample = _dsf.dsf_from_state_space(model_hat, _dsf.default_q_points())
    network = _dsf.boolean_structure(sample, cfg.structure_rel_tol)
    return ReconResult(A_hat=A, B_hat=B, sigma2_hat=float(sigma2),
                       m0_hat=m0, R0_hat=R0, dsf=sample, network=network,
                       trace=trace, status=status,
                       wall_time=time.perf_counter() - t_start,
                       last_step=last_step,
                       loglik_decreases=sum(b.obs_loglik < a.obs_loglik
                                            for a, b in zip(trace, trace[1:])))


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
    """Write the reconstruction result file (parameters, adjacencies, DSF
    samples, per-iteration trace, and the full effective configuration)."""
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
