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
same identifiability mask, through the same batched solve of the sparse
E-step (``sbl._kernel``).  "sbl" runs the sparse-Bayesian inner loop; the
diagnostic "ml" mode is the masked classical EM: one solve with unbounded
prior variance on the mask's free entries, which fits each row of [A B]
by least squares on its free entries.  In "ml" mode each
outer iteration is the exact EM step of the tied, masked model, so the
observed-data log-likelihood is non-decreasing.
"""

import time
import typing
from dataclasses import dataclass, field, fields, replace as _dc_replace

import numpy as np

from . import dsf as _dsf
from .fileio import fmt, fmt_row
from .model import Dataset, StateSpaceModel
from .sbl import (IdentifiabilityError, SBLOptions, identifiability_mask,
                  initial_sbl_state, sbl_em, regression_from_moments,
                  moment_rss, unpack_w, pack_w, _estep)
from .smoother import (FilterDivergedError, expectation_sums, observed_loglik,
                       kalman_filter, rts_smoother, lag_one_smoother)

__all__ = [
    "ReconConfig",
    "ReconResult",
    "IterationRecord",
    "RECON_KEYS",
    "recon_config",
    "recon_settings",
    "reconstruct",
    "p22_sweep",
    "unpack_w",
    "pack_w",
    "converged",
    "save_result",
]

# Lower bound of the noise-scale estimate sigma^2.
_SIGMA2_FLOOR = 1e-12


@dataclass
class ReconConfig:
    """Settings for one reconstruction run.

    ``n_states`` is the assumed state dimension (may exceed the true one;
    surplus states are expected to be pruned).  ``mask_mode`` selects the
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

    ``A_init``/``B_init`` warm-start the outer loop (masked entries are
    zeroed); being arrays, they have no key in ``RECON_KEYS``.

    A setting that would make the run meaningless raises ValueError: an
    unknown ``prior_mode``, ``outer_max_iter < 1``, a negative
    ``outer_tol`` or a ``structure_rel_tol`` outside [0, 1); a NaN
    fails every range.  ``n_states`` is checked against the data by
    :func:`reconstruct`.
    """

    n_states: int
    mask_mode: str = "diag_b"
    p22: int | None = None
    prior_mode: str = "sbl"
    outer_max_iter: int = 50
    outer_tol: float = 1e-4
    inner: SBLOptions = field(default_factory=lambda: SBLOptions(
        max_iter=60, prune_tol=1e-5))
    structure_rel_tol: float = 1e-2
    seed: int | None = None
    A_init: np.ndarray | None = None
    B_init: np.ndarray | None = None

    def __post_init__(self):
        if self.prior_mode not in ("sbl", "ml"):
            raise ValueError(f"unknown prior_mode {self.prior_mode!r}")
        if not self.outer_max_iter >= 1:
            raise ValueError(f"outer_max_iter must be at least 1, "
                             f"got {self.outer_max_iter}")
        if not self.outer_tol >= 0:
            raise ValueError(f"outer_tol must be nonnegative, got {self.outer_tol}")
        if not 0 <= self.structure_rel_tol < 1:
            raise ValueError(f"structure_rel_tol must be in [0, 1), "
                             f"got {self.structure_rel_tol}")


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
# CLI flags, reconstruct config keys, benchmark recon_<key> entries and the
# result-file config echo.
RECON_KEYS = dict(_scalar_fields(ReconConfig))


def _parse(kind, raw):
    return kind(raw) if isinstance(raw, str) else raw


def recon_config(settings):
    """Build a ReconConfig from a flat ``{key: value}`` mapping.

    Keys are those of ``RECON_KEYS``, with '-' read as '_'; string values
    are parsed to the key's type.  Keys left out keep the defaults, the
    nested SBLOptions' included.  A missing ``n_states``, an unknown key
    or an unparsable value raises ValueError.
    """
    top, inner = {}, {}
    for key, raw in settings.items():
        name = key.replace("-", "_")
        if name not in RECON_KEYS:
            raise ValueError(f"unknown reconstruction setting '{key}'")
        try:
            value = _parse(RECON_KEYS[name], raw)
        except ValueError:
            raise ValueError(f"setting '{key}': cannot parse {raw!r}") from None
        if name.startswith("inner_"):
            inner[name[len("inner_"):]] = value
        else:
            top[name] = value
    if "n_states" not in top:
        raise ValueError("missing required setting 'n_states'")
    cfg = ReconConfig(**top)
    cfg.inner = _dc_replace(cfg.inner, **inner)
    return cfg


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


def _initial_parameters(n, p, m, mask, Y, cfg):
    """Seeded stable starting point.

    A starts as a dense random matrix scaled to spectral radius 0.5 so
    every assumed state is excited from the first smoothing pass; a
    decoupled start (for example 0.5 I) leaves the hidden coordinates with
    flat trajectories, which the sparse prior can never recover from.
    """
    if cfg.A_init is not None:
        A = np.array(cfg.A_init, dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"A_init must have shape {(n, n)}")
    else:
        rng = np.random.default_rng(np.random.SeedSequence(
            [0 if cfg.seed is None else int(cfg.seed), 0x1A17]))
        A = rng.standard_normal((n, n))
        A *= 0.5 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    if cfg.B_init is not None:
        B = np.array(cfg.B_init, dtype=float)
        if B.shape != (n, m):
            raise ValueError(f"B_init must have shape {(n, m)}")
    else:
        B = np.zeros((n, m))
        B[np.arange(min(p, m)), np.arange(min(p, m))] = 1.0
    freeB = mask.free[n * n:].reshape((n, m), order="F")
    B[~freeB] = 0.0
    sigma2 = max(0.1 * float(np.var(Y)), 1e-6)
    return A, B, sigma2, np.zeros(n), np.eye(n)


def _measurement_residual(sp, data, C):
    """Expected squared measurement residual, summed over all samples."""
    resid = data.Y - sp.x_sm[1:] @ C.T
    cov = float(np.sum(C * (C @ sp.P_sm.total(1, data.N + 1))))
    return float((resid**2).sum()) + cov


def _em_step(data, params, mask, cfg):
    """One outer EM iteration of the tied-noise model.

    ``params`` is (A, B, sigma2, m0, R0).  The smoothing pass runs on the
    data and model divided by s = sqrt(sigma2), where the unit process and
    measurement covariances are exact; m0 and R0 become the smoothed
    initial-state moments, (A, B) are fitted on the scaled second moments
    (by ``sbl_em``, or in "ml" mode by least squares on the mask's free
    entries, one E-step solve with unbounded prior variances), and sigma2 is
    rescaled by the pooled expected state and measurement residual per
    coordinate, which is the exact M-step of the tied scale at the new
    (A, B).  Returns (new params, observed log-likelihood of ``params``,
    the SBL state or None, the number of RTS pseudo-inverse steps, the
    E-step and M-step wall seconds).  Raises FilterDivergedError if the
    smoothing pass diverges.
    """
    t0 = time.perf_counter()
    A, B, sigma2, m0, R0 = params
    n, p, m, N = A.shape[0], data.p, data.m, data.N
    s = float(np.sqrt(sigma2))
    C = np.hstack([np.eye(p), np.zeros((p, n - p))])
    scaled = Dataset(Y=data.Y / s, U=data.U, N=N)
    model = StateSpaceModel(A=A, B=B / s, C=C, D=np.zeros((p, m)), sigma=1.0,
                            m0=m0 / s, R0=R0 / s**2)
    fp = kalman_filter(model, scaled)
    sp = rts_smoother(model, fp)
    sp = _dc_replace(sp, M_sm=lag_one_smoother(sp))
    obs_ll = observed_loglik(model, scaled, fp=fp) - N * p * np.log(s)
    es = expectation_sums(sp, scaled, sp.x_sm[0])
    t1 = time.perf_counter()

    reg = regression_from_moments(es, n, m)
    if cfg.prior_mode == "sbl":
        st = sbl_em(reg, mask, init=initial_sbl_state(reg, mask, sigma2=1.0),
                    opts=cfg.inner)
        A, B_fit = unpack_w(st.mu_w, n, m)
    else:
        st = None
        L = _estep(reg, np.where(mask.free, np.inf, 0.0), 1.0)[0]
        A, B_fit = L[:, :n], L[:, n:]
    rss = (moment_rss(float(np.trace(es.S_xx)), es.S_xz, es.S_zz,
                      np.hstack([A, B_fit]))
           + _measurement_residual(sp, scaled, C))
    new = (A, B_fit * s, max(sigma2 * (rss / (N * (n + p))), _SIGMA2_FLOOR),
           sp.x_sm[0] * s, sp.P_sm[0] * s**2)
    t2 = time.perf_counter()
    return new, obs_ll, st, len(sp.pinv_steps), t1 - t0, t2 - t1


def reconstruct(data, cfg):
    """Run the full reconstruction on a dataset; returns a ReconResult.

    On filter divergence the iteration is retried once with (A, B, sigma^2)
    halfway back to the previous iterate; a second failure stops the run
    with status "diverged", the previous iterate and a partial trace.
    """
    t_start = time.perf_counter()
    p, m = data.p, data.m
    if m != p:
        raise IdentifiabilityError(
            "reconstruction requires m = p (one independent input per output)")
    n = cfg.n_states
    if n < p:
        raise ValueError("n_states must be at least the output dimension")

    mask = identifiability_mask(n, p, m, cfg.mask_mode, cfg.p22)
    params = _initial_parameters(n, p, m, mask, data.Y, cfg)
    prev = params
    w_prev = pack_w(params[0], params[1])
    trace = []
    status = "max_iter"
    last_step = float("nan")
    for it in range(1, cfg.outer_max_iter + 1):
        damped = False
        try:
            step = _em_step(data, params, mask, cfg)
        except FilterDivergedError:
            damped = True
            A, B, sigma2, m0, R0 = params
            params = (0.5 * (A + prev[0]), 0.5 * (B + prev[1]),
                      0.5 * (sigma2 + prev[2]), m0, R0)
            try:
                step = _em_step(data, params, mask, cfg)
            except FilterDivergedError:
                status = "diverged"
                params = prev[:3] + params[3:]
                break
        prev = params
        params, obs_ll, st, pinv_steps, estep_s, mstep_s = step
        w = pack_w(params[0], params[1])

        if st is None:   # "ml": every free weight fitted, no prior variances
            n_active, gamma_max, inner_iters, decreases = \
                int(mask.free.sum()), 0.0, 1, 0
        else:
            n_active, gamma_max = int(st.active.sum()), float(st.gamma.max())
            inner_iters, decreases = st.iteration, len(st.warnings)
        trace.append(IterationRecord(
            iteration=it, obs_loglik=obs_ll, n_active=n_active,
            sigma2=params[2], gamma_max=gamma_max,
            inner_iterations=inner_iters, damped=damped,
            pinv_steps=pinv_steps, evidence_decreases=decreases,
            estep_s=estep_s, mstep_s=mstep_s))
        del step, st   # the dense Sigma_w must not outlive its iteration
        last_step = _relative_step(w_prev, w)
        if last_step <= cfg.outer_tol:
            status = "converged"
            break
        w_prev = w

    A, B, sigma2, m0, R0 = params
    model_hat = StateSpaceModel(
        A=A, B=B, C=np.hstack([np.eye(p), np.zeros((p, n - p))]),
        D=np.zeros((p, m)), sigma=float(np.sqrt(sigma2)), m0=m0, R0=R0)
    q_points = _dsf.default_q_points(seed=0 if cfg.seed is None else int(cfg.seed))
    sample = _dsf.dsf_from_state_space(model_hat, q_points)
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
    lines.append("A_hat")
    lines.extend(fmt_row(row) for row in result.A_hat)
    lines.append("B_hat")
    lines.extend(fmt_row(row) for row in result.B_hat)
    lines.append("m0_hat")
    lines.append(fmt_row(result.m0_hat))
    lines.append("R0_hat")
    lines.extend(fmt_row(row) for row in result.R0_hat)
    lines.append("q_adjacency")
    lines.extend(" ".join(str(int(v)) for v in row) for row in result.network.q_adj)
    lines.append("p_adjacency")
    lines.extend(" ".join(str(int(v)) for v in row) for row in result.network.p_adj)
    lines.append("dsf_q_points")
    lines.extend(f"{fmt(q.real)} {fmt(q.imag)}" for q in result.dsf.q_points)
    lines.append("trace")
    lines.append("iteration obs_loglik n_active sigma2 gamma_max "
                 "inner_iterations damped pinv_steps evidence_decreases")
    for rec in result.trace:
        lines.append(" ".join([str(rec.iteration), fmt(rec.obs_loglik),
                               str(rec.n_active), fmt(rec.sigma2),
                               fmt(rec.gamma_max), str(rec.inner_iterations),
                               str(int(rec.damped)), str(rec.pinv_steps),
                               str(rec.evidence_decreases)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
