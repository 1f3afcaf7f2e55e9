"""Outer EM loop: alternate Kalman smoothing with SBL parameter updates.

Each outer iteration smooths the state sequence under the current
parameters, re-estimates the initial-state moments, assembles the
state regression, and runs the sparse-Bayesian inner loop under an
identifiability mask to update (A, B, sigma^2).  On convergence the
dynamical structure function of the estimate is sampled and thresholded
into a Boolean network.

A diagnostic "ml" prior mode replaces the inner loop with the exact
maximum-likelihood M-step built from the smoothed second moments; in that
mode the outer loop is classical EM and the observed-data log-likelihood
is non-decreasing.
"""

import time
import typing
import warnings
from dataclasses import dataclass, field, fields, replace as _dc_replace

import numpy as np

from . import dsf as _dsf
from .fileio import fmt, fmt_row
from .model import Dataset, StateSpaceModel
from .sbl import (IdentifiabilityError, SBLOptions, SBLState,
                  identifiability_mask, sbl_em, regression_from_moments,
                  unpack_w, pack_w)
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


@dataclass
class ReconConfig:
    """Settings for one reconstruction run.

    ``n_states`` is the assumed state dimension (may exceed the true one;
    surplus states are expected to be pruned).  ``mask_mode`` selects the
    identifiability mask ("diag_b" or "p_diag" with ``p22``);
    ``prior_mode`` is "sbl" for the sparse prior or "ml" for the classical
    EM diagnostic mode.

    The sparse path ties the measurement-noise scale to the process scale
    (the simulator's single-innovation-scale convention): each smoothing
    pass runs on data divided by the current scale estimate, where the
    unit-covariance filter is exact.  Its inner loop works on the exact
    smoothed second moments and starts afresh in every outer iteration,
    so support decisions made against early, poor state estimates are not
    locked in.  The "ml" mode keeps the measurement covariance at I.

    ``A_init``/``B_init`` warm-start the outer loop (masked entries are
    zeroed); being arrays, they have no key in ``RECON_KEYS``.
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
    sigma2_init: float | None = None
    sigma2_floor: float = 1e-12
    A_init: np.ndarray | None = None
    B_init: np.ndarray | None = None


def _scalar_fields(cls, prefix=""):
    """(key, type) of each scalar field; SBLOptions nests as inner_<field>."""
    for f in fields(cls):
        if f.name == "inner":
            yield from _scalar_fields(SBLOptions, "inner_")
            continue
        kind = [k for k in typing.get_args(f.type) or (f.type,)
                if k is not type(None)][0]
        if kind in (bool, int, float, str):   # not the A_init/B_init arrays
            yield prefix + f.name, kind


# Flat key -> type of every reconstruction setting: the one key set of the
# CLI flags, reconstruct config keys, benchmark recon_<key> entries and the
# result-file config echo.
RECON_KEYS = dict(_scalar_fields(ReconConfig))


def _parse(kind, raw):
    if not isinstance(raw, str):
        return raw
    if kind is bool:
        return {"1": True, "true": True, "yes": True,
                "0": False, "false": False, "no": False}[raw.lower()]
    return kind(raw)


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
        except (KeyError, ValueError):
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
    iteration: int
    obs_loglik: float
    n_active: int
    sigma2: float
    gamma_max: float
    inner_iterations: int
    damped: bool


@dataclass
class ReconResult:
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


def converged(w_prev, w_curr, tol):
    """Relative step criterion: |w_curr - w_prev| <= tol max(1, |w_prev|)."""
    w_prev = np.asarray(w_prev, dtype=float).ravel()
    w_curr = np.asarray(w_curr, dtype=float).ravel()
    if w_prev.shape != w_curr.shape:
        raise ValueError("w_prev and w_curr must have equal length")
    return bool(np.linalg.norm(w_curr - w_prev)
                <= tol * max(1.0, np.linalg.norm(w_prev)))


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
    sigma2 = cfg.sigma2_init
    if sigma2 is None:
        sigma2 = max(0.1 * float(np.var(Y)), 1e-6)
    return A, B, float(sigma2), np.zeros(n), np.eye(n)


def _expected_residual_sigma2(es, A, B, n):
    """Exact conditional M-step for the noise scale at a given (A, B):
    the expected squared one-step residual per state coordinate."""
    L = np.hstack([A, B])
    trace_term = float(np.trace(es.S_xx)) - 2.0 * float(np.sum(L * es.S_xz)) \
        + float(np.sum((L @ es.S_zz) * L))
    return trace_term / (es.N * n)


def _ml_m_step(es, n):
    """Exact M-step of the expected complete-data log-likelihood:
    L = S_xz S_zz^{-1} and the matching variance update."""
    L = np.linalg.solve(es.S_zz, es.S_xz.T).T
    A, B = L[:, :n], L[:, n:]
    return A, B, _expected_residual_sigma2(es, A, B, n)


def _measurement_residual(sp, data, C):
    """Expected squared measurement residual, summed over all samples."""
    resid = data.Y - sp.x_sm[1:] @ C.T
    cov = float(np.einsum("ij,kjl,il->", C, sp.P_sm[1:], C))
    return float((resid**2).sum()) + cov


def reconstruct(data, cfg):
    """Run the full reconstruction on a dataset; returns a ReconResult.

    On filter divergence the parameters are blended 50/50 with the
    previous outer iterate and the iteration retried once; a second
    failure stops the run with status "diverged" and a partial trace.
    """
    t_start = time.perf_counter()
    p, m = data.p, data.m
    if m != p:
        raise IdentifiabilityError(
            "reconstruction requires m = p (one independent input per output)")
    n = cfg.n_states
    if n < p:
        raise ValueError("n_states must be at least the output dimension")
    if cfg.prior_mode not in ("sbl", "ml"):
        raise ValueError(f"unknown prior_mode {cfg.prior_mode!r}")

    mask = identifiability_mask(n, p, m, cfg.mask_mode, cfg.p22)
    A, B, sigma2, m0, R0 = _initial_parameters(n, p, m, mask, data.Y, cfg)
    gamma_free = np.where(mask.free, 1.0, 0.0)
    gamma = gamma_free
    w_prev = pack_w(A, B)
    prev_params = (A.copy(), B.copy(), sigma2, m0.copy(), R0.copy())

    C = np.hstack([np.eye(p), np.zeros((p, n - p))])
    D = np.zeros((p, m))

    tied = cfg.prior_mode == "sbl"
    trace = []
    status = "max_iter"
    for it in range(1, cfg.outer_max_iter + 1):
        damped = False
        fp = None
        for attempt in range(2):
            # in tied mode the smoothing pass runs in units of the current
            # noise scale, where the unit measurement covariance is exact
            s = float(np.sqrt(max(sigma2, cfg.sigma2_floor))) if tied else 1.0
            fit_data = Dataset(Y=data.Y / s, U=data.U, N=data.N) if tied else data
            model = StateSpaceModel(
                A=A, B=B / s, C=C, D=D,
                sigma=1.0 if tied else float(np.sqrt(max(sigma2, cfg.sigma2_floor))),
                m0=m0 / s, R0=R0 / s**2)
            try:
                fp = kalman_filter(model, fit_data)
                break
            except FilterDivergedError:
                if attempt == 1:
                    break
                damped = True
                A = 0.5 * (A + prev_params[0])
                B = 0.5 * (B + prev_params[1])
                sigma2 = 0.5 * (sigma2 + prev_params[2])
                m0 = 0.5 * (m0 + prev_params[3])
                R0 = 0.5 * (R0 + prev_params[4])
        if fp is None:
            status = "diverged"
            A, B, sigma2, m0, R0 = prev_params
            break

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sp = rts_smoother(model, fp)
            sp = _dc_replace(sp, M_sm=lag_one_smoother(model, fp, sp))

        obs_ll = observed_loglik(model, fit_data, fp=fp) - data.N * p * np.log(s)
        m0 = sp.x_sm[0] * s
        R0 = sp.P_sm[0] * s**2

        prev_params = (A.copy(), B.copy(), sigma2, m0.copy(), R0.copy())
        es = expectation_sums(sp, fit_data, sp.x_sm[0])

        if tied:
            reg = regression_from_moments(es, n, m)
            init = SBLState(gamma=gamma_free, sigma2=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                st = sbl_em(reg, mask, init=init, opts=cfg.inner)
            gamma = st.gamma
            A, B_fit = unpack_w(st.mu_w, n, m)
            B = B_fit * s
            # pooled expected residual of the state and measurement
            # couplings, applied as a correction to the current scale
            ratio = (_expected_residual_sigma2(es, A, B_fit, n) * (data.N * n)
                     + _measurement_residual(sp, fit_data, C)) \
                / (data.N * (n + p))
            sigma2 = max(sigma2 * ratio, cfg.sigma2_floor)
            inner_iters = st.iteration
            n_active = int(st.active.sum())
        else:
            A, B, sigma2_new = _ml_m_step(es, n)
            sigma2 = max(sigma2_new, cfg.sigma2_floor)
            inner_iters = 1
            n_active = n * (n + m)
        w = pack_w(A, B)

        trace.append(IterationRecord(
            iteration=it, obs_loglik=obs_ll, n_active=n_active,
            sigma2=sigma2, gamma_max=float(gamma.max()) if gamma.size else 0.0,
            inner_iterations=inner_iters, damped=damped))
        if converged(w_prev, w, cfg.outer_tol):
            status = "converged"
            w_prev = w
            break
        w_prev = w

    model_hat = StateSpaceModel(
        A=A, B=B, C=C, D=D,
        sigma=float(np.sqrt(max(sigma2, cfg.sigma2_floor))), m0=m0, R0=R0)
    q_points = _dsf.default_q_points(seed=0 if cfg.seed is None else int(cfg.seed))
    sample = _dsf.dsf_from_state_space(model_hat, q_points)
    network = _dsf.boolean_structure(sample, cfg.structure_rel_tol)
    return ReconResult(A_hat=A, B_hat=B, sigma2_hat=float(sigma2),
                       m0_hat=m0, R0_hat=R0, dsf=sample, network=network,
                       trace=trace, status=status,
                       wall_time=time.perf_counter() - t_start)


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
    lines.append("iteration obs_loglik n_active sigma2 gamma_max inner_iterations damped")
    for rec in result.trace:
        lines.append(" ".join([str(rec.iteration), fmt(rec.obs_loglik),
                               str(rec.n_active), fmt(rec.sigma2),
                               fmt(rec.gamma_max), str(rec.inner_iterations),
                               str(int(rec.damped))]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
