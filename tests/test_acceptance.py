"""Acceptance gates for the whole package.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS line (run with ``pytest tests/test_acceptance.py -v -s``).  The
benchmark gate (criterion 7) runs the full desk-scale sweep and takes a
few minutes; everything else completes in seconds.
"""

import os
import time

import numpy as np
import pytest

from netrecon import (BenchConfig, ReconConfig, SBLOptions, Mask,
                      StateSpaceModel, default_q_points, dsf_from_state_space,
                      generate_random_network, identifiability_mask,
                      marginal_loglik, observed_loglik, posterior, reconstruct,
                      run_benchmark, sbl_em, simulate, smooth)
from netrecon.cli import cli_main

from _oracles import (DesignRegression, exact_dsf_small, loglik_oracle,
                      pinv_posterior_dense, ridge_posterior_dense,
                      random_stable_model, smoothed_oracle)


def _report(num, text):
    print(f"\nPASS criterion {num}: {text}")


def _instances(count, seed, n_max=6, p_max=3, N_max=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        p = int(rng.integers(1, min(n, p_max) + 1))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(2, N_max + 1))
        model = random_stable_model(rng, n=n, p=p, m=m)
        data = simulate(model, N, seed=int(rng.integers(2**31)))
        yield model, data


def test_criterion_1_smoother_oracle_equivalence():
    worst = 0.0
    for model, data in _instances(100, seed=1001):
        _, sp = smooth(model, data)
        means, covs, lags = smoothed_oracle(model, data)
        worst = max(worst,
                    np.abs(sp.x_sm - means).max(),
                    np.abs(sp.P_sm - covs).max(),
                    np.abs(sp.M_sm[1:] - lags[1:]).max())
    assert worst <= 1e-8
    _report(1, f"smoother matches joint-Gaussian conditioning on 100 systems "
               f"(max abs error {worst:.2e} <= 1e-8)")


def test_criterion_2_observed_loglik_equivalence():
    worst = 0.0
    for model, data in _instances(100, seed=2002):
        worst = max(worst, abs(observed_loglik(model, data)
                               - loglik_oracle(model, data)))
    assert worst <= 1e-8
    _report(2, f"prediction-error log-likelihood matches joint-Gaussian "
               f"density on 100 systems (max abs error {worst:.2e} <= 1e-8)")


def test_criterion_3_classical_em_monotonicity():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for trial in range(20):
        p = int(rng.integers(1, 3))
        n = p + int(rng.integers(0, 3))
        truth = generate_random_network(p=p, n=max(n, p), m=p,
                                        density=min(1.0, 3.0 / max(n, p)),
                                        seed=int(rng.integers(2**31)))
        data = simulate(truth.model, 40, snr_db=float(rng.uniform(5, 25)),
                        seed=int(rng.integers(2**31)))
        cfg = ReconConfig(n_states=truth.model.n, prior_mode="ml",
                          outer_max_iter=10, outer_tol=0.0,
                          seed=int(rng.integers(2**31)))
        res = reconstruct(data, cfg)
        ll = [r.obs_loglik for r in res.trace]
        for a, b in zip(ll, ll[1:]):
            worst = max(worst, a - b)
    assert worst <= 1e-8
    _report(3, f"classical EM observed log-likelihood non-decreasing over 10 "
               f"iterations on 20 systems (max decrease {worst:.2e} <= 1e-8)")


def test_criterion_4_sbl_correctness():
    rng = np.random.default_rng(4004)

    # (a) posterior equals an independent normal-equations ridge solve
    worst_ridge = 0.0
    for _ in range(10):
        N, n_w = 24, 7
        reg = DesignRegression(targets=rng.normal(size=(N, 1)),
                               regressors=rng.normal(size=(N, n_w)),
                               n=1, m=n_w - 1, N=N)
        gamma = rng.uniform(0.1, 3.0, n_w)
        gamma[rng.integers(0, n_w)] = 0.0
        sigma2 = float(rng.uniform(0.05, 1.5))
        mu, Sig = posterior(reg, gamma, sigma2)
        mu_o, Sig_o = ridge_posterior_dense(reg.phi, reg.y_vec, gamma, sigma2)
        worst_ridge = max(worst_ridge, np.abs(mu - mu_o).max(),
                          np.abs(Sig - Sig_o).max())
    assert worst_ridge <= 1e-8

    # (b) vanishing-noise path equals the explicit pseudo-inverse formula
    worst_pinv = 0.0
    for _ in range(10):
        reg = DesignRegression(targets=rng.normal(size=(20, 1)),
                               regressors=rng.normal(size=(20, 8)),
                               n=1, m=7, N=20)
        gamma = rng.uniform(0.5, 2.0, 8)
        mu_o = pinv_posterior_dense(reg.phi, reg.y_vec, gamma)
        for s2 in (1e-12, 0.0):
            mu, _ = posterior(reg, gamma, s2)
            worst_pinv = max(worst_pinv, np.abs(mu - mu_o).max())
    assert worst_pinv <= 1e-6

    # (c) noiseless support recovery, 100 x 50 design, 5-sparse truth
    wins = 0
    for trial in range(100):
        trng = np.random.default_rng(trial)
        reg = DesignRegression(targets=trng.normal(size=(100, 1)),
                               regressors=trng.normal(size=(100, 50)),
                               n=1, m=49, N=100)
        w0 = np.zeros(50)
        support = trng.choice(50, size=5, replace=False)
        w0[support] = trng.normal(size=5) + np.sign(trng.normal(size=5))
        reg.targets = (reg.regressors @ w0)[:, None]
        reg.__post_init__()
        mask = Mask(free=np.ones(50, dtype=bool))
        st = sbl_em(reg, mask,
                    opts=SBLOptions(max_iter=300, tol=0.0, prune_tol=1e-12))
        if set(np.nonzero(st.active)[0]) == set(support):
            wins += 1
    assert wins >= 95

    # (d) marginal likelihood non-decreasing per inner iteration
    worst_ev = 0.0
    for trial in range(10):
        trng = np.random.default_rng(100 + trial)
        reg = DesignRegression(targets=trng.normal(size=(40, 1)),
                               regressors=trng.normal(size=(40, 10)),
                               n=1, m=9, N=40)
        w0 = np.zeros(10)
        w0[[1, 4, 7]] = trng.normal(size=3) * 2
        reg.targets = (reg.regressors @ w0 + 0.2 * trng.normal(size=40))[:, None]
        reg.__post_init__()
        mask = Mask(free=np.ones(10, dtype=bool))
        st = sbl_em(reg, mask, opts=SBLOptions(max_iter=100, prune_tol=1e-12))
        ev = st.evidence
        for a, b in zip(ev, ev[1:]):
            worst_ev = max(worst_ev, a - b)
    assert worst_ev <= 1e-10
    _report(4, f"SBL: ridge agreement {worst_ridge:.1e} <= 1e-8, noiseless "
               f"path {worst_pinv:.1e} <= 1e-6, support recovery {wins}/100 "
               f">= 95, evidence ascent (max decrease {worst_ev:.1e} <= 1e-10)")


def test_criterion_5_dsf_invariance_and_exact_agreement():
    rng = np.random.default_rng(5005)
    pts = default_q_points()
    worst_inv = 0.0
    worst_exact = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 6))
        n = p + int(rng.integers(0, min(12 - p, 8)) if p < 12 else 0)
        n = min(max(n, p), 12)
        m = p
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.4, 0.9) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
        model = StateSpaceModel(
            A=A, B=rng.normal(size=(n, m)), p=p,
            sigma=float(rng.uniform(0.2, 1.5)), m0=np.zeros(n), R0=np.eye(n),
            D=rng.normal(size=(p, m)))
        base = dsf_from_state_space(model, pts)

        h = n - p
        if h > 0:
            S = rng.normal(size=(h, h)) + 0.5 * np.eye(h)
            T = np.block([[np.eye(p), np.zeros((p, h))],
                          [np.zeros((h, p)), S]])
            tr = StateSpaceModel(A=T @ model.A @ np.linalg.inv(T),
                                 B=T @ model.B, p=p, sigma=model.sigma,
                                 m0=model.m0, R0=model.R0, D=model.D)
            other = dsf_from_state_space(tr, pts)
            for x, y in [(base.Q_vals, other.Q_vals),
                         (base.P_vals, other.P_vals),
                         (base.H_vals, other.H_vals)]:
                scale = max(np.abs(x).max(), 1.0)
                worst_inv = max(worst_inv, np.abs(x - y).max() / scale)

        Q, P, H = exact_dsf_small(model)
        for exact, sampled in [(Q, base.Q_vals), (P, base.P_vals),
                               (H, base.H_vals)]:
            vals = exact.evaluate(base.q_points)
            scale = max(np.abs(vals).max(), 1.0)
            worst_exact = max(worst_exact, np.abs(vals - sampled).max() / scale)
    assert worst_inv <= 1e-8
    assert worst_exact <= 1e-10
    _report(5, f"DSF invariant to hidden-block transformations (rel err "
               f"{worst_inv:.1e} <= 1e-8) and exact-rational agreement "
               f"(rel err {worst_exact:.1e} <= 1e-10) on 50 systems")


def test_criterion_6_identifiability_by_construction():
    truth = generate_random_network(p=3, n=6, m=3, density=0.2, seed=66)
    data = simulate(truth.model, 250, snr_db=25.0, seed=67)

    res = reconstruct(data, ReconConfig(n_states=8, mask_mode="diag_b",
                                        seed=68, outer_max_iter=12))
    off = ~np.eye(3, dtype=bool)
    assert np.all(res.dsf.P_vals[:, off] == 0.0)

    p22 = 1
    res2 = reconstruct(data, ReconConfig(n_states=8, mask_mode="p_diag",
                                         p22=p22, seed=69, outer_max_iter=12))
    mask = identifiability_mask(8, 3, 3, "p_diag", p22)
    freeA = mask.free[:64].reshape((8, 8), order="F")
    freeB = mask.free[64:].reshape((8, 3), order="F")
    assert np.all(res2.A_hat[~freeA] == 0.0)
    assert np.all(res2.B_hat[~freeB] == 0.0)
    _report(6, "diag_b estimates have exactly diagonal input maps at every "
               "sample point; p_diag estimates carry the exact block zero "
               "pattern")


def test_criterion_7_desk_scale_benchmark():
    workers = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    table = run_benchmark(BenchConfig(
        n_networks=10, p=10, n_true=25, n_assumed=30, m=10, density=0.1,
        N_samples=1000, snr_list=(40.0,), seed=0, parallelism=workers))
    elapsed = time.perf_counter() - t0
    row = table.rows[0]
    assert row.precision_mean >= 0.80
    assert row.tpr_mean >= 0.70
    assert table.failure_rate <= 0.20
    assert elapsed <= 900.0

    table0 = run_benchmark(BenchConfig(
        n_networks=10, p=10, n_true=25, n_assumed=30, m=10, density=0.1,
        N_samples=1000, snr_list=(0.0,), seed=0, parallelism=workers))
    row0 = table0.rows[0]
    assert row0.precision_mean >= 0.55
    _report(7, f"desk-scale benchmark at 40 dB: precision "
               f"{row.precision_mean:.3f} >= 0.80, TPR {row.tpr_mean:.3f} "
               f">= 0.70, AUC {row.auc_mean:.3f}, failure rate "
               f"{table.failure_rate:.2f} <= 0.20 in {elapsed:.0f}s <= 900s; "
               f"at 0 dB: precision {row0.precision_mean:.3f} >= 0.55, TPR "
               f"{row0.tpr_mean:.3f}, AUC {row0.auc_mean:.3f}")


def test_criterion_8_cli_determinism(tmp_path):
    def run_twice(args, out_name):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}_{out_name}"
            code = cli_main([str(a) for a in args + ["--out", out]])
            assert code == 0
            outs.append(out.read_bytes())
        return outs

    a, b = run_twice(["simulate", "--p", "2", "--n", "4", "--m", "2",
                      "--density", "0.4", "--n-samples", "60", "--snr-db",
                      "20", "--seed", "11"], "d.csv")
    assert a == b

    data_path = tmp_path / "x_d.csv"
    a, b = run_twice(["reconstruct", "--data", data_path, "--n-states", "5",
                      "--outer-max-iter", "6", "--seed", "12"], "r.txt")
    assert a == b

    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n_networks = 1\np = 2\nn_true = 4\nn_assumed = 5\nm = 2\n"
                   "density = 0.4\nn_samples = 60\nsnr_list = 25\nseed = 13\n"
                   "recon_outer_max_iter = 5\n")
    a, b = run_twice(["benchmark", "--config", cfg, "--quiet"], "t.csv")
    assert a == b

    from netrecon import save_model
    gt = generate_random_network(p=2, n=4, m=2, density=0.4, seed=14)
    model_path = tmp_path / "m.txt"
    save_model(gt.model, model_path, seed=14)
    a, b = run_twice(["dsf", "--model", model_path], "q.txt")
    assert a == b
    _report(8, "simulate/reconstruct/benchmark/dsf rerun byte-identical "
               "result files for identical configs and seeds")
