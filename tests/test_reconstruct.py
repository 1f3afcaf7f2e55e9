import dataclasses

import numpy as np
import pytest

from netrecon import (StateSpaceModel, ReconConfig, IdentifiabilityError, p22_sweep,
                      reconstruct, unpack_w, pack_w, converged, simulate,
                      generate_random_network, graph_compare, NetworkGraph,
                      save_result, observed_loglik, SBLOptions)

from _oracles import exact_dsf_small


def two_node_system(sigma=0.0):
    A = np.array([[0.2, 0.5], [0.3, 0.1]])
    return StateSpaceModel(A=A, B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
                           sigma=sigma, m0=np.zeros(2), R0=np.eye(2))


# ---------------------------------------------------------------------------
# packing / convergence helpers

def test_unpack_column_major_example():
    A, B = unpack_w([1, 2, 3, 4, 5, 6], n=2, m=1)
    assert np.array_equal(A, [[1, 3], [2, 4]])
    assert np.array_equal(B, [[5], [6]])


def test_unpack_zero_and_roundtrip():
    A, B = unpack_w(np.zeros(6), n=2, m=1)
    assert not A.any() and not B.any()
    rng = np.random.default_rng(0)
    w = rng.normal(size=3 * 3 + 3 * 2)
    assert np.array_equal(pack_w(*unpack_w(w, 3, 2)), w)
    with pytest.raises(ValueError, match="length"):
        unpack_w(np.zeros(5), 2, 1)


def test_converged_cases():
    w = np.array([1.0, -2.0, 0.5])
    assert converged(w, w, tol=1e-12)
    assert not converged(np.zeros(3), np.full(3, 2e-4 / np.sqrt(3)), tol=1e-4)
    # geometrically halving steps converge within the expected count
    tol = 1e-3
    w_prev = np.zeros(1)
    step = 1.0
    count = 0
    while not converged(w_prev, w_prev + step, tol):
        w_prev = w_prev + step
        step /= 2
        count += 1
    assert count <= int(np.ceil(np.log2(1.0 / tol))) + 1


# ---------------------------------------------------------------------------
# reconstruction behavior

def test_noise_free_two_node_recovery():
    model = two_node_system(sigma=0.0)
    data = simulate(model, 300, seed=0)
    cfg = ReconConfig(n_states=2, mask_mode="diag_b", seed=1, outer_max_iter=20)
    res = reconstruct(data, cfg)
    assert np.array_equal(res.network.q_adj, [[False, True], [True, False]])
    assert np.linalg.norm(res.A_hat - model.A) <= 1e-3
    assert len(res.trace) <= 20


def test_no_dynamics_yields_empty_network():
    model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2),
                            D=np.zeros((2, 2)), sigma=0.15, m0=np.zeros(2),
                            R0=np.eye(2))
    data = simulate(model, 400, seed=3)
    res = reconstruct(data, ReconConfig(n_states=2, seed=2))
    assert not res.network.q_adj.any()


def test_medium_scale_structure_recovery():
    truth = generate_random_network(p=5, n=10, m=5, density=0.15, seed=11)
    data = simulate(truth.model, 800, snr_db=40.0, seed=12)
    res = reconstruct(data, ReconConfig(n_states=12, seed=13))
    m = graph_compare(res.network,
                      NetworkGraph(q_adj=truth.q_structure,
                                   p_adj=truth.p_structure))
    assert m.precision >= 0.8
    assert m.tpr >= 0.7


def test_diag_b_estimated_p_is_exactly_diagonal():
    truth = generate_random_network(p=3, n=6, m=3, density=0.2, seed=4)
    data = simulate(truth.model, 200, snr_db=20.0, seed=5)
    res = reconstruct(data, ReconConfig(n_states=7, mask_mode="diag_b", seed=6,
                                        outer_max_iter=10))
    off = ~np.eye(3, dtype=bool)
    assert np.all(res.dsf.P_vals[:, off] == 0.0)
    # masked B coordinates are exact zeros
    assert np.all(res.B_hat[3:, :] == 0.0)
    assert np.all(res.B_hat[:3][off] == 0.0)


def test_p_diag_zero_pattern_exact():
    truth = generate_random_network(p=3, n=6, m=3, density=0.2, seed=7)
    data = simulate(truth.model, 200, snr_db=20.0, seed=8)
    p22 = 1
    res = reconstruct(data, ReconConfig(n_states=8, mask_mode="p_diag",
                                        p22=p22, seed=9, outer_max_iter=10))
    from netrecon import identifiability_mask
    mask = identifiability_mask(8, 3, 3, "p_diag", p22)
    freeA = mask.free[:64].reshape((8, 8), order="F")
    freeB = mask.free[64:].reshape((8, 3), order="F")
    assert np.all(res.A_hat[~freeA] == 0.0)
    assert np.all(res.B_hat[~freeB] == 0.0)


def test_flagged_edges_have_generating_entries():
    truth = generate_random_network(p=4, n=8, m=4, density=0.15, seed=21)
    data = simulate(truth.model, 500, snr_db=30.0, seed=22)
    res = reconstruct(data, ReconConfig(n_states=10, seed=23,
                                        outer_max_iter=25))
    model_hat = StateSpaceModel(
        A=res.A_hat, B=res.B_hat,
        C=np.hstack([np.eye(4), np.zeros((4, 6))]), D=np.zeros((4, 4)),
        sigma=max(np.sqrt(res.sigma2_hat), 1e-6), m0=res.m0_hat,
        R0=0.5 * (res.R0_hat + res.R0_hat.T))
    Q, _, _ = exact_dsf_small(model_hat)
    exact_pattern = Q.zero_pattern()
    flagged = res.network.q_adj
    assert np.all(~flagged | exact_pattern)


def test_reconstruction_is_deterministic():
    truth = generate_random_network(p=3, n=6, m=3, density=0.2, seed=31)
    data = simulate(truth.model, 150, snr_db=20.0, seed=32)
    cfg = ReconConfig(n_states=7, seed=33, outer_max_iter=8)
    a = reconstruct(data, cfg)
    b = reconstruct(data, cfg)
    assert np.array_equal(a.A_hat, b.A_hat)
    assert np.array_equal(a.B_hat, b.B_hat)
    assert a.sigma2_hat == b.sigma2_hat
    assert np.array_equal(a.network.q_adj, b.network.q_adj)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert ra == rb


def test_classical_em_monotone_loglik():
    rng = np.random.default_rng(41)
    truth = generate_random_network(p=2, n=3, m=2, density=0.5, seed=42)
    data = simulate(truth.model, 60, snr_db=10.0, seed=43)
    cfg = ReconConfig(n_states=3, prior_mode="ml", seed=44, outer_max_iter=10,
                      outer_tol=0.0)
    res = reconstruct(data, cfg)
    ll = [r.obs_loglik for r in res.trace]
    assert all(b >= a - 1e-8 for a, b in zip(ll, ll[1:]))


def test_divergence_damping_and_status():
    # force the filter to diverge by seeding an absurd initial sigma2 and an
    # unstable dataset scale; damping may rescue it or flag divergence, but
    # the call must return a result either way
    truth = generate_random_network(p=2, n=4, m=2, density=0.4, seed=51)
    data = simulate(truth.model, 100, snr_db=20.0, seed=52)
    res = reconstruct(data, ReconConfig(n_states=5, seed=53, outer_max_iter=5))
    assert res.status in ("converged", "max_iter", "diverged")
    assert res.trace is not None


def test_reconstruct_rejects_bad_config():
    truth = generate_random_network(p=2, n=4, m=2, density=0.4, seed=61)
    data = simulate(truth.model, 50, seed=62)
    with pytest.raises(ValueError, match="n_states"):
        reconstruct(data, ReconConfig(n_states=1))
    with pytest.raises(ValueError, match="prior_mode"):
        reconstruct(data, ReconConfig(n_states=3, prior_mode="bogus"))
    bad = simulate(StateSpaceModel(A=np.eye(2) * 0.5, B=np.ones((2, 1)),
                                   C=np.eye(2), D=np.zeros((2, 1)), sigma=0.1,
                                   m0=np.zeros(2), R0=np.eye(2)), 30, seed=63)
    with pytest.raises(IdentifiabilityError):
        reconstruct(bad, ReconConfig(n_states=3))


def test_save_result_file_deterministic(tmp_path):
    truth = generate_random_network(p=2, n=4, m=2, density=0.4, seed=71)
    data = simulate(truth.model, 80, snr_db=20.0, seed=72)
    res = reconstruct(data, ReconConfig(n_states=5, seed=73, outer_max_iter=5))
    echo = {"seed": 73, "n_states": 5}
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_result(p1, res, echo)
    save_result(p2, res, echo)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "A_hat" in text and "q_adjacency" in text and "trace" in text


def test_p22_sweep_reports_feasible_patterns():
    truth = generate_random_network(p=2, n=4, m=2, density=0.4, seed=81)
    data = simulate(truth.model, 120, snr_db=25.0, seed=82)
    cfg = ReconConfig(n_states=5, seed=83, outer_max_iter=6)
    results = p22_sweep(data, cfg)
    # n - p = 3 >= p11 for every p22 in 0..2
    assert [p22 for p22, _ in results] == [0, 1, 2]
    from netrecon import identifiability_mask
    for p22, res in results:
        mask = identifiability_mask(5, 2, 2, "p_diag", p22)
        freeA = mask.free[:25].reshape((5, 5), order="F")
        freeB = mask.free[25:].reshape((5, 2), order="F")
        assert np.all(res.A_hat[~freeA] == 0.0)
        assert np.all(res.B_hat[~freeB] == 0.0)


def test_p22_sweep_skips_infeasible():
    truth = generate_random_network(p=3, n=4, m=3, density=0.4, seed=84)
    data = simulate(truth.model, 100, snr_db=25.0, seed=85)
    cfg = ReconConfig(n_states=4, seed=86, outer_max_iter=4)
    results = p22_sweep(data, cfg)
    # hidden dimension 1 only fits p11 <= 1, so p22 must be >= 2
    assert [p22 for p22, _ in results] == [2, 3]


def test_oracle_start_on_noise_free_data_is_perfect():
    # exact truth as the initial iterate and zero noise: structure recovery
    # must be perfect on every run
    for seed in (101, 102, 103):
        truth = generate_random_network(p=3, n=6, m=3, density=0.25, seed=seed)
        clean = StateSpaceModel(A=truth.model.A, B=truth.model.B,
                                C=truth.model.C, D=truth.model.D, sigma=0.0,
                                m0=truth.model.m0, R0=truth.model.R0)
        data = simulate(clean, 300, seed=seed + 1)
        cfg = ReconConfig(n_states=6, seed=seed + 2, outer_max_iter=15,
                          A_init=truth.model.A, B_init=truth.model.B)
        res = reconstruct(data, cfg)
        m = graph_compare(res.network,
                          NetworkGraph(q_adj=truth.q_structure,
                                       p_adj=truth.p_structure))
        assert m.precision == 1.0
        assert m.tpr == 1.0


def test_recon_config_flat_settings():
    from netrecon import RECON_KEYS, recon_config, recon_settings
    default = ReconConfig(n_states=4)
    assert recon_config({"n_states": "4"}) == default
    assert recon_settings(default)["inner_prune_tol"] == default.inner.prune_tol
    cfg = recon_config({"n-states": "6", "mask_mode": "p_diag", "p22": "1",
                        "inner-max-iter": "7", "inner_tol": "1e-3",
                        "structure_rel_tol": 0.5})
    assert cfg == dataclasses.replace(
        default, n_states=6, mask_mode="p_diag", p22=1, structure_rel_tol=0.5,
        inner=dataclasses.replace(default.inner, max_iter=7, tol=1e-3))
    assert recon_config(recon_settings(cfg)) == cfg
    assert "A_init" not in RECON_KEYS and "inner" not in RECON_KEYS
    assert len(RECON_KEYS) == 11
    for bad, match in [({"n_states": 4, "inner_max_iters": 5}, "inner_max_iters"),
                       ({"n_states": "four"}, "n_states"),
                       ({"n_states": 4, "inner_tol": "maybe"}, "maybe"),
                       ({"seed": 1}, "n_states")]:
        with pytest.raises(ValueError, match=match):
            recon_config(bad)


# ---------------------------------------------------------------------------
# the outer EM step, divergence handling and reported fallbacks

def _small_system(N=60, snr_db=15.0, seed=91):
    truth = generate_random_network(p=2, n=3, m=2, density=0.5, seed=seed)
    return simulate(truth.model, N, snr_db=snr_db, seed=seed + 1)


def test_ml_is_one_exact_tied_em_step():
    from netrecon import (Dataset, expectation_sums, identifiability_mask,
                          regression_from_moments, smooth)
    from netrecon.sbl import _estep
    data = _small_system()
    n, p, m, N = 3, 2, 2, data.N
    A0 = np.array([[0.4, 0.1, 0.0], [-0.2, 0.3, 0.2], [0.1, 0.0, 0.5]])
    B0 = np.array([[0.8, 0.0], [0.0, 1.1], [0.0, 0.0]])
    res = reconstruct(data, ReconConfig(n_states=n, prior_mode="ml",
                                        outer_max_iter=1, A_init=A0, B_init=B0))

    # E-step of the tied model (process and measurement covariance sigma2 I),
    # run in units of s = sqrt(sigma2) where both covariances are I
    sigma2 = max(0.1 * float(np.var(data.Y)), 1e-6)
    s = np.sqrt(sigma2)
    C = np.hstack([np.eye(p), np.zeros((p, n - p))])
    model = StateSpaceModel(A=A0, B=B0 / s, C=C, D=np.zeros((p, m)), sigma=1.0,
                            m0=np.zeros(n), R0=np.eye(n) / sigma2)
    scaled = Dataset(Y=data.Y / s, U=data.U, N=N)
    _, sp = smooth(model, scaled)
    es = expectation_sums(sp, scaled, sp.x_sm[0])
    # masked M-step: each row of [A B] is the least-squares fit on its free set
    mask = identifiability_mask(n, p, m, "diag_b")
    free = mask.free.reshape((n + m, n)).T
    L = np.zeros((n, n + m))
    for i in range(n):
        f = free[i]
        L[i, f] = np.linalg.solve(es.S_zz[np.ix_(f, f)], es.S_xz[i, f])
    A, B = L[:, :n], L[:, n:] * s
    # M-step of sigma2 at the new (A, B), per sample in data units
    x, P, M = sp.x_sm * s, np.asarray(sp.P_sm) * sigma2, np.asarray(sp.M_sm) * sigma2
    total = 0.0
    for k in range(1, N + 1):
        r = x[k] - A @ x[k - 1] - B @ data.U[k - 1]
        total += (r @ r + np.trace(P[k]) - 2.0 * np.sum(A * M[k])
                  + np.trace(A @ P[k - 1] @ A.T))
        e = data.Y[k - 1] - C @ x[k]
        total += e @ e + np.trace(C @ P[k] @ C.T)

    assert res.trace[0].n_active == mask.free.sum()
    # the ml fit is the sparse E-step's mean in the limit of flat priors
    wide = _estep(regression_from_moments(es, n, m),
                  np.where(mask.free, 1e8, 0.0), 1.0)[0]
    fit = np.hstack([res.A_hat, res.B_hat / s])
    assert np.abs(wide - fit).max() <= 1e-6 * np.abs(fit).max()
    assert np.allclose(res.A_hat, A, rtol=1e-9, atol=1e-12)
    assert np.allclose(res.B_hat, B, rtol=1e-9, atol=1e-12)
    assert res.sigma2_hat == pytest.approx(total / (N * (n + p)), rel=1e-9)
    assert np.allclose(res.m0_hat, x[0], rtol=1e-9, atol=1e-12)
    assert np.allclose(res.R0_hat, P[0], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("mask_mode, p22", [("diag_b", None), ("p_diag", 1)])
def test_ml_estimates_carry_the_mask_zeros(mask_mode, p22):
    from netrecon import identifiability_mask
    data = _small_system()
    n, p, m = 3, 2, 2
    res = reconstruct(data, ReconConfig(n_states=n, mask_mode=mask_mode,
                                        p22=p22, prior_mode="ml", seed=4,
                                        outer_max_iter=5))
    mask = identifiability_mask(n, p, m, mask_mode, p22)
    w = pack_w(res.A_hat, res.B_hat)
    assert np.all(w[~mask.free] == 0.0)
    assert np.all(w[mask.free] != 0.0)
    assert all(r.n_active == mask.free.sum() for r in res.trace)
    # the sampled input-to-output map of the estimate is diagonal
    assert not res.dsf.P_vals[:, ~np.eye(p, dtype=bool)].any()


def test_divergence_on_both_attempts_keeps_start():
    data = _small_system(N=100)
    A_init = 3.0 * np.eye(3)   # the hidden third state is unobserved and grows
    res = reconstruct(data, ReconConfig(n_states=3, seed=1, outer_max_iter=5,
                                        A_init=A_init))
    assert res.status == "diverged"
    assert res.trace == []
    assert np.array_equal(res.A_hat, A_init)


def test_divergence_retry_halfway_to_previous_iterate(monkeypatch):
    import importlib
    from netrecon import FilterDivergedError
    module = importlib.import_module("netrecon.reconstruct")
    real_filter = module.kalman_filter
    seen = []

    def flaky_filter(model, data):
        seen.append(model.A.copy())
        if len(seen) == 2:   # the first attempt of iteration 2
            raise FilterDivergedError(1)
        return real_filter(model, data)

    monkeypatch.setattr(module, "kalman_filter", flaky_filter)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=3,
                                                   outer_tol=0.0))
    assert len(seen) == 4 and len(res.trace) == 3
    assert [r.damped for r in res.trace] == [False, True, False]
    assert np.array_equal(seen[2], 0.5 * (seen[1] + seen[0]))


def test_fallback_counts_in_trace_and_result_file(tmp_path):
    import warnings
    from netrecon import rts_smoother, kalman_filter
    # singular one-step covariances make every smoother gain a
    # pseudo-inverse; the steps are reported in pinv_steps, not as a warning
    data = _small_system(N=5)
    model = StateSpaceModel(A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2),
                            D=np.zeros((2, 2)), sigma=0.3, m0=np.zeros(2),
                            R0=np.eye(2))
    fp = kalman_filter(model, data)
    fp = dataclasses.replace(fp, P_pred=np.zeros_like(fp.P_pred), k_steady=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = rts_smoother(model, fp)
    assert sorted(sp.pinv_steps) == [0, 1, 2, 3, 4]

    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=3,
                                                   outer_max_iter=2))
    path = tmp_path / "r.txt"
    save_result(path, res, {})
    lines = path.read_text().splitlines()
    head = lines.index("trace") + 1
    assert lines[head].split()[-2:] == ["pinv_steps", "evidence_decreases"]
    rows = [line.split() for line in lines[head + 1:]]
    assert [row[-2:] for row in rows] == [
        [str(r.pinv_steps), str(r.evidence_decreases)] for r in res.trace]
    assert all(len(row) == 9 for row in rows)


def test_measurement_residual_reads_the_output_states():
    # _em_step's C = [I 0]: reading the first p states must equal the
    # general sum |y - C x|^2 + tr(C P C') over a smoothing pass
    from netrecon import rts_smoother, kalman_filter
    from netrecon.reconstruct import _measurement_residual
    from _oracles import random_stable_model

    rng = np.random.default_rng(31)
    model = random_stable_model(rng, n=5, p=2, m=2, sigma=0.4)
    data = simulate(model, 60, "gaussian_iid", seed=32)
    sp = rts_smoother(model, kalman_filter(model, data))
    C = model.C
    resid = data.Y - sp.x_sm[1:] @ C.T
    ref = (float((resid**2).sum())
           + float(np.sum(C * (C @ sp.P_sm.total(1, data.N + 1)))))
    assert _measurement_residual(sp, data) == pytest.approx(ref, rel=1e-12,
                                                            abs=0.0)


def test_stop_diagnosis_last_step_and_loglik_decreases():
    capped_cfg = ReconConfig(n_states=3, seed=4, outer_max_iter=2)
    capped = reconstruct(_small_system(), capped_cfg)
    assert capped.status == "max_iter"
    assert capped.last_step > capped_cfg.outer_tol
    data = simulate(two_node_system(sigma=0.0), 300, seed=0)
    cfg = ReconConfig(n_states=2, mask_mode="diag_b", seed=1, outer_max_iter=20)
    done = reconstruct(data, cfg)
    assert done.status == "converged"
    assert 0.0 <= done.last_step <= cfg.outer_tol
    for res in (capped, done):
        ll = [r.obs_loglik for r in res.trace]
        assert res.loglik_decreases == sum(b < a for a, b in zip(ll, ll[1:]))
    # the classical EM never lowers the observed log-likelihood
    ml = reconstruct(_small_system(), ReconConfig(
        n_states=3, prior_mode="ml", seed=4, outer_max_iter=6, outer_tol=0.0))
    assert ml.status == "max_iter" and ml.loglik_decreases == 0


def test_phase_times_in_memory_only(tmp_path):
    data = _small_system()
    cfg = ReconConfig(n_states=3, seed=5, outer_max_iter=3)
    runs = [reconstruct(data, cfg) for _ in range(2)]
    for res in runs:
        assert all(r.estep_s > 0 and r.mstep_s > 0 for r in res.trace)
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path, res in zip(paths, runs):
        save_result(path, res, {"seed": 5})
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert runs[0].trace == runs[1].trace


def test_previous_sbl_state_released_before_next_fit(monkeypatch):
    # each SBL state holds a dense N_w x N_w posterior covariance; the outer
    # loop must drop the previous one before the next inner fit, so two
    # never coexist at the memory peak
    import importlib
    import weakref
    module = importlib.import_module("netrecon.reconstruct")
    real_sbl_em = module.sbl_em
    states = []

    def tracked_sbl_em(*args, **kwargs):
        alive = [i for i, ref in enumerate(states) if ref() is not None]
        assert alive == [], f"states of calls {alive} still alive"
        st = real_sbl_em(*args, **kwargs)
        states.append(weakref.ref(st))
        return st

    monkeypatch.setattr(module, "sbl_em", tracked_sbl_em)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=3,
                                                   outer_tol=0.0))
    assert len(states) == len(res.trace) == 3


def test_trace_records_come_from_the_fit(monkeypatch):
    import importlib
    from netrecon import identifiability_mask
    module = importlib.import_module("netrecon.reconstruct")
    real_sbl_em = module.sbl_em
    fits = []

    def recording_sbl_em(*args, **kwargs):
        st = real_sbl_em(*args, **kwargs)
        fits.append((int(st.active.sum()), float(st.gamma.max()),
                     st.iteration, len(st.warnings)))
        return st

    monkeypatch.setattr(module, "sbl_em", recording_sbl_em)
    truth = generate_random_network(p=3, n=5, m=3, density=0.3, seed=4)
    data = simulate(truth.model, 150, snr_db=20.0, seed=5)
    sbl = reconstruct(data, ReconConfig(n_states=6, seed=1, outer_max_iter=4,
                                        outer_tol=0.0))
    assert len(fits) == len(sbl.trace) == 4
    assert [(r.n_active, r.gamma_max, r.inner_iterations, r.evidence_decreases)
            for r in sbl.trace] == fits
    assert len({(r.n_active, r.inner_iterations) for r in sbl.trace}) > 1

    # "ml" fits every free weight of the mask in one solve, without sbl_em
    ml = reconstruct(data, ReconConfig(n_states=6, seed=1, prior_mode="ml",
                                       mask_mode="p_diag", p22=1,
                                       outer_max_iter=3, outer_tol=0.0))
    assert len(fits) == 4 and len(ml.trace) == 3
    n_free = int(identifiability_mask(6, 3, 3, "p_diag", 1).free.sum())
    assert [(r.n_active, r.gamma_max, r.inner_iterations, r.evidence_decreases)
            for r in ml.trace] == [(n_free, 0.0, 1, 0)] * 3


@pytest.mark.parametrize("mask_mode, p22", [("diag_b", None), ("p_diag", 1)])
def test_initial_parameters_zero_at_every_pinned_entry(mask_mode, p22):
    # the first iterate carries the mask, as every later one does
    from netrecon import identifiability_mask
    from netrecon.reconstruct import _initial_parameters
    n, m = 6, 3
    mask = identifiability_mask(n, m, m, mask_mode, p22)
    rng = np.random.default_rng(91)
    A_init, B_init = rng.normal(size=(n, n)), rng.normal(size=(n, m))
    Y = rng.normal(size=(20, m))
    random_start = ReconConfig(n_states=n, mask_mode=mask_mode, p22=p22, seed=4)
    given_start = dataclasses.replace(random_start, A_init=A_init, B_init=B_init)
    freeA, freeB = (f == 1.0 for f in unpack_w(mask.free, n, m))
    A, B = _initial_parameters(n, m, mask, Y, random_start)[:2]
    assert np.all(A[~freeA] == 0.0) and np.all(A[freeA] != 0.0)
    assert np.max(np.abs(np.linalg.eigvals(A))) == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(B, np.where(freeB, np.eye(n, m), 0.0))
    A, B = _initial_parameters(n, m, mask, Y, given_start)[:2]
    assert np.array_equal(A, np.where(freeA, A_init, 0.0))
    assert np.array_equal(B, np.where(freeB, B_init, 0.0))
    if mask_mode == "p_diag":
        assert np.count_nonzero(~freeA) == 10
