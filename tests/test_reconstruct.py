import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netrecon
from netrecon import (StateSpaceModel, ReconConfig, IdentifiabilityError, p22_sweep,
                      reconstruct, unpack_w, pack_w, converged, simulate,
                      generate_random_network, graph_compare, NetworkGraph,
                      save_result, observed_loglik, SBLOptions, BenchConfig,
                      run_benchmark)

from _oracles import exact_dsf_small


def two_node_system(sigma=0.0):
    A = np.array([[0.2, 0.5], [0.3, 0.1]])
    return StateSpaceModel(A=A, B=np.eye(2), p=2, sigma=sigma, m0=np.zeros(2),
                           R0=np.eye(2))


def _start_at(monkeypatch, A0, B0=None):
    """Make ``reconstruct`` start from A0 (and B0, if given) instead of its
    seeded draw, zero where the mask pins, as every start is."""
    module = importlib.import_module("netrecon.reconstruct")
    seeded = module._initial_parameters

    def given(n, m, mask, Y, seed):
        A, B, *rest = seeded(n, m, mask, Y, seed)
        freeA, freeB = unpack_w(mask.free, n, m)
        return (np.where(freeA, A0, 0.0),
                B if B0 is None else np.where(freeB, B0, 0.0), *rest)

    monkeypatch.setattr(module, "_initial_parameters", given)


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
    model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), p=2, sigma=0.15,
                            m0=np.zeros(2), R0=np.eye(2))
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
        A=res.A_hat, B=res.B_hat, p=4,
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


def test_read_off_does_not_depend_on_the_seed(monkeypatch):
    # with the start given, the seed has nothing left to seed: estimates,
    # DSF sample points and network are the same under any seed
    truth = generate_random_network(p=3, n=6, m=3, density=0.2, seed=31)
    data = simulate(truth.model, 150, snr_db=20.0, seed=32)
    A = np.random.default_rng(34).standard_normal((7, 7))
    A *= 0.5 / np.abs(np.linalg.eigvals(A)).max()
    _start_at(monkeypatch, A, np.eye(7, 3))
    a, b = (reconstruct(data, ReconConfig(n_states=7, seed=seed, outer_max_iter=8))
            for seed in (1, 2))
    assert np.array_equal(a.A_hat, b.A_hat)
    assert np.array_equal(a.dsf.q_points, b.dsf.q_points)
    assert np.array_equal(a.dsf.Q_vals, b.dsf.Q_vals)
    assert np.array_equal(a.network.q_adj, b.network.q_adj)
    assert np.array_equal(a.network.p_adj, b.network.p_adj)


def test_reconstruct_does_not_import_numpy_ma():
    # numpy loads numpy.ma on the first use of some routines (a complex
    # np.unique among them), an import no reconstruction needs
    code = """
import sys
from netrecon import ReconConfig, generate_random_network, reconstruct, simulate
truth = generate_random_network(p=2, n=3, m=2, density=0.5, seed=1)
data = simulate(truth.model, 40, snr_db=20.0, seed=2)
reconstruct(data, ReconConfig(n_states=3, seed=3, outer_max_iter=2))
print("numpy.ma" in sys.modules)
"""
    src = str(Path(netrecon.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    assert out.strip() == "False"


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
    bad = simulate(StateSpaceModel(A=np.eye(2) * 0.5, B=np.ones((2, 1)), p=2,
                                   sigma=0.1, m0=np.zeros(2), R0=np.eye(2)),
                   30, seed=63)
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


def test_p_diag_reads_its_own_class_better_than_diag_b():
    # p_diag(5) truths, p=10, 25 true and 30 assumed states, N=1000, 40 dB:
    # half their inputs enter through a hidden state, which diag_b's B =
    # [diag(b); 0] cannot express, so only p_diag's mask ranks their edges
    from netrecon import edge_auc, identifiability_mask
    from _oracles import random_pdiag_network
    free = identifiability_mask(25, 10, 10, "p_diag", 5).free
    auc = {"p_diag": [], "diag_b": []}
    for k in range(3):
        truth = random_pdiag_network(p=10, n=25, p22=5, seed=k)
        assert not pack_w(truth.model.A, truth.model.B)[~free].any()
        data = simulate(truth.model, N=1000, snr_db=40.0, seed=100 + k)
        graph = NetworkGraph(q_adj=truth.q_structure, p_adj=truth.p_structure)
        for mode, p22 in (("p_diag", 5), ("diag_b", None)):
            res = reconstruct(data, ReconConfig(n_states=30, mask_mode=mode,
                                                p22=p22))
            auc[mode].append(edge_auc(res.dsf, graph))
    assert np.mean(auc["p_diag"]) >= np.mean(auc["diag_b"]) + 0.05


def test_oracle_start_on_noise_free_data_is_perfect(monkeypatch):
    # exact truth as the initial iterate and zero noise: structure recovery
    # must be perfect on every run
    for seed in (101, 102, 103):
        truth = generate_random_network(p=3, n=6, m=3, density=0.25, seed=seed)
        clean = StateSpaceModel(A=truth.model.A, B=truth.model.B, p=3, sigma=0.0,
                                m0=truth.model.m0, R0=truth.model.R0)
        data = simulate(clean, 300, seed=seed + 1)
        _start_at(monkeypatch, truth.model.A, truth.model.B)
        cfg = ReconConfig(n_states=6, seed=seed + 2, outer_max_iter=15)
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
    assert recon_settings(default)["seed"] == default.seed == 0
    cfg = recon_config({"n_states": "6", "mask_mode": "p_diag", "p22": "1",
                        "outer_max_iter": "7", "outer_tol": "1e-3",
                        "structure_rel_tol": 0.5})
    assert cfg == dataclasses.replace(
        default, n_states=6, mask_mode="p_diag", p22=1, structure_rel_tol=0.5,
        outer_max_iter=7, outer_tol=1e-3)
    assert recon_config(recon_settings(cfg)) == cfg
    assert list(RECON_KEYS) == [f.name for f in dataclasses.fields(ReconConfig)]
    assert len(RECON_KEYS) == 8
    for bad, match in [({"n_states": 4, "inner_max_iter": 5}, "inner_max_iter"),
                       ({"n_states": "four"}, "n_states"),
                       ({"n_states": 4, "outer_tol": "maybe"}, "maybe"),
                       ({"seed": 1}, "n_states")]:
        with pytest.raises(ValueError, match=match):
            recon_config(bad)


# ---------------------------------------------------------------------------
# the outer EM step, divergence handling and reported fallbacks

def _small_system(N=60, snr_db=15.0, seed=91):
    truth = generate_random_network(p=2, n=3, m=2, density=0.5, seed=seed)
    return simulate(truth.model, N, snr_db=snr_db, seed=seed + 1)


def _three_output_system():
    truth = generate_random_network(p=3, n=5, m=3, density=0.3, seed=4)
    return simulate(truth.model, 150, snr_db=20.0, seed=5)


def test_ml_is_one_exact_tied_em_step(monkeypatch):
    from netrecon import (Dataset, expectation_sums, identifiability_mask,
                          posterior, regression_from_moments, smooth, unpack_w)
    data = _small_system()
    n, p, m, N = 3, 2, 2, data.N
    A0 = np.array([[0.4, 0.1, 0.0], [-0.2, 0.3, 0.2], [0.1, 0.0, 0.5]])
    B0 = np.array([[0.8, 0.0], [0.0, 1.1], [0.0, 0.0]])
    _start_at(monkeypatch, A0, B0)
    res = reconstruct(data, ReconConfig(n_states=n, prior_mode="ml",
                                        outer_max_iter=1))

    # E-step of the tied model (process and measurement covariance sigma2 I),
    # run in units of s = sqrt(sigma2) where both covariances are I
    sigma2 = max(0.1 * float(np.var(data.Y)), 1e-6)
    s = np.sqrt(sigma2)
    model = StateSpaceModel(A=A0, B=B0 / s, p=p, sigma=1.0, m0=np.zeros(n),
                            R0=np.eye(n) / sigma2)
    C = model.C
    scaled = Dataset(Y=data.Y / s, U=data.U, N=N)
    _, sp = smooth(model, scaled)
    es = expectation_sums(sp, scaled)
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
    reg = regression_from_moments(es)   # n and m read off S_xz
    assert (reg.n, reg.m) == (n, m)
    wide = np.hstack(unpack_w(posterior(reg, np.where(mask.free, 1e8, 0.0),
                                        1.0).mu_w, n, m))
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


def test_divergence_on_both_attempts_keeps_start(monkeypatch):
    data = _small_system(N=100)
    A0 = 3.0 * np.eye(3)   # the hidden third state is unobserved and grows
    _start_at(monkeypatch, A0)
    res = reconstruct(data, ReconConfig(n_states=3, seed=1, outer_max_iter=5))
    assert res.status == "diverged"
    assert res.trace == []
    assert np.array_equal(res.A_hat, A0)


def test_divergence_retry_halfway_to_previous_iterate(monkeypatch):
    import importlib
    from netrecon import FilterDivergedError
    module = importlib.import_module("netrecon.reconstruct")
    real_filter = module.kalman_filter
    seen = []

    def flaky_filter(model, data, **kwargs):
        seen.append(model.A.copy())
        if len(seen) == 2:   # the first attempt of iteration 2
            raise FilterDivergedError(1)
        return real_filter(model, data, **kwargs)

    monkeypatch.setattr(module, "kalman_filter", flaky_filter)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=3,
                                                   outer_tol=0.0))
    assert len(seen) == 4 and len(res.trace) == 3
    assert [r.damped for r in res.trace] == [False, True, False]
    assert np.array_equal(seen[2], 0.5 * (seen[1] + seen[0]))


def test_non_finite_iterate_ends_the_run_as_diverged(monkeypatch):
    # an M-step that leaves a NaN in A: the next E-step's filter diverges,
    # and so does its retry halfway back, so the run stops with the
    # previous, finite iterate
    module = importlib.import_module("netrecon.reconstruct")
    real_mstep = module._mstep

    def poisoned(es, it, *args):
        new, fit = real_mstep(es, it, *args)
        if len(steps) == 2:   # the third M-step
            A = new.A.copy()
            A[1, 0] = np.nan
            new = dataclasses.replace(new, A=A)
        steps.append(new)
        return new, fit

    steps = []
    monkeypatch.setattr(module, "_mstep", poisoned)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=6,
                                                   outer_tol=0.0))
    assert res.status == "diverged"
    assert len(res.trace) == 3
    assert np.isfinite(res.A_hat).all()
    assert np.array_equal(res.A_hat, steps[1].A)


def test_non_finite_last_iterate_ends_the_run_as_diverged(monkeypatch):
    # the M-step of the last iteration leaves a NaN in A: no E-step follows
    # to fail, so the run itself ends as diverged with the previous iterate
    module = importlib.import_module("netrecon.reconstruct")
    real_mstep = module._mstep

    def poisoned(es, it, *args):
        new, fit = real_mstep(es, it, *args)
        if len(steps) == 2:   # the third and last M-step
            A = new.A.copy()
            A[1, 0] = np.nan
            new = dataclasses.replace(new, A=A)
        steps.append(new)
        return new, fit

    steps = []
    monkeypatch.setattr(module, "_mstep", poisoned)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=3,
                                                   outer_tol=0.0))
    assert res.status == "diverged"
    assert len(res.trace) == 3
    assert np.isfinite(res.A_hat).all()
    assert np.array_equal(res.A_hat, steps[1].A)
    assert np.array_equal(res.B_hat, steps[1].B)
    assert res.sigma2_hat == steps[1].sigma2


def test_desk_answers_do_not_depend_on_the_blas_thread_count():
    # perfbench's desk40 cell at seed 1, 10 outer iterations: one and two
    # BLAS threads give the same bits of A_hat and the same network
    code = """
import hashlib
import numpy as np
from netrecon import ReconConfig, generate_random_network, reconstruct, simulate

def seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])

truth = generate_random_network(10, 25, 10, 0.1, seed(1, 0))
data = simulate(truth.model, 1000, "gaussian_iid", snr_db=40.0,
                seed=seed(1, 0, 0, 1))
res = reconstruct(data, ReconConfig(n_states=30, seed=seed(1, 0, 0, 2),
                                    outer_max_iter=10))
print(hashlib.sha256(res.A_hat.tobytes()).hexdigest(),
      hashlib.sha256(res.network.q_adj.tobytes()
                     + res.network.p_adj.tobytes()).hexdigest())
"""
    src = str(Path(netrecon.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=300,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads,
                                "OMP_NUM_THREADS": threads}).stdout.split()
            for threads in ("1", "2")]
    assert len(outs[0]) == 2 and outs[0] == outs[1]


def test_outer_iterations_smooth_into_the_same_buffers(monkeypatch):
    # every outer iteration writes its passes into the arrays the run
    # allocated once; a refactor that reallocates them per pass fails here
    import importlib
    module = importlib.import_module("netrecon.reconstruct")
    real_filter, real_rts = module.kalman_filter, module.rts_smoother
    passes = []

    def filter_(model, data, **kwargs):
        passes.append(real_filter(model, data, **kwargs))
        return passes[-1]

    def rts(model, fp, **kwargs):
        passes.append(real_rts(model, fp, **kwargs))
        return passes[-1]

    monkeypatch.setattr(module, "kalman_filter", filter_)
    monkeypatch.setattr(module, "rts_smoother", rts)
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=2,
                                                   outer_max_iter=2,
                                                   outer_tol=0.0))
    assert len(res.trace) == 2 and len(passes) == 4
    (fp1, sp1), (fp2, sp2) = passes[:2], passes[2:]
    for first, second in ((fp1.x_pred, fp2.x_pred), (fp1.x_filt, fp2.x_filt),
                          (fp1.innovations, fp2.innovations),
                          (sp1.x_sm, sp2.x_sm)):
        assert np.shares_memory(first, second)
    # the new m0 comes from a pass, but not as a view of its buffers
    assert not np.shares_memory(res.m0_hat, sp2.x_sm)


def test_fallback_counts_in_trace_and_result_file(tmp_path):
    import warnings
    from netrecon import rts_smoother, kalman_filter
    # singular one-step covariances make every smoother gain a
    # pseudo-inverse; the steps are reported in pinv_steps, not as a warning
    data = _small_system(N=5)
    model = StateSpaceModel(A=0.5 * np.eye(2), B=np.eye(2), p=2, sigma=0.3,
                            m0=np.zeros(2), R0=np.eye(2))
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
    # C = [I 0]: the expectation sums' measurement residual, read off the
    # first p states, must equal the general sum |y - C x|^2 + tr(C P C')
    # over a smoothing pass
    from netrecon import expectation_sums, smooth
    from _oracles import random_stable_model

    rng = np.random.default_rng(31)
    model = random_stable_model(rng, n=5, p=2, m=2, sigma=0.4)
    data = simulate(model, 60, "gaussian_iid", seed=32)
    _, sp = smooth(model, data)
    C = model.C
    resid = data.Y - sp.x_sm[1:] @ C.T
    ref = (float((resid**2).sum())
           + float(np.sum(C * (C @ sp.P_sm.total(1, data.N + 1)))))
    assert expectation_sums(sp, data).meas_rss == pytest.approx(
        ref, rel=1e-12, abs=0.0)


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
    # each SBL state holds its posterior's row blocks (0.4 MB at desk
    # scale); the outer loop must drop the previous one before the next
    # inner fit, so two never coexist at the memory peak.  Eleven
    # iterations hold three fits: iterations 1, 6 and 11
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
                                                   outer_max_iter=11,
                                                   outer_tol=0.0))
    assert len(res.trace) == 11 and len(states) == 3
    assert all(ref() is None for ref in states)


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
    data = _three_output_system()
    sbl = reconstruct(data, ReconConfig(n_states=6, seed=1, outer_max_iter=11,
                                        outer_tol=0.0))
    # the sparse prior is refitted on iterations 1, 6 and 11, and each of
    # those records is its fit
    refits = [r for r in sbl.trace if r.inner_iterations > 0]
    assert len(sbl.trace) == 11 and len(fits) == 3
    assert [r.iteration for r in refits] == [1, 6, 11]
    assert [(r.n_active, r.gamma_max, r.inner_iterations, r.evidence_decreases)
            for r in refits] == fits
    assert len({(r.n_active, r.inner_iterations) for r in refits}) > 1
    # the steps in between hold the last fitted prior: its support, no
    # inner iteration and no evidence decrease
    for r in sbl.trace:
        if r.inner_iterations == 0:
            last = fits[(r.iteration - 1) // 5]
            assert (r.n_active, r.evidence_decreases) == (last[0], 0)
            assert r.gamma_max > 0

    # "ml" fits every free weight of the mask in one solve, without sbl_em
    ml = reconstruct(data, ReconConfig(n_states=6, seed=1, prior_mode="ml",
                                       mask_mode="p_diag", p22=1,
                                       outer_max_iter=3, outer_tol=0.0))
    assert len(fits) == 3 and len(ml.trace) == 3
    n_free = int(identifiability_mask(6, 3, 3, "p_diag", 1).free.sum())
    assert [(r.n_active, r.gamma_max, r.inner_iterations, r.evidence_decreases)
            for r in ml.trace] == [(n_free, 0.0, 1, 0)] * 3


def test_held_prior_step_is_the_posterior_mean_at_that_prior(monkeypatch):
    # iteration 8 holds the prior fitted on iteration 6: its (A, B) is the
    # posterior mean on iteration 8's moments at iteration 6's gamma and
    # inner sigma^2, with B's prior variances carried from the scale s of
    # iteration 6 to that of iteration 8 (B is fitted in units of s)
    import importlib
    from netrecon import posterior
    module = importlib.import_module("netrecon.reconstruct")
    real_sbl_em, real_moments = module.sbl_em, module.regression_from_moments
    fits, regs = [], []

    def recording_sbl_em(*args, **kwargs):
        st = real_sbl_em(*args, **kwargs)
        fits.append((st.gamma.copy(), st.sigma2))
        return st

    def recording_moments(es):
        regs.append(real_moments(es))
        return regs[-1]

    monkeypatch.setattr(module, "sbl_em", recording_sbl_em)
    monkeypatch.setattr(module, "regression_from_moments", recording_moments)
    data = _three_output_system()
    n = 6
    res = reconstruct(data, ReconConfig(n_states=n, seed=1, outer_max_iter=8,
                                        outer_tol=0.0))
    assert [r.inner_iterations > 0 for r in res.trace] == [
        True, False, False, False, False, True, False, False]
    # the iterate that iteration k smooths at has the sigma^2 of record k-1
    s2_fit, s2 = res.trace[4].sigma2, res.trace[6].sigma2
    assert s2_fit != s2
    gamma, sbl_sigma2 = fits[1]
    gamma[n * n:] *= s2_fit / s2
    want = posterior(regs[7], gamma, sbl_sigma2).mu_w
    got = pack_w(res.A_hat, res.B_hat / np.sqrt(s2))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert res.trace[7].gamma_max == pytest.approx(gamma.max(), rel=1e-12)


def test_sbl_run_converges_only_on_a_refit():
    # test_no_dynamics_yields_empty_network's data, on which every start
    # converges: a held-prior step that meets outer_tol forces a refit
    # off the 1, 6, 11, ... schedule, and only a refit ends the run
    model = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), p=2, sigma=0.15,
                            m0=np.zeros(2), R0=np.eye(2))
    data = simulate(model, 400, seed=3)
    cfg = ReconConfig(n_states=2)
    for seed in range(1, 6):
        res = reconstruct(data, dataclasses.replace(cfg, seed=seed))
        refits = [r.iteration for r in res.trace if r.inner_iterations > 0]
        assert res.status == "converged"
        assert res.last_step <= cfg.outer_tol
        assert refits[-1] == len(res.trace)
        assert refits[:3] == [1, 6, 11] and len(refits) < len(res.trace)
        assert any(i % 5 != 1 for i in refits)


def test_ml_run_does_not_depend_on_the_refit_period(monkeypatch):
    # "ml" has no prior to hold: every step is a full M-step and may end
    # the run, here on iteration 7, which a period of 5 does not refit
    import importlib
    module = importlib.import_module("netrecon.reconstruct")
    data = _three_output_system()
    cfg = ReconConfig(n_states=6, seed=1, prior_mode="ml", outer_max_iter=200,
                      outer_tol=1e-2)
    runs = [reconstruct(data, cfg)]
    monkeypatch.setattr(module, "_REFIT_EVERY", 1)
    runs.append(reconstruct(data, cfg))
    assert [r.status for r in runs] == ["converged"] * 2
    assert len(runs[0].trace) == 7 and runs[0].trace == runs[1].trace
    for name in ("A_hat", "B_hat", "sigma2_hat", "m0_hat", "R0_hat"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def test_result_counts_are_json_numbers():
    # the stop diagnosis goes into JSON as it is: plain Python numbers
    import json
    res = reconstruct(_small_system(), ReconConfig(n_states=3, seed=4,
                                                   outer_max_iter=5,
                                                   outer_tol=0.0))
    assert len(res.trace) == 5
    assert type(res.loglik_decreases) is int and type(res.last_step) is float
    json.dumps({"loglik_decreases": res.loglik_decreases,
                "last_step": res.last_step})


@pytest.mark.parametrize("mask_mode, p22", [("diag_b", None), ("p_diag", 1)])
def test_initial_parameters_zero_at_every_pinned_entry(mask_mode, p22):
    # the first iterate carries the mask, as every later one does
    from netrecon import identifiability_mask
    from netrecon.reconstruct import _initial_parameters
    n, m = 6, 3
    mask = identifiability_mask(n, m, m, mask_mode, p22)
    Y = np.random.default_rng(91).normal(size=(20, m))
    freeA, freeB = (f == 1.0 for f in unpack_w(mask.free, n, m))
    A, B = _initial_parameters(n, m, mask, Y, 4)[:2]
    assert np.all(A[~freeA] == 0.0) and np.all(A[freeA] != 0.0)
    assert np.max(np.abs(np.linalg.eigvals(A))) == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(B, np.where(freeB, np.eye(n, m), 0.0))
    if mask_mode == "p_diag":
        assert np.count_nonzero(~freeA) == 10


def test_recon_config_is_a_plain_frozen_dataclass():
    # scalar fields only, compared and hashed by the methods dataclass
    # generates (compiled from "<string>"); a start array is no setting
    assert not hasattr(ReconConfig, "_key")
    for name in ("__eq__", "__hash__"):
        assert vars(ReconConfig)[name].__code__.co_filename == "<string>"
    for name in ("A_init", "B_init"):
        with pytest.raises(TypeError, match=name):
            ReconConfig(n_states=3, **{name: np.eye(3)})


def _start_configs():
    """Two configs naming the same start, one built directly and one read
    from strings: a config holds its start as the seed it is drawn from."""
    from netrecon import recon_config
    return (ReconConfig(n_states=3, seed=2),
            recon_config({"n_states": "3", "seed": "2"}))


def test_configs_holding_starts_compare_by_value():
    cfg, same = _start_configs()
    assert cfg == same
    assert cfg != dataclasses.replace(same, seed=3)
    assert cfg != dataclasses.replace(same, n_states=4)


def test_configs_holding_starts_hash_by_value():
    cfg, same = _start_configs()
    assert hash(cfg) == hash(same)
    assert len({cfg, same, ReconConfig(n_states=3)}) == 2


def test_full_scale_cell_runs_without_a_dense_posterior():
    # one outer iteration of the full-scale protocol's first cell (p=40,
    # n=110 assumed states, m=40, N=1000, 40 dB): N_w = 16500, so one dense
    # N_w x N_w covariance would take 2.2 GB.  The traced peak is the SBL
    # loop's buffer pair (2 x 10.3 MiB at its first width of 111) over the
    # resident smoother stacks, about 42 MiB; a closing posterior that
    # gathered and factored its blocks while the pair was still held read
    # 60 MiB.
    import tracemalloc

    cfg = BenchConfig(n_networks=1, p=40, n_true=100, n_assumed=110, m=40,
                      density=0.025, N_samples=1000, snr_list=(40.0,),
                      recon={"outer_max_iter": 1})
    tracemalloc.start()
    try:
        table = run_benchmark(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (record,) = table.records
    assert record.status == "max_iter" and record.outer_iterations == 1
    assert peak < 200 * 2**20, f"traced peak {peak / 2**20:.0f} MB"
    assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("snr_db", [0.0, 40.0])
def test_network_does_not_depend_on_the_inner_cap(snr_db, monkeypatch):
    # a desk cell (p=10, 25 true and 30 assumed states, N=1000) for ten
    # outer iterations: the inner loop meets its tolerance well before the
    # default cap of 60, so a cap of 1000 gives the same estimate
    import functools
    import importlib
    rec = importlib.import_module("netrecon.reconstruct")
    truth = generate_random_network(p=10, n=25, m=10, density=0.1, seed=1)
    data = simulate(truth.model, N=1000, snr_db=snr_db, seed=11)
    cfg = ReconConfig(n_states=30, seed=21, outer_max_iter=10)
    capped = reconstruct(data, cfg)   # at SBLOptions(), whose cap is 60
    assert SBLOptions().max_iter == 60
    monkeypatch.setattr(rec, "sbl_em", functools.partial(
        rec.sbl_em, opts=SBLOptions(max_iter=1000)))
    free = reconstruct(data, cfg)
    assert max(r.inner_iterations for r in free.trace) < 60
    assert ([r.inner_iterations for r in capped.trace]
            == [r.inner_iterations for r in free.trace])
    assert np.array_equal(capped.A_hat != 0, free.A_hat != 0)
    assert np.abs(capped.A_hat - free.A_hat).max() <= 1e-10
    assert np.array_equal(capped.network.q_adj, free.network.q_adj)
