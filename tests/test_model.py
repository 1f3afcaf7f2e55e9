import numpy as np
import pytest

import netrecon
from netrecon import (StateSpaceModel, Dataset, GenerationError,
                      SimulationDivergedError, generate_random_network,
                      simulate, scale_noise_for_snr, save_dataset_csv,
                      load_dataset_csv, save_model, load_model,
                      FileFormatError)

from _oracles import exact_dsf_small


def small_model(rng, n=3, p=2, m=2, sigma=0.5):
    A = rng.normal(size=(n, n))
    A *= 0.7 / np.max(np.abs(np.linalg.eigvals(A)))
    return StateSpaceModel(
        A=A, B=rng.normal(size=(n, m)),
        C=np.hstack([np.eye(p), np.zeros((p, n - p))]), D=np.zeros((p, m)),
        sigma=sigma, m0=rng.normal(size=n), R0=np.eye(n))


# ---------------------------------------------------------------------------
# simulation

def test_simulate_zero_noise_matches_deterministic_recursion():
    rng = np.random.default_rng(0)
    model = small_model(rng, sigma=0.0)
    U = rng.normal(size=(20, 2))
    data = simulate(model, 20, input_kind="provided", U_provided=U, seed=4)
    x = model.m0.copy()  # R0 scatter is drawn but scaled by nothing: x0 random
    # x0 is drawn from N(m0, R0); replay it with the same seed
    r = np.random.default_rng(4)
    x = model.m0 + np.linalg.cholesky(model.R0) @ r.standard_normal(3)
    for k in range(20):
        r.standard_normal(3)  # process draw, scaled by sigma = 0
        r.standard_normal(2)  # measurement draw, scaled by sigma = 0
        x = model.A @ x + model.B @ U[k]
        assert np.array_equal(data.Y[k], model.C @ x)
    assert np.array_equal(data.U, U)


def test_simulate_zero_noise_with_feedthrough():
    rng = np.random.default_rng(1)
    model = small_model(rng, sigma=0.0)
    model.D = np.full((2, 2), 0.5)
    U = rng.normal(size=(10, 2))
    data = simulate(model, 10, input_kind="provided", U_provided=U, seed=9)
    r = np.random.default_rng(9)
    x = model.m0 + np.linalg.cholesky(model.R0) @ r.standard_normal(3)
    U_full = np.vstack([U, np.zeros((1, 2))])  # u(t_N) taken as zero
    for k in range(1, 11):
        r.standard_normal(3)
        r.standard_normal(2)
        x = model.A @ x + model.B @ U_full[k - 1]
        assert np.array_equal(data.Y[k - 1], model.C @ x + model.D @ U_full[k])


def test_simulate_snr_zero_db_noise_power_matches_signal_power():
    rng = np.random.default_rng(2)
    model = small_model(rng, n=3, p=2, m=2, sigma=1.0)
    model.m0[:] = 0.0
    model.R0[:] = 0.0
    N = 10_000
    U = rng.normal(size=(N, 2))
    sigma = scale_noise_for_snr(model, U, snr_db=0.0, seed=11)
    noisy = StateSpaceModel(A=model.A, B=model.B, C=model.C, D=model.D,
                            sigma=sigma, m0=model.m0, R0=model.R0)
    clean = simulate(model.__class__(A=model.A, B=model.B, C=model.C,
                                     D=model.D, sigma=0.0, m0=model.m0,
                                     R0=model.R0),
                     N, input_kind="provided", U_provided=U, seed=33)
    dirty = simulate(noisy, N, input_kind="provided", U_provided=U, seed=33)
    noise = dirty.Y - clean.Y  # common random numbers isolate the noise path
    ratio = np.mean(np.var(clean.Y, axis=0)) / np.mean(np.var(noise, axis=0))
    assert abs(ratio - 1.0) < 0.05


def test_scale_noise_six_db_halves_sigma():
    rng = np.random.default_rng(3)
    model = small_model(rng)
    U = rng.normal(size=(200, 2))
    s0 = scale_noise_for_snr(model, U, snr_db=10.0, seed=5)
    s1 = scale_noise_for_snr(model, U, snr_db=10.0 + 20.0 * np.log10(2.0), seed=5)
    assert s1 == pytest.approx(s0 / 2.0, rel=1e-12)


def test_scale_noise_matches_definition():
    rng = np.random.default_rng(4)
    model = small_model(rng)
    U = rng.normal(size=(100, 2))
    sigma = scale_noise_for_snr(model, U, snr_db=7.0, seed=8)
    # reproduce the two rollouts independently
    from netrecon.model import _rollout
    U_full = np.vstack([U, np.zeros((1, 2))])
    y_free = _rollout(model, U_full, 0.0, model.m0, None)
    y_unit = _rollout(model, U_full, 1.0, model.m0, np.random.default_rng(8))
    vs = np.mean(np.var(y_free, axis=0))
    vn = np.mean(np.var(y_unit - y_free, axis=0))
    assert sigma == pytest.approx(np.sqrt(vs / vn) * 10 ** (-7.0 / 20.0))


def test_scale_noise_monte_carlo_variance_ratio():
    # brute-force check over 1e5 samples: realized SNR within 5 percent
    rng = np.random.default_rng(6)
    model = small_model(rng, n=3, p=2, m=2)
    model.m0[:] = 0.0
    model.R0[:] = 0.0
    N = 100_000
    U = rng.normal(size=(N, 2))
    target_db = 12.0
    sigma = scale_noise_for_snr(model, U, snr_db=target_db, seed=21)
    clean = simulate(StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                     D=model.D, sigma=0.0, m0=model.m0,
                                     R0=model.R0),
                     N, input_kind="provided", U_provided=U, seed=77)
    noisy = simulate(StateSpaceModel(A=model.A, B=model.B, C=model.C,
                                     D=model.D, sigma=sigma, m0=model.m0,
                                     R0=model.R0),
                     N, input_kind="provided", U_provided=U, seed=77)
    noise = noisy.Y - clean.Y
    realized = np.mean(np.var(clean.Y, axis=0)) / np.mean(np.var(noise, axis=0))
    assert abs(realized / 10 ** (target_db / 10.0) - 1.0) < 0.05


def test_scale_noise_zero_signal_errors():
    rng = np.random.default_rng(7)
    model = small_model(rng)
    model.m0[:] = 0.0
    with pytest.raises(ValueError, match="zero signal"):
        scale_noise_for_snr(model, np.zeros((50, 2)), snr_db=10.0, seed=0)


def test_simulate_divergence_names_step():
    model = StateSpaceModel(A=[[2.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]],
                            sigma=0.0, m0=[1.0], R0=[[0.0]])
    with pytest.raises(SimulationDivergedError) as err:
        simulate(model, 5000, input_kind="provided",
                 U_provided=np.zeros((5000, 1)), seed=0)
    assert 0 < err.value.step <= 5000
    assert str(err.value.step) in str(err.value)


def test_simulate_snr_sigma_consistency():
    rng = np.random.default_rng(8)
    model = small_model(rng)
    data = simulate(model, 50, snr_db=20.0, seed=14)
    assert data.snr_db == 20.0
    assert data.seed == 14
    assert data.N == 50


# ---------------------------------------------------------------------------
# random network generation

def test_generate_dense_two_node_structure():
    gt = generate_random_network(p=2, n=2, m=2, density=1.0, seed=0)
    assert gt.model.spectral_radius() < 1.0
    offdiag = (gt.model.A != 0) & ~np.eye(2, dtype=bool)
    assert np.array_equal(gt.q_structure, offdiag)


def test_generate_structure_matches_A_pattern_when_fully_observed():
    # with n = p every off-diagonal coupling of A is a network edge
    gt = generate_random_network(p=4, n=4, m=4, density=0.5, seed=12)
    expected = (gt.model.A != 0) & ~np.eye(4, dtype=bool)
    assert np.array_equal(gt.q_structure, expected)


def test_generate_spectral_radius_in_band():
    for seed in range(8):
        gt = generate_random_network(p=3, n=8, m=3, density=0.2, seed=seed)
        rho = gt.model.spectral_radius()
        assert 0.5 - 1e-9 <= rho <= 0.95 + 1e-9


def test_generate_structure_agrees_with_exact_rational_path():
    gt = generate_random_network(p=3, n=6, m=3, density=0.2, seed=7)
    Q, P, H = exact_dsf_small(gt.model)
    assert np.array_equal(gt.q_structure, Q.zero_pattern())
    assert np.array_equal(gt.p_structure, P.zero_pattern())


def test_generate_full_scale_instance():
    gt = generate_random_network(p=40, n=100, m=40, density=0.03, seed=1)
    assert gt.model.spectral_radius() < 1.0
    assert gt.model.B.shape == (100, 40)
    assert gt.q_structure.shape == (40, 40)
    assert not np.any(np.diag(gt.q_structure))


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="m = p"):
        generate_random_network(p=2, n=4, m=3, density=0.5, seed=0)
    with pytest.raises(ValueError, match="density"):
        generate_random_network(p=2, n=4, m=2, density=0.01, seed=0)
    with pytest.raises(ValueError, match="n >= p"):
        generate_random_network(p=4, n=3, m=4, density=0.5, seed=0)


def test_generate_retry_exhaustion(monkeypatch):
    from netrecon import dsf as dsf_mod

    def always_fails(*args, **kwargs):
        raise dsf_mod.DSFError("forced failure")

    monkeypatch.setattr(dsf_mod, "dsf_from_state_space", always_fails)
    with pytest.raises(GenerationError, match="20 attempts"):
        generate_random_network(p=2, n=4, m=2, density=0.5, seed=0)


# ---------------------------------------------------------------------------
# file round-trips

def test_dataset_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    model = small_model(rng)
    data = simulate(model, 17, snr_db=13.0, seed=3)
    path = tmp_path / "d.csv"
    save_dataset_csv(data, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.Y, data.Y)
    assert np.array_equal(back.U, data.U)
    assert back.N == data.N
    assert back.seed == data.seed
    assert back.snr_db == data.snr_db
    # saving the loaded copy reproduces the same bytes
    path2 = tmp_path / "d2.csv"
    save_dataset_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_csv_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y1,z9\n1,0.0,0.0\n")
    with pytest.raises(FileFormatError, match="header"):
        load_dataset_csv(path)


def test_dataset_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y1,u1\n1,0.0\n")
    with pytest.raises(FileFormatError, match="row 1"):
        load_dataset_csv(path)


def test_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    model = small_model(rng)
    path = tmp_path / "m.txt"
    save_model(model, path, seed=42, density=0.25)
    back, meta = load_model(path)
    for name in ("A", "B", "C", "D", "m0", "R0"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert back.sigma == model.sigma
    assert meta == {"seed": 42, "density": 0.25}


def test_model_file_malformed_field(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("n 2\np oops\n")
    with pytest.raises(FileFormatError, match="'p'"):
        load_model(path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="N rows"):
        Dataset(Y=np.zeros((3, 1)), U=np.zeros((2, 1)), N=3)
    with pytest.raises(ValueError, match="finite"):
        Dataset(Y=np.array([[np.inf]]), U=np.zeros((1, 1)), N=1)


def test_model_validation():
    with pytest.raises(ValueError, match="full row rank"):
        StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), C=np.zeros((1, 2)),
                        D=np.zeros((1, 2)), sigma=1.0, m0=np.zeros(2),
                        R0=np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                        sigma=1.0, m0=[0.0], R0=[[-1.0]])
