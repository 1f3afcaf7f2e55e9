import hashlib
from pathlib import Path

import numpy as np
import pytest

import netrecon
from netrecon import (StateSpaceModel, Dataset, GenerationError,
                      SimulationDivergedError, generate_random_network,
                      simulate, scale_noise_for_snr, save_dataset_csv,
                      load_dataset_csv, save_model, load_model,
                      FileFormatError, GroundTruth, boolean_structure,
                      default_q_points, dsf_from_state_space)
from netrecon.model import _q_closure

from _oracles import exact_dsf_small

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def small_model(rng, n=3, p=2, m=2, sigma=0.5):
    A = rng.normal(size=(n, n))
    A *= 0.7 / np.max(np.abs(np.linalg.eigvals(A)))
    return StateSpaceModel(
        A=A, B=rng.normal(size=(n, m)), p=p, sigma=sigma,
        m0=rng.normal(size=n), R0=np.eye(n))


def _rel(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


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
    ref = []
    for k in range(20):
        r.standard_normal(3)  # process draw, scaled by sigma = 0
        r.standard_normal(2)  # measurement draw, scaled by sigma = 0
        x = model.A @ x + model.B @ U[k]
        ref.append(model.C @ x)
    # the simulated states are a blocked scan, which rounds in another order
    assert _rel(data.Y, ref) <= 1e-12
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
    ref = []
    for k in range(1, 11):
        r.standard_normal(3)
        r.standard_normal(2)
        x = model.A @ x + model.B @ U_full[k - 1]
        ref.append(model.C @ x + model.D @ U_full[k])
    assert _rel(data.Y, ref) <= 1e-12


@pytest.mark.parametrize("N", [1, 8, 17, 1000])
def test_simulate_noisy_matches_per_step_replay(N):
    # pins the noise stream: step k draws w_k (n values), then e_k (p values)
    rng = np.random.default_rng(12)
    model = small_model(rng, n=4, p=2, m=2)
    model.D = np.full((2, 2), 0.5)
    # the SNR scaling needs two samples, so one step keeps the model's sigma
    snr_db = 15.0 if N >= 2 else None
    data = simulate(model, N, snr_db=snr_db, seed=6)
    r = np.random.default_rng(6)
    U_full = r.standard_normal((N + 1, 2))
    sigma = model.sigma if snr_db is None else scale_noise_for_snr(
        model, U_full[:N], snr_db, seed=int(r.integers(2**32)))
    assert sigma > 0
    x = model.m0 + np.linalg.cholesky(model.R0) @ r.standard_normal(4)
    ref = []
    for k in range(1, N + 1):
        w = r.standard_normal(4)
        e = r.standard_normal(2)
        x = model.A @ x + model.B @ U_full[k - 1] + sigma * w
        ref.append(model.C @ x + model.D @ U_full[k] + sigma * e)
    assert _rel(data.Y, ref) <= 1e-12
    assert np.array_equal(data.U, U_full[:N])


def test_simulate_snr_zero_db_noise_power_matches_signal_power():
    rng = np.random.default_rng(2)
    model = small_model(rng, n=3, p=2, m=2, sigma=1.0)
    model.m0[:] = 0.0
    model.R0[:] = 0.0
    N = 10_000
    U = rng.normal(size=(N, 2))
    sigma = scale_noise_for_snr(model, U, snr_db=0.0, seed=11)
    noisy = StateSpaceModel(A=model.A, B=model.B, p=model.p, sigma=sigma,
                            m0=model.m0, R0=model.R0, D=model.D)
    clean = simulate(model.__class__(A=model.A, B=model.B, p=model.p,
                                     sigma=0.0, m0=model.m0, R0=model.R0,
                                     D=model.D),
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
    clean = simulate(StateSpaceModel(A=model.A, B=model.B, p=model.p,
                                     sigma=0.0, m0=model.m0, R0=model.R0,
                                     D=model.D),
                     N, input_kind="provided", U_provided=U, seed=77)
    noisy = simulate(StateSpaceModel(A=model.A, B=model.B, p=model.p,
                                     sigma=sigma, m0=model.m0, R0=model.R0,
                                     D=model.D),
                     N, input_kind="provided", U_provided=U, seed=77)
    noise = noisy.Y - clean.Y
    realized = np.mean(np.var(clean.Y, axis=0)) / np.mean(np.var(noise, axis=0))
    assert abs(realized / 10 ** (target_db / 10.0) - 1.0) < 0.05


def test_simulate_rejects_an_snr_of_nan_or_minus_inf():
    # both used to run into a SimulationDivergedError at step 1; +inf dB
    # stays valid and means noise-free
    rng = np.random.default_rng(9)
    model = small_model(rng)
    for bad in (float("nan"), -np.inf):
        with pytest.raises(ValueError, match="snr_db must be above -inf dB"):
            simulate(model, 20, snr_db=bad, seed=1)
    U = rng.normal(size=(20, 2))
    assert scale_noise_for_snr(model, U, snr_db=np.inf, seed=2) == 0.0


def test_scale_noise_zero_signal_errors():
    rng = np.random.default_rng(7)
    model = small_model(rng)
    model.m0[:] = 0.0
    with pytest.raises(ValueError, match="zero signal"):
        scale_noise_for_snr(model, np.zeros((50, 2)), snr_db=10.0, seed=0)


def test_simulate_divergence_names_step():
    model = StateSpaceModel(A=[[2.0]], B=[[0.0]], p=1, sigma=0.0, m0=[1.0],
                            R0=[[0.0]])
    with pytest.raises(SimulationDivergedError) as err:
        simulate(model, 5000, input_kind="provided",
                 U_provided=np.zeros((5000, 1)), seed=0)
    # x_k = 2**k exactly: the first state past the largest double is k = 1024
    assert err.value.step == 1024
    assert str(err.value.step) in str(err.value)


def test_simulate_zero_state_of_unstable_model_stays_zero():
    # the scan's powers of A overflow past A^1023, and inf times the zero
    # state is NaN; the steps from there are redone one at a time
    model = StateSpaceModel(A=[[2.0]], B=[[1.0]], p=1, sigma=0.0, m0=[0.0],
                            R0=[[0.0]])
    data = simulate(model, 5000, input_kind="provided",
                    U_provided=np.zeros((5000, 1)), seed=0)
    assert not data.Y.any()


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


def test_generate_closure_contains_the_sampled_extraction():
    # the ten desk networks of a benchmark run at seed 1, each DSF sampled at
    # the default points and thresholded at 1e-4: every edge found so is in
    # the exact structure, which adds none; P is diagonal
    points = default_q_points()
    added = 0
    for index in range(10):
        seed = int(np.random.SeedSequence([1, index]).generate_state(1)[0])
        gt = generate_random_network(p=10, n=25, m=10, density=0.1, seed=seed)
        graph = boolean_structure(dsf_from_state_space(gt.model, points), 1e-4)
        assert not (graph.q_adj & ~gt.q_structure).any(), index
        assert np.array_equal(gt.p_structure, graph.p_adj)
        added += int((gt.q_structure & ~graph.q_adj).sum())
    assert added == 0


def test_generate_samples_no_dsf(monkeypatch):
    # both structures are read off what was drawn, so no DSF is evaluated
    from netrecon import dsf as dsf_mod
    shapes = [(10, 25, 10, 0.1, 3), (5, 10, 5, 0.1, 216941037),
              (3, 6, 3, 0.2, 7), (1, 3, 1, 0.5, 0)]
    expected = [generate_random_network(*shape) for shape in shapes]

    def forbidden(*args, **kwargs):
        raise AssertionError("generate_random_network evaluated the DSF")

    monkeypatch.setattr(dsf_mod, "dsf_from_state_space", forbidden)
    monkeypatch.setattr(dsf_mod, "boolean_structure", forbidden)
    for shape, want in zip(shapes, expected):
        got = generate_random_network(*shape)
        assert np.array_equal(got.model.A, want.model.A)
        assert np.array_equal(got.model.B, want.model.B)
        assert np.array_equal(got.q_structure, want.q_structure)
        assert np.array_equal(got.p_structure, np.eye(shape[0], dtype=bool))


@pytest.mark.parametrize("shape, seed, edges", [
    ((5, 10, 5, 0.1), 216941037, 2), ((5, 10, 5, 0.1), 353322513, 2),
    ((3, 6, 3, 0.2), 342754370, 1), ((3, 8, 3, 0.2), 1685249533, 3)])
def test_generate_redraws_a_truth_whose_closure_has_no_edge(shape, seed, edges):
    # each first candidate's closure has no Q edge, though sampling its DSF
    # left rounding-level entries that a relative threshold counted as edges
    gt = generate_random_network(*shape, seed)
    assert int(gt.q_structure.sum()) == edges
    assert np.array_equal(gt.q_structure, _q_closure(gt.model.A, shape[0]))


def _support_pin(gt):
    """(nonzeros of A, Q edges, digest of the A, Q and P supports)."""
    bits = np.concatenate([(gt.model.A != 0).ravel(), gt.q_structure.ravel(),
                           gt.p_structure.ravel()])
    return (int(np.count_nonzero(gt.model.A)), int(gt.q_structure.sum()),
            hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()[:12])


def _cell_seed(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


_DESK = (10, 25, 10, 0.1)
_PINNED_DRAWS = {
    # criterion 7's ten networks (benchmark seed 0)
    "criterion7": [(_DESK, _cell_seed(0, i)) for i in range(10)],
    # the desk cells of a benchmark run at seed 1
    "desk_seed1": [(_DESK, _cell_seed(1, i)) for i in range(10)],
    # long_series perfbench cells at seeds 1..5
    "long_series": [((5, 10, 5, 0.1), _cell_seed(s, 0)) for s in range(1, 6)],
    # the first candidate has no nonzero in A and is redrawn
    "empty_first": [((3, 6, 3, 0.2), 2436)],
}
_PINS = {
    "criterion7": [
        (64, 36, "14f7a0be77a8"), (59, 35, "b60bc2475ce8"),
        (66, 50, "59d463001312"), (71, 48, "d6c7545bfb1f"),
        (62, 43, "a68a838a29a1"), (56, 40, "79e8367004c4"),
        (53, 24, "de279b5c9697"), (58, 45, "07e0de3eb45a"),
        (61, 54, "86b4a90b7696"), (60, 47, "17d3b454f977")],
    "desk_seed1": [
        (64, 52, "0f60eb2ee5df"), (48, 21, "5b6afc36fbf5"),
        (52, 33, "aa35e065c01d"), (63, 46, "d88cf894a811"),
        (73, 63, "d9fc9749a542"), (61, 40, "c4a733006261"),
        (56, 46, "2f215c823b60"), (53, 37, "75695cf49408"),
        (71, 53, "2ffb79079ea7"), (51, 15, "430721871d5e")],
    "long_series": [
        (14, 6, "f17c9285f8fd"), (13, 3, "9dd20d8d33fe"),
        (13, 4, "4939d1c321fe"), (7, 1, "9761bf653fe8"),
        (5, 2, "8d7b7e2d79b8")],
    "empty_first": [(7, 2, "3733db91ed05")],
}


@pytest.mark.parametrize("name", sorted(_PINNED_DRAWS))
def test_generate_keeps_its_draws(name):
    # the supports of A, Q and P drawn for these seeds, recorded before the
    # generator stopped sampling the DSF; a benchmark's networks must not move
    if name == "empty_first":
        (p, n, m, density), seed = _PINNED_DRAWS[name][0]
        assert not (np.random.default_rng(seed).random((n, n)) < density).any()
    got = [_support_pin(generate_random_network(*shape, seed))
           for shape, seed in _PINNED_DRAWS[name]]
    assert got == _PINS[name]


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


def test_generate_redraws_a_network_without_edges():
    # the first candidate of the long_series benchmark cell at seed 317 has
    # six nonzeros in A but no Q edge; it is redrawn
    gt = generate_random_network(p=5, n=10, m=5, density=0.1, seed=3369299466)
    assert gt.q_structure.any()
    # with one output no edge can exist, so none is asked for
    gt = generate_random_network(p=1, n=3, m=1, density=0.5, seed=0)
    assert not gt.q_structure.any()


def test_generate_retry_exhaustion(monkeypatch):
    from netrecon import model as model_mod

    def no_edge(A, p):
        return np.zeros((p, p), dtype=bool)

    monkeypatch.setattr(model_mod, "_q_closure", no_edge)
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


@pytest.mark.parametrize("comment", ["seed abc", "snr_db loud"])
def test_dataset_csv_metadata_error_names_its_line(tmp_path, comment):
    path = tmp_path / "d.csv"
    path.write_text(f"# netrecon dataset v1\nt,y1,u1\n1,0.5,1.0\n# {comment}\n"
                    "2,0.25,0.0\n")
    key = comment.split()[0]
    with pytest.raises(FileFormatError, match=f"d.csv:4: field '{key}'"):
        load_dataset_csv(path)


@pytest.mark.parametrize("line", ["seed abc", "density dense"])
def test_model_file_metadata_error_names_its_line(tmp_path, line):
    rng = np.random.default_rng(10)
    path = tmp_path / "m.txt"
    save_model(small_model(rng), path)
    text = path.read_text().replace("\nA\n", f"\n{line}\nA\n", 1)
    path.write_text(text)
    key = line.split()[0]
    with pytest.raises(FileFormatError, match=f"m.txt:6: field '{key}'"):
        load_model(path)


def test_dataset_csv_repeated_metadata_is_an_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# netrecon dataset v1\n# seed 1\nt,y1,u1\n1,0.5,1.0\n"
                    "# seed 7\n2,0.25,0.0\n")
    with pytest.raises(FileFormatError,
                       match="d.csv:5: field 'seed' repeats line 2"):
        load_dataset_csv(path)


def test_dataset_csv_metadata_after_the_last_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,y1,u1\n1,0.5,1.0\n2,0.25,0.0\n# seed 7\n")
    assert load_dataset_csv(path).seed == 7
    path.write_text("# seed 1\nt,y1,u1\n1,0.5,1.0\n2,0.25,0.0\n\n# seed 7\n")
    with pytest.raises(FileFormatError,
                       match="d.csv:6: field 'seed' repeats line 1"):
        load_dataset_csv(path)


def test_model_file_repeated_metadata_is_an_error(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "m.txt"
    save_model(small_model(rng), path, density=0.5)
    text = path.read_text().replace("\nA\n", "\ndensity 0.25\nA\n", 1)
    path.write_text(text)
    with pytest.raises(FileFormatError,
                       match="m.txt:7: field 'density' repeats line 6"):
        load_model(path)


def test_model_file_content_after_r0_is_an_error(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "m.txt"
    save_model(small_model(rng), path)
    text = path.read_text()
    first_line_after = text.count("\n") + 2   # after a blank line
    path.write_text(text + "\n# comments are fine\n")
    load_model(path)
    path.write_text(text + "\n" + text[text.index("A\n"):])
    with pytest.raises(FileFormatError,
                       match=f"m.txt:{first_line_after}: unexpected content "
                             "after matrix R0: 'A'"):
        load_model(path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="N rows"):
        Dataset(Y=np.zeros((3, 1)), U=np.zeros((2, 1)), N=3)
    with pytest.raises(ValueError, match="finite"):
        Dataset(Y=np.array([[np.inf]]), U=np.zeros((1, 1)), N=1)


def test_model_validation():
    with pytest.raises(ValueError, match=r"need 1 <= p <= n, got n=2, p=3"):
        StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), p=3, sigma=1.0,
                        m0=np.zeros(2), R0=np.eye(2))
    for p in (1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="p must be an integer"):
            StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), p=p, sigma=1.0,
                            m0=np.zeros(2), R0=np.eye(2))
    assert StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), p=np.int64(1),
                           sigma=1.0, m0=np.zeros(2), R0=np.eye(2)).p == 1
    with pytest.raises(ValueError, match="semidefinite"):
        StateSpaceModel(A=[[0.5]], B=[[1.0]], p=1, sigma=1.0, m0=[0.0],
                        R0=[[-1.0]])


_GOOD = dict(A=0.5 * np.eye(2), B=np.ones((2, 1)), p=1, sigma=1.0,
             m0=np.zeros(2), R0=np.eye(2))


@pytest.mark.parametrize("changes, message", [
    ({"A": np.zeros((2, 3))}, r"A must be square, got shape \(2, 3\)"),
    ({"B": np.ones((3, 1))}, r"B must have 2 rows, got shape \(3, 1\)"),
    ({"R0": np.eye(3)}, r"R0 must have shape \(2, 2\), got \(3, 3\)"),
    ({"D": np.zeros((2, 1))}, r"D must have shape \(1, 1\), got \(2, 1\)"),
    ({"A": [[0.5, np.nan], [0.0, 0.5]]}, "A contains non-finite entries"),
    ({"B": [[np.inf], [1.0]]}, "B contains non-finite entries"),
    ({"sigma": -0.1}, "sigma must be nonnegative"),
    ({"sigma": None}, "sigma must be a number, got None"),
    ({"sigma": "1"}, "sigma must be a number, got '1'"),
    ({"sigma": np.nan}, "sigma must be nonnegative and finite, got nan"),
    ({"sigma": np.inf}, "sigma must be nonnegative and finite, got inf"),
    ({"m0": [0.0, np.nan]}, "m0 contains non-finite entries"),
], ids=["A-square", "B-rows", "R0-shape", "D-shape", "A-nan", "B-inf",
        "sigma-negative", "sigma-none", "sigma-str", "sigma-nan", "sigma-inf",
        "m0-nan"])
def test_model_rejects_malformed_matrices(changes, message):
    with pytest.raises(ValueError, match=message):
        StateSpaceModel(**{**_GOOD, **changes})


def test_ground_truth_rejects_a_self_loop():
    model = StateSpaceModel(**_GOOD)
    with pytest.raises(ValueError,
                       match="q_structure must have an all-false diagonal"):
        GroundTruth(model=model, q_structure=[[True]], p_structure=[[True]])


@pytest.mark.parametrize("call, message", [
    (lambda model: simulate(model, 5, input_kind="provided"),
     "input_kind='provided' requires U_provided"),
    (lambda model: simulate(model, 5, input_kind="provided",
                            U_provided=np.zeros((4, 1))),
     r"U_provided must have shape \(5, 1\), got \(4, 1\)"),
    (lambda model: simulate(model, 5, input_kind="uniform"),
     "unknown input_kind 'uniform'"),
    (lambda model: scale_noise_for_snr(
        StateSpaceModel(**{**_GOOD, "A": 1.5 * np.eye(2)}), np.ones((5, 1)), 20.0),
     "model must be stable to define a steady SNR"),
], ids=["provided-missing", "provided-shape", "unknown-kind", "unstable-snr"])
def test_simulate_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call(StateSpaceModel(**_GOOD))


# (text to replace, its replacement, the error's line, message) in the model
# file save_model writes for _GOOD: header lines 1-5, A at 6, R0 at 18
@pytest.mark.parametrize("old, new, lineno, message", [
    ("n 2", "q 2", 2, "expected field 'n', found 'q'"),
    ("n 2", "n", 2, "field 'n' has no value"),
    ("A", "colour red\nA", 6, "unexpected field 'colour' before matrix A"),
    ("B", "b", 9, "expected 'B', found 'b'"),
    ("0.5 0", "0.5", 7, "matrix A row 1: expected 2 values, found 1"),
    ("0.5 0", "0.5 x", 7, r"matrix A row 1: non-numeric value in '0.5 x'"),
    ("R0\n1 0\n0 1", "R0\n1 0", 19, "unexpected end of file"),
], ids=["wrong-key", "no-value", "stray-field", "wrong-literal", "short-row",
        "non-numeric", "truncated"])
def test_load_model_rejects_malformed_files(tmp_path, old, new, lineno, message):
    path = tmp_path / "m.txt"
    save_model(StateSpaceModel(**_GOOD), path)
    text = path.read_text()
    assert f"\n{old}\n" in text
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n", 1))
    with pytest.raises(FileFormatError, match=f"m.txt:{lineno}: {message}"):
        load_model(path)


@pytest.mark.parametrize("text, lineno, message", [
    ("k,y1,u1\n1,0.5,1.0\n", 1, "first column must be 't', found 'k'"),
    ("t,y1,u1\n1,x,1.0\n", 2, "row 1: non-numeric field"),
    ("t,y1,u1\n1,0.5,1.0\n3,0.5,1.0\n", 3, "row 2: field 't' must be 2, found 3"),
    ("# netrecon dataset v1\nt,y1,u1\n", 2, "dataset has no rows"),
], ids=["first-column", "non-numeric", "row-index", "no-rows"])
def test_load_dataset_csv_rejects_malformed_files(tmp_path, text, lineno, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=f"d.csv:{lineno}: {message}"):
        load_dataset_csv(path)


def test_model_rejects_full_row_rank_c_other_than_i_0(tmp_path):
    # the outputs are the first p states: a model file whose C block is a
    # permutation or a scaling of [I 0] has full row rank but fails to load,
    # at the line of its first row that differs from [I 0]
    lines = (FIXTURES / "sample_model.txt").read_text().splitlines()
    c = lines.index("C")
    swapped, scaled = list(lines), list(lines)
    swapped[c + 2], swapped[c + 3] = swapped[c + 3], swapped[c + 2]
    scaled[c + 1] = "2 0 0 0 0 0"
    path = tmp_path / "m.txt"
    for bad, lineno, row in ((swapped, c + 3, 2), (scaled, c + 2, 1)):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(FileFormatError,
                           match=rf"m.txt:{lineno}: matrix C row {row}: the "
                                 r"outputs are the first p states: C must be \[I 0\]"):
            load_model(path)


def test_model_c_is_i_0_and_d_defaults_to_zero():
    rng = np.random.default_rng(13)
    model = small_model(rng, n=4, p=2, m=3)
    assert np.array_equal(model.C, np.eye(2, 4))
    assert np.array_equal(model.D, np.zeros((2, 3)))
    with pytest.raises(AttributeError):
        model.C = np.eye(2, 4)
    explicit = StateSpaceModel(A=model.A, B=model.B, p=2, sigma=model.sigma,
                               m0=model.m0, R0=model.R0, D=np.zeros((2, 3)))
    a = simulate(model, 40, snr_db=20.0, seed=3)
    b = simulate(explicit, 40, snr_db=20.0, seed=3)
    assert np.array_equal(a.Y, b.Y) and np.array_equal(a.U, b.U)
    pts = default_q_points()
    sa, sb = dsf_from_state_space(model, pts), dsf_from_state_space(explicit, pts)
    for name in ("Q_vals", "P_vals", "H_vals"):
        assert np.array_equal(getattr(sa, name), getattr(sb, name))


def test_sample_model_file_roundtrips_byte_identically(tmp_path):
    model, meta = load_model(FIXTURES / "sample_model.txt")
    path = tmp_path / "m.txt"
    save_model(model, path, **meta)
    assert path.read_bytes() == (FIXTURES / "sample_model.txt").read_bytes()


def test_model_symmetry_check_is_allclose_at_its_boundary():
    # R0 passes when every |R0 - R0'| <= 1e-10 + 1e-5 |R0'|, as for
    # np.allclose(R0, R0', atol=1e-10); offsets a few ulps either side of
    # the bound, on both the absolute and the relative part
    verdicts = []
    for low in (0.0, 0.5, -3.0):
        bound = 1e-10 + 1e-5 * abs(low)
        for off in (bound * (1 - 1e-9), bound, bound * (1 + 1e-9),
                    *np.nextafter(bound, [0.0, 1.0])):
            for high in (low + off, low - off):
                R0 = np.array([[10.0, high], [low, 10.0]])
                expected = bool(np.allclose(R0, R0.T, atol=1e-10))
                try:
                    StateSpaceModel(A=0.5 * np.eye(2), B=np.eye(2), p=2,
                                    sigma=1.0, m0=np.zeros(2), R0=R0)
                    accepted = True
                except ValueError as err:
                    assert "symmetric" in str(err)
                    accepted = False
                assert accepted == expected, (low, high)
                verdicts.append(accepted)
    assert any(verdicts) and not all(verdicts)
