import numpy as np
import pytest

from netrecon import (StateSpaceModel, NetworkGraph, DSFError,
                      default_q_points, dsf_from_state_space, boolean_structure,
                      graph_compare, edge_auc, FreqSample,
                      generate_random_network, save_dsf_result)

from _oracles import UnsupportedSizeError, exact_dsf_small


def identity_output_model(A, sigma=1.0, B=None, D=None, p=None):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    p = n if p is None else p
    B = np.eye(n)[:, :p] if B is None else np.asarray(B, float)
    m = B.shape[1]
    D = np.zeros((p, m)) if D is None else np.asarray(D, float)
    return StateSpaceModel(A=A, B=B, p=p, sigma=sigma, m0=np.zeros(n),
                           R0=np.eye(n), D=D)


def random_model(rng, n, p, m, with_D=False):
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.4, 0.9) / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    D = rng.normal(size=(p, m)) if with_D else np.zeros((p, m))
    return StateSpaceModel(A=A, B=B, p=p, sigma=rng.uniform(0.2, 1.5),
                           m0=np.zeros(n), R0=np.eye(n), D=D)


def test_two_node_fully_observed_example():
    model = identity_output_model([[0.0, 0.5], [0.3, 0.0]])
    fs = dsf_from_state_space(model, [2.0])
    expected = np.array([[0.0, 0.25], [0.15, 0.0]])
    assert np.allclose(fs.Q_vals[0], expected, atol=1e-14)


def test_diagonal_of_q_is_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        model = random_model(rng, n=7, p=3, m=3)
        fs = dsf_from_state_space(model, default_q_points())
        diag = np.diagonal(fs.Q_vals, axis1=1, axis2=2)
        assert np.all(diag == 0.0)


def test_strict_properness_decay_on_real_ray():
    rng = np.random.default_rng(1)
    model = random_model(rng, n=6, p=3, m=3)
    near = dsf_from_state_space(model, [2.0]).Q_vals[0]
    far = dsf_from_state_space(model, [1e6]).Q_vals[0]
    mask = np.abs(near) > 0
    assert np.all(np.abs(far[mask]) <= 1e-4 * np.abs(near[mask]))


def test_exact_matches_sampled_on_fixed_seed_instance():
    gt = generate_random_network(p=3, n=6, m=3, density=0.2, seed=7)
    pts = default_q_points()
    fs = dsf_from_state_space(gt.model, pts)
    Q, P, H = exact_dsf_small(gt.model)
    for exact, sampled in [(Q, fs.Q_vals), (P, fs.P_vals), (H, fs.H_vals)]:
        vals = exact.evaluate(fs.q_points)
        scale = max(np.abs(vals).max(), 1.0)
        assert np.abs(vals - sampled).max() <= 1e-10 * scale


def test_exact_matches_sampled_random_points():
    rng = np.random.default_rng(2)
    model = random_model(rng, n=4, p=2, m=2, with_D=True)
    pts = 2.0 + rng.uniform(0.5, 2.0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    fs = dsf_from_state_space(model, pts)
    Q, P, H = exact_dsf_small(model)
    for exact, sampled in [(Q, fs.Q_vals), (P, fs.P_vals), (H, fs.H_vals)]:
        vals = exact.evaluate(fs.q_points)
        scale = max(np.abs(vals).max(), 1.0)
        assert np.abs(vals - sampled).max() <= 1e-10 * scale


def test_exact_fully_observed_entries():
    # n = p: Q_ij = a_ij / (q - a_ii)
    A = np.array([[0.3, 0.5, 0.0], [0.0, -0.2, 0.4], [0.1, 0.0, 0.25]])
    model = identity_output_model(A)
    Q, P, H = exact_dsf_small(model)
    for i in range(3):
        for j in range(3):
            num, den = Q.entries[i][j]
            assert np.allclose(den, [-A[i, i], 1.0])
            if i == j:
                assert Q.is_zero(i, j)
            else:
                assert np.allclose(num, [A[i, j]]) or (A[i, j] == 0 and Q.is_zero(i, j))


def test_exact_lower_triangular_has_pure_delay_denominators():
    A = np.array([[0.0, 0.0], [0.6, 0.0]])
    model = identity_output_model(A)
    Q, _, _ = exact_dsf_small(model)
    for i in range(2):
        for j in range(2):
            assert np.allclose(Q.den(i, j), [0.0, 1.0])  # denominator = q


def test_exact_rejects_large_hidden_block():
    rng = np.random.default_rng(3)
    model = random_model(rng, n=16, p=2, m=2)
    with pytest.raises(UnsupportedSizeError):
        exact_dsf_small(model)


def test_hidden_block_invariance():
    # transforming the unmeasured coordinates leaves (Q, P, H) unchanged
    rng = np.random.default_rng(4)
    pts = default_q_points()
    for trial in range(5):
        n, p = 7, 3
        model = random_model(rng, n=n, p=p, m=p, with_D=True)
        S = rng.normal(size=(n - p, n - p)) + 0.5 * np.eye(n - p)
        T = np.block([[np.eye(p), np.zeros((p, n - p))],
                      [np.zeros((n - p, p)), S]])
        Tinv = np.linalg.inv(T)
        tr = StateSpaceModel(A=T @ model.A @ Tinv, B=T @ model.B, p=model.p,
                             sigma=model.sigma, m0=model.m0, R0=model.R0,
                             D=model.D)
        a = dsf_from_state_space(model, pts)
        b = dsf_from_state_space(tr, pts)
        for x, y in [(a.Q_vals, b.Q_vals), (a.P_vals, b.P_vals),
                     (a.H_vals, b.H_vals)]:
            scale = max(np.abs(x).max(), 1.0)
            assert np.abs(x - y).max() <= 1e-8 * scale


def test_default_points_are_fixed_on_the_unit_circle():
    expected = np.exp(1j * np.pi * (2 * np.arange(32) + 1) / 32)
    pts = default_q_points()
    assert np.array_equal(pts, expected)
    pts[0] = 5.0   # each call returns its own array
    assert np.array_equal(default_q_points(), expected)


def test_pole_collision_moves_the_point_outward():
    # hidden eigenvalue exactly at the requested point
    A = np.array([[0.1, 1.0], [0.0, 2.0]])
    model = identity_output_model(A, p=1, B=np.array([[1.0], [0.0]]))
    fs = dsf_from_state_space(model, [2.0])
    assert fs.q_points[0] == 2.0 * 1.05
    assert np.all(np.isfinite(fs.Q_vals))
    # a moved point that lands on another point moves on
    fs = dsf_from_state_space(model, [2.0, 2.1])
    assert fs.q_points.tolist() == [2.0 * 1.05 * 1.05, 2.1]


def test_pole_collision_gives_up_after_64_moves():
    # a pole at 0 holds the point 0 however often it is scaled
    model = identity_output_model([[0.5, 1.0], [0.0, 0.0]], p=1,
                                  B=np.array([[1.0], [0.0]]))
    with pytest.raises(DSFError, match="after 64 moves"):
        dsf_from_state_space(model, [1.0, 0.0])


def test_rejects_duplicate_or_empty_points():
    model = identity_output_model([[0.5]])
    with pytest.raises(DSFError, match="distinct"):
        dsf_from_state_space(model, [2.0, 2.0])
    with pytest.raises(DSFError, match="at least one"):
        dsf_from_state_space(model, [])


def test_several_pole_collisions_are_replaced_and_the_rest_kept():
    # hidden eigenvalues 2.0 and 2.5; row 0 of A12 is zero, so W_00 = 3.0
    # at every q and q = 3.0 is a pole of diag(W)
    A = np.array([[3.0, 0.4, 0.0, 0.0],
                  [0.3, 0.2, 0.5, 0.7],
                  [0.6, 0.1, 2.0, 0.0],
                  [0.2, 0.8, 0.0, 2.5]])
    B = np.array([[1.0, 0.2], [0.0, 0.9], [0.4, -0.3], [-0.5, 0.6]])
    model = identity_output_model(A, sigma=0.7, B=B, D=[[0.3, 0.0], [-0.2, 0.5]], p=2)
    requested = default_q_points()
    hits = [3, 10, 20]
    requested[hits] = [2.0, 2.5, 3.0]

    fs = dsf_from_state_space(model, requested)
    moved = np.flatnonzero(fs.q_points != requested)
    assert moved.tolist() == hits
    assert np.array_equal(fs.q_points[hits], 1.05 * requested[hits])
    for vals in (fs.Q_vals, fs.P_vals, fs.H_vals):
        assert np.all(np.isfinite(vals))
    again = dsf_from_state_space(model, requested)
    for x, y in [(fs.q_points, again.q_points), (fs.Q_vals, again.Q_vals),
                 (fs.P_vals, again.P_vals), (fs.H_vals, again.H_vals)]:
        assert np.array_equal(x, y)
    Q, P, H = exact_dsf_small(model)
    for exact, sampled in [(Q, fs.Q_vals), (P, fs.P_vals), (H, fs.H_vals)]:
        vals = exact.evaluate(fs.q_points)
        scale = max(np.abs(vals).max(), 1.0)
        assert np.abs(vals - sampled).max() <= 1e-10 * scale


@pytest.mark.parametrize("n, p, m", [(7, 3, 2), (12, 5, 4), (110, 40, 40)])
def test_each_point_is_evaluated_as_on_its_own(n, p, m):
    # (110, 40, 40) is the full-scale size: p=40 outputs, 70 hidden states
    model = random_model(np.random.default_rng(n), n=n, p=p, m=m, with_D=True)
    batch = dsf_from_state_space(model, default_q_points())
    for i, qi in enumerate(batch.q_points):
        one = dsf_from_state_space(model, [qi])
        assert one.q_points[0] == qi
        for x, y in [(batch.Q_vals, one.Q_vals), (batch.P_vals, one.P_vals),
                     (batch.H_vals, one.H_vals)]:
            scale = max(np.abs(x[i]).max(), 1.0)
            assert np.abs(x[i] - y[0]).max() <= 1e-13 * scale


def test_boolean_structure_two_node_example():
    model = identity_output_model([[0.0, 0.5], [0.3, 0.0]])
    fs = dsf_from_state_space(model, default_q_points())
    g = boolean_structure(fs, rel_tol=1e-4)
    assert np.array_equal(g.q_adj, [[False, True], [True, False]])


def test_boolean_structure_zero_matrix():
    model = identity_output_model(np.zeros((2, 2)), B=np.zeros((2, 2)), sigma=1.0)
    fs = dsf_from_state_space(model, default_q_points())
    g = boolean_structure(fs, rel_tol=1e-4)
    assert not g.q_adj.any()
    assert not g.p_adj.any()


def test_boolean_structure_matches_exact_zero_pattern():
    gt = generate_random_network(p=10, n=12, m=10, density=0.1, seed=5)
    fs = dsf_from_state_space(gt.model, default_q_points())
    g = boolean_structure(fs, rel_tol=1e-4)
    Q, P, _ = exact_dsf_small(gt.model)
    assert np.array_equal(g.q_adj, Q.zero_pattern())
    assert np.array_equal(g.p_adj, P.zero_pattern())


def adj(pairs, shape):
    out = np.zeros(shape, dtype=bool)
    for i, j in pairs:
        out[i - 1, j - 1] = True
    return out


def test_graph_compare_examples():
    est = NetworkGraph(q_adj=adj([(1, 2), (2, 3)], (3, 3)),
                       p_adj=np.zeros((3, 3), dtype=bool))
    truth = NetworkGraph(q_adj=adj([(1, 2)], (3, 3)),
                         p_adj=np.zeros((3, 3), dtype=bool))
    gm = graph_compare(est, truth)
    assert gm.precision == pytest.approx(0.5)
    assert gm.tpr == pytest.approx(1.0)
    assert (gm.n_est_edges, gm.n_true_edges) == (2, 1)

    same = graph_compare(truth, truth)
    assert same.precision == 1.0 and same.tpr == 1.0

    empty = NetworkGraph(q_adj=np.zeros((3, 3), dtype=bool),
                         p_adj=np.zeros((3, 3), dtype=bool))
    gm2 = graph_compare(empty, truth)
    assert gm2.precision == 1.0
    assert gm2.tpr == 0.0


def test_graph_compare_dimension_mismatch():
    a = NetworkGraph(q_adj=np.zeros((2, 2), dtype=bool),
                     p_adj=np.zeros((2, 2), dtype=bool))
    b = NetworkGraph(q_adj=np.zeros((3, 3), dtype=bool),
                     p_adj=np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError, match="dimensions"):
        graph_compare(a, b)


def test_edge_auc_counts_a_tie_as_half():
    # scores max_q |Q_ij|, off the diagonal: 1<-2 0.5, 1<-3 0.1, 2<-1 0.9,
    # 2<-3 0.5, 3<-1 0.2, 3<-2 0.5, with 2<-1 taken at the second point;
    # the diagonal's 5.0 is not an entry
    first = [[5.0, 0.5, 0.1], [0.3, 5.0, 0.5j], [0.2, -0.5, 5.0]]
    second = [[0.0, 0.4, 0.0], [0.54 + 0.72j, 0.0, 0.1], [0.0, 0.0, 0.0]]
    sample = FreqSample(q_points=np.array([2.0, 3.0], dtype=complex),
                        Q_vals=np.array([first, second], dtype=complex),
                        P_vals=np.zeros((2, 3, 1), dtype=complex),
                        H_vals=np.zeros((2, 3, 3), dtype=complex))
    truth = NetworkGraph(q_adj=adj([(2, 1), (2, 3)], (3, 3)),
                         p_adj=np.zeros((3, 1), dtype=bool))
    # true edges score 0.9 and 0.5 against non-edges 0.5, 0.1, 0.2, 0.5:
    # 0.9 wins 4 pairs, 0.5 wins 2 and ties 2, so (4 + 2 + 2/2) / 8
    assert edge_auc(sample, truth) == 0.875
    flipped = NetworkGraph(q_adj=adj([(1, 2), (1, 3), (3, 1), (3, 2)], (3, 3)),
                           p_adj=truth.p_adj)
    assert edge_auc(sample, flipped) == 0.125
    for edges in ([], [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]):
        one_class = NetworkGraph(q_adj=adj(edges, (3, 3)), p_adj=truth.p_adj)
        assert np.isnan(edge_auc(sample, one_class))
    with pytest.raises(ValueError, match="dimensions"):
        edge_auc(sample, NetworkGraph(q_adj=np.zeros((2, 2), dtype=bool),
                                      p_adj=np.zeros((2, 1), dtype=bool)))


def test_save_dsf_result_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    model = random_model(rng, n=4, p=2, m=2)
    fs = dsf_from_state_space(model, default_q_points())
    g = boolean_structure(fs, 1e-4)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_dsf_result(p1, fs, g, extra_header=["seed 7"])
    save_dsf_result(p2, fs, g, extra_header=["seed 7"])
    assert p1.read_bytes() == p2.read_bytes()
    assert b"q_adjacency" in p1.read_bytes()


@pytest.mark.parametrize("rel_tol", [float("nan"), 1.0, 1.5, -1.0])
def test_boolean_structure_rejects_a_threshold_outside_unit_interval(rel_tol):
    model = identity_output_model([[0.0, 0.5], [0.3, 0.0]])
    fs = dsf_from_state_space(model, default_q_points())
    with pytest.raises(ValueError, match=r"rel_tol must be in \[0, 1\)"):
        boolean_structure(fs, rel_tol)
    assert boolean_structure(fs, 0.0).q_adj.sum() == 2
