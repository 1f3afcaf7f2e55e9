import numpy as np
import pytest

from netrecon import (StateSpaceModel, Dataset, ESums, FilterDivergedError,
                      StepSeq, kalman_filter, rts_smoother, lag_one_smoother, smooth,
                      expectation_sums, observed_loglik, simulate)

from _oracles import (lgssm_joint, condition_gaussian, smoothed_oracle,
                      filtered_oracle, loglik_oracle, q_function,
                      random_stable_model)


def scalar_model(A=0.0, B=0.0, sigma=1.0, m0=0.0, R0=1.0):
    return StateSpaceModel(A=[[A]], B=[[B]], p=1, sigma=sigma, m0=[m0],
                           R0=[[R0]])


def make_data(model, N, rng):
    return simulate(model, N, seed=int(rng.integers(2**31)))


def test_filter_one_step_hand_example():
    model = scalar_model()
    data = Dataset(Y=[[2.0]], U=[[0.0]], N=1)
    fp = kalman_filter(model, data)
    assert fp.P_pred[1][0, 0] == pytest.approx(1.0)
    R = fp.innov_factor[1]   # S_1 = 2, so K_1' = R'R C P_{1|0} = 1/2
    assert (R.T @ R @ fp.P_pred[1][:1])[0, 0] == pytest.approx(0.5)
    assert fp.x_filt[1][0] == pytest.approx(1.0)
    assert fp.P_filt[1][0, 0] == pytest.approx(0.5)


def test_filter_zero_dynamics_predicted_covariance():
    rng = np.random.default_rng(0)
    n, p = 3, 2
    model = StateSpaceModel(
        A=np.zeros((n, n)), B=rng.normal(size=(n, p)), p=p, sigma=0.7,
        m0=np.zeros(n), R0=np.eye(n))
    data = make_data(model, 6, rng)
    fp = kalman_filter(model, data)
    for k in range(2, 7):
        assert np.allclose(fp.P_pred[k], 0.49 * np.eye(n), atol=1e-14)


def test_filter_matches_joint_gaussian_conditioning():
    rng = np.random.default_rng(7)
    model = random_stable_model(rng, n=3, p=2, m=2)
    data = make_data(model, 10, rng)
    fp = kalman_filter(model, data)
    for k in range(1, 11):
        mu, Sig = filtered_oracle(model, data, k)
        assert np.abs(fp.x_filt[k] - mu).max() <= 1e-8
        assert np.abs(fp.P_filt[k] - Sig).max() <= 1e-8


def test_smoother_matches_joint_gaussian_conditioning():
    rng = np.random.default_rng(11)
    model = random_stable_model(rng, n=3, p=2, m=1)
    data = make_data(model, 10, rng)
    fp, sp = smooth(model, data)
    means, covs, lags = smoothed_oracle(model, data)
    assert np.abs(sp.x_sm - means).max() <= 1e-8
    assert np.abs(sp.P_sm - covs).max() <= 1e-8
    assert np.abs(sp.M_sm[1:] - lags[1:]).max() <= 1e-8
    # smoother initial condition: last step returned unchanged
    assert np.array_equal(sp.x_sm[-1], fp.x_filt[-1])
    assert np.array_equal(sp.P_sm[-1], fp.P_filt[-1])


def test_smoother_zero_dynamics_reduces_to_filter():
    rng = np.random.default_rng(3)
    n, p = 2, 2
    model = StateSpaceModel(
        A=np.zeros((n, n)), B=np.eye(n), p=n, sigma=1.0, m0=np.zeros(n),
        R0=np.eye(n))
    data = make_data(model, 8, rng)
    fp = kalman_filter(model, data)
    sp = rts_smoother(model, fp)
    assert np.allclose(sp.J, 0.0)
    assert np.allclose(sp.x_sm, fp.x_filt, atol=1e-14)
    M = lag_one_smoother(sp)
    assert np.allclose(M[fp.N], 0.0, atol=1e-14)


def test_lag_one_scalar_two_step_oracle():
    model = scalar_model(A=0.8, B=0.5, sigma=0.6, m0=0.3, R0=0.9)
    data = Dataset(Y=[[1.0], [-0.4]], U=[[0.2], [-1.0]], N=2)
    fp, sp = smooth(model, data)
    mean, cov, xs, ys = lgssm_joint(model, data.U)
    obs = np.arange(ys(1).start, ys(2).stop)
    targ = np.arange(xs(0).start, xs(2).stop)
    mu, Sig = condition_gaussian(mean, cov, targ, obs, data.Y.ravel())
    assert abs(sp.M_sm[1][0, 0] - Sig[1, 0]) <= 1e-10
    assert abs(sp.M_sm[2][0, 0] - Sig[2, 1]) <= 1e-10


def test_covariance_ordering_and_symmetry():
    rng = np.random.default_rng(21)
    model = random_stable_model(rng, n=4, p=2, m=2)
    data = make_data(model, 15, rng)
    fp, sp = smooth(model, data)
    for k in range(1, 16):
        for M in (fp.P_pred[k], fp.P_filt[k], sp.P_sm[k]):
            assert np.abs(M - M.T).max() <= 1e-12
            assert np.linalg.eigvalsh(M).min() >= -1e-10 * max(np.trace(M), 1.0)
        # smoothed <= filtered <= predicted as quadratic forms
        assert np.linalg.eigvalsh(fp.P_pred[k] - fp.P_filt[k]).min() >= -1e-10
        assert np.linalg.eigvalsh(fp.P_filt[k] - sp.P_sm[k]).min() >= -1e-10


def test_filter_divergence_guard():
    # unstable mode outside the measured block: covariance grows unboundedly
    model = StateSpaceModel(A=np.diag([0.5, 40.0]), B=np.zeros((2, 1)), p=1,
                            sigma=1.0, m0=np.zeros(2), R0=np.eye(2))
    data = Dataset(Y=np.ones((30, 1)), U=np.zeros((30, 1)), N=30)
    with pytest.raises(FilterDivergedError) as err:
        kalman_filter(model, data)
    assert err.value.step > 1


def test_filter_diverges_on_an_innovation_covariance_not_positive_definite():
    # a prior covariance no StateSpaceModel admits, set after its checks as
    # the E-step's model copies are: S_1 = A R0 A' + sigma^2 + 1 = -1, whose
    # inverse factor does not exist
    model = scalar_model(A=1.0)
    model.R0 = np.array([[-3.0]])
    data = Dataset(Y=[[1.0], [0.5]], U=[[0.0], [0.0]], N=2)
    with pytest.raises(FilterDivergedError) as err:
        kalman_filter(model, data)
    assert err.value.step == 1


def test_filter_diverges_on_a_predicted_mean_that_overflows():
    # every array of the model is finite, but B u_0 = 3e308 is not: the
    # covariances settle and the first predicted mean is the failing row
    model = StateSpaceModel(A=np.diag([0.5, 0.2]), B=1e308 * np.eye(2, 1),
                            p=1, sigma=1.0, m0=np.zeros(2), R0=np.eye(2))
    U = np.zeros((4, 1))
    U[0] = 3.0
    data = Dataset(Y=np.zeros((4, 1)), U=U, N=4)
    with pytest.raises(FilterDivergedError) as err:
        kalman_filter(model, data)
    assert err.value.step == 1


def test_filter_rejects_data_of_another_shape():
    model = scalar_model(A=0.5, B=1.0)
    for Y, U in [(np.zeros((3, 2)), np.zeros((3, 1))),
                 (np.zeros((3, 1)), np.zeros((3, 2)))]:
        with pytest.raises(ValueError, match="do not match model"):
            kalman_filter(model, Dataset(Y=Y, U=U, N=3))


def test_filter_rejects_bad_inputs():
    model = scalar_model(sigma=0.0)
    data = Dataset(Y=[[1.0]], U=[[0.0]], N=1)
    with pytest.raises(ValueError, match="sigma"):
        kalman_filter(model, data)
    model2 = StateSpaceModel(A=[[0.5]], B=[[1.0]], p=1, sigma=1.0, m0=[0.0],
                             R0=[[1.0]], D=[[2.0]])
    with pytest.raises(ValueError, match="D"):
        kalman_filter(model2, data)


def test_expectation_sums_outer_products_when_covariances_vanish():
    rng = np.random.default_rng(5)
    model = random_stable_model(rng, n=2, p=2, m=2)
    data = make_data(model, 6, rng)
    _, sp = smooth(model, data)
    # zero out all covariance information: sums must reduce to outer products
    sp_zero = type(sp)(x_sm=sp.x_sm, P_sm=StepSeq(np.zeros_like(sp.P_sm)), J=sp.J,
                       M_sm=StepSeq(np.zeros_like(sp.M_sm)))
    es = expectation_sums(sp_zero, data)
    xs = sp.x_sm
    z = np.hstack([xs[:-1], data.U])
    assert np.allclose(es.S_xx, xs[1:].T @ xs[1:], atol=1e-12)
    assert np.allclose(es.S_xz, xs[1:].T @ z, atol=1e-12)
    assert np.allclose(es.S_zz, z.T @ z, atol=1e-12)


def test_expectation_sums_need_the_lag_one_covariances():
    rng = np.random.default_rng(6)
    model = random_stable_model(rng, n=2, p=1, m=1)
    data = make_data(model, 5, rng)
    sp = rts_smoother(model, kalman_filter(model, data))
    assert sp.M_sm is None
    with pytest.raises(ValueError, match="lag-one smoother first"):
        expectation_sums(sp, data)


def test_expectation_sums_unit_input_identity():
    # with u_{k-1} = e1 the first column of the cross block is sum of x_{k|N}
    rng = np.random.default_rng(9)
    model = random_stable_model(rng, n=2, p=2, m=2)
    U = np.zeros((5, 2))
    U[:, 0] = 1.0
    data = simulate(model, 5, input_kind="provided", U_provided=U, seed=2)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)
    assert np.allclose(es.S_xz[:, 2], sp.x_sm[1:].sum(axis=0), atol=1e-12)


def test_expectation_sums_independent_reassembly():
    rng = np.random.default_rng(13)
    model = random_stable_model(rng, n=3, p=2, m=2)
    data = make_data(model, 12, rng)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)
    block = sum(np.outer(sp.x_sm[k - 1], sp.x_sm[k - 1]) + sp.P_sm[k - 1]
                for k in range(1, 13))
    assert np.allclose(es.S_zz[:3, :3], block, atol=1e-10)


def test_q_function_trivial_value():
    es = ESums(S_xx=np.array([[1.0]]), S_xz=np.zeros((1, 2)),
               S_zz=np.zeros((2, 2)), meas_rss=0.0,
               x0_sm=np.zeros(1), P0_sm=np.zeros((1, 1)), N=1)
    q = q_function(A=[[0.7]], B=[[0.0]], sigma2=1.0, m0=[0.0], R0=[[1.0]],
                   es=es, N=1)
    assert q == pytest.approx(-0.5)


def test_q_function_weighted_least_squares_optimum():
    rng = np.random.default_rng(17)
    model = random_stable_model(rng, n=2, p=2, m=1)
    data = make_data(model, 20, rng)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)
    L_star = np.linalg.solve(es.S_zz, es.S_xz.T).T
    q_star = q_function(L_star[:, :2], L_star[:, 2:], 0.5, model.m0, model.R0,
                        es, data.N)
    for _ in range(10):
        delta = 1e-3 * rng.normal(size=L_star.shape)
        L = L_star + delta
        q = q_function(L[:, :2], L[:, 2:], 0.5, model.m0, model.R0, es, data.N)
        assert q <= q_star + 1e-12


def test_q_function_matches_monte_carlo_complete_data_loglik():
    rng = np.random.default_rng(23)
    model = random_stable_model(rng, n=2, p=1, m=1, rich_prior=False)
    data = make_data(model, 6, rng)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)
    A2 = rng.normal(size=(2, 2)) * 0.3
    B2 = rng.normal(size=(2, 1))
    sigma2 = 0.8
    q = q_function(A2, B2, sigma2, model.m0, model.R0, es, data.N)

    # sample state paths from the smoothed joint Gaussian and average the
    # complete-data log-likelihood (constants dropped to match)
    mean, cov, xs, ys = lgssm_joint(model, data.U)
    obs = np.arange(ys(1).start, ys(data.N).stop)
    targ = np.arange(0, (data.N + 1) * model.n)
    mu, Sig = condition_gaussian(mean, cov, targ, obs, data.Y.ravel())
    root = np.linalg.cholesky(Sig + 1e-12 * np.eye(len(Sig)))
    draws = mu[None, :] + rng.standard_normal((100_000, len(mu))) @ root.T
    paths = draws.reshape(-1, data.N + 1, model.n)
    R0inv = np.linalg.inv(model.R0)
    dev0 = paths[:, 0, :] - model.m0
    term0 = np.einsum("si,ij,sj->s", dev0, R0inv, dev0)
    pred = np.einsum("ij,skj->ski", A2, paths[:, :-1, :]) \
        + (data.U @ B2.T)[None, :, :]
    resid = paths[:, 1:, :] - pred
    term = (resid**2).sum(axis=(1, 2)) / sigma2
    n = model.n
    m2q = np.linalg.slogdet(model.R0)[1] + data.N * n * np.log(sigma2) \
        + term0.mean() + term.mean()
    assert abs(-0.5 * m2q - q) <= 1e-2 * max(1.0, abs(q))


def test_q_function_accumulation_order_insensitive():
    rng = np.random.default_rng(29)
    model = random_stable_model(rng, n=3, p=2, m=2)
    data = make_data(model, 25, rng)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)

    # re-accumulate the sums in reverse order of k
    xs, Ps, Ms, U = sp.x_sm, sp.P_sm, sp.M_sm, data.U
    ks = list(range(1, 26))[::-1]
    S_xx = sum(np.outer(xs[k], xs[k]) + Ps[k] for k in ks)
    S_xz = sum(np.hstack([np.outer(xs[k], xs[k - 1]) + Ms[k],
                          np.outer(xs[k], U[k - 1])]) for k in ks)
    z = lambda k: np.concatenate([xs[k - 1], U[k - 1]])
    S_zz = sum(np.outer(z(k), z(k)) for k in ks)
    S_zz[:3, :3] += sum(Ps[k - 1] for k in ks)
    es_rev = type(es)(S_xx=S_xx, S_xz=S_xz, S_zz=S_zz, meas_rss=es.meas_rss,
                      x0_sm=es.x0_sm, P0_sm=es.P0_sm, N=es.N)
    q1 = q_function(model.A, model.B, 0.7, model.m0, model.R0, es, data.N)
    q2 = q_function(model.A, model.B, 0.7, model.m0, model.R0, es_rev, data.N)
    assert abs(q1 - q2) <= 1e-9 * max(1.0, abs(q1))


def test_q_function_singular_r0_jitter_warns():
    es = ESums(S_xx=np.array([[1.0]]), S_xz=np.zeros((1, 2)),
               S_zz=np.zeros((2, 2)), meas_rss=0.0,
               x0_sm=np.zeros(1), P0_sm=np.zeros((1, 1)), N=1)
    with pytest.warns(RuntimeWarning, match="singular R0"):
        q_function([[0.0]], [[0.0]], 1.0, [0.0], [[0.0]], es, 1)


def test_observed_loglik_matches_joint_gaussian():
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, n + 1))
        model = random_stable_model(rng, n=n, p=p, m=p)
        data = make_data(model, int(rng.integers(3, 11)), rng)
        assert observed_loglik(model, data) == pytest.approx(
            loglik_oracle(model, data), abs=1e-8)


def test_observed_loglik_degenerate_prior_limit():
    # tiny prior and noise: density of y_1 collapses to a unit Gaussian
    model = scalar_model(A=0.0, sigma=1e-9, R0=1e-18)
    data = Dataset(Y=[[0.7]], U=[[0.0]], N=1)
    expected = -0.5 * (np.log(2 * np.pi) + 0.7**2)
    assert observed_loglik(model, data) == pytest.approx(expected, abs=1e-8)


def test_stepseq_copies_its_input_and_has_no_dense_array_to_share():
    vals = np.arange(12.0).reshape(3, 2, 2)
    idx = np.array([0, 1, 1, 2])
    seq = StepSeq(vals, idx)
    # the caller's arrays stay writeable and unaliased
    assert vals.flags.writeable and idx.flags.writeable
    assert not np.shares_memory(seq.vals, vals)
    assert not np.shares_memory(seq.idx, idx)
    vals[0] = -1.0
    idx[0] = 2
    assert seq[0][0, 0] == 0.0
    dense = np.asarray(seq)
    assert np.array_equal(dense,
                          np.arange(12.0).reshape(3, 2, 2)[[0, 1, 1, 2]])
    assert np.array_equal(np.array(seq, copy=True), dense)
    # numpy 2's protocol: a request for no copy raises instead of copying
    with pytest.raises(ValueError, match="always a copy"):
        np.asarray(seq, copy=False)
