import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from netrecon import (IdentifiabilityError, RegressionData, SBLOptions,
                      SBLState, posterior, marginal_loglik,
                      identifiability_mask, sbl_em, simulate, smooth)

from _oracles import (DesignRegression, assemble_regression,
                      ridge_posterior_dense, pinv_posterior_dense,
                      evidence_dense, estep_full_width, random_stable_model,
                      sbl_em_full_width)


def generic_regression(rng, N, n_w, n_rows=1):
    """Arbitrary Gaussian design expressed through the row structure: with
    n_rows = 1 the design matrix is exactly the regressors array."""
    assert n_rows == 1
    m = n_w - 1
    targets = rng.normal(size=(N, 1))
    regressors = rng.normal(size=(N, n_w))
    return DesignRegression(targets=targets, regressors=regressors, n=1, m=m, N=N)


def free_mask(reg):
    from netrecon import Mask
    return Mask(free=np.ones(reg.N_w, dtype=bool))


# ---------------------------------------------------------------------------
# regression assembly

def test_assemble_scalar_stacking():
    from netrecon import SmoothPass
    xs = np.array([[0.5], [1.5], [2.5]])  # x0, x1, x2 smoothed means
    sp = SmoothPass(x_sm=xs, P_sm=np.zeros((3, 1, 1)), J=np.zeros((2, 1, 1)),
                    M_sm=np.zeros((3, 1, 1)))
    from netrecon import Dataset
    data = Dataset(Y=[[1.0], [2.0]], U=[[0.1], [0.2]], N=2)
    reg = assemble_regression(sp, data, n=1)
    assert np.array_equal(reg.y_vec, [2.5, 1.5])
    assert np.array_equal(reg.phi, [[1.5, 0.2], [0.5, 0.1]])
    assert reg.N_y == 2 and reg.N_w == 2


def test_assemble_noise_free_identity():
    rng = np.random.default_rng(0)
    model = random_stable_model(rng, n=3, p=3, m=3, sigma=1.0,
                                rich_prior=False)
    data = simulate(model, 15, seed=3)
    # exact state sequence stands in for the smoothed means
    from netrecon import SmoothPass, Dataset
    x = np.zeros((16, 3))
    x[0] = model.m0
    r = np.random.default_rng(99)
    U = r.normal(size=(15, 3))
    for k in range(1, 16):
        x[k] = model.A @ x[k - 1] + model.B @ U[k - 1]
    data = Dataset(Y=x[1:], U=U, N=15)
    sp = SmoothPass(x_sm=x, P_sm=np.zeros((16, 3, 3)), J=np.zeros((15, 3, 3)),
                    M_sm=np.zeros((16, 3, 3)))
    reg = assemble_regression(sp, data, n=3)
    w_true = np.concatenate([model.A.ravel(order="F"), model.B.ravel(order="F")])
    assert np.abs(reg.y_vec - reg.phi @ w_true).max() <= 1e-12


def test_gram_matches_per_step_kronecker_blocks():
    rng = np.random.default_rng(1)
    model = random_stable_model(rng, n=2, p=2, m=2)
    data = simulate(model, 8, seed=5)
    _, sp = smooth(model, data)
    reg = assemble_regression(sp, data, n=2)
    blocks = sum(
        np.kron(np.outer(np.concatenate([sp.x_sm[k - 1], data.U[k - 1]]),
                         np.concatenate([sp.x_sm[k - 1], data.U[k - 1]])),
                np.eye(2))
        for k in range(1, 9))
    assert np.allclose(reg.phi.T @ reg.phi, blocks, atol=1e-10)


# ---------------------------------------------------------------------------
# posterior

def test_posterior_identity_design_closed_form():
    reg = DesignRegression(targets=np.array([[1.0], [0.0]]),
                           regressors=np.eye(2), n=1, m=1, N=2)
    y = reg.y_vec
    mu, Sig = posterior(reg, gamma=np.ones(2), sigma2=1.0)
    assert np.allclose(mu, y / 2, atol=1e-12)
    assert np.allclose(Sig, 0.5 * np.eye(2), atol=1e-12)


def test_posterior_pruned_coordinate_is_zero():
    rng = np.random.default_rng(2)
    reg = generic_regression(rng, N=12, n_w=4)
    gamma = np.array([1.0, 0.0, 2.0, 0.5])
    mu, Sig = posterior(reg, gamma, sigma2=0.3)
    assert mu[1] == 0.0
    assert np.all(Sig[1, :] == 0.0) and np.all(Sig[:, 1] == 0.0)


def test_posterior_matches_normal_equations_ridge():
    rng = np.random.default_rng(3)
    for _ in range(5):
        reg = generic_regression(rng, N=20, n_w=6)
        gamma = rng.uniform(0.1, 3.0, 6)
        gamma[rng.integers(0, 6)] = 0.0
        sigma2 = rng.uniform(0.05, 2.0)
        mu, Sig = posterior(reg, gamma, sigma2)
        mu_o, Sig_o = ridge_posterior_dense(reg.phi, reg.y_vec, gamma, sigma2)
        assert np.abs(mu - mu_o).max() <= 1e-8
        assert np.abs(Sig - Sig_o).max() <= 1e-8


def test_posterior_structured_rows_match_dense_ridge():
    rng = np.random.default_rng(4)
    model = random_stable_model(rng, n=3, p=2, m=2)
    data = simulate(model, 10, seed=8)
    _, sp = smooth(model, data)
    reg = assemble_regression(sp, data, n=3)
    gamma = rng.uniform(0.2, 2.0, reg.N_w)
    gamma[rng.random(reg.N_w) < 0.3] = 0.0
    mu, Sig = posterior(reg, gamma, sigma2=0.7)
    mu_o, Sig_o = ridge_posterior_dense(reg.phi, reg.y_vec, gamma, 0.7)
    assert np.abs(mu - mu_o).max() <= 1e-8
    assert np.abs(Sig - Sig_o).max() <= 1e-8


def test_posterior_noiseless_limit_matches_pseudoinverse():
    rng = np.random.default_rng(5)
    reg = generic_regression(rng, N=20, n_w=8)
    gamma = rng.uniform(0.5, 2.0, 8)
    mu_tiny, _ = posterior(reg, gamma, sigma2=1e-12)
    mu_zero, _ = posterior(reg, gamma, sigma2=0.0)
    mu_o = pinv_posterior_dense(reg.phi, reg.y_vec, gamma)
    assert np.abs(mu_tiny - mu_o).max() <= 1e-6
    assert np.abs(mu_zero - mu_o).max() <= 1e-6


def test_posterior_underdetermined_noiseless_covariance():
    # more weights than observations: null-space directions keep prior variance
    rng = np.random.default_rng(6)
    reg = generic_regression(rng, N=4, n_w=8)
    gamma = rng.uniform(0.5, 2.0, 8)
    mu, Sig = posterior(reg, gamma, sigma2=0.0)
    Phi = reg.phi
    G12 = np.sqrt(gamma)
    proj = np.eye(8) - G12[:, None] * np.linalg.pinv(Phi * G12[None, :]) @ Phi
    Sig_o = proj * gamma[None, :]
    assert np.abs(Sig - Sig_o).max() <= 1e-8


def test_posterior_consistency_identity():
    rng = np.random.default_rng(7)
    reg = generic_regression(rng, N=15, n_w=5)
    gamma = rng.uniform(0.3, 2.0, 5)
    sigma2 = 0.4
    mu, Sig = posterior(reg, gamma, sigma2)
    lhs = (np.diag(1.0 / gamma) + reg.phi.T @ reg.phi / sigma2) @ Sig
    assert np.abs(lhs - np.eye(5)).max() <= 1e-8


def test_posterior_empty_active_set():
    rng = np.random.default_rng(8)
    reg = generic_regression(rng, N=6, n_w=3)
    mu, Sig = posterior(reg, np.zeros(3), sigma2=1.0)
    assert np.all(mu == 0.0) and np.all(Sig == 0.0)


def test_posterior_names_a_row_that_is_not_positive_definite():
    # a Gram no set of regressors gives: zz + sigma2 / gamma on row 0 is
    # diag(-4, 2), which has no inverse Cholesky factor
    reg = RegressionData(n=1, m=1, N=10, zz=np.diag([-5.0, 1.0]),
                         xz=np.array([[1.0, 0.5]]), y_sq_rows=np.array([3.0]))
    with pytest.raises(np.linalg.LinAlgError, match="row 0 is not positive"):
        posterior(reg, np.ones(2), sigma2=1.0)


# ---------------------------------------------------------------------------
# marginal likelihood

def test_marginal_zero_design_closed_form():
    rng = np.random.default_rng(9)
    targets = rng.normal(size=(4, 1))
    reg = DesignRegression(targets=targets, regressors=np.zeros((4, 3)),
                           n=1, m=2, N=4)
    y = reg.y_vec
    sigma2 = 0.8
    expected = -0.5 * (4 * np.log(2 * np.pi) + 4 * np.log(sigma2)
                       + y @ y / sigma2)
    assert marginal_loglik(reg, np.ones(3), sigma2) == pytest.approx(expected)
    # all-zero gamma gives the same value for any design
    reg2 = generic_regression(rng, N=4, n_w=3)
    reg2.targets[:] = targets
    reg2.__post_init__()
    assert marginal_loglik(reg2, np.zeros(3), sigma2) == pytest.approx(expected)


def test_marginal_matches_dense_formula():
    rng = np.random.default_rng(10)
    for _ in range(5):
        reg = generic_regression(rng, N=12, n_w=5)
        gamma = rng.uniform(0.0, 2.0, 5)
        sigma2 = rng.uniform(0.1, 1.5)
        dense = evidence_dense(reg.phi, reg.y_vec, gamma, sigma2)
        assert marginal_loglik(reg, gamma, sigma2) == pytest.approx(dense, abs=1e-8)


@pytest.mark.parametrize("fit", [posterior, marginal_loglik])
def test_gamma_of_wrong_length_is_rejected(fit):
    reg = generic_regression(np.random.default_rng(12), N=6, n_w=3)
    with pytest.raises(ValueError, match="length 3"):
        fit(reg, np.ones(4), 0.5)


@pytest.mark.parametrize("fit", [posterior, marginal_loglik])
def test_negative_gamma_is_rejected(fit):
    # a negative variance is not a pruned one
    reg = generic_regression(np.random.default_rng(12), N=6, n_w=3)
    with pytest.raises(ValueError, match="nonnegative"):
        fit(reg, np.array([1.0, -0.5, 1.0]), 0.5)


def sbl_em_from(reg, gamma, sigma2):
    return sbl_em(reg, free_mask(reg), init=SBLState(gamma=gamma, sigma2=sigma2))


@pytest.mark.parametrize("fit", [posterior, marginal_loglik, sbl_em_from])
def test_nan_gamma_is_rejected(fit):
    # NaN passes a "gamma < 0" test, and the layout would count it neither
    # active nor pruned, dropping a real active entry from its row
    reg = generic_regression(np.random.default_rng(12), N=6, n_w=3)
    with pytest.raises(ValueError, match="gamma must be nonnegative, not NaN"):
        fit(reg, np.array([1.0, np.nan, 1.0]), 0.5)


@pytest.mark.parametrize("fit", [posterior, marginal_loglik, sbl_em_from])
def test_nan_sigma2_is_rejected(fit):
    # NaN passes both "sigma2 < 0" and "sigma2 > 0": posterior would take
    # the noiseless branch and the others would return NaN.  At inf,
    # posterior would return a zero mean and sbl_em fail on a NaN sigma2
    reg = generic_regression(np.random.default_rng(12), N=6, n_w=3)
    for sigma2 in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"sigma2 must be .* and finite, "
                                             f"got {sigma2}"):
            fit(reg, np.ones(3), sigma2)


def test_sbl_em_rejects_an_infinite_initial_gamma():
    # the loop's stop test would compare an infinite step with tol times an
    # infinite scale and end after one iteration; posterior still takes the
    # flat prior of the "ml" fit
    reg = generic_regression(np.random.default_rng(12), N=6, n_w=3)
    gamma = np.array([1.0, np.inf, 1.0])
    with pytest.raises(ValueError, match="sbl_em needs a finite initial gamma"):
        sbl_em_from(reg, gamma, 0.5)
    assert np.isfinite(posterior(reg, gamma, 0.5).mu_w).all()


def test_infinite_gamma_at_zero_noise_is_rejected():
    # a flat prior leaves the noiseless limit undefined: the pseudo-inverse
    # branch would scale by sqrt(inf) and fail inside the eigensolver
    reg = generic_regression(np.random.default_rng(13), N=6, n_w=3)
    flat = np.full(reg.N_w, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="infinite prior variance needs "
                                             "sigma2 > 0"):
            posterior(reg, flat, 0.0)
    mu, _ = posterior(reg, flat, 1.0)
    lsq = np.linalg.lstsq(reg.phi, reg.y_vec, rcond=None)[0]
    assert rel_err(mu, lsq) <= 1e-12


def test_marginal_structured_matches_dense():
    rng = np.random.default_rng(11)
    model = random_stable_model(rng, n=2, p=2, m=2)
    data = simulate(model, 6, seed=13)
    _, sp = smooth(model, data)
    reg = assemble_regression(sp, data, n=2)
    gamma = rng.uniform(0.0, 1.5, reg.N_w)
    dense = evidence_dense(reg.phi, reg.y_vec, gamma, 0.6)
    assert marginal_loglik(reg, gamma, 0.6) == pytest.approx(dense, abs=1e-8)


# ---------------------------------------------------------------------------
# identifiability masks

def mask_matrices(mask, n, m):
    freeA = mask.free[: n * n].reshape((n, n), order="F")
    freeB = mask.free[n * n:].reshape((n, m), order="F")
    return freeA, freeB


def test_diag_b_mask_example():
    mask = identifiability_mask(n=3, p=2, m=2, mode="diag_b")
    freeA, freeB = mask_matrices(mask, 3, 2)
    assert freeA.all()
    expected = np.zeros((3, 2), dtype=bool)
    expected[0, 0] = expected[1, 1] = True
    assert np.array_equal(freeB, expected)


def test_p_diag_mask_example():
    mask = identifiability_mask(n=4, p=2, m=2, mode="p_diag", p22=1)
    freeA, freeB = mask_matrices(mask, 4, 2)
    # A11 (2x2) and A21 (2x2) fully free
    assert freeA[:2, :2].all() and freeA[2:, :2].all()
    # A12 zero pattern: (1,2) and (2,1) of the block pinned
    assert freeA[0, 2] and not freeA[0, 3]
    assert not freeA[1, 2] and freeA[1, 3]
    # A22 zero pattern: (2,1) of the block pinned
    assert freeA[2, 2] and freeA[2, 3] and not freeA[3, 2] and freeA[3, 3]
    # B1: only (2,2) free; B2: only (1,1) free
    assert np.array_equal(freeB, np.array([[False, False],
                                           [False, True],
                                           [True, False],
                                           [False, False]]))


def test_p_diag_p22_zero_vs_diag_b_off_diagonal_agreement():
    n, p = 6, 3
    pd = identifiability_mask(n, p, p, "p_diag", p22=0)
    db = identifiability_mask(n, p, p, "diag_b")
    _, freeB_pd = mask_matrices(pd, n, p)
    _, freeB_db = mask_matrices(db, n, p)
    diag_slots = np.zeros((n, p), dtype=bool)
    diag_slots[np.arange(p), np.arange(p)] = True          # diag_b free slots
    diag_slots[p + np.arange(p), np.arange(p)] = True      # p_diag b^ slots
    assert np.array_equal(freeB_pd[~diag_slots], freeB_db[~diag_slots])
    assert not freeB_pd[~diag_slots].any()


def test_mask_rejects_non_square_input_map():
    with pytest.raises(IdentifiabilityError):
        identifiability_mask(n=4, p=2, m=3, mode="diag_b")
    with pytest.raises(IdentifiabilityError):
        identifiability_mask(n=4, p=2, m=3, mode="p_diag", p22=1)
    with pytest.raises(IdentifiabilityError, match="p22"):
        identifiability_mask(n=4, p=2, m=2, mode="p_diag", p22=5)
    with pytest.raises(IdentifiabilityError, match="n - p"):
        identifiability_mask(n=3, p=3, m=3, mode="p_diag", p22=0)


def test_mask_rejects_fewer_states_than_outputs():
    with pytest.raises(ValueError, match="need n >= p"):
        identifiability_mask(n=2, p=3, m=3, mode="diag_b")


# ---------------------------------------------------------------------------
# inner EM

def test_sbl_em_zero_target_prunes_everything():
    rng = np.random.default_rng(12)
    reg = generic_regression(rng, N=20, n_w=6)
    reg.targets[:] = 0.0
    reg.__post_init__()
    state = sbl_em(reg, free_mask(reg),
                   opts=SBLOptions(max_iter=300, prune_tol=1e-12))
    assert not state.active.any()
    assert np.all(state.mu_w == 0.0)


def test_sbl_em_noiseless_support_recovery_single():
    rng = np.random.default_rng(13)
    reg = generic_regression(rng, N=100, n_w=50)
    w0 = np.zeros(50)
    support = rng.choice(50, size=5, replace=False)
    w0[support] = rng.normal(size=5) + np.sign(rng.normal(size=5))
    reg.targets = (reg.regressors @ w0)[:, None]
    reg.__post_init__()
    state = sbl_em(reg, free_mask(reg),
                   opts=SBLOptions(max_iter=300, tol=0.0, prune_tol=1e-12))
    assert set(np.nonzero(state.active)[0]) == set(support)
    assert np.abs(state.mu_w - w0).max() <= 1e-4


def test_sbl_em_masked_coordinates_never_enter():
    rng = np.random.default_rng(14)
    reg = generic_regression(rng, N=30, n_w=8)
    from netrecon import Mask
    free = np.ones(8, dtype=bool)
    free[[2, 5]] = False
    mask = Mask(free=free)
    state = sbl_em(reg, mask,
                   opts=SBLOptions(max_iter=200, tol=1e-6, prune_tol=1e-12))
    assert state.gamma[2] == 0.0 and state.gamma[5] == 0.0
    assert state.mu_w[2] == 0.0 and state.mu_w[5] == 0.0


def test_sbl_em_active_set_monotone_and_evidence_ascends():
    rng = np.random.default_rng(15)
    reg = generic_regression(rng, N=40, n_w=10)
    w0 = np.zeros(10)
    w0[[1, 4]] = [1.5, -2.0]
    reg.targets = (reg.regressors @ w0 + 0.1 * rng.normal(size=40))[:, None]
    reg.__post_init__()
    state = sbl_em(reg, free_mask(reg),
                   opts=SBLOptions(max_iter=100, prune_tol=1e-12))
    path = state.n_active_path
    assert all(a >= b for a, b in zip(path, path[1:]))
    ev = state.evidence
    assert all(b >= a - 1e-10 for a, b in zip(ev, ev[1:]))


def test_sbl_em_sigma2_stays_positive():
    rng = np.random.default_rng(16)
    reg = generic_regression(rng, N=25, n_w=5)
    state = sbl_em(reg, free_mask(reg),
                   opts=SBLOptions(max_iter=50, prune_tol=1e-12))
    assert state.sigma2 > 0.0


def test_sbl_em_stops_at_a_fixed_point_of_the_em_update():
    # MacKay's update gamma <- mu^2 / (1 - Sigma_ii / gamma) has the fixed
    # points of the EM update gamma <- Sigma_ii + mu^2: run to a tight tol,
    # one EM step from the final posterior barely moves gamma
    rng = np.random.default_rng(23)
    reg = generic_regression(rng, N=60, n_w=12)
    w0 = np.zeros(12)
    w0[[1, 4, 7]] = [1.5, -2.0, 0.3]
    reg.targets = (reg.regressors @ w0 + 0.5 * rng.normal(size=60))[:, None]
    reg.__post_init__()
    opts = SBLOptions(max_iter=2000, tol=1e-10)
    state = sbl_em(reg, free_mask(reg), opts=opts)
    assert state.iteration < opts.max_iter
    assert 3 <= state.active.sum() < 12
    mu, Sig = posterior(reg, state.gamma, state.sigma2)
    gamma_em = np.where(state.active, np.diag(Sig) + mu**2, 0.0)
    step = np.linalg.norm(gamma_em - state.gamma)
    assert step <= 1e-9 * np.linalg.norm(state.gamma)


@pytest.mark.parametrize("prune_tol", [1e-5, 1e-12, 0.0])
def test_sbl_em_gamma_stays_finite_on_a_barely_live_column(prune_tol):
    # a column just above the dead-column cuts: the data barely determine its
    # weight, so 1 - Sigma_ii / gamma_i can round to zero as gamma_i shrinks
    from netrecon.sbl import _DEAD_COLUMN_TOL, _WEAK_COLUMN_TOL
    for seed in range(8):
        reg = generic_regression(np.random.default_rng(seed), N=40, n_w=6)
        X = reg.regressors
        reg.targets = (X @ [1.0, 0, 0, -0.5, 0, 0]
                       + 0.1 * reg.targets[:, 0])[:, None]
        # twice the larger cut, at sbl_em's default start sigma2
        sigma2 = 0.1 * float((reg.targets**2).sum()) / reg.N_y
        energy = 2.0 * max(_DEAD_COLUMN_TOL * (X**2).sum(axis=0).max(),
                           _WEAK_COLUMN_TOL * sigma2)
        X[:, 2] *= np.sqrt(energy / (X[:, 2]**2).sum())
        reg.__post_init__()
        state = sbl_em(reg, free_mask(reg),
                       opts=SBLOptions(max_iter=500, tol=0.0,
                                       prune_tol=prune_tol))
        assert state.n_active_path[0] == 6   # the weak column is live
        assert np.all(np.isfinite(state.gamma)) and np.all(state.gamma >= 0)
        assert np.all(np.isfinite(state.mu_w)) and state.sigma2 > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_sbl_em_drops_a_column_far_weaker_than_the_noise(seed):
    # a column with 2e-12 of the strongest column's energy, far below the
    # noise variance, is fitted as if it were masked: its prior variance
    # would otherwise grow toward sigma2 / energy and hold the loop to its cap
    from netrecon import Mask
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 6))
    energy = (X**2).sum(axis=0)
    X[:, 1] *= np.sqrt(2e-12 * np.delete(energy, 1).max() / energy[1])
    W = 0.5 * rng.standard_normal((3, 6))
    Y = X @ W.T + 0.1 * rng.standard_normal((40, 3))
    reg = RegressionData(n=3, m=3, N=40, zz=X.T @ X, xz=Y.T @ X,
                         y_sq_rows=(Y**2).sum(axis=0))
    free = np.ones(18, dtype=bool)
    state = sbl_em(reg, Mask(free=free))
    assert state.iteration < SBLOptions().max_iter
    assert np.abs(state.mu_w).max() < 1.0
    free[3:6] = False   # w = vec([A B]): column 1 of every row
    masked = sbl_em(reg, Mask(free=free))
    assert np.array_equal(state.mu_w, masked.mu_w)
    assert np.array_equal(state.gamma, masked.gamma)


def test_sbl_em_gamma_stays_finite_at_the_sigma2_floor():
    rng = np.random.default_rng(12)
    reg = generic_regression(rng, N=20, n_w=6)
    reg.targets[:] = 0.0
    reg.__post_init__()
    for prune_tol in (1e-12, 0.0):
        state = sbl_em(reg, free_mask(reg),
                       opts=SBLOptions(max_iter=300, prune_tol=prune_tol))
        assert state.sigma2 == 1e-300
        assert np.all(state.gamma == 0.0) and np.all(state.mu_w == 0.0)


def test_sbl_state_invariants_after_run():
    rng = np.random.default_rng(19)
    reg = generic_regression(rng, N=30, n_w=6)
    state = sbl_em(reg, free_mask(reg),
                   opts=SBLOptions(max_iter=40, prune_tol=1e-12))
    inactive = ~state.active
    assert np.all(state.gamma[inactive] == 0.0)
    assert np.all(state.mu_w[inactive] == 0.0)
    assert np.all(state.Sigma_w[inactive, :] == 0.0)
    act = state.active
    if act.any():
        Sig_a = state.Sigma_w[np.ix_(act, act)]
        assert np.abs(Sig_a - Sig_a.T).max() <= 1e-12
        assert np.linalg.eigvalsh(Sig_a).min() >= -1e-12


def test_regression_from_moments_matches_plugin_when_certain():
    # with all smoothing covariances zero the moment regression carries the
    # same sufficient statistics as the plug-in design
    from netrecon import (regression_from_moments, expectation_sums, Dataset,
                          SmoothPass, StepSeq)

    rng = np.random.default_rng(20)
    model = random_stable_model(rng, n=2, p=2, m=2)
    data = simulate(model, 12, seed=21)
    _, sp = smooth(model, data)
    sp0 = SmoothPass(x_sm=sp.x_sm, P_sm=StepSeq(np.zeros_like(sp.P_sm)), J=sp.J,
                     M_sm=StepSeq(np.zeros_like(sp.M_sm)))
    es = expectation_sums(sp0, data)
    reg_plug = assemble_regression(sp0, data, n=2)
    reg_mom = regression_from_moments(es)
    assert reg_mom.N == data.N
    assert np.allclose(reg_mom.zz, reg_plug.zz, atol=1e-10)
    assert np.allclose(reg_mom.xz, reg_plug.xz, atol=1e-10)
    assert np.allclose(reg_mom.y_sq_rows, reg_plug.y_sq_rows, atol=1e-10)
    gamma = rng.uniform(0.2, 2.0, reg_plug.N_w)
    mu_a, Sig_a = posterior(reg_plug, gamma, 0.5)
    mu_b, Sig_b = posterior(reg_mom, gamma, 0.5)
    assert np.abs(mu_a - mu_b).max() <= 1e-8
    assert np.abs(Sig_a - Sig_b).max() <= 1e-8


def test_regression_from_moments_includes_covariance_information():
    from netrecon import regression_from_moments, expectation_sums

    rng = np.random.default_rng(22)
    model = random_stable_model(rng, n=2, p=2, m=2)
    data = simulate(model, 15, seed=23)
    _, sp = smooth(model, data)
    es = expectation_sums(sp, data)
    reg = regression_from_moments(es)
    # the regression carries the exact second moments
    assert np.allclose(reg.zz, es.S_zz, atol=1e-10)
    assert np.allclose(reg.xz, es.S_xz, atol=1e-10)
    assert np.allclose(reg.y_sq_rows, np.diag(es.S_xx), atol=1e-10)


# ---------------------------------------------------------------------------
# all output rows at once

def multi_row_regression(rng, N, n=3, m=4):
    return DesignRegression(targets=rng.normal(size=(N, n)),
                            regressors=rng.normal(size=(N, n + m)),
                            n=n, m=m, N=N)


def row_gamma(rng, n, m, counts):
    """Prior variances with counts[i] active entries on row i of [A B]."""
    g = np.zeros((n, n + m))
    for i, k in enumerate(counts):
        g[i, rng.choice(n + m, size=k, replace=False)] = rng.uniform(0.2, 2.0, k)
    return g.T.ravel()   # w = [vec(A); vec(B)]


def test_rows_with_different_active_sets_match_dense():
    rng = np.random.default_rng(23)
    reg = multi_row_regression(rng, N=12)
    # a full, a partial and a pruned row
    gamma = row_gamma(rng, reg.n, reg.m, counts=(7, 3, 0))
    for sigma2 in (0.05, 0.9):
        mu, Sig = posterior(reg, gamma, sigma2)
        mu_o, Sig_o = ridge_posterior_dense(reg.phi, reg.y_vec, gamma, sigma2)
        assert np.abs(mu - mu_o).max() <= 1e-8
        assert np.abs(Sig - Sig_o).max() <= 1e-8
        dense = evidence_dense(reg.phi, reg.y_vec, gamma, sigma2)
        assert marginal_loglik(reg, gamma, sigma2) == pytest.approx(dense, abs=1e-8)


def test_rows_noiseless_with_one_underdetermined_row():
    # 5 samples: row 0 has 7 active weights, row 1 three, row 2 none
    rng = np.random.default_rng(24)
    reg = multi_row_regression(rng, N=5)
    gamma = row_gamma(rng, reg.n, reg.m, counts=(7, 3, 0))
    mu, Sig = posterior(reg, gamma, sigma2=0.0)
    assert np.abs(mu - pinv_posterior_dense(reg.phi, reg.y_vec, gamma)).max() <= 1e-8
    Phi, G12 = reg.phi, np.sqrt(gamma)
    proj = np.eye(reg.N_w) - G12[:, None] * np.linalg.pinv(Phi * G12[None, :]) @ Phi
    assert np.abs(Sig - proj * gamma[None, :]).max() <= 1e-8


def test_sbl_em_on_moments_alone_equals_design_run():
    from netrecon.sbl import moment_rss

    rng = np.random.default_rng(25)
    n, m, N = 3, 4, 40
    L = rng.normal(size=(n, n + m)) * (rng.random((n, n + m)) < 0.4)
    Z = rng.normal(size=(N, n + m))
    design = DesignRegression(targets=Z @ L.T + 0.1 * rng.normal(size=(N, n)),
                              regressors=Z, n=n, m=m, N=N)
    moments = RegressionData(n=n, m=m, N=N, zz=design.zz.copy(),
                             xz=design.xz.copy(),
                             y_sq_rows=design.y_sq_rows.copy())
    rss = ((design.targets - Z @ L.T)**2).sum()
    assert moment_rss(float(moments.y_sq_rows.sum()), moments.xz, moments.zz,
                      L) == pytest.approx(rss, rel=1e-10)
    opts = SBLOptions(max_iter=200, prune_tol=1e-5)
    a = sbl_em(design, free_mask(design), opts=opts)
    b = sbl_em(moments, free_mask(moments), opts=opts)
    assert 0 < b.active.sum() < moments.N_w
    assert a.iteration == b.iteration and a.n_active_path == b.n_active_path
    assert a.sigma2 == b.sigma2 and a.evidence == b.evidence
    assert np.array_equal(a.mu_w, b.mu_w) and np.array_equal(a.Sigma_w, b.Sigma_w)


def desk_rows(rng, counts, N=200, n=30, m=10):
    """Desk-size rows (d = 40) with counts[i] active entries on row i,
    fit to a sparse [A B] supported on about 40% of them, plus noise."""
    gamma = row_gamma(rng, n, m, counts)
    L = np.where((gamma.reshape((n + m, n)).T > 0)
                 & (rng.random((n, n + m)) < 0.4), rng.normal(size=(n, n + m)), 0.0)
    Z = rng.normal(size=(N, n + m))
    reg = DesignRegression(targets=Z @ L.T + 0.5 * rng.normal(size=(N, n)),
                           regressors=Z, n=n, m=m, N=N)
    return reg, gamma


def rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


def test_sbl_em_allocates_no_dense_posterior_covariance():
    # the inner loop keeps per-row blocks; a dense N_w x N_w covariance
    # (11.5 MB here) is assembled only when Sigma_w is read
    import tracemalloc

    reg, _ = desk_rows(np.random.default_rng(31), counts=(40, 12, 1, 0) * 7 + (40, 12))
    assert reg.N_w == 1200
    dense_bytes = reg.N_w**2 * 8
    tracemalloc.start()
    try:
        state = sbl_em(reg, free_mask(reg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.active.any()
    assert peak < dense_bytes / 4, f"traced peak {peak / 2**20:.1f} MB"


def test_sbl_em_closing_posterior_fits_within_the_loop_buffers():
    # rows of 40 entries with a dense first row, so no prune narrows the
    # batch below its first width k0 = 40.  The loop gathers its layouts
    # into a pair of n k0^2 buffers; the closing posterior's gathered
    # blocks and their flat indices take the pair's place once it is
    # freed, so the peak is the pair plus arrays of n k0 entries and
    # numpy's iteration buffers (2.8 layouts in all here).  Holding the
    # pair through the closing posterior reads 4.6 layouts; the bound sits
    # between the two, so a numpy whose iteration buffers differ in size
    # does not decide it.
    import tracemalloc

    rng = np.random.default_rng(1)
    n, m, N = 30, 10, 200
    L = np.where(rng.random((n, n + m)) < 0.4, rng.normal(size=(n, n + m)), 0.0)
    L[0] = rng.choice([-2.0, 2.0], size=n + m)
    Z = rng.normal(size=(N, n + m))
    reg = DesignRegression(targets=Z @ L.T + 0.5 * rng.normal(size=(N, n)),
                           regressors=Z, n=n, m=m, N=N)
    layout = n * (n + m) ** 2 * 8
    tracemalloc.start()
    try:
        state = sbl_em(reg, free_mask(reg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.posterior.blocks.shape == (n, n + m, n + m)
    assert peak < 3.5 * layout, f"traced peak {peak / layout:.2f} layouts"


def test_layout_into_the_loop_buffers_takes_no_iteration_buffers():
    # a desk-size relayout into sbl_em's buffer pair builds its flat
    # indices with broadcast copies and an add of equal shapes; a broadcast
    # add took numpy's iterator buffers, a traced peak of 0.45 layouts here
    # (about 174 KB), against 0.18 now: the arrays of n k and n d entries
    import tracemalloc

    from netrecon.sbl import _layout
    reg, gamma = desk_rows(np.random.default_rng(26),
                           counts=(0, 1, 12, 40) * 7 + (12, 1))
    n, d = reg.n, reg.n + reg.m
    g = gamma.reshape((d, n)).T.copy()
    k = int(np.count_nonzero(g, axis=1).max())
    layout = n * k * k * 8
    bufs = (np.empty(n * k * k), np.empty(n * k * k))
    _layout(reg, g, bufs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lay, _ = _layout(reg, g, bufs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (n, k) == (30, 40)
    assert np.shares_memory(lay.zz, bufs[0])
    assert np.array_equal(lay.zz, _layout(reg, g)[0].zz)
    assert peak < layout / 4, f"traced peak {peak / layout:.2f} layouts"


def test_sbl_state_builds_its_dense_covariance_on_read():
    reg, _ = desk_rows(np.random.default_rng(32), counts=(40, 12, 1, 0) * 7 + (40, 12))
    state = sbl_em(reg, free_mask(reg), opts=SBLOptions(max_iter=5))
    mu, Sig = posterior(reg, state.gamma, state.sigma2)
    assert np.array_equal(state.mu_w, mu)
    assert np.array_equal(state.Sigma_w, Sig)
    assert state.Sigma_w is state.Sigma_w   # built once, then kept
    assert SBLState(gamma=state.gamma, sigma2=state.sigma2).Sigma_w is None


def test_compact_estep_matches_full_width_at_desk_size():
    # rows with 0, 1, 12 and all 40 active entries: the full rows set the
    # batch width, so every other row is padded, each from its own columns
    reg, gamma = desk_rows(np.random.default_rng(26),
                           counts=(0, 1, 12, 40) * 7 + (12, 1))
    for sigma2 in (0.05, 3.0):
        mu, Sig = posterior(reg, gamma, sigma2)
        ev = marginal_loglik(reg, gamma, sigma2)
        mu_o, var_o, ev_o, _, _ = estep_full_width(reg, gamma, sigma2)
        assert rel_err(mu, mu_o.T.ravel()) <= 1e-10
        assert rel_err(np.diag(Sig), var_o.T.ravel()) <= 1e-10
        assert abs(ev - ev_o) <= 1e-10 * abs(ev_o)


def masked_layout(rng):
    """A layout with zero-variance entries ahead of live ones, for the
    kernel, which must treat such an entry as it treats the pad: rows of
    30, 12, 1 and 0 active entries padded to k = 30, and the third entry
    of every row with more than two given zero variance and a zero row and
    column of ``zz``.  Returns the regression, the layout, its compact
    variances and gamma in w-order."""
    from netrecon.sbl import _layout, _scatter

    reg, gamma = desk_rows(rng, counts=(30, 12, 1, 0) * 7 + (30, 12))
    d = reg.n + reg.m
    lay, gc = _layout(reg, gamma.reshape((d, reg.n)).T)
    rows = np.flatnonzero((gc > 0).sum(axis=1) > 2)
    gc[rows, 2] = 0.0
    lay.zz[rows, 2, :] = 0.0
    lay.zz[rows, :, 2] = 0.0
    return reg, lay, gc, _scatter(gc, lay.order, d).T.ravel()


def test_kernel_leaves_the_resident_layout_unchanged():
    # sbl_em reuses a layout over the iterations that prune nothing,
    # factoring it in a buffer of its own
    from netrecon.sbl import _kernel

    reg, lay, gc, _ = masked_layout(np.random.default_rng(29))
    zz, b = lay.zz.copy(), lay.b.copy()
    _kernel(reg, lay, gc, 0.4, np.empty(lay.zz.size))
    assert np.array_equal(lay.zz, zz) and np.array_equal(lay.b, b)


def test_kernel_inverse_factor_matches_full_width():
    # R is inverted in the Cholesky factor's own buffer; posterior reads it,
    # so a silent copy would leave the factor itself in its place
    from netrecon.sbl import _kernel

    reg, lay, gc, gamma = masked_layout(np.random.default_rng(30))
    n, d = reg.n, reg.n + reg.m
    assert gc.shape[1] == 30 and not gc[3].any()
    for sigma2 in (0.05, 3.0):
        R = _kernel(reg, lay, gc, sigma2, np.empty(lay.zz.size))[3]
        R_full = np.zeros((n, d, d))
        R_full[np.arange(n)[:, None, None], lay.order[:, :, None],
               lay.order[:, None, :]] = R
        R_o = estep_full_width(reg, gamma, sigma2)[4]
        assert np.abs(R_full - R_o).max() <= 1e-12 * np.abs(R_o).max()
        pruned = gamma.reshape((d, n)).T == 0
        assert np.all(np.swapaxes(R_full, 1, 2)[pruned] == 0.0)


def assert_sbl_em_matches_full_width_loop(monkeypatch, reg, gamma):
    """``sbl_em`` against the per-iteration full-width loop, on a run that
    prunes entries ahead of live ones in their rows and narrows the batch.
    Every layout the kernel sees holds each row's live entries ahead of
    its pad."""
    from netrecon.sbl import _kernel

    widths, interior, kept = [], [], []

    def kernel(reg, lay, gc, sigma2, out=None):
        live = gc > 0
        widths.append(gc.shape[1])
        interior.append(bool((live[:, 1:] & ~live[:, :-1]).any()))
        kept.append([list(o[g]) for o, g in zip(lay.order, live)])
        return _kernel(reg, lay, gc, sigma2, out)

    opts = SBLOptions(max_iter=60, prune_tol=1e-3)
    init = SBLState(gamma=gamma, sigma2=0.4)
    with monkeypatch.context() as patch:
        patch.setattr("netrecon.sbl._kernel", kernel)
        a = sbl_em(reg, free_mask(reg), init=init, opts=opts)
    b = sbl_em_full_width(reg, free_mask(reg), init, opts)
    # the last kernel call is the final posterior's
    assert not any(interior) and min(widths[:-1]) < widths[0]
    # some prune drops an entry ahead of a live one in its row
    assert any(now != was[:len(now)] for prev, cur in zip(kept, kept[1:])
               for was, now in zip(prev, cur))
    assert b.iteration < opts.max_iter
    assert b.n_active_path[-1] < b.n_active_path[0] / 1.5
    assert np.array_equal(a.active, b.active) and a.iteration == b.iteration
    assert a.n_active_path == b.n_active_path
    assert rel_err(a.mu_w, b.mu_w) <= 1e-10
    assert a.sigma2 == pytest.approx(b.sigma2, rel=1e-10, abs=0.0)
    assert a.evidence == pytest.approx(b.evidence, rel=1e-10, abs=0.0)
    assert a.warnings == b.warnings


def test_compact_posterior_and_sbl_em_match_full_width(monkeypatch):
    reg, gamma = desk_rows(np.random.default_rng(27),
                           counts=(40, 12, 1, 0) * 7 + (40, 12))
    mu, Sig = posterior(reg, gamma, 0.4)
    assert_sbl_em_matches_full_width_loop(monkeypatch, reg, gamma)
    mu_o, _, _, _, R_o = estep_full_width(reg, gamma, 0.4)
    # row i's block sigma2 R_i' R_i lies on the w indices i + n j
    n, d = reg.n, reg.n + reg.m
    Sig_o = np.zeros((reg.N_w, reg.N_w))
    for i in range(n):
        w = i + n * np.arange(d)
        Sig_o[np.ix_(w, w)] = 0.4 * R_o[i].T @ R_o[i]
    assert rel_err(mu, mu_o.T.ravel()) <= 1e-10
    assert rel_err(Sig, Sig_o) <= 1e-10


def test_sbl_em_masking_and_rebuilds_match_full_width(monkeypatch):
    # wider partial rows: more entries are pruned inside rows that do not
    # set the batch width
    reg, gamma = desk_rows(np.random.default_rng(28),
                           counts=(40, 30, 12, 1) * 7 + (40, 30))
    assert_sbl_em_matches_full_width_loop(monkeypatch, reg, gamma)


# ---------------------------------------------------------------------------
# LAPACK routines

@pytest.mark.parametrize("scipy_first", [False, True])
def test_import_loads_lapack_without_scipy_linalg(scipy_first):
    # in a fresh interpreter importing this tree: importing netrecon runs
    # neither SciPy's package inits (scipy.linalg's would import
    # numpy.f2py, numpy.testing and more) nor the sweep harness; imported
    # before or after netrecon, scipy.linalg shares its routines and its
    # _flapack module, and the harness's exports load on first use
    import netrecon

    code = f"""
import sys
{"import scipy.linalg" if scipy_first else ""}
import netrecon
import numpy as np
from netrecon import sbl
print(*[m for m in ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing",
                    "netrecon.bench", "concurrent.futures", "logging")
        if m in sys.modules], sep=",")
rng = np.random.default_rng(5)
Z, X = rng.normal(size=(40, 5)), rng.normal(size=(40, 3))
reg = sbl.RegressionData(n=3, m=2, N=40, zz=Z.T @ Z, xz=X.T @ Z,
                         y_sq_rows=(X ** 2).sum(axis=0))
gamma = rng.uniform(0.1, 2.0, size=reg.N_w)
before = sbl.posterior(reg, gamma, 0.4)
import scipy.linalg.lapack as lapack
print(sbl.dpotrf is lapack.dpotrf, sbl.dtrtri is lapack.dtrtri)
after = sbl.posterior(reg, gamma, 0.4)
print(np.array_equal(before.mu_w, after.mu_w),
      np.array_equal(before.Sigma_w, after.Sigma_w))
from scipy.linalg import _flapack
print(_flapack is sys.modules["scipy.linalg._flapack"])
from netrecon import run_benchmark, BenchConfig
print(run_benchmark is netrecon.bench.run_benchmark,
      BenchConfig is netrecon.bench.BenchConfig,
      hasattr(netrecon, "no_such_name"))
"""
    src = str(Path(netrecon.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    loaded, same, equal, shared, lazy = out.split("\n")[:5]
    assert scipy_first or loaded == ""
    assert same == "True True"
    assert equal == "True True"
    assert shared == "True"
    assert lazy == "True True False"


def test_lapack_loader_falls_back_to_the_public_routines(tmp_path, monkeypatch):
    # a SciPy root without linalg/_flapack*: the loader takes the routines
    # from scipy.linalg.lapack, without registering a module of its own
    import scipy.linalg.lapack as lapack
    from netrecon import sbl

    monkeypatch.delitem(sys.modules, sbl._FLAPACK)
    routines = sbl._load_lapack(str(tmp_path))
    assert routines == (lapack.dpotrf, lapack.dtrtri)
    assert sbl._FLAPACK not in sys.modules
    reg, lay, gc, _ = masked_layout(np.random.default_rng(33))
    loaded = sbl._kernel(reg, lay, gc, 0.4, np.empty(lay.zz.size))
    monkeypatch.setattr(sbl, "dpotrf", routines[0])
    monkeypatch.setattr(sbl, "dtrtri", routines[1])
    public = sbl._kernel(reg, lay, gc, 0.4, np.empty(lay.zz.size))
    for a, b in zip(loaded, public):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [None, "no_locations"])
def test_lapack_loader_falls_back_where_scipy_is_not_found(spec, monkeypatch):
    # find_spec finding no SciPy package: the loader takes the public
    # routines without registering a module, and a SciPy missing
    # altogether fails as its import does, naming it
    import importlib.machinery
    import importlib.util
    import scipy.linalg.lapack as lapack
    from netrecon import sbl

    if spec == "no_locations":
        spec = importlib.machinery.ModuleSpec("scipy", None)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, sbl._FLAPACK)
    assert sbl._load_lapack() == (lapack.dpotrf, lapack.dtrtri)
    assert sbl._FLAPACK not in sys.modules
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        sbl._load_lapack()
