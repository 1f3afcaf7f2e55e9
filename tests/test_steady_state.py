"""The steady-state switch of the Kalman E-step and its compact storage
against the dense per-step reference in ``_oracles`` and the joint-Gaussian
oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from netrecon import (FilterDivergedError, StepSeq, expectation_sums,
                      generate_random_network, kalman_filter,
                      lag_one_smoother, observed_loglik, rts_smoother,
                      simulate, smooth)

from _oracles import (filter_per_step, lag_one_per_step, loglik_oracle,
                      loglik_per_step, random_stable_model, rts_per_step,
                      smoothed_oracle)


@pytest.fixture(scope="module")
def desk_system():
    truth = generate_random_network(p=10, n=30, m=10, density=0.1, seed=11)
    data = simulate(truth.model, 1000, snr_db=20.0, seed=12)
    return truth.model, data


def _both(model, data):
    """(library, reference) filter pass, smoother pass and log-likelihood."""
    fp = kalman_filter(model, data)
    sp = rts_smoother(model, fp)
    sp = replace(sp, M_sm=lag_one_smoother(sp))
    ref_fp = filter_per_step(model, data)
    ref_sp = rts_per_step(model, ref_fp)
    ref_sp = replace(ref_sp, M_sm=lag_one_per_step(model, ref_fp, ref_sp))
    return ((fp, sp, observed_loglik(model, data, fp=fp)),
            (ref_fp, ref_sp, loglik_per_step(ref_fp, data.p)))


def _rel(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def test_steady_state_matches_per_step_at_desk_scale(desk_system):
    model, data = desk_system
    (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = _both(model, data)
    ks = fp.k_steady
    assert ks is not None and ks < data.N // 10
    assert ref_fp.k_steady is None
    for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                 "innovations", "innov_cov"):
        assert _rel(getattr(fp, name), getattr(ref_fp, name)) <= 1e-9, name
    for name in ("x_sm", "P_sm", "J", "M_sm"):
        assert _rel(getattr(sp, name), getattr(ref_sp, name)) <= 1e-9, name
    assert sp.pinv_steps == ref_sp.pinv_steps == ()
    assert abs(ll - ref_ll) <= 1e-9 * abs(ref_ll)
    es = expectation_sums(sp, data, model.m0)
    ref_es = expectation_sums(replace(ref_sp, P_sm=StepSeq(ref_sp.P_sm),
                                      M_sm=StepSeq(ref_sp.M_sm)),
                              data, model.m0)
    for name in ("S_xx", "S_xz", "S_zz", "E0", "x0_sm", "P0_sm"):
        assert _rel(getattr(es, name), getattr(ref_es, name)) <= 1e-9, name
    # each settled value is stored once: the filter and J keep the
    # transient steps plus one row; P_sm and M_sm keep the steps before
    # k_steady, one middle row and a backward transient of under 50 steps
    for seq in (fp.P_pred, fp.P_filt, fp.K_gain, fp.innov_cov):
        assert len(seq) == data.N + 1 and len(seq.vals) == ks + 1
    assert len(sp.J) == data.N and len(sp.J.vals) == ks + 1
    for seq, head in ((sp.P_sm, ks), (sp.M_sm, ks + 1)):
        assert len(seq) == data.N + 1
        assert head + 1 < len(seq.vals) <= head + 1 + 50
        assert np.array_equal(seq.idx[:head + 1], np.arange(head + 1))
        tail = len(seq.vals) - head - 1
        assert np.array_equal(seq.idx[-tail:], np.arange(head + 1, len(seq.vals)))
        assert (seq.idx[head:-tail] == head).all()


def test_total_matches_dense_sum(desk_system):
    model, data = desk_system
    fp, sp = smooth(model, data)
    N = data.N
    for seq in (sp.P_sm, sp.M_sm, fp.P_pred, sp.J):
        dense = np.asarray(seq)
        for lo, hi in ((0, len(seq)), (1, N + 1), (0, N), (3, 20),
                       (fp.k_steady + 5, N - 10), (N - 5, N), (7, 7)):
            ref = dense[lo:hi].sum(axis=0)
            got = seq.total(lo, hi)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


def test_smoother_memory_stays_below_n_copies(desk_system):
    # one (N+1) x n x n array is 7.2 MB at desk scale, so a pass that holds
    # a copy of a covariance for every step does not fit; compact passes
    # peak at under 4 MB here
    model, data = desk_system
    tracemalloc.start()
    try:
        fp, sp = smooth(model, data)
        expectation_sums(sp, data, model.m0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_short_series_never_switches_and_equals_reference(desk_system):
    model, full = desk_system
    for N in (1, 2, 8):
        data = type(full)(Y=full.Y[:N], U=full.U[:N], N=N)
        (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = _both(model, data)
        assert fp.k_steady is None
        for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                     "innovations", "innov_cov"):
            assert np.array_equal(np.asarray(getattr(fp, name)),
                                  getattr(ref_fp, name)), (N, name)
        for name in ("x_sm", "P_sm", "J"):
            assert np.array_equal(np.asarray(getattr(sp, name)),
                                  getattr(ref_sp, name)), (N, name)
        # M_k = P_{k|N} J_{k-1}' exactly; the recursion agrees to rounding
        identity = [np.zeros_like(ref_sp.P_sm[0])] + [
            ref_sp.P_sm[k] @ ref_sp.J[k - 1].T for k in range(1, N + 1)]
        assert np.array_equal(np.asarray(sp.M_sm), identity), N
        assert _rel(sp.M_sm, ref_sp.M_sm) <= 1e-12, N
        # nothing settled: every step keeps its own row
        for seq in (fp.P_pred, sp.J, sp.P_sm, sp.M_sm):
            assert len(seq.vals) == len(seq) == len(np.asarray(seq))
        assert ll == ref_ll


def test_nan_measurement_after_switch_diverges_at_reference_step(desk_system):
    model, full = desk_system
    k_steady = kalman_filter(model, full).k_steady
    data = type(full)(Y=full.Y.copy(), U=full.U, N=full.N)
    data.Y[k_steady + 40, 3] = np.nan   # the measurement of step k_steady + 41
    with pytest.raises(FilterDivergedError) as ref_err:
        filter_per_step(model, data)
    with pytest.raises(FilterDivergedError) as err:
        kalman_filter(model, data)
    assert err.value.step == ref_err.value.step == k_steady + 42


def test_switch_on_medium_series_matches_joint_gaussian():
    # criteria 1 and 2 use N <= 20, where the switch rarely fires
    rng = np.random.default_rng(4)
    model = random_stable_model(rng, n=3, p=2, m=2)
    data = simulate(model, 80, seed=5)
    fp, sp = smooth(model, data)
    assert fp.k_steady is not None and fp.k_steady < 60
    assert abs(observed_loglik(model, data, fp=fp)
               - loglik_oracle(model, data)) <= 1e-8
    means, covs, lags = smoothed_oracle(model, data)
    assert np.abs(sp.x_sm - means).max() <= 1e-8
    assert np.abs(sp.P_sm - covs).max() <= 1e-8
    assert np.abs(sp.M_sm[1:] - lags[1:]).max() <= 1e-8


def _assert_passes_match(got, ref):
    (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = got, ref
    for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                 "innovations", "innov_cov"):
        assert _rel(getattr(fp, name), getattr(ref_fp, name)) <= 1e-9, name
    for name in ("x_sm", "P_sm", "J", "M_sm"):
        assert _rel(getattr(sp, name), getattr(ref_sp, name)) <= 1e-9, name
    assert abs(ll - ref_ll) <= 1e-9 * abs(ref_ll)


@pytest.mark.parametrize("tail", [0, 1, 2])
def test_steady_tail_of_one_and_two_steps(desk_system, tail):
    # the covariances do not depend on the data, so truncating the record
    # keeps k_steady and leaves a steady segment of exactly `tail` steps
    # (none: k_steady == N)
    model, full = desk_system
    k_steady = kalman_filter(model, full).k_steady
    N = k_steady + tail
    data = type(full)(Y=full.Y[:N], U=full.U[:N], N=N)
    got, ref = _both(model, data)
    assert got[0].k_steady == k_steady
    _assert_passes_match(got, ref)


def test_strongly_damped_scan_underflows_without_warnings():
    # steady F = (I - K C) A and J with spectral radius <= 0.5: their powers
    # fall below the smallest normal double long before the 13 doublings a
    # record of N > 4096 steps would take
    rng = np.random.default_rng(21)
    model = random_stable_model(rng, n=4, p=2, m=2, sigma=0.5)
    model = replace(model, A=model.A * (0.3 / np.abs(
        np.linalg.eigvals(model.A)).max()))
    data = simulate(model, 5000, seed=22)
    got, ref = _both(model, data)   # RuntimeWarnings are errors in this suite
    fp, sp, _ = got
    ks = fp.k_steady
    assert ks is not None and ks < data.N
    F = (np.eye(model.n) - fp.K_gain[ks] @ model.C) @ model.A
    for gain in (F, sp.J[ks]):
        assert np.abs(np.linalg.eigvals(gain)).max() <= 0.5
    _assert_passes_match(got, ref)


def test_scan_drops_powers_below_the_smallest_normal():
    from netrecon.smoother import _linear_scan
    # seed 1 and zero inputs under F = 0.5 I: step k holds 0.5**k exactly
    # while the powers stay normal; F**1024 is below np.finfo(float).tiny,
    # so the scan ends there and steps that far from the seed read 0
    X = np.zeros((5000, 2))
    X[0] = 1.0
    _linear_scan(0.5 * np.eye(2), X)
    k = np.arange(1022)
    assert np.array_equal(X[:1022], np.repeat(0.5 ** k[:, None], 2, axis=1))
    assert not X[1024:].any()


def test_scan_with_partly_subnormal_power_matches_per_step_loop():
    from netrecon.smoother import _linear_scan
    # n = 12, spectral radius 0.5: F**1024 has 40 of its 144 entries below
    # the smallest normal double and the rest above it, so the scan zeroes
    # part of a power and goes on with the rest
    rng = np.random.default_rng(0)
    F = rng.normal(size=(12, 12))
    F *= 0.5 / np.abs(np.linalg.eigvals(F)).max()
    power = np.linalg.matrix_power(F, 1024)
    assert (np.abs(power) < np.finfo(float).tiny).sum() == 40
    X = rng.normal(size=(3001, 12))
    ref = X.copy()
    for k in range(1, len(ref)):
        ref[k] += F @ ref[k - 1]
    _linear_scan(F, X)
    assert _rel(X, ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 12, 30])
def test_blocked_scan_matches_per_step_loop(n):
    from netrecon.smoother import _SCAN_BLOCK as b, _linear_scan
    # lengths around the block size: inside one block, exact blocks, a
    # partial last block; 3001 rows at n = 30 also split the in-block and
    # carry products into row blocks
    rng = np.random.default_rng(n)
    F = rng.normal(size=(n, n))
    F *= 0.9 / np.abs(np.linalg.eigvals(F)).max()
    for length in (1, 2, b, 2 * b, 2 * b + 1, 125 * b, 125 * b + 1, 3001):
        X = rng.normal(size=(length, n))
        ref = X.copy()
        for k in range(1, length):
            ref[k] += F @ ref[k - 1]
        _linear_scan(F, X)
        assert _rel(X, ref) <= 1e-12, length


def _dense_pass(N):
    """A small model, N steps of its data and the per-step filter pass,
    whose covariances are dense (N+1)-step arrays that never settle."""
    rng = np.random.default_rng(8)
    model = random_stable_model(rng, n=4, p=3, m=2)
    data = simulate(model, N, seed=9)
    return model, data, filter_per_step(model, data)


def test_batched_gains_fall_back_per_step_at_one_singular_step():
    # N = 150 steps run the transient gains in several batches; a zero
    # first row and column make P_pred[j + 1] exactly singular, so gain j
    # alone takes the pseudo-inverse
    model, _, fp = _dense_pass(150)
    j = 90
    fp.P_pred[j + 1][0, :] = 0.0
    fp.P_pred[j + 1][:, 0] = 0.0
    sp, ref = rts_smoother(model, fp), rts_per_step(model, fp)
    assert sp.pinv_steps == ref.pinv_steps == (j,)
    for name in ("x_sm", "P_sm", "J"):
        assert np.array_equal(np.asarray(getattr(sp, name)),
                              getattr(ref, name)), name


def test_batched_loglik_diverges_at_the_first_bad_determinant():
    model, data, fp = _dense_pass(150)
    for k in (100, 130):   # the first raises, in the second of three batches
        fp.innov_cov[k][0] *= -1.0   # determinant < 0
    with pytest.raises(FilterDivergedError) as ref_err:
        loglik_per_step(fp, data.p)
    with pytest.raises(FilterDivergedError) as err:
        observed_loglik(model, data, fp=fp)
    assert err.value.step == ref_err.value.step == 100
