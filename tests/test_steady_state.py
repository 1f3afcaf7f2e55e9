"""The steady-state switch of the Kalman E-step and its compact storage
against the dense per-step reference in ``_oracles`` and the joint-Gaussian
oracles."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from netrecon import (FilterDivergedError, PassBuffers, StepSeq,
                      expectation_sums, generate_random_network,
                      kalman_filter, lag_one_smoother, observed_loglik,
                      rts_smoother, simulate, smooth)

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
    es = expectation_sums(sp, data)
    ref_es = expectation_sums(replace(ref_sp, P_sm=StepSeq(ref_sp.P_sm),
                                      M_sm=StepSeq(ref_sp.M_sm)), data)
    for name in ("S_xx", "S_xz", "S_zz", "meas_rss", "x0_sm", "P0_sm"):
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
        expectation_sums(sp, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_short_series_never_switches_and_equals_reference(desk_system):
    # the gains factor S_k and P_{k+1|k} where the reference solves by LU,
    # so the two agree to rounding
    model, full = desk_system
    for N in (1, 2, 8):
        data = type(full)(Y=full.Y[:N], U=full.U[:N], N=N)
        (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = _both(model, data)
        assert fp.k_steady is None
        for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                     "innovations", "innov_cov"):
            assert _rel(getattr(fp, name), getattr(ref_fp, name)) <= 1e-13, \
                (N, name)
        for name in ("x_sm", "P_sm", "J"):
            assert _rel(getattr(sp, name), getattr(ref_sp, name)) <= 1e-13, \
                (N, name)
        # M_k = P_{k|N} J_{k-1}' exactly; the recursion agrees to rounding
        identity = [np.zeros_like(sp.P_sm[0])] + [
            sp.P_sm[k] @ sp.J[k - 1].T for k in range(1, N + 1)]
        assert np.array_equal(np.asarray(sp.M_sm), identity), N
        assert _rel(sp.M_sm, ref_sp.M_sm) <= 1e-12, N
        # nothing settled: every step keeps its own row
        for seq in (fp.P_pred, sp.J, sp.P_sm, sp.M_sm):
            assert len(seq.vals) == len(seq) == len(np.asarray(seq))
        assert abs(ll - ref_ll) <= 1e-13 * abs(ref_ll)


def test_zz_sum_is_exactly_symmetric(desk_system):
    # expectation_sums returns S_zz as built, with no symmetrizing pass
    model, full = desk_system
    for N in (full.N, 1, 2, 8):
        data = type(full)(Y=full.Y[:N], U=full.U[:N], N=N)
        fp, sp = smooth(model, data)
        assert (fp.k_steady is not None) == (N == full.N)
        es = expectation_sums(sp, data)
        assert np.array_equal(es.S_zz, es.S_zz.T), N


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


def _fill_nan(out):
    for name in PassBuffers.__slots__:
        getattr(out, name).fill(np.nan)
    return out


def _nan_buffers(model, data):
    return _fill_nan(PassBuffers(data.N, model.n, model.p))


def _assert_same_bits(got, ref):
    for f in fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, StepSeq):
            a, b = np.asarray(a), np.asarray(b)
        assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("N", [1, 2, 8, None])
def test_passes_into_buffers_equal_fresh_passes(desk_system, N):
    # N = 1, 2, 8 never settle; the full record (None) does.  A first pass
    # grows the covariance stacks; filled with NaN, the buffers then show
    # any entry a pass leaves unwritten.  A pass at a model that settles
    # later, then one back at the first model, show any row read stale
    # from an earlier pass.
    model, full = desk_system
    data = full if N is None else type(full)(Y=full.Y[:N], U=full.U[:N], N=N)
    slow = replace(model, sigma=0.1)
    out = PassBuffers(data.N, model.n, model.p)
    lag_one_smoother(rts_smoother(model, kalman_filter(model, data, out=out),
                                  out=out), out=out)
    _fill_nan(out)
    steady = []
    for m in (model, slow, model):
        fp, fp_out = kalman_filter(m, data), kalman_filter(m, data, out=out)
        assert (fp.k_steady is None) == (N is not None)
        _assert_same_bits(fp_out, fp)
        sp, sp_out = rts_smoother(m, fp), rts_smoother(m, fp_out, out=out)
        _assert_same_bits(sp_out, sp)
        M, M_out = lag_one_smoother(sp), lag_one_smoother(sp_out, out=out)
        assert np.array_equal(np.asarray(M_out), np.asarray(M))
        assert fp_out.x_pred is out.x_pred and fp_out.x_filt is out.x_filt
        assert fp_out.innovations is out.innovations
        assert sp_out.x_sm is out.x_sm
        for seq, stack in ((fp_out.P_pred, out.P_pred),
                           (fp_out.P_filt, out.P_filt),
                           (fp_out.K_gain, out.K_gain),
                           (fp_out.innov_cov, out.innov_cov),
                           (sp_out.P_sm, out.P_sm), (M_out, out.M_sm)):
            assert np.shares_memory(seq.vals, stack)
        steady.append(fp.k_steady)
    if N is None:
        assert steady[0] == steady[2] < steady[1]


def test_warm_estep_allocates_under_a_megabyte(desk_system):
    # a warm E-step writes every stored covariance row into the resident
    # stacks and allocates little more than the RTS pass's own arrays: its
    # P_{k|k} A' rows, which then hold the gains, and the transient gain
    # solve's output, about 0.55 MB together at k_steady = 37.  The peak is
    # about 0.68 MB here, against 3.2 MB when each pass built its stacks
    # afresh.  Passes whose transient does not grow keep the same stacks.
    from netrecon.reconstruct import _Iterate, _estep
    model, data = desk_system
    it = _Iterate(A=model.A, B=model.B, sigma2=model.sigma**2, m0=model.m0,
                  R0=model.R0)
    bufs = PassBuffers(data.N, model.n, model.p)
    _estep(data, it, bufs)
    arrays = {name: getattr(bufs, name) for name in PassBuffers.__slots__}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _estep(data, it, bufs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
    assert all(getattr(bufs, name) is a for name, a in arrays.items())


def test_diverging_steady_tail_into_buffers_raises_at_the_same_step(desk_system):
    model, full = desk_system
    k_steady = kalman_filter(model, full).k_steady
    data = type(full)(Y=full.Y.copy(), U=full.U, N=full.N)
    data.Y[k_steady + 40, 3] = np.nan
    with pytest.raises(FilterDivergedError) as ref_err:
        kalman_filter(model, data)
    with pytest.raises(FilterDivergedError) as err:
        kalman_filter(model, data, out=_nan_buffers(model, data))
    assert err.value.step == ref_err.value.step == k_steady + 42


def test_buffers_of_another_size_are_rejected(desk_system):
    model, full = desk_system
    with pytest.raises(ValueError, match="do not fit"):
        kalman_filter(model, full, out=PassBuffers(full.N - 1, model.n, model.p))
    fp = kalman_filter(model, full)
    with pytest.raises(ValueError, match="do not fit"):
        rts_smoother(model, fp, out=PassBuffers(full.N, model.n + 1, model.p))


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


@pytest.mark.parametrize("n", [1, 12, 30])
def test_blocked_scan_on_a_reversed_view_matches_backward_loop(n):
    # rts_smoother scans x_sm[ks:][::-1], from the last row back, through
    # its buffers' scratch; filled with NaN, the scratch shows that the
    # rows the last block lacks are never read
    from netrecon.smoother import _SCAN_BLOCK as b, _linear_scan
    rng = np.random.default_rng(n + 100)
    F = rng.normal(size=(n, n))
    F *= 0.9 / np.abs(np.linalg.eigvals(F)).max()
    for length in (1, 2, b, 2 * b, 2 * b + 1, 125 * b, 125 * b + 1, 3001):
        X = rng.normal(size=(length, n))
        ref = X.copy()
        for k in range(length - 2, -1, -1):
            ref[k] += F @ ref[k + 1]
        scratch = PassBuffers(length, n, 1).scratch
        scratch[...] = np.nan
        _linear_scan(F, X[::-1], scratch)
        assert _rel(X, ref) <= 1e-12, length


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_first_nonfinite_matches_the_row_search(value):
    from netrecon.smoother import _first_nonfinite
    x = np.random.default_rng(5).normal(size=(50, 4))
    assert _first_nonfinite(x, 5, 40) is None
    for row in (5, 22, 39):   # the first, a middle and the last row searched
        y = x.copy()
        y[[row, 39, 45], [2, 0, 1]] = value   # row 45 lies past the search
        search = next(k for k in range(5, 40) if not np.isfinite(y[k]).all())
        assert _first_nonfinite(y, 5, 40) == search == row


def _dense_pass(N):
    """A small model, N steps of its data and the per-step filter pass,
    whose covariances are dense (N+1)-step arrays that never settle."""
    rng = np.random.default_rng(8)
    model = random_stable_model(rng, n=4, p=3, m=2)
    data = simulate(model, N, seed=9)
    return model, data, filter_per_step(model, data)


def test_batched_gains_fall_back_per_step_at_one_singular_step():
    # a zero first row and column make P_pred[j + 1] exactly singular, so
    # the batched gain solve fails, the gains are solved step by step and
    # gain j alone takes the pseudo-inverse
    model, _, fp = _dense_pass(150)
    j = 90
    fp.P_pred[j + 1][0, :] = 0.0
    fp.P_pred[j + 1][:, 0] = 0.0
    sp, ref = rts_smoother(model, fp), rts_per_step(model, fp)
    assert sp.pinv_steps == ref.pinv_steps == (j,)
    for name in ("x_sm", "P_sm", "J"):
        assert np.array_equal(np.asarray(getattr(sp, name)),
                              getattr(ref, name)), name


def test_transient_gains_equal_per_step_gains_bit_for_bit(desk_system):
    # the gains multiply by inverse Cholesky factors where the reference
    # solves by LU: they agree to rounding
    model, data = desk_system
    fp = kalman_filter(model, data)
    ks = fp.k_steady
    J, ref_J = np.asarray(rts_smoother(model, fp).J), rts_per_step(model, fp).J
    assert ks is not None and _rel(J[:ks], ref_J[:ks]) <= 1e-13


def test_singular_steady_covariance_takes_the_pseudo_inverse(desk_system):
    # zero the first row and column of the settled P_{k+1|k}: it serves the
    # gains from k_steady - 1 on, and the settled gain takes the
    # pseudo-inverse for every step of the steady segment
    model, data = desk_system
    fp = kalman_filter(model, data)
    N, ks = fp.N, fp.k_steady
    vals = fp.P_pred.vals.copy()
    vals[-1][0, :] = 0.0
    vals[-1][:, 0] = 0.0
    fp = replace(fp, P_pred=StepSeq(vals, fp.P_pred.idx))
    sp, ref = rts_smoother(model, fp), rts_per_step(model, fp)
    assert sp.pinv_steps == ref.pinv_steps == tuple(range(N - 1, ks - 2, -1))
    for name in ("x_sm", "P_sm", "J"):
        assert _rel(getattr(sp, name), getattr(ref, name)) <= 1e-9, name


def test_batched_loglik_diverges_at_the_first_bad_determinant():
    model, data, fp = _dense_pass(150)
    for k in (100, 130):   # the earlier step raises, not the later one
        fp.innov_cov[k][0] *= -1.0   # determinant < 0
    with pytest.raises(FilterDivergedError) as ref_err:
        loglik_per_step(fp, data.p)
    with pytest.raises(FilterDivergedError) as err:
        observed_loglik(model, data, fp=fp)
    assert err.value.step == ref_err.value.step == 100


def test_loglik_diverges_on_a_negative_definite_innovation_covariance():
    # -S has the determinant of S when p is even: a sign test on the
    # determinant lets it through, the Cholesky factor does not
    rng = np.random.default_rng(8)
    model = random_stable_model(rng, n=4, p=2, m=2)
    data = simulate(model, 150, seed=9)
    fp = filter_per_step(model, data)
    fp.innov_cov[100] *= -1.0
    with pytest.raises(FilterDivergedError) as err:
        observed_loglik(model, data, fp=fp)
    assert err.value.step == 100


def test_settled_loglik_diverges_at_k_steady_on_a_bad_determinant(desk_system):
    # the settled innovation covariance takes its determinant in the same
    # batch as the transient ones: a negative one raises at k_steady, the
    # first step that reads it
    model, data = desk_system
    fp = kalman_filter(model, data)
    vals = fp.innov_cov.vals.copy()
    vals[-1][0] *= -1.0   # determinant < 0
    fp = replace(fp, innov_cov=StepSeq(vals, fp.innov_cov.idx))
    with pytest.raises(FilterDivergedError) as ref_err:
        loglik_per_step(fp, data.p)
    with pytest.raises(FilterDivergedError) as err:
        observed_loglik(model, data, fp=fp)
    assert err.value.step == ref_err.value.step == fp.k_steady


def test_lag_one_rejects_segments_it_cannot_pair(desk_system):
    # a dense J against the compact P_sm of a settled pass: its transient
    # pairs would read P_sm rows by step
    model, data = desk_system
    _, sp = smooth(model, data)
    with pytest.raises(ValueError, match="segments"):
        lag_one_smoother(replace(sp, J=StepSeq(np.asarray(sp.J))))
