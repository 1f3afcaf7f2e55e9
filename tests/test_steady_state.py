"""The steady-state switch of the Kalman E-step against the per-step
reference in ``_oracles`` and the joint-Gaussian oracles."""

from dataclasses import replace

import numpy as np
import pytest

from netrecon import (FilterDivergedError, expectation_sums,
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
    sp = replace(sp, M_sm=lag_one_smoother(model, fp, sp))
    ref_fp = filter_per_step(model, data)
    ref_sp = rts_per_step(model, ref_fp)
    ref_sp = replace(ref_sp, M_sm=lag_one_per_step(model, ref_fp, ref_sp))
    return ((fp, sp, observed_loglik(model, data, fp=fp)),
            (ref_fp, ref_sp, loglik_per_step(ref_fp, data.p)))


def _rel(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def test_steady_state_matches_per_step_at_desk_scale(desk_system):
    model, data = desk_system
    (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = _both(model, data)
    assert fp.k_steady is not None and fp.k_steady < data.N // 10
    assert ref_fp.k_steady is None
    for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                 "innovations", "innov_cov"):
        assert _rel(getattr(fp, name), getattr(ref_fp, name)) <= 1e-9, name
    for name in ("x_sm", "P_sm", "J", "M_sm"):
        assert _rel(getattr(sp, name), getattr(ref_sp, name)) <= 1e-9, name
    assert sp.pinv_steps == ref_sp.pinv_steps == ()
    assert abs(ll - ref_ll) <= 1e-9 * abs(ref_ll)
    es = expectation_sums(sp, data, model.m0)
    ref_es = expectation_sums(ref_sp, data, model.m0)
    for name in ("S_xx", "S_xz", "S_zz", "E0", "x0_sm", "P0_sm"):
        assert _rel(getattr(es, name), getattr(ref_es, name)) <= 1e-9, name
    # the settled segment holds one value, filled in place
    tail = fp.P_pred[fp.k_steady:]
    assert np.array_equal(tail, np.broadcast_to(tail[0], tail.shape))
    assert np.array_equal(sp.J[fp.k_steady:],
                          np.broadcast_to(sp.J[-1], sp.J[fp.k_steady:].shape))


def test_short_series_never_switches_and_equals_reference(desk_system):
    model, full = desk_system
    data = type(full)(Y=full.Y[:8], U=full.U[:8], N=8)
    (fp, sp, ll), (ref_fp, ref_sp, ref_ll) = _both(model, data)
    assert fp.k_steady is None
    for name in ("x_pred", "x_filt", "P_pred", "P_filt", "K_gain",
                 "innovations", "innov_cov"):
        assert np.array_equal(getattr(fp, name), getattr(ref_fp, name)), name
    for name in ("x_sm", "P_sm", "J", "M_sm"):
        assert np.array_equal(getattr(sp, name), getattr(ref_sp, name)), name
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
