"""Backward value recursions: hand-checked schedules and structural properties."""

import numpy as np
import pytest

from teamlqg import RiccatiError, make_model, validate
from teamlqg.random_models import random_team
from teamlqg.riccati import solve_riccati
from conftest import scalar_pair_model


def test_two_step_scalar_schedule(model_s1):
    out = solve_riccati(model_s1)
    # final stage value equals the terminal state weight
    np.testing.assert_allclose(out.P[1], [[1.0]])
    np.testing.assert_allclose(out.P[0], [[1.5]])
    np.testing.assert_allclose(out.gain[0], [[-0.5]])
    # no coupling: the aggregate chain coincides with the deviation chain
    np.testing.assert_allclose(out.P_agg, out.P)
    np.testing.assert_allclose(out.gain_agg, out.gain)


def test_two_step_coupled_schedule(model_s2):
    out = solve_riccati(model_s2)
    np.testing.assert_allclose(out.P_agg[1], [[2.0]])
    np.testing.assert_allclose(out.P_agg[0], [[14.0 / 3.0]])
    np.testing.assert_allclose(out.gain_agg[0], [[-4.0 / 3.0]])
    # deviation chain untouched by the coupling terms
    np.testing.assert_allclose(out.P[0], [[1.5]])
    np.testing.assert_allclose(out.gain[0], [[-0.5]])


def test_zero_state_weights_give_zero_schedule():
    model = scalar_pair_model(Q=0.0)
    out = solve_riccati(model)
    assert np.all(out.P == 0.0)
    assert np.all(out.gain == 0.0)


def test_horizon_one_has_no_gains(model_s1):
    model = scalar_pair_model(T=1)
    out = solve_riccati(model)
    assert out.gain.shape == (0, 1, 1)
    np.testing.assert_allclose(out.P[0], [[1.0]])


def test_degenerate_inner_matrix_raises():
    model = scalar_pair_model(Q=0.0, R=0.0)
    with pytest.raises(RiccatiError) as err:
        solve_riccati(model)
    assert err.value.t == 1
    assert "t=1" in str(err.value)


def test_overflowing_pass_raises():
    # nothing controls the state, so P grows like A^(2t) and overflows;
    # the stage's gain would be NaN
    model = scalar_pair_model(T=40, A=1e10, B=0.0)
    with pytest.raises(RiccatiError, match="not finite") as err:
        with np.errstate(over="ignore", invalid="ignore"):
            solve_riccati(model)
    assert err.value.t == 23


def test_value_matrices_symmetric_psd_on_random_models():
    rng = np.random.default_rng(20260822)
    for _ in range(25):
        model = random_team(rng)
        assert validate(model).ok
        out = solve_riccati(model)
        for chain in (out.P, out.P_agg):
            for t in range(model.T):
                m = chain[t]
                assert np.max(np.abs(m - m.T)) <= 1e-12
                assert np.linalg.eigvalsh(m)[0] >= -1e-9


def test_gain_satisfies_stationarity_on_random_models():
    # the gain must zero the gradient of g -> Q + g'Rg + (A+Bg)'P⁺(A+Bg)
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_team(rng)
        out = solve_riccati(model)
        for t in range(model.T - 1):
            st = model.stage(t)
            resid = st.R @ out.gain[t] + st.B.T @ out.P[t + 1] @ (st.A + st.B @ out.gain[t])
            scale = 1.0 + np.max(np.abs(out.P[t + 1]))
            assert np.max(np.abs(resid)) <= 1e-9 * scale
            # and the value matrix equals the cost of playing that gain
            closed = st.A + st.B @ out.gain[t]
            direct = st.Q + out.gain[t].T @ st.R @ out.gain[t] + closed.T @ out.P[t + 1] @ closed
            np.testing.assert_allclose(out.P[t], direct, rtol=0, atol=1e-9 * scale)


def test_uncoupled_random_models_collapse_to_one_chain():
    rng = np.random.default_rng(99)
    for _ in range(8):
        model = random_team(rng, coupling=0.0)
        out = solve_riccati(model)
        np.testing.assert_allclose(out.P_agg, out.P, atol=1e-12)
        np.testing.assert_allclose(out.gain_agg, out.gain, atol=1e-12)
