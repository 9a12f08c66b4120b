"""Action rules: reference values, aggregation identities, and coincidences."""

import json

import numpy as np
import pytest

from teamlqg.filters import (
    precompute_global,
    precompute_local,
    prior_estimates,
    update_estimates,
)
from teamlqg.oracle import _closed_loop, _Team
from teamlqg.random_models import random_team
from teamlqg.riccati import solve_riccati
from teamlqg.sim import rollout
from teamlqg.strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    ZeroAction,
    meanfield_trajectory,
    optimal_coefficients,
    parse_strategy,
)
from conftest import scalar_pair_model
from reference import simulate_truth


def _updated_estimates(model, y):
    """Estimates after the first update, as an agent-last batch of one."""
    delta, agg = prior_estimates(model, 1)
    delta, agg, _ = update_estimates(model, precompute_local(model),
                                     precompute_global(model), 0, delta, agg,
                                     np.asarray(y).T[None])
    return delta, agg


def test_optimal_action_reference_value(model_s1):
    coeffs = optimal_coefficients(solve_riccati(model_s1), model_s1)
    y = np.array([[2.0], [4.0]])
    delta, agg = _updated_estimates(model_s1, y)
    u = coeffs.act(0, delta, agg, y.T[None], model_s1)
    # estimate is half the observation and the gain is -1/2: u = -y/4
    np.testing.assert_allclose(u[0].T, [[-0.5], [-1.0]])


def test_no_action_at_final_stage(model_s1):
    # actions exist at stages 1..T-1 only; the last stage costs the state alone
    for kind in (ZeroAction(), Optimal(), MeanField()):
        trace = rollout(model_s1, kind, seed=3)
        assert trace.u.shape == (model_s1.T - 1, model_s1.n, 1)
        np.testing.assert_allclose(trace.stage_cost[-1],
                                   np.mean(trace.x[-1] ** 2), atol=1e-15)


def test_aggregate_action_identity():
    # the weighted average of optimal actions is the aggregate gain on the
    # aggregate estimate; deviation terms cancel through the gauge constraint
    rng = np.random.default_rng(42)
    for index in range(6):
        model = random_team(rng, T=5)
        gains = solve_riccati(model)
        trace = rollout(model, Optimal(), seed=42, index=index)
        for t in range(model.T - 1):
            u_bar = model.alpha @ trace.u[t] / model.n
            np.testing.assert_allclose(
                u_bar, gains.gain_agg[t] @ trace.agg_xhat[t], atol=1e-10
            )


def test_custom_linear_contains_the_optimal_rule():
    # the optimal rule acts through its CustomLinear coefficients, and the
    # actions are the gain schedule applied to the two estimates
    rng = np.random.default_rng(43)
    for index in range(5):
        model = random_team(rng, T=4)
        gains = solve_riccati(model)
        trace = rollout(model, Optimal(), seed=43, index=index)
        custom = rollout(model, optimal_coefficients(gains, model), seed=43,
                         index=index)
        np.testing.assert_array_equal(custom.u, trace.u)
        for t in range(model.T - 1):
            expected = (trace.delta_xhat[t] @ gains.gain[t].T
                        + np.outer(model.alpha,
                                   gains.gain_agg[t] @ trace.agg_xhat[t]))
            np.testing.assert_allclose(trace.u[t], expected, atol=1e-12)


def test_custom_linear_aggregate_is_publicly_computable():
    # average of the rule's actions depends only on shared statistics
    rng = np.random.default_rng(44)
    model = random_team(rng, T=3)
    d = model.dims
    kind = CustomLinear(
        theta=rng.normal(size=(d.T - 1, d.d_u, d.d_x)),
        phi=rng.normal(size=(d.T - 1, d.d_u, d.d_x)),
        psi=rng.normal(size=(d.T - 1, d.d_u, d.d_y)),
        omega=rng.normal(size=(d.T - 1, d.d_u, d.d_y)),
    )
    y = simulate_truth(model, rng)["y"][0]
    delta, agg = _updated_estimates(model, y)
    u = kind.act(0, delta, agg, y.T[None], model)[0].T
    y_bar = model.alpha @ y / model.n
    public = (kind.theta[0] + kind.phi[0]) @ agg[0] + (kind.psi[0] + kind.omega[0]) @ y_bar
    np.testing.assert_allclose(model.alpha @ u / model.n, public, atol=1e-10)


def test_zero_psi_omega_stages_act_as_the_full_expression():
    # stages whose psi or omega is all zero skip that product; the action is
    # still theta combined + psi y + alpha (phi z + omega y_bar), bit for bit
    rng = np.random.default_rng(45)
    model = random_team(rng, n=5, T=5)
    d = model.dims
    psi = rng.normal(size=(d.T - 1, d.d_u, d.d_y))
    omega = rng.normal(size=(d.T - 1, d.d_u, d.d_y))
    psi[[0, 2]] = 0.0
    omega[[1, 2]] = 0.0
    kind = CustomLinear(theta=rng.normal(size=(d.T - 1, d.d_u, d.d_x)),
                        phi=rng.normal(size=(d.T - 1, d.d_u, d.d_x)),
                        psi=psi, omega=omega)
    delta = rng.normal(size=(3, d.d_x, d.n))
    y = rng.normal(size=(3, d.d_y, d.n))
    alpha = model.alpha
    y_bar = y @ alpha / d.n
    # a batch of filtered aggregates, and one planned row as under mean field
    for agg in (rng.normal(size=(3, d.d_x)), rng.normal(size=d.d_x)):
        for t in range(d.T - 1):
            full = kind.theta[t] @ (delta + agg[..., None] * alpha)
            full += kind.psi[t] @ y
            shared = ((kind.phi[t] @ agg[..., None])[..., 0]
                      + (kind.omega[t] @ y_bar[..., None])[..., 0])
            full += shared[..., None] * alpha
            np.testing.assert_array_equal(kind.act(t, delta, agg, y, model),
                                          full)


def test_meanfield_trajectory_reference_values():
    model = scalar_pair_model(mu_x=1.0)
    plan = meanfield_trajectory(model, solve_riccati(model))
    np.testing.assert_allclose(plan.mean[:, 0], [1.0, 0.5])
    np.testing.assert_allclose(plan.u_bar[:, 0], [-0.5])

    coupled = scalar_pair_model(A_bar=1.0, Q_bar=1.0, mu_x=1.0)
    plan2 = meanfield_trajectory(coupled, solve_riccati(coupled))
    np.testing.assert_allclose(plan2.mean[:, 0], [1.0, 2.0 / 3.0])
    np.testing.assert_allclose(plan2.u_bar[:, 0], [-4.0 / 3.0])


def test_meanfield_plan_is_the_expected_aggregate_under_optimal():
    """The plan is E[x-bar_t] under the optimal rule: the oracle's mean pass
    m <- F[t] m + f[t] over the closed loop on the reduced team, averaged
    with the influence weights.  The draws have non-uniform influence and a
    nonzero prior mean, so a plan started at mu_x, not at its influence-
    weighted average, fails."""
    rng = np.random.default_rng(16)
    for _ in range(30):
        model = random_team(rng)
        plan = meanfield_trajectory(model, solve_riccati(model))
        team = _Team.reduced(model)
        loop = _closed_loop(model, Optimal().prepare(model), team)
        states = team.size * model.dims.d_x
        m, expected = loop.m0, []
        for t in range(model.T):
            if t:
                m = loop.F[t - 1] @ m + loop.f[t - 1]
            expected.append(team.alpha @ m[:states].reshape(team.size, -1)
                            / team.n)
        expected = np.array(expected)
        assert (np.abs(plan.mean - expected).max()
                <= 1e-12 * np.abs(expected).max())


def test_meanfield_equals_optimal_without_coupling():
    # zero-mean uncoupled teams: the planned aggregate is zero, the private
    # filters match the exact ones, and both rules produce identical actions
    rng = np.random.default_rng(45)
    for index in range(5):
        model = random_team(rng, coupling=0.0, zero_mean=True, T=5)
        plan = meanfield_trajectory(model, solve_riccati(model))
        assert np.all(plan.mean == 0.0)
        opt = rollout(model, Optimal(), seed=45, index=index)
        mf = rollout(model, MeanField(), seed=45, index=index)
        np.testing.assert_allclose(mf.u, opt.u, atol=1e-9)


def test_parse_strategy(model_s1, tmp_path):
    assert isinstance(parse_strategy("optimal", model_s1), Optimal)
    assert isinstance(parse_strategy("meanfield", model_s1), MeanField)
    assert isinstance(parse_strategy("zero", model_s1), ZeroAction)
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"theta": [[0.5]], "psi": {"1": [[0.25]]}}))
    kind = parse_strategy(f"custom:{path}", model_s1)
    assert isinstance(kind, CustomLinear)
    np.testing.assert_allclose(kind.theta, [[[0.5]]])
    np.testing.assert_allclose(kind.psi, [[[0.25]]])
    assert np.all(kind.phi == 0.0)
    with pytest.raises(ValueError):
        parse_strategy("bogus", model_s1)
