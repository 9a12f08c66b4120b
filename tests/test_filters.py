"""Deviation/aggregate filter schedules, batched stepping, and structural identities."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from teamlqg import SingularInnovationError, make_model, normalize_influence, resize_team
from teamlqg.filters import (
    FilterSchedule,
    combined_agent_estimate,
    precompute_filters,
    precompute_global,
    precompute_local,
    prior_estimates,
    schedule_to_json_dict,
    team_error_covariance,
    update_estimates,
)
from teamlqg.oracle import exact_cost
from teamlqg.random_models import random_team
from teamlqg.sim import run_rollouts
from teamlqg.strategy import MeanField
from conftest import scalar_pair_model
from reference import (
    direct_estimate_recursion,
    run_decentralized_filters,
    simulate_truth,
)
from test_random_models import OPTIONS

import reference


def test_local_schedule_scalar_values(model_s1):
    sched = precompute_local(model_s1)
    np.testing.assert_allclose(sched.Sigma_pred[:, 0, 0], [1.0, 1.5])
    np.testing.assert_allclose(sched.gain[:, 0, 0], [0.5, 0.6])
    np.testing.assert_allclose(sched.Sigma_post[:, 0, 0], [0.5, 0.6])


def test_global_schedule_scalar_values(model_s1):
    sched = precompute_global(model_s1)
    np.testing.assert_allclose(sched.Sigma_pred[:, 0, 0], [0.5, 0.75])
    np.testing.assert_allclose(sched.gain[:, 0, 0], [0.5, 0.6])
    np.testing.assert_allclose(sched.Sigma_post[:, 0, 0], [0.25, 0.3])
    # without coupling the aggregate recursion is the deviation one shrunk by n
    local = precompute_local(model_s1)
    np.testing.assert_allclose(sched.Sigma_pred, local.Sigma_pred / 2)
    np.testing.assert_allclose(sched.gain, local.gain)


def test_global_schedule_coupled_values(model_s2):
    sched = precompute_global(model_s2)
    np.testing.assert_allclose(sched.Sigma_pred[:, 0, 0], [0.5, 1.5])
    np.testing.assert_allclose(sched.gain[:, 0, 0], [0.5, 0.75])
    np.testing.assert_allclose(sched.Sigma_post[:, 0, 0], [0.25, 0.375])


def test_prior_state_respects_influence():
    model = scalar_pair_model(alpha=normalize_influence((1.0, 2.0)), mu_x=1.0)
    delta, agg = prior_estimates(model, 3)
    assert delta.shape == (3, 1, 2) and agg.shape == (3, 1)
    a_mean = float(np.sum(model.alpha)) / 2
    np.testing.assert_allclose(agg[2], [a_mean])
    np.testing.assert_allclose(delta[2, 0, :], 1.0 - model.alpha * a_mean)
    # weighted deviations cancel
    assert abs(model.alpha @ delta[2, 0, :]) < 1e-12


def _first_update(model, y, local=None, glob=None):
    """First update of a batch of one; ``y`` and the returned deviations
    are (n, d), transposed at the filters' agent-last boundary."""
    local = precompute_local(model) if local is None else local
    glob = precompute_global(model) if glob is None else glob
    delta, agg = prior_estimates(model, 1)
    delta, agg, correction = update_estimates(model, local, glob, 0, delta, agg,
                                              np.asarray(y).T[None])
    return delta.transpose(0, 2, 1), agg, correction


def test_innovation_reference_values(model_s1):
    # through unit gains the update adds the innovations themselves: their
    # weighted average to the aggregate, the remainder to the deviations
    local, glob = precompute_local(model_s1), precompute_global(model_s1)
    local = replace(local, gain=np.ones_like(local.gain))
    glob = replace(glob, gain=np.ones_like(glob.gain))
    delta, agg, correction = _first_update(model_s1, [[2.0], [4.0]], local, glob)
    np.testing.assert_allclose(correction, [[3.0]])
    np.testing.assert_allclose(agg, [[3.0]])
    np.testing.assert_allclose(delta[0], [[-1.0], [1.0]])
    np.testing.assert_allclose(delta[0] + np.outer(model_s1.alpha, agg[0]),
                               [[2.0], [4.0]])


def test_first_update_reference_values(model_s1):
    delta, agg, _ = _first_update(model_s1, [[2.0], [4.0]])
    np.testing.assert_allclose(delta[0], [[-0.5], [0.5]])
    np.testing.assert_allclose(agg[0], [1.5])
    # uncoupled scalar team: the combined estimate is the standalone filter 0.5 y
    combined = combined_agent_estimate(delta[0], agg[0], model_s1.alpha)
    np.testing.assert_allclose(combined, [[1.0], [2.0]])


def test_first_aggregate_update_value(model_s1):
    _, agg, _ = _first_update(model_s1, [[2.0], [2.0]])
    np.testing.assert_allclose(agg[0], [1.0])


def test_update_projects_deviations_onto_gauge():
    # a weighted-mean component in the deviation rows, which no innovation
    # corrects, is removed by the update rather than carried forward
    rng = np.random.default_rng(12)
    model = random_team(rng, T=3)
    d = model.dims
    delta, agg = prior_estimates(model, 4)
    delta += rng.normal(size=(4, 1, d.d_x)).transpose(0, 2, 1)
    y = rng.normal(size=(4, d.n, d.d_y)).transpose(0, 2, 1)
    out, _, _ = update_estimates(model, precompute_local(model),
                                 precompute_global(model), 0, delta, agg, y)
    assert np.abs(out @ model.alpha / d.n).max() <= 1e-12


def test_deviation_estimates_stay_in_gauge():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = random_team(rng, T=6)
        data = simulate_truth(model, rng)
        deltas, _ = run_decentralized_filters(model, data["y"], data["u"])
        resid = np.einsum("i,tid->td", model.alpha, deltas) / model.n
        assert np.max(np.abs(resid)) <= 1e-9


def test_combined_estimate_matches_direct_recursion():
    # the per-agent recursion in original coordinates reproduces delta + alpha z
    rng = np.random.default_rng(2718)
    for _ in range(8):
        model = random_team(rng, T=6)
        data = simulate_truth(model, rng)
        local = precompute_local(model)
        glob = precompute_global(model)
        direct = direct_estimate_recursion(model, local, glob, data["y"], data["u"])
        deltas, aggs = run_decentralized_filters(model, data["y"], data["u"])
        for t in range(model.T):
            ours = combined_agent_estimate(deltas[t], aggs[t], model.alpha)
            assert np.max(np.abs(ours - direct[t])) <= 1e-10


def test_estimation_errors_ignore_the_strategy():
    # same noise, two very different action rules: identical filter errors
    rng = np.random.default_rng(5150)
    model = random_team(rng, T=6)

    def run_errors(data):
        deltas, aggs = run_decentralized_filters(model, data["y"], data["u"])
        x_bar = np.einsum("i,tid->td", model.alpha, data["x"]) / model.n
        delta_x = data["x"] - model.alpha[None, :, None] * x_bar[:, None, :]
        return delta_x - deltas, x_bar - aggs

    seed = 77
    quiet = simulate_truth(model, np.random.default_rng(seed),
                           action_fn=lambda t, y, u: np.zeros((model.n, model.dims.d_u)))
    loud = simulate_truth(model, np.random.default_rng(seed),
                          action_fn=lambda t, y, u: 2.0 * y[-1] @ np.ones((model.dims.d_y, model.dims.d_u)))
    (dq, aq), (dl, al) = run_errors(quiet), run_errors(loud)
    np.testing.assert_allclose(dq, dl, atol=1e-10)
    np.testing.assert_allclose(aq, al, atol=1e-10)


def test_aggregate_covariance_scales_inversely_with_team_size():
    rng = np.random.default_rng(404)
    for _ in range(5):
        model = random_team(rng, homogeneous=True, n=4)
        double = resize_team(model, 8)
        sched_n = precompute_global(model)
        sched_2n = precompute_global(double)
        np.testing.assert_allclose(sched_2n.Sigma_pred, sched_n.Sigma_pred / 2, rtol=1e-12)
        np.testing.assert_allclose(sched_2n.Sigma_post, sched_n.Sigma_post / 2, rtol=1e-12)
        np.testing.assert_allclose(sched_2n.gain, sched_n.gain, rtol=1e-12)


def test_zero_observation_channel_gives_zero_gain():
    model = scalar_pair_model(C=0.0)
    sched = precompute_local(model)
    assert np.all(sched.gain == 0.0)
    np.testing.assert_allclose(sched.Sigma_post, sched.Sigma_pred)


def test_certain_prior_stays_certain():
    model = scalar_pair_model(Sigma_x=0.0, Sigma_w=0.0)
    sched = precompute_local(model)
    assert np.all(sched.gain == 0.0)
    assert np.all(sched.Sigma_post == 0.0)


def test_dead_observation_model_raises():
    model = scalar_pair_model(C=0.0, S=0.0)
    with pytest.raises(SingularInnovationError) as err:
        precompute_local(model)
    assert err.value.t == 1
    # both chains are singular at this stage; the deviation chain is named
    with pytest.raises(SingularInnovationError,
                       match="^deviation innovation covariance is singular at t=1$"):
        precompute_filters(model)


def test_singular_aggregate_filter_spares_the_deviation_chain():
    """C + C_bar = 0 and S + S_bar = 0 leave only the aggregate filter blind;
    the mean-field rule, which carries no aggregate filter, still runs."""
    model = scalar_pair_model(T=3, C_bar=-1.0, S_bar=-1.0)
    with pytest.raises(SingularInnovationError,
                       match="^aggregate innovation covariance is singular at t=1$"):
        precompute_filters(model)
    assert np.isfinite(precompute_local(model).Sigma_post).all()
    assert np.isfinite(run_rollouts(model, MeanField(), n_rollouts=8).costs).all()
    assert np.isfinite(exact_cost(model, MeanField()))


@pytest.mark.parametrize("options", OPTIONS, ids=json.dumps)
def test_paired_pass_is_byte_equal_to_one_chain_at_a_time(options):
    """Both schedules from one pass, and each alone, equal the per-chain
    recursions byte for byte."""
    rng = np.random.default_rng(len(json.dumps(options)))
    for _ in range(40):
        model = random_team(rng, **options)
        want = (reference.precompute_local(model),
                reference.precompute_global(model))
        got = (*precompute_filters(model), precompute_local(model),
               precompute_global(model))
        for schedule, ref in zip(got, want + want):
            assert (reference.schedule_bytes(schedule)
                    == reference.schedule_bytes(ref))


def test_team_error_covariance_scalar_values(model_s1):
    local = precompute_local(model_s1)
    glob = precompute_global(model_s1)
    cov = team_error_covariance(local, glob, model_s1.alpha, 2, 0, "updated")
    # uncoupled unit-influence pair: independent agents with variance 1/2
    np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-12)


def test_leave_one_out_inverse_identity():
    # (I - (1/n) a a')^{-1} = I + a a' / alpha_i^2 with a the vector missing entry i
    rng = np.random.default_rng(8888)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        alpha = normalize_influence(rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n))
        i = int(rng.integers(n))
        rest = np.delete(alpha, i)
        m = np.eye(n - 1) - np.outer(rest, rest) / n
        inv = np.eye(n - 1) + np.outer(rest, rest) / alpha[i] ** 2
        np.testing.assert_allclose(m @ inv, np.eye(n - 1), atol=1e-10)


def test_schedule_json_round_trip(model_s2):
    local = precompute_local(model_s2)
    glob = precompute_global(model_s2)
    def back(schedule):
        doc = json.loads(json.dumps(schedule_to_json_dict(schedule)))
        return FilterSchedule(**{
            key: np.array([doc[key][str(t + 1)] for t in range(doc["T"])])
            for key in ("Sigma_pred", "Sigma_post", "gain")})

    back_l = back(local)
    back_g = back(glob)
    assert np.array_equal(back_l.Sigma_pred, local.Sigma_pred)
    assert np.array_equal(back_l.gain, local.gain)
    assert np.array_equal(back_g.Sigma_post, glob.Sigma_post)


def test_readme_filter_stepping_example():
    # the README's hand-stepping block, run as written on a model whose
    # dimensions differ (n=4, d_x=2, d_u=1, d_y=3) so a mislaid axis fails
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    (block,) = [b for b in blocks if "update_estimates(" in b]
    model = random_team(np.random.default_rng(12), n=4, T=3)
    names = {"model": model}
    exec(block, names)
    trace = names["trace"]
    np.testing.assert_allclose(names["xhat"], trace.combined_xhat[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(names["u"][0].T, trace.u[0], rtol=1e-12, atol=1e-12)
    stage1 = combined_agent_estimate(names["delta"][0].T, names["agg"][0], model.alpha)
    np.testing.assert_allclose(stage1, trace.combined_xhat[1], rtol=1e-12, atol=1e-12)
