"""Monte Carlo engine: reproducibility, cross-checks, cost comparisons."""

import numpy as np
import pytest

from teamlqg import NonFiniteCostError, make_model, resize_team, sim, validate
from teamlqg.filters import precompute_global, precompute_local
from teamlqg.oracle import exact_cost
from teamlqg.riccati import solve_riccati
from teamlqg.sim import (
    benchmark_convergence_model,
    convergence_experiment,
    evaluate_cost,
    paired_cost_gap,
    rollout,
    run_rollouts,
)
from teamlqg.strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    ZeroAction,
    optimal_coefficients,
)
from teamlqg.random_models import random_team

from conftest import scalar_pair_model
from reference import direct_estimate_recursion, run_decentralized_filters


def test_rerun_is_bitwise_identical(model_s2):
    a = run_rollouts(model_s2, Optimal(), seed=11, n_rollouts=300)
    b = run_rollouts(model_s2, Optimal(), seed=11, n_rollouts=300)
    np.testing.assert_array_equal(a.costs, b.costs)
    np.testing.assert_array_equal(a.ms_correction, b.ms_correction)


def test_chunking_and_prefix_do_not_change_draws(model_s2):
    """Rollout index alone determines the noise, not the batch layout."""
    whole = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=500, chunk=500)
    split = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=500, chunk=64)
    np.testing.assert_array_equal(whole.costs, split.costs)
    prefix = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=200, chunk=64)
    np.testing.assert_array_equal(whole.costs[:200], prefix.costs)


def test_worker_pool_matches_inline(model_s2):
    inline = run_rollouts(model_s2, MeanField(), seed=3, n_rollouts=300, chunk=100)
    pooled = run_rollouts(model_s2, MeanField(), seed=3, n_rollouts=300, chunk=100,
                          workers=2)
    np.testing.assert_array_equal(inline.costs, pooled.costs)
    assert inline.residual_max == pooled.residual_max


def test_engine_matches_stepwise_filters():
    """The kernel drives the shared update and predict exactly as a
    one-trajectory loop does, and agrees with the loop-based per-agent
    recursion in original coordinates."""
    rng = np.random.default_rng(5150)
    for _ in range(4):
        model = random_team(rng)
        trace = rollout(model, Optimal(), seed=21, index=2)
        deltas, aggs = run_decentralized_filters(model, trace.y, trace.u)
        assert np.abs(trace.delta_xhat - deltas).max() <= 1e-12
        assert np.abs(trace.agg_xhat - aggs).max() <= 1e-12
        direct = direct_estimate_recursion(
            model, precompute_local(model), precompute_global(model),
            trace.y, trace.u)
        assert np.abs(trace.combined_xhat - direct).max() <= 1e-10
        agg_direct = np.einsum("i,tid->td", model.alpha, direct) / model.n
        assert np.abs(trace.agg_xhat - agg_direct).max() <= 1e-10


def test_trace_actions_follow_gain_schedule(model_s2):
    trace = rollout(model_s2, Optimal(), seed=4, index=0)
    gains = solve_riccati(model_s2)
    for t in range(model_s2.T - 1):
        expected = (trace.delta_xhat[t] @ gains.gain[t].T
                    + np.outer(model_s2.alpha,
                               gains.gain_agg[t] @ trace.agg_xhat[t]))
        np.testing.assert_allclose(trace.u[t], expected, atol=1e-12)


def test_trace_recording_is_consistent(model_s2):
    batch = run_rollouts(model_s2, Optimal(), seed=9, n_rollouts=5, chunk=2,
                         keep_traces=5)
    assert len(batch.traces) == 5
    for idx, trace in enumerate(batch.traces):
        assert trace.stage_cost.sum() == batch.costs[idx]
        np.testing.assert_allclose(
            trace.x_bar, np.einsum("i,tid->td", model_s2.alpha, trace.x) / 2,
            atol=1e-15)
        np.testing.assert_allclose(trace.est_err,
                                   trace.x - trace.combined_xhat, atol=1e-15)


def test_zero_noise_model_is_deterministic():
    model = scalar_pair_model(T=3, mu_x=2.0, Sigma_x=0.0, Sigma_w=0.0,
                              Sigma_v=0.0)
    est = evaluate_cost(model, ZeroAction(), seed=0, n_rollouts=50)
    assert est.degenerate
    assert est.mean == pytest.approx(12.0, abs=1e-12)
    assert est.stderr == 0.0


def test_mc_mean_matches_exact_cost(model_s1, model_s2):
    for model, kind in ((model_s1, ZeroAction()), (model_s1, Optimal()),
                        (model_s2, Optimal()), (model_s2, MeanField())):
        est = evaluate_cost(model, kind, seed=17, n_rollouts=20_000)
        target = exact_cost(model, kind)
        assert isinstance(est.stderr, float)
        assert abs(est.mean - target) <= 5.0 * est.stderr
        assert est.residual_max <= 1e-9


@pytest.mark.parametrize("T, rollouts", [(200, 200), (2000, 32)])
def test_long_unstable_horizon_matches_exact_cost(T, rollouts):
    """Open-loop-unstable dynamics over long horizons: the deviation rows'
    weighted mean, which no innovation corrects, must not drift."""
    model = make_model(T=T, n=3, A=1.3, A_bar=0.2, B=1, C=1, C_bar=0.3, Q=1,
                       R=1e-6, Sigma_v=1e-8, Sigma_w=1, Sigma_x=1, mu_x=1)
    base = optimal_coefficients(solve_riccati(model), model)
    detuned = CustomLinear(theta=0.9 * base.theta, phi=base.phi,
                           psi=base.psi + 0.05, omega=base.omega)
    for kind in (Optimal(), detuned, MeanField()):
        est = evaluate_cost(model, kind, seed=1, n_rollouts=rollouts)
        target = exact_cost(model, kind)
        assert abs(est.mean - target) <= 5.0 * est.stderr, type(kind).__name__
        assert est.residual_max <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_costs_are_reported_not_returned():
    model = make_model(T=40, n=2, A=1e10, B=1, C=1, Q=1, R=1, Sigma_x=1,
                       Sigma_w=1, Sigma_v=1, mu_x=1)
    batch = sim._run_batch(model, sim._prepare(model, ZeroAction()),
                           sim._noise_bank(model, 0, 0, 4))
    assert np.isnan(batch.residual_max)
    with pytest.raises(NonFiniteCostError):
        run_rollouts(model, ZeroAction(), n_rollouts=4)
    with pytest.raises(NonFiniteCostError):
        rollout(model, ZeroAction())


def test_cost_split_residual_stays_tiny():
    """Aggregate/deviation cost accounting closes at every step."""
    rng = np.random.default_rng(404)
    for _ in range(4):
        model = random_team(rng)
        for kind in (ZeroAction(), Optimal(), MeanField()):
            batch = run_rollouts(model, kind, seed=2, n_rollouts=50)
            assert batch.residual_max <= 1e-9


def test_estimation_error_does_not_depend_on_actions():
    """Actions cancel from the error recursion, so any strategy sharing the
    filter bank sees the identical error path under the same noise."""
    rng = np.random.default_rng(888)
    for _ in range(3):
        model = random_team(rng)
        d = model.dims
        stages = d.T - 1
        loud = CustomLinear(
            theta=0.7 * rng.normal(size=(stages, d.d_u, d.d_x)),
            phi=0.7 * rng.normal(size=(stages, d.d_u, d.d_x)),
            psi=0.7 * rng.normal(size=(stages, d.d_u, d.d_y)),
            omega=0.7 * rng.normal(size=(stages, d.d_u, d.d_y)),
        )
        quiet = rollout(model, Optimal(), seed=33, index=1)
        noisy = rollout(model, loud, seed=33, index=1)
        assert np.abs(quiet.est_err - noisy.est_err).max() <= 1e-10


def test_meanfield_equals_optimal_rolloutwise_when_uncoupled(model_s1):
    """Without coupling and with a zero mean the two strategies coincide
    almost surely, so paired rollouts cancel down to rounding noise."""
    gap, se = paired_cost_gap(model_s1, MeanField(), Optimal(), seed=6,
                              n_rollouts=400)
    assert abs(gap) <= 1e-12
    assert se <= 1e-12


def test_optimal_beats_alternatives_on_coupled_model(model_s2):
    gap_zero, se_zero = paired_cost_gap(model_s2, ZeroAction(), Optimal(),
                                        seed=12, n_rollouts=20_000)
    assert gap_zero > 3.0 * se_zero
    gap_mf, se_mf = paired_cost_gap(model_s2, MeanField(), Optimal(),
                                    seed=12, n_rollouts=20_000)
    assert gap_mf > 3.0 * se_mf
    rng = np.random.default_rng(2)
    gains = solve_riccati(model_s2)
    base = optimal_coefficients(gains, model_s2)
    perturbed = CustomLinear(
        theta=base.theta + 0.3 * rng.normal(size=base.theta.shape),
        phi=base.phi + 0.3 * rng.normal(size=base.phi.shape),
        psi=base.psi + 0.3 * rng.normal(size=base.psi.shape),
        omega=base.omega + 0.3 * rng.normal(size=base.omega.shape),
    )
    gap_c, se_c = paired_cost_gap(model_s2, perturbed, Optimal(),
                                  seed=12, n_rollouts=20_000)
    assert gap_c > 3.0 * se_c


def test_benchmark_model_is_valid_and_uniform():
    model = benchmark_convergence_model()
    assert validate(model).ok
    np.testing.assert_array_equal(model.alpha, np.ones(model.n))


def test_convergence_scaling():
    """Aggregate uncertainty and the mean-field penalty shrink like 1/n."""
    res = convergence_experiment(benchmark_convergence_model(), (4, 16, 64),
                                 rollouts=3000, seed=3)
    assert res.slope_sigma == pytest.approx(-1.0, abs=1e-6)
    assert res.slope_correction == pytest.approx(-1.0, abs=0.15)
    assert res.slope_gap == pytest.approx(-1.0, abs=0.3)
    base = res.rows[0]
    for row in res.rows:
        # exact 1/n covariance scaling, not merely a fitted trend
        assert row.n * row.max_sigma_bar == pytest.approx(
            base.n * base.max_sigma_bar, rel=1e-12)
        assert row.cost_gap > 3.0 * row.gap_se
        assert abs(row.cost_gap - row.exact_gap) <= 4.0 * row.gap_se


def test_convergence_reuses_the_paired_optimal_pass():
    model = benchmark_convergence_model()
    res = convergence_experiment(model, (4, 8), rollouts=300, seed=5)
    for row in res.rows:
        alone = run_rollouts(resize_team(model, row.n), Optimal(), seed=5,
                             n_rollouts=300)
        assert row.ms_correction == float(alone.ms_correction.mean())


def test_run_rollouts_rejects_bad_count(model_s1):
    with pytest.raises(ValueError):
        run_rollouts(model_s1, ZeroAction(), n_rollouts=0)
