"""Centralized oracle: joint assembly, joint filtering, exact costs, search."""

import ast
from pathlib import Path

import numpy as np
import pytest

from teamlqg import SingularInnovationError, make_model, oracle
from teamlqg.filters import (
    precompute_global,
    precompute_local,
    team_error_covariance,
)
from teamlqg.model import normalize_influence, resize_team
from teamlqg.oracle import (
    _closed_loop,
    _span_basis,
    _Team,
    brute_force_optimize,
    centralized_estimates,
    centralized_filter,
    cost_gradient,
    exact_cost,
    pack_coefficients,
    unpack_coefficients,
)
from teamlqg.random_models import random_team
from teamlqg.riccati import solve_riccati
from teamlqg.sim import (
    _noise_bank,
    _run_batch,
    benchmark_convergence_model,
    run_rollouts,
)
from teamlqg.strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    ZeroAction,
    optimal_coefficients,
)
from teamlqg.verify import (
    COVARIANCE_TOL,
    ESTIMATE_TOL,
    RESIDUAL_TOL,
    _random_rule,
    check_one_model,
    reference_models,
    run_verification_suite,
)

from conftest import scalar_pair_model
from reference import (
    _all_agents,
    dense_joint_model,
    joint_exact_cost,
    run_decentralized_filters,
    simulate_truth,
)


def _flat(traj):
    """A trajectory's observations and actions, stacked agent-major per stage."""
    return (traj["y"].reshape(len(traj["y"]), -1),
            traj["u"].reshape(len(traj["u"]), -1))


def _imported_names(path):
    """Every name a module imports, in full: ``teamlqg.filters._checked_gain``
    for ``from .filters import _checked_gain``."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:          # relative to the teamlqg package
                base = f"teamlqg.{base}".rstrip(".")
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_oracle_shares_no_decentralized_stepping_code():
    """The oracle is the ground truth the decentralized modules are checked
    against, so it imports nothing from ``sim`` and only the gain check
    from ``filters``."""
    names = _imported_names(oracle.__file__)

    def within(module):
        return {name for name in names
                if name == module or name.startswith(module + ".")}

    assert within("teamlqg.sim") == set()
    assert within("teamlqg.filters") == {"teamlqg.filters._checked_gain"}


def test_joint_assembly_uncoupled_pair(model_s1):
    joint = dense_joint_model(model_s1)
    eye = np.eye(2)
    for t in range(2):
        np.testing.assert_array_equal(joint.A[t], eye)
        np.testing.assert_array_equal(joint.B[t], eye)
        np.testing.assert_array_equal(joint.C[t], eye)
        np.testing.assert_array_equal(joint.Qx[t], eye / 2.0)
        np.testing.assert_array_equal(joint.Ru[t], eye / 2.0)
    np.testing.assert_array_equal(joint.Sigma_x, eye)
    np.testing.assert_array_equal(joint.mu, np.zeros(2))


def test_joint_assembly_coupled_pair(model_s2):
    """Shared terms spread over the influence outer product."""
    joint = dense_joint_model(model_s2)
    np.testing.assert_allclose(joint.A[0], [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)
    np.testing.assert_allclose(joint.Qx[0], [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    np.testing.assert_array_equal(joint.B[0], np.eye(2))


def test_centralized_filter_matches_decentralized_estimates():
    """The combined per-agent estimates equal the joint conditional mean.

    The decentralized pair of filters carries (n + 1) small recursions; the
    joint filter carries one n*d_x recursion with full cross-covariances.
    Both are driven by the same recorded trajectory.
    """
    rng = np.random.default_rng(2024)
    for _ in range(8):
        model = random_team(rng)
        d = model.dims
        traj = simulate_truth(model, rng)
        deltas, aggs = run_decentralized_filters(model, traj["y"], traj["u"])
        run = centralized_filter(dense_joint_model(model), *_flat(traj))
        joint_means = run.mean_post.reshape(d.T, d.n, d.d_x)
        combined = np.stack([
            deltas[t] + model.alpha[:, None] * aggs[t]
            for t in range(d.T)
        ])
        scale = max(1.0, float(np.abs(joint_means).max()))
        assert np.abs(combined - joint_means).max() <= 1e-9 * scale
        # the influence-weighted mean of the joint estimate is the aggregate one
        agg_from_joint = np.einsum("i,tid->td", model.alpha, joint_means) / d.n
        assert np.abs(agg_from_joint - aggs).max() <= 1e-9 * scale


def test_joint_covariance_matches_team_assembly():
    """Joint error covariance equals the two-block decentralized assembly."""
    rng = np.random.default_rng(77)
    for _ in range(8):
        model = random_team(rng)
        d = model.dims
        local = precompute_local(model)
        glob = precompute_global(model)
        traj = simulate_truth(model, rng)
        run = centralized_filter(dense_joint_model(model), *_flat(traj))
        for t in range(d.T):
            for phase, sig in (("predicted", run.Sigma_pred[t]),
                               ("updated", run.Sigma_post[t])):
                assembled = team_error_covariance(local, glob, model.alpha,
                                                  model.n, t, phase)
                np.testing.assert_allclose(assembled, sig, rtol=1e-9, atol=1e-9)


def _expand(reduced, basis, d_x):
    """A reduced-team covariance in agent coordinates: its span block on the
    basis, its complement block on every direction orthogonal to it."""
    n, r = basis.shape
    k = r * d_x
    span = np.kron(basis, np.eye(d_x))
    dense = span @ reduced[:k, :k] @ span.T
    if reduced.shape[0] > k:
        assert np.abs(reduced[:k, k:]).max() <= 1e-12 * np.abs(reduced).max()
        dense += np.kron(np.eye(n) - basis @ basis.T, reduced[k:, k:])
    return dense


def test_centralized_filter_rejects_a_non_finite_covariance():
    """An unobserved state whose covariance overflows fails the shared gain
    check instead of filtering with NaN."""
    model = scalar_pair_model(T=60, A=1e10, C=0.0)
    joint = dense_joint_model(model)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SingularInnovationError, match="joint innovation covariance is not finite"):
        centralized_filter(joint, np.zeros((60, 2)), np.zeros((59, 2)))


def _assert_reduced_matches_dense(model, rng):
    """The reduced team's estimates and covariances equal the dense joint
    filter's on one trajectory."""
    d = model.dims
    traj = simulate_truth(model, rng)
    estimates, run = centralized_estimates(model, traj["y"], traj["u"])
    dense = centralized_filter(dense_joint_model(model), *_flat(traj))
    dense_means = dense.mean_post.reshape(d.T, d.n, d.d_x)
    scale = max(1.0, float(np.abs(dense_means).max()))
    assert np.abs(estimates - dense_means).max() <= 1e-9 * scale
    basis = _span_basis(model)
    for reduced, full in ((run.Sigma_pred, dense.Sigma_pred),
                          (run.Sigma_post, dense.Sigma_post)):
        for t in range(d.T):
            np.testing.assert_allclose(_expand(reduced[t], basis, d.d_x),
                                       full[t], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reduced_filter_matches_dense_reference_signed_influence(n):
    """Two span directions; at n = 2 there is no complement slot."""
    rng = np.random.default_rng(500 + n)
    alpha = normalize_influence([1.0, -0.6, 1.4, -1.2, 0.8, 0.5, -1.5, 1.1][:n])
    model = _two_state_team(rng, alpha)
    assert _span_basis(model).shape == (n, 2)
    _assert_reduced_matches_dense(model, rng)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reduced_filter_matches_dense_reference_uniform_influence(n):
    """One span direction, r = 1."""
    rng = np.random.default_rng(600 + n)
    model = _two_state_team(rng, np.ones(n))
    assert _span_basis(model).shape == (n, 1)
    _assert_reduced_matches_dense(model, rng)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("offset, r", [(1e-16, 1), (1e-9, 2)])
def test_reduced_filter_matches_dense_reference_nearly_uniform_influence(
        n, offset, r):
    """A spread at rounding level counts as uniform.  A small true spread
    keeps a second direction, which must stay orthogonal to 1: at n = 2 no
    complement slot takes up what the span block misses."""
    rng = np.random.default_rng(700 + n)
    alpha = normalize_influence(
        1.0 + offset * np.array([1.0, -2.0, 0.5, 3.0, -1.0])[:n])
    model = _two_state_team(rng, alpha)
    assert _span_basis(model).shape == (n, r)
    _assert_reduced_matches_dense(model, rng)


def test_reduced_filter_matches_dense_reference_on_random_teams():
    rng = np.random.default_rng(4242)
    for _ in range(8):
        _assert_reduced_matches_dense(random_team(rng), rng)


@pytest.mark.parametrize("n", [64, 1024])
def test_check_one_model_at_large_n(n):
    """The centralized cross-check holds far beyond the dense system's reach."""
    rng = np.random.default_rng(n)
    model = random_team(rng, n=n)
    est, cov, resid = check_one_model(model, _random_rule(model, rng), seed=n)
    assert est <= ESTIMATE_TOL
    assert cov <= COVARIANCE_TOL
    assert resid <= RESIDUAL_TOL


def test_check_one_model_solves_each_schedule_once(monkeypatch):
    """The schedules the rule is prepared with also serve the covariance
    check: one forward pass per model, over the deviation and aggregate
    chains together."""
    from teamlqg import filters

    calls = []
    forward = filters._forward_chain

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return forward(*args, **kwargs)

    monkeypatch.setattr(filters, "_forward_chain", counted)
    rng = np.random.default_rng(8)
    for seed in range(4):
        model = random_team(rng)
        for kind in (_random_rule(model, rng), Optimal()):
            calls.clear()
            check_one_model(model, kind, seed=seed)
            assert calls == [("deviation", "aggregate")]


def test_verification_maxima_match_fresh_schedules():
    """The suite's maxima, and the models that set them, equal a loop that
    draws each model from its own keyed generator, runs its rollouts, then
    solves both schedules afresh and compares covariances stage by stage."""
    seed, mc_rollouts = 5, 50
    report = run_verification_suite(n_models=20, seed=seed,
                                    mc_rollouts=mc_rollouts)
    worst = {"est": (0.0, None), "cov": (0.0, None), "resid": (0.0, None)}

    def record(key, value, index):
        if worst[key][1] is None or value > worst[key][0]:
            worst[key] = (value, index)

    for index in range(20):
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, 0xC0FFEE, index)))
        model = random_team(rng)
        kind = _random_rule(model, rng)
        batch = run_rollouts(model, kind, seed=seed + index, n_rollouts=4,
                             keep_traces=1)
        trace = batch.traces[0]
        estimates, run = centralized_estimates(model, trace.y, trace.u)
        scale = max(1.0, float(np.abs(estimates).max()))
        record("est", float(np.abs(trace.combined_xhat
                                   - estimates).max()) / scale, index)
        local, glob = precompute_local(model), precompute_global(model)
        alpha = _Team.reduced(model).alpha
        for t in range(model.T):
            for phase, sig in (("predicted", run.Sigma_pred[t]),
                               ("updated", run.Sigma_post[t])):
                assembled = team_error_covariance(local, glob, alpha, model.n,
                                                  t, phase)
                denom = max(1.0, float(np.abs(sig).max()))
                record("cov", float(np.abs(assembled - sig).max()) / denom,
                       index)
        record("resid", batch.residual_max, index)
    for model in reference_models():
        for kind in (ZeroAction(), Optimal()):
            resid = run_rollouts(model, kind, seed=seed,
                                 n_rollouts=mc_rollouts).residual_max
            if resid > worst["resid"][0]:
                worst["resid"] = (resid, None)
    assert (report.max_estimate_deviation,
            report.max_estimate_deviation_model) == worst["est"]
    assert (report.max_covariance_deviation,
            report.max_covariance_deviation_model) == worst["cov"]
    assert (report.max_cost_split_residual,
            report.max_cost_split_residual_model) == worst["resid"]


def test_team_error_covariance_of_a_stage_slice_stacks_each_stage():
    rng = np.random.default_rng(17)
    model = random_team(rng, T=6)
    local, glob = precompute_local(model), precompute_global(model)
    for phase in ("predicted", "updated"):
        stack = team_error_covariance(local, glob, model.alpha, model.n,
                                      slice(1, 5), phase)
        assert stack.shape == (4, model.n * model.dims.d_x,
                               model.n * model.dims.d_x)
        for t in range(1, 5):
            np.testing.assert_array_equal(
                stack[t - 1],
                team_error_covariance(local, glob, model.alpha, model.n, t,
                                      phase))


def test_exact_cost_zero_strategy_single_stage():
    model = scalar_pair_model(T=1)
    assert exact_cost(model, ZeroAction()) == pytest.approx(1.0, abs=1e-12)


def test_exact_cost_at_one_stage_is_the_same_for_every_strategy():
    """With no action stage every rule costs the initial state alone."""
    model = scalar_pair_model(T=1, C_bar=0.5, mu_x=1.0)
    zero = exact_cost(model, ZeroAction())
    for kind in (Optimal(), MeanField(), CustomLinear.from_json_dict({}, model)):
        assert exact_cost(model, kind) == zero


def test_exact_cost_zero_strategy_pair(model_s1):
    # E[x_1^2] = 1 and E[x_2^2] = 1 + 1 with no control
    assert exact_cost(model_s1, ZeroAction()) == pytest.approx(3.0, abs=1e-12)


def test_exact_cost_deterministic_model():
    """With every covariance zero the cost is a plain quadratic sum."""
    model = scalar_pair_model(T=3, mu_x=2.0, Sigma_x=0.0, Sigma_w=0.0, Sigma_v=0.0)
    assert exact_cost(model, ZeroAction()) == pytest.approx(12.0, abs=1e-12)


def test_exact_cost_optimal_uncoupled(model_s1):
    # value-matrix pieces: 1.5 (initial) + 1.0 (process noise) + 0.25 (filtering)
    assert exact_cost(model_s1, Optimal()) == pytest.approx(2.75, abs=1e-12)


def test_exact_cost_meanfield_collapses_when_uncoupled(model_s1):
    """No coupling and a zero mean leave the planned aggregate at zero."""
    j_mf = exact_cost(model_s1, MeanField())
    j_opt = exact_cost(model_s1, Optimal())
    assert abs(j_mf - j_opt) <= 1e-12


def test_exact_cost_coupled_pair(model_s2):
    j_zero = exact_cost(model_s2, ZeroAction())
    j_opt = exact_cost(model_s2, Optimal())
    j_mf = exact_cost(model_s2, MeanField())
    assert j_zero == pytest.approx(7.5, abs=1e-12)
    assert j_opt == pytest.approx(6.041666666666666, abs=1e-12)
    assert j_mf == pytest.approx(6.5625, abs=1e-12)
    assert j_opt < j_mf < j_zero


def _assert_matches_joint_propagation(model, rng):
    """The reduced team's cost equals the full joint system's, every kind."""
    for kind in (ZeroAction(), Optimal(), MeanField(), _random_rule(model, rng)):
        reduced = exact_cost(model, kind)
        joint = joint_exact_cost(model, kind)
        assert reduced == pytest.approx(joint, rel=1e-10), type(kind).__name__


def test_exact_cost_matches_joint_propagation_on_random_teams():
    rng = np.random.default_rng(8080)
    for _ in range(16):
        _assert_matches_joint_propagation(random_team(rng), rng)


def _drive_closed_loop(loop, bank, b):
    """Rollout b of a noise bank driven through a closed loop: its states
    (T, n * d_x) and actions (T - 1, n * d_u), agent-major."""
    def flat(noise):        # (d, n), agent-last -> agent-major
        return noise.T.reshape(-1)

    N = loop.system.mu.shape[0]
    z = np.concatenate([flat(bank["x1"][b]), loop.m0[N:]])
    states, actions = [z[:N]], []
    for t in range(loop.K.shape[0]):
        v = flat(bank["v"][t, b])
        actions.append(loop.K[t] @ z + loop.K_v[t] @ v + loop.k[t])
        z = loop.F[t] @ z + loop.G_v[t] @ v + loop.f[t]
        z[:N] += loop.G_w[t] @ flat(bank["w"][t, b])
        states.append(z[:N])
    return np.array(states), np.array(actions)


def test_closed_loop_retraces_the_stepping_kernel_pathwise():
    """The dense team's closed loop, driven by the noise of banked rollouts,
    retraces the states and actions ``_run_batch`` steps them to, stage by
    stage, for every rule kind.  The loop's internal state leaves the
    deviation estimates off the constraint the kernel projects onto, so
    this also holds that the two agree on every reachable state.  Measured
    worst case over these draws: 6.1e-15 relative."""
    rng = np.random.default_rng(4242)
    for draw in range(40):
        model = random_team(rng)
        bank = _noise_bank(model, draw, 0, 2)
        for kind in (ZeroAction(), Optimal(), MeanField(),
                     _random_rule(model, rng)):
            prep = kind.prepare(model)
            loop = _closed_loop(model, prep, _all_agents(model))
            traces = _run_batch(model, prep, bank, keep_traces=2).traces
            for b, trace in enumerate(traces):
                for got, want in zip(_drive_closed_loop(loop, bank, b),
                                     (trace.x, trace.u)):
                    want = want.reshape(len(want), -1)
                    scale = np.abs(want).max(axis=1, keepdims=True)
                    assert np.all(np.abs(got - want) <= 1e-10 * scale), (
                        draw, type(kind).__name__)


def _two_state_team(rng, alpha):
    """Every coupling term on, two states, inputs and outputs, nonzero mean."""
    def mat(scale):
        return scale * rng.normal(size=(2, 2))

    def psd(floor):
        g = rng.normal(size=(2, 2))
        return g @ g.T + floor * np.eye(2)

    return make_model(
        T=4, alpha=alpha,
        A=mat(0.5), A_bar=mat(0.2), B=mat(0.6), B_bar=mat(0.2),
        E=mat(0.6), E_bar=mat(0.2), C=np.eye(2) + mat(0.2), C_bar=mat(0.2),
        S=np.eye(2), S_bar=mat(0.05), Q=psd(0.5), Q_bar=0.3 * psd(0.0),
        R=psd(0.5), R_bar=0.3 * psd(0.0), mu_x=rng.normal(size=2),
        Sigma_x=psd(0.2), Sigma_w=psd(0.2), Sigma_v=psd(0.3))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_exact_cost_matches_joint_propagation_signed_influence(n):
    """Non-uniform signed influence: span{1, alpha} has two directions, and
    at n = 2 no complement agent remains."""
    rng = np.random.default_rng(n)
    alpha = normalize_influence([1.0, -0.6, 1.4, -1.2, 0.8, 0.5, -1.5, 1.1][:n])
    model = _two_state_team(rng, alpha)
    assert _Team.reduced(model).size == min(n, 3)
    _assert_matches_joint_propagation(model, rng)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_exact_cost_matches_joint_propagation_uniform_influence(n):
    """Uniform influence: span{1, alpha} is one direction."""
    rng = np.random.default_rng(100 + n)
    model = _two_state_team(rng, np.ones(n))
    assert _Team.reduced(model).size == 2
    _assert_matches_joint_propagation(model, rng)


def test_exact_cost_matches_joint_propagation_long_unstable_horizon():
    model = make_model(T=200, n=3, A=1.3, A_bar=0.2, B=1, C=1, C_bar=0.3, Q=1,
                       R=1e-6, Sigma_v=1e-8, Sigma_w=1, Sigma_x=1, mu_x=1)
    base = optimal_coefficients(solve_riccati(model), model)
    detuned = CustomLinear(theta=0.9 * base.theta, phi=base.phi,
                           psi=base.psi + 0.05, omega=base.omega)
    for kind in (ZeroAction(), Optimal(), detuned, MeanField()):
        assert exact_cost(model, kind) == pytest.approx(
            joint_exact_cost(model, kind), rel=1e-10), type(kind).__name__


def test_exact_cost_of_a_million_agents():
    """The cost does not grow with n, so a team of 10**6 costs no more."""
    model = resize_team(benchmark_convergence_model(), 10**6)
    j_opt = exact_cost(model, Optimal())
    j_mf = exact_cost(model, MeanField())
    assert np.isfinite(j_opt) and np.isfinite(j_mf)
    assert j_opt <= j_mf


def _structural_optimal_cost(model):
    """Optimal cost assembled from the two decoupled chains.

    Each chain contributes the usual linear-quadratic-Gaussian pieces: initial
    mean through the value matrix, prior covariance trace, process-noise
    traces, and filtered-covariance traces against the control curvature.
    The deviation chain carries the population residual weights; the
    aggregate chain enters once with its 1/n covariances.
    """
    gains = solve_riccati(model)
    local = precompute_local(model)
    glob = precompute_global(model)
    d = model.dims
    n = d.n
    alpha = model.alpha
    a_mean = model.alpha_mean
    mean_factor = float(np.mean((1.0 - alpha * a_mean) ** 2))
    var_factor = float(np.mean(1.0 - alpha**2 / n))

    P, P_agg = gains.P, gains.P_agg
    dev = mean_factor * model.mu_x @ P[0] @ model.mu_x
    dev_var = float(np.trace(P[0] @ model.Sigma_x))
    m_agg = a_mean * model.mu_x
    agg = m_agg @ P_agg[0] @ m_agg + float(np.trace(P_agg[0] @ model.Sigma_x)) / n
    for t in range(d.T - 1):
        B, R = model.B[t], model.R[t]
        B_all = B + model.B_bar[t]
        R_all = R + model.R_bar[t]
        E = model.E[t]
        E_all = E + model.E_bar[t]
        curv = B.T @ P[t + 1] @ B + R
        curv_agg = B_all.T @ P_agg[t + 1] @ B_all + R_all
        gamma = gains.gain[t].T @ curv @ gains.gain[t]
        gamma_agg = gains.gain_agg[t].T @ curv_agg @ gains.gain_agg[t]
        dev_var += float(np.trace(P[t + 1] @ E @ model.Sigma_w[t] @ E.T))
        dev_var += float(np.trace(gamma @ local.Sigma_post[t]))
        agg += float(np.trace(P_agg[t + 1] @ E_all @ model.Sigma_w[t] @ E_all.T)) / n
        agg += float(np.trace(gamma_agg @ glob.Sigma_post[t]))
    return dev + var_factor * dev_var + agg


def test_exact_cost_matches_structural_decomposition():
    """Moment propagation agrees with the closed-form value decomposition."""
    rng = np.random.default_rng(31337)
    for _ in range(12):
        model = random_team(rng)
        j_oracle = exact_cost(model, Optimal())
        j_formula = _structural_optimal_cost(model)
        assert j_oracle == pytest.approx(j_formula, rel=1e-9)


def test_structural_decomposition_reference_values(model_s1, model_s2):
    assert _structural_optimal_cost(model_s1) == pytest.approx(2.75, abs=1e-12)
    assert _structural_optimal_cost(model_s2) == pytest.approx(
        6.041666666666666, abs=1e-12)


def test_brute_force_attains_optimal_cost(model_s1):
    """Unstructured multi-start descent lands on the claimed optimum."""
    result = brute_force_optimize(model_s1, starts=10, seed=5)
    j_opt = exact_cost(model_s1, Optimal())
    assert result.best_cost == pytest.approx(j_opt, abs=1e-6)
    assert result.best_cost >= j_opt - 1e-6
    assert min(result.start_costs) >= result.best_cost - 1e-9


def test_brute_force_attains_optimal_cost_coupled(model_s2):
    result = brute_force_optimize(model_s2, starts=6, seed=11)
    j_opt = exact_cost(model_s2, Optimal())
    assert result.best_cost == pytest.approx(j_opt, abs=1e-6)
    assert result.best_cost >= j_opt - 1e-6


def test_gradient_vanishes_at_optimal_coefficients(model_s2):
    gains = solve_riccati(model_s2)
    p = pack_coefficients(optimal_coefficients(gains, model_s2))
    grad = cost_gradient(model_s2, p)
    j = exact_cost(model_s2, Optimal())
    assert np.abs(grad).max() <= 1e-5 * (1.0 + abs(j))


def test_brute_force_without_action_stages_costs_the_initial_state():
    """With T = 1 there is nothing to search: the result is ZeroAction's
    cost with empty coefficient stacks."""
    model = scalar_pair_model(T=1, mu_x=1.0)
    result = brute_force_optimize(model)
    assert result.best_cost == exact_cost(model, Optimal())
    assert result.start_costs == (result.best_cost,)
    assert pack_coefficients(result.best_rule).shape == (0,)


def _perturbed_optimum(model, rng):
    """Packed optimal coefficients plus 0.05 noise: a point with a gradient."""
    p = pack_coefficients(optimal_coefficients(solve_riccati(model), model))
    return p + 0.05 * rng.normal(size=p.shape)


def test_cost_gradient_matches_central_differences_away_from_the_optimum():
    """The complex-step gradient against central differences taken here,
    on random teams up to n = 1024; step 1e-5 leaves O(1e-10) truncation
    and cancellation error, far inside the tolerances."""
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 64, 1024):
        model = random_team(rng, n=n, T=3, d_max=2)
        p = _perturbed_optimum(model, rng)
        cost = lambda q: exact_cost(model, unpack_coefficients(q, model))
        central = np.array([(cost(p + e) - cost(p - e)) / 2e-5
                            for e in 1e-5 * np.eye(p.size)])
        grad = cost_gradient(model, p)
        assert np.abs(grad).max() > 1e-3
        np.testing.assert_allclose(grad, central, rtol=1e-5,
                                   atol=1e-8 * (1.0 + abs(cost(p))))


def test_exact_cost_of_complex_coefficients_keeps_the_real_cost():
    """Complex input gives a complex cost whose real part is the real cost;
    real input gives a Python float."""
    rng = np.random.default_rng(43)
    for n in (2, 5, 1024):
        model = random_team(rng, n=n)
        p = _perturbed_optimum(model, rng)
        real = exact_cost(model, unpack_coefficients(p, model))
        assert type(real) is float
        probe = p + 1e-30j * rng.normal(size=p.shape)
        cost = exact_cost(model, unpack_coefficients(probe, model))
        assert np.iscomplexobj(cost)
        assert cost.real == pytest.approx(real, rel=1e-12)


def test_pack_unpack_roundtrip(model_s2):
    rng = np.random.default_rng(9)
    stages = model_s2.T - 1
    d = model_s2.dims
    kind = unpack_coefficients(rng.normal(size=2 * stages * d.d_u * (d.d_x + d.d_y)),
                               model_s2)
    np.testing.assert_array_equal(
        pack_coefficients(kind),
        pack_coefficients(unpack_coefficients(pack_coefficients(kind), model_s2)))
