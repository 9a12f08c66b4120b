"""Acceptance gate for the whole package.

Each criterion is one test; the terminal summary prints one pass or fail
line per criterion (see ``pytest_terminal_summary`` in ``conftest.py``).
The heavyweight ingredients (the 100-model verification sweep and the
team-size scaling experiment) run once as module fixtures and are shared
by the criteria that read different aspects of them.
"""

import time

import numpy as np
import pytest

import test_statistics
from teamlqg import normalize_influence, resize_team
from teamlqg.filters import precompute_global
from teamlqg.oracle import (
    brute_force_optimize,
    cost_gradient,
    exact_cost,
    pack_coefficients,
)
from teamlqg.random_models import random_team
from teamlqg.riccati import solve_riccati
from teamlqg.sim import (
    benchmark_convergence_model,
    convergence_experiment,
    run_rollouts,
)
from teamlqg.strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    ZeroAction,
    optimal_coefficients,
)
from teamlqg.verify import run_verification_suite

from conftest import scalar_pair_model

ESTIMATE_TOL = 1e-9
COVARIANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
SEARCH_TOL = 1e-6
ERROR_INVARIANCE_TOL = 1e-10
HALVING_TOL = 1e-12
SIGMA_SLOPE_TOL = 1e-6
GAP_SLOPE_TOL = 0.3
IDENTITY_TOL = 1e-10

_RESIDUALS: list[tuple[str, float]] = []


def _note_residual(label: str, value: float) -> None:
    _RESIDUALS.append((label, float(value)))


@pytest.fixture(scope="module")
def suite():
    """Timed 100-model verification sweep plus the sampled-cost checks."""
    start = time.perf_counter()
    report = run_verification_suite(n_models=100, seed=0, mc_rollouts=100_000)
    elapsed = time.perf_counter() - start
    _note_residual("verification suite", report.max_cost_split_residual)
    return report, elapsed


@pytest.fixture(scope="module")
def scaling():
    return convergence_experiment(benchmark_convergence_model(),
                                  (4, 16, 64, 256), rollouts=10_000, seed=0)


def test_criterion_01_estimates_match_joint_filter(suite):
    """Combined decentralized estimates equal the centralized joint filter."""
    report, elapsed = suite
    print(f"criterion 01: {report.models_checked} models, max estimate "
          f"deviation {report.max_estimate_deviation:.2e}, {elapsed:.1f}s")
    assert report.models_checked == 100
    assert report.max_estimate_deviation <= ESTIMATE_TOL
    assert elapsed < 30.0


def test_criterion_02_covariances_match_joint_filter(suite):
    """Assembled error-covariance blocks equal the joint filter's, both phases."""
    report, _ = suite
    print(f"criterion 02: max covariance deviation "
          f"{report.max_covariance_deviation:.2e}")
    assert report.max_covariance_deviation <= COVARIANCE_TOL


def test_criterion_03_search_attains_computed_optimum(model_s1, model_s2):
    """Unstructured descent lands on the value the recursions predict.

    Also checks that the exact (complex-step) gradient vanishes at the
    closed-form coefficients, on both reference models.
    """
    for label, model, starts, seed in (("uncoupled", model_s1, 10, 5),
                                       ("coupled", model_s2, 6, 11)):
        target = exact_cost(model, Optimal())
        found = brute_force_optimize(model, starts=starts, seed=seed)
        print(f"criterion 03 [{label}]: search {found.best_cost!r} "
              f"vs exact {target!r}")
        assert abs(found.best_cost - target) <= SEARCH_TOL
        assert found.best_cost >= target - SEARCH_TOL

        packed = pack_coefficients(optimal_coefficients(solve_riccati(model),
                                                        model))
        grad = cost_gradient(model, packed)
        bound = 1e-5 * (1.0 + abs(target))
        print(f"criterion 03 [{label}]: gradient norm "
              f"{np.abs(grad).max():.2e} (bound {bound:.2e})")
        assert np.abs(grad).max() <= bound


def test_criterion_04_estimation_errors_ignore_strategy():
    """Estimation-error paths coincide across strategies under shared noise."""
    rng = np.random.default_rng(np.random.SeedSequence((2026, 4)))
    model = random_team(rng, n=3, T=6)
    d = model.dims
    stages = d.T - 1
    silent = CustomLinear(theta=np.zeros((stages, d.d_u, d.d_x)),
                          phi=np.zeros((stages, d.d_u, d.d_x)),
                          psi=np.zeros((stages, d.d_u, d.d_y)),
                          omega=np.zeros((stages, d.d_u, d.d_y)))
    noisy = CustomLinear(theta=0.4 * rng.normal(size=(stages, d.d_u, d.d_x)),
                         phi=0.4 * rng.normal(size=(stages, d.d_u, d.d_x)),
                         psi=0.4 * rng.normal(size=(stages, d.d_u, d.d_y)),
                         omega=0.4 * rng.normal(size=(stages, d.d_u, d.d_y)))
    errors = {}
    for label, kind in (("optimal", Optimal()), ("silent", silent),
                        ("random", noisy)):
        batch = run_rollouts(model, kind, seed=77, n_rollouts=100,
                             keep_traces=100)
        _note_residual(f"strategy invariance, {label} rule",
                       batch.residual_max)
        errors[label] = np.stack([trace.est_err for trace in batch.traces])
    deviation = max(
        float(np.abs(errors["optimal"] - errors["silent"]).max()),
        float(np.abs(errors["optimal"] - errors["random"]).max()))
    print(f"criterion 04: max cross-strategy error deviation {deviation:.2e} "
          f"over 100 rollouts")
    assert deviation <= ERROR_INVARIANCE_TOL


def test_criterion_05_aggregate_covariance_halves_with_team_size(scaling):
    """Doubling the team halves the aggregate-filter covariance exactly."""
    bench = benchmark_convergence_model()
    posts = {n: precompute_global(resize_team(bench, n)).Sigma_post
             for n in (4, 8, 16, 32, 64)}
    halving = max(
        float(np.abs(2.0 * posts[2 * n] - posts[n]).max())
        / float(np.abs(posts[n]).max())
        for n in (4, 8, 16, 32))
    print(f"criterion 05: worst halving deviation {halving:.2e}, "
          f"log-log slope {scaling.slope_sigma:.9f}")
    assert halving <= HALVING_TOL
    assert abs(scaling.slope_sigma + 1.0) <= SIGMA_SLOPE_TOL


def test_criterion_06_meanfield_gap_shrinks_linearly(scaling):
    """Paired mean-field excess cost decays like one over the team size."""
    for n in (4, 256):
        sized = resize_team(benchmark_convergence_model(), n)
        for label, kind in (("optimal", Optimal()), ("meanfield", MeanField())):
            batch = run_rollouts(sized, kind, seed=6, n_rollouts=2_000)
            _note_residual(f"scaling n={n}, {label}", batch.residual_max)
    ratios = [row.cost_gap / row.gap_se for row in scaling.rows]
    print(f"criterion 06: gap slope {scaling.slope_gap:.4f}, "
          f"gap-to-stderr ratios {[f'{r:.1f}' for r in ratios]}")
    assert abs(scaling.slope_gap + 1.0) <= GAP_SLOPE_TOL
    for row, ratio in zip(scaling.rows, ratios):
        assert row.cost_gap > 0.0
        assert ratio >= 3.0


def test_criterion_07_cost_split_residuals_stay_tiny(suite):
    """Stage costs computed two ways agree on every simulated trajectory."""
    for label, model in (("uncoupled pair", scalar_pair_model()),
                         ("coupled pair",
                          scalar_pair_model(A_bar=1.0, Q_bar=1.0))):
        for kind_label, kind in (("zero", ZeroAction()),
                                 ("optimal", Optimal()),
                                 ("meanfield", MeanField())):
            batch = run_rollouts(model, kind, seed=3, n_rollouts=200)
            _note_residual(f"{label}, {kind_label}", batch.residual_max)
    worst_label, worst = max(_RESIDUALS, key=lambda item: item[1])
    print(f"criterion 07: worst relative residual {worst:.2e} "
          f"({worst_label}; {len(_RESIDUALS)} runs checked)")
    assert worst <= RESIDUAL_TOL


def test_criterion_08_sampled_moments_match_formulas():
    """Closed-loop moment identities hold within five standard errors."""
    groups = (
        test_statistics.test_primitive_moment_identities,
        test_statistics.test_innovation_orthogonality,
        test_statistics.test_innovation_covariance_decomposition,
        test_statistics.test_innovation_cross_covariances,
        test_statistics.test_prediction_error_covariances,
    )
    failures = []
    for group in groups:
        try:
            group()
        except AssertionError as exc:
            failures.append(f"{group.__name__}: {exc}")
    print(f"criterion 08: {len(groups)} identity groups at "
          f"{test_statistics.N_SAMPLES} samples, {len(failures)} failures")
    assert not failures, "\n".join(failures)


def test_criterion_09_leave_one_out_inverse_identity():
    """Removing one agent leaves an influence matrix with a closed-form inverse."""
    rng = np.random.default_rng(np.random.SeedSequence((2026, 9)))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.2, 2.0, size=n) * rng.choice((-1.0, 1.0), size=n)
        alpha = normalize_influence(raw)
        eye = np.eye(n - 1)
        for i in range(n):
            others = np.delete(alpha, i)
            outer = np.outer(others, others)
            product = (eye - outer / n) @ (eye + outer / alpha[i] ** 2)
            worst = max(worst, float(np.abs(product - eye).max()))
    print(f"criterion 09: worst identity deviation {worst:.2e} "
          f"over 1000 influence vectors")
    assert worst <= IDENTITY_TOL


def test_criterion_10_sampled_costs_match_exact_values(suite):
    """Monte Carlo means agree with exact costs within five standard errors."""
    report, _ = suite
    z_scores = [abs(check.sampled - check.exact) / check.stderr
                for check in report.mc_checks]
    print("criterion 10: " + ", ".join(
        f"{check.label} z={z:.2f}"
        for check, z in zip(report.mc_checks, z_scores)))
    assert len(report.mc_checks) == 4
    for check, z in zip(report.mc_checks, z_scores):
        assert check.ok
        assert z <= 5.0
