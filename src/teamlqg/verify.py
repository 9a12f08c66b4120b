"""Randomized cross-validation of the decentralized machinery.

The suite draws a batch of random valid models, runs a closed loop under an
arbitrary linear strategy, and holds the scale-free filters against the
centralized Kalman filter on the oracle's reduced team (span{1, alpha} plus
one complement agent, at any n): agent estimates must agree to fine
relative tolerance, the joint error covariance in the reduced coordinates
must equal its two-block assembly, and the stage-cost split must close.  A
Monte Carlo section then checks sampled costs against the exact oracle on
the two built-in scalar reference models.

With more than one worker, each model is checked in the simulator's process
pool as soon as it is drawn, ``CHECK_BATCH`` models to a message, and the
Monte Carlo section's chunks are queued behind the checks before the suite
waits for any result.  Models are drawn in the same order either way, and
the reported maxima are exact, so they do not depend on the worker count.
A NaN deviation anywhere makes its maximum NaN and the report not ok.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from .filters import team_error_covariance
from .model import TeamModel, make_model
from .oracle import _Team, centralized_estimates, exact_cost
from .random_models import random_team
from .sim import _gather_prepared, _mean_se, _pool_map, _prepare, _submit_prepared
from .strategy import (CustomLinear, Optimal, StrategyKind, ZeroAction,
                       _coefficient_shapes)

ESTIMATE_TOL = 1e-9
COVARIANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
MC_SIGMA = 5.0
CHECK_BATCH = 4     # model checks per message to a pool worker


@dataclass(frozen=True)
class McCheck:
    """One sampled-versus-exact cost comparison."""

    label: str
    sampled: float
    exact: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    models_checked: int
    max_estimate_deviation: float
    max_covariance_deviation: float
    max_cost_split_residual: float
    mc_checks: tuple[McCheck, ...]
    ok: bool

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["mc_checks"] = list(doc["mc_checks"])
        doc["tolerances"] = {
            "estimate": ESTIMATE_TOL,
            "covariance": COVARIANCE_TOL,
            "cost_split_residual": RESIDUAL_TOL,
            "mc_standard_errors": MC_SIGMA,
        }
        return doc


def reference_models() -> tuple[TeamModel, TeamModel]:
    """The two built-in scalar pair models: uncoupled, and globally coupled."""
    common = dict(
        T=2, n=2,
        A=1.0, B=1.0, E=1.0, C=1.0, S=1.0, Q=1.0, R=1.0,
        mu_x=0.0, Sigma_x=1.0, Sigma_w=1.0, Sigma_v=1.0,
    )
    return (make_model(**common),
            make_model(A_bar=1.0, Q_bar=1.0, **common))


def _random_rule(model: TeamModel, rng: np.random.Generator) -> CustomLinear:
    return CustomLinear(**{key: 0.4 * rng.normal(size=shape) for key, shape
                           in _coefficient_shapes(model.dims).items()})


def check_one_model(model: TeamModel, kind: StrategyKind,
                    seed: int) -> tuple[float, float, float]:
    """Max deviations (estimates, covariances, cost split) for one model.

    The simulator's recorded estimates are held against the centralized
    filter run on the same observations and actions, and the two-block error
    covariance against the filter's, both phases, in the reduced team's
    coordinates.  ``kind`` must filter the aggregate (``Optimal`` or
    ``CustomLinear``): the schedules it is prepared with, solved once, serve
    both the rollouts and the covariance check.
    """
    prep = _prepare(model, kind)
    batch = _gather_prepared(_submit_prepared(model, [prep], seed, 4, 1,
                                              keep_traces=1))[0]
    trace = batch.traces[0]
    estimates, run = centralized_estimates(model, trace.y, trace.u)
    scale = max(1.0, float(np.abs(estimates).max()))
    est_dev = float(np.abs(trace.combined_xhat - estimates).max()) / scale

    alpha = _Team.reduced(model).alpha
    cov_dev = 0.0
    for phase, sig in (("predicted", run.Sigma_pred),
                       ("updated", run.Sigma_post)):
        assembled = team_error_covariance(prep.local, prep.glob, alpha,
                                          model.n, slice(None), phase)
        denom = np.maximum(1.0, np.abs(sig).max(axis=(1, 2)))
        worst = np.abs(assembled - sig).max(axis=(1, 2)) / denom
        cov_dev = float(np.maximum(cov_dev, worst.max()))
    return est_dev, cov_dev, batch.residual_max


def _drawn(rng: np.random.Generator, n_models: int, seed: int):
    """Each random model with its random rule and check seed, in draw order."""
    for index in range(n_models):
        model = random_team(rng)
        yield model, _random_rule(model, rng), seed + index


def _check_job(job) -> tuple[float, float, float]:
    model, kind, seed = job
    return check_one_model(model, kind, seed=seed)


def run_verification_suite(n_models: int = 100, seed: int = 0,
                           mc_rollouts: int = 100_000,
                           workers: int = 1) -> VerificationReport:
    """Draw random models, check them against the oracle, sample costs."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    uncoupled, coupled = reference_models()
    kinds = (("zero", ZeroAction()), ("optimal", Optimal()))
    # everything is queued before the first wait; an error cancels the rest
    with contextlib.ExitStack() as queued:
        checked = queued.enter_context(contextlib.closing(_pool_map(
            _check_job, _drawn(rng, n_models, seed), workers, CHECK_BATCH)))
        sampled = [
            (label, model, queued.enter_context(contextlib.closing(
                _submit_prepared(model, [_prepare(model, kind)
                                         for _, kind in kinds],
                                 seed, mc_rollouts, workers))))
            for label, model in (("uncoupled-pair", uncoupled),
                                 ("coupled-pair", coupled))]

        # np.maximum, unlike max(), carries a NaN deviation into the report
        worst = np.zeros(3)
        for devs in checked:
            worst = np.maximum(worst, devs)
        est_dev, cov_dev, resid = map(float, worst)

        checks = []
        for label, model, parts in sampled:
            for (kind_label, kind), batch in zip(kinds,
                                                 _gather_prepared(parts)):
                mean, stderr = _mean_se(batch.costs)
                target = exact_cost(model, kind)
                checks.append(McCheck(
                    label=f"{label}/{kind_label}",
                    sampled=mean,
                    exact=target,
                    stderr=stderr,
                    ok=bool(abs(mean - target) <= MC_SIGMA * stderr),
                ))
                resid = float(np.maximum(resid, batch.residual_max))

    ok = (est_dev <= ESTIMATE_TOL and cov_dev <= COVARIANCE_TOL
          and resid <= RESIDUAL_TOL and all(c.ok for c in checks))
    return VerificationReport(
        models_checked=n_models,
        max_estimate_deviation=est_dev,
        max_covariance_deviation=cov_dev,
        max_cost_split_residual=resid,
        mc_checks=tuple(checks),
        ok=ok,
    )
