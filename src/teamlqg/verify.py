"""Randomized cross-validation of the decentralized machinery.

The suite draws a batch of random valid models, runs a closed loop under an
arbitrary linear strategy, and holds the scale-free filters against the
centralized Kalman filter on the oracle's reduced team (span{1, alpha} plus
one complement agent, at any n): agent estimates must agree to fine
relative tolerance, the joint error covariance in the reduced coordinates
must equal its two-block assembly, and the stage-cost split must close.  A
Monte Carlo section then checks sampled costs against the exact oracle on
the two built-in scalar reference models.

Random model ``i`` under seed ``s`` and its rule come from their own
generator, keyed by ``(s, 0xC0FFEE, i)`` (``suite_model``), so a model is the
same whatever the model count and can be redrawn alone.  The models are
checked in index ranges of ``CHECK_BATCH``: each range is one message to the
simulator's process pool, and the worker that checks a range draws its
models, so the coordinating process draws and holds none.  The Monte Carlo
section's chunks are queued behind the ranges before the suite waits for
any result.  One worker runs the same ranges inline.  Each range returns
its models' deviation rows in index order; each Monte Carlo run adds a row
(0, 0, its cost-split residual) after them.  One argmax over the rows sets
each maximum and names its model: the first NaN, else the lowest index on
ties, so a model beats a Monte Carlo run and a NaN anywhere fails the
report.  The maxima are exact, so they do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from .filters import team_error_covariance
from .model import TeamModel, make_model
from .oracle import _Team, centralized_estimates, exact_cost
from .random_models import random_team
from .sim import (_chunk_job, _gather_prepared, _mean_se, _merge, _pool_map,
                  _prepare, _submit_prepared)
from .strategy import (CustomLinear, Optimal, StrategyKind, ZeroAction,
                       _coefficient_shapes)

ESTIMATE_TOL = 1e-9
COVARIANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
MC_SIGMA = 5.0
CHECK_BATCH = 8     # model checks per message to a pool worker


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
    # the index of the random model that set each maximum; None when no
    # model did (no models, or a Monte Carlo residual above them all)
    max_estimate_deviation_model: int | None
    max_covariance_deviation_model: int | None
    max_cost_split_residual_model: int | None
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
    batch = _merge(_chunk_job((model, [prep], seed, 0, 4, 1)))
    trace = batch.traces[0]
    estimates, run = centralized_estimates(model, trace.y, trace.u)
    scale = max(1.0, float(np.abs(estimates).max()))
    est_dev = float(np.abs(trace.combined_xhat - estimates).max()) / scale

    alpha = _Team.reduced(model).alpha
    cov_dev = 0.0
    for sigma, sigma_agg, sig in (
            (prep.local.Sigma_pred, prep.glob.Sigma_pred, run.Sigma_pred),
            (prep.local.Sigma_post, prep.glob.Sigma_post, run.Sigma_post)):
        assembled = team_error_covariance(sigma, sigma_agg, alpha, model.n)
        denom = np.maximum(1.0, np.abs(sig).max(axis=(1, 2)))
        worst = np.abs(assembled - sig).max(axis=(1, 2)) / denom
        cov_dev = float(np.maximum(cov_dev, worst.max()))
    return est_dev, cov_dev, batch.residual_max


def suite_model(seed: int, index: int) -> tuple[TeamModel, CustomLinear]:
    """Random model ``index`` of the suite under ``seed``, with its random
    rule; the suite checks it with ``check_one_model(model, rule, seed +
    index)``."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, 0xC0FFEE, index)))
    model = random_team(rng)
    return model, _random_rule(model, rng)


def _check_job(job) -> tuple[float, float, float]:
    model, kind, seed = job
    return check_one_model(model, kind, seed=seed)


def _check_range(job) -> list[tuple[float, float, float]]:
    """Draw and check models ``lo`` to ``hi - 1``: their deviation rows, in
    index order."""
    check, seed, lo, hi = job
    return [check((*suite_model(seed, index), seed + index))
            for index in range(lo, hi)]


def run_verification_suite(n_models: int = 100, seed: int = 0,
                           mc_rollouts: int = 100_000,
                           workers: int = 1) -> VerificationReport:
    """Draw random models, check them against the oracle, sample costs.

    Model ``i`` is ``suite_model(seed, i)``, checked on rollouts seeded
    ``seed + i``.  The per-model check ``_check_job`` is looked up at each
    call and sent with every range, so a replacement of it runs in the
    workers as well as inline.
    """
    uncoupled, coupled = reference_models()
    kinds = (("zero", ZeroAction()), ("optimal", Optimal()))
    ranges = [(_check_job, seed, lo, min(lo + CHECK_BATCH, n_models))
              for lo in range(0, n_models, CHECK_BATCH)]
    # everything is queued before the first wait; an error cancels the rest
    with contextlib.ExitStack() as queued:
        checked = queued.enter_context(contextlib.closing(_pool_map(
            _check_range, ranges, workers)))
        sampled = [
            (label, model, queued.enter_context(contextlib.closing(
                _submit_prepared(model, [_prepare(model, kind)
                                         for _, kind in kinds],
                                 seed, mc_rollouts, workers))))
            for label, model in (("uncoupled-pair", uncoupled),
                                 ("coupled-pair", coupled))]

        rows = [row for part in checked for row in part]
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
                rows.append((0.0, 0.0, batch.residual_max))

    # a row from n_models on is a Monte Carlo run's and names no model
    rows = np.array(rows)
    first = rows.argmax(axis=0)
    est_dev, cov_dev, resid = map(float, rows[first, range(3)])
    est_at, cov_at, resid_at = (int(i) if i < n_models else None
                                for i in first)

    ok = (est_dev <= ESTIMATE_TOL and cov_dev <= COVARIANCE_TOL
          and resid <= RESIDUAL_TOL and all(c.ok for c in checks))
    return VerificationReport(
        models_checked=n_models,
        max_estimate_deviation=est_dev,
        max_covariance_deviation=cov_dev,
        max_cost_split_residual=resid,
        max_estimate_deviation_model=est_at,
        max_covariance_deviation_model=cov_at,
        max_cost_split_residual_model=resid_at,
        mc_checks=tuple(checks),
        ok=ok,
    )
