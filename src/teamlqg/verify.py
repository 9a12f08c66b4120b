"""Randomized cross-validation of the decentralized machinery.

The suite draws a batch of random valid models, runs a closed loop under an
arbitrary linear strategy, and holds the scale-free filters against the
centralized Kalman filter on the stacked system: agent estimates must agree
to fine relative tolerance, the joint error covariance must equal its
two-block assembly, and the stage-cost split must close.  A Monte Carlo
section then checks sampled costs against the exact oracle on the two
built-in scalar reference models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import precompute_global, precompute_local, team_error_covariance
from .model import TeamModel, make_model
from .oracle import build_joint_model, centralized_filter, exact_cost
from .random_models import random_team
from .sim import evaluate_cost, run_rollouts
from .strategy import CustomLinear, Optimal, StrategyKind, ZeroAction

ESTIMATE_TOL = 1e-9
COVARIANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
MC_SIGMA = 5.0


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
        return {
            "models_checked": self.models_checked,
            "max_estimate_deviation": self.max_estimate_deviation,
            "max_covariance_deviation": self.max_covariance_deviation,
            "max_cost_split_residual": self.max_cost_split_residual,
            "tolerances": {
                "estimate": ESTIMATE_TOL,
                "covariance": COVARIANCE_TOL,
                "cost_split_residual": RESIDUAL_TOL,
                "mc_standard_errors": MC_SIGMA,
            },
            "mc_checks": [
                {
                    "label": c.label,
                    "sampled": c.sampled,
                    "exact": c.exact,
                    "stderr": c.stderr,
                    "ok": c.ok,
                }
                for c in self.mc_checks
            ],
            "ok": self.ok,
        }


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
    d = model.dims
    stages = max(d.T - 1, 0)
    scale = 0.4
    return CustomLinear(
        theta=scale * rng.normal(size=(stages, d.d_u, d.d_x)),
        phi=scale * rng.normal(size=(stages, d.d_u, d.d_x)),
        psi=scale * rng.normal(size=(stages, d.d_u, d.d_y)),
        omega=scale * rng.normal(size=(stages, d.d_u, d.d_y)),
    )


def check_one_model(model: TeamModel, kind: StrategyKind,
                    seed: int) -> tuple[float, float, float]:
    """Max deviations (estimates, covariances, cost split) for one model.

    The simulator's recorded estimates are held against the centralized
    filter run on the same observations and actions.
    """
    batch = run_rollouts(model, kind, seed=seed, n_rollouts=4, keep_traces=1)
    trace = batch.traces[0]
    d = model.dims
    run = centralized_filter(build_joint_model(model), trace.y, trace.u)
    joint_means = run.mean_post.reshape(d.T, d.n, d.d_x)
    scale = max(1.0, float(np.abs(joint_means).max()))
    est_dev = float(np.abs(trace.combined_xhat - joint_means).max()) / scale

    local = precompute_local(model)
    glob = precompute_global(model)
    cov_dev = 0.0
    for t in range(d.T):
        for phase, sig in (("predicted", run.Sigma_pred[t]),
                           ("updated", run.Sigma_post[t])):
            assembled = team_error_covariance(local, glob, model.alpha, t, phase)
            denom = max(1.0, float(np.abs(sig).max()))
            cov_dev = max(cov_dev, float(np.abs(assembled - sig).max()) / denom)
    return est_dev, cov_dev, batch.residual_max


def run_verification_suite(n_models: int = 100, seed: int = 0,
                           mc_rollouts: int = 100_000,
                           workers: int = 1) -> VerificationReport:
    """Draw random models, compare against the joint oracle, sample costs."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    est_dev = cov_dev = resid = 0.0
    for index in range(n_models):
        model = random_team(rng)
        kind = _random_rule(model, rng)
        e, c, r = check_one_model(model, kind, seed=seed + index)
        est_dev, cov_dev, resid = max(est_dev, e), max(cov_dev, c), max(resid, r)

    checks = []
    uncoupled, coupled = reference_models()
    for label, model in (("uncoupled-pair", uncoupled), ("coupled-pair", coupled)):
        for kind_label, kind in (("zero", ZeroAction()), ("optimal", Optimal())):
            est = evaluate_cost(model, kind, seed=seed, n_rollouts=mc_rollouts,
                                workers=workers)
            target = exact_cost(model, kind)
            slack = MC_SIGMA * est.stderr
            checks.append(McCheck(
                label=f"{label}/{kind_label}",
                sampled=est.mean,
                exact=target,
                stderr=est.stderr,
                ok=bool(abs(est.mean - target) <= slack),
            ))
            resid = max(resid, est.residual_max)

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
