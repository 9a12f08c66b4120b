"""Seeded Monte Carlo simulation of closed-loop team trajectories.

Rollout ``i`` of a run with master seed ``s`` always consumes the same noise,
drawn from a generator keyed by ``(s, i)`` in a fixed order: initial states,
then process noise stage by stage, then observation noise stage by stage.
Costs are therefore reproducible bit for bit, independent of batch size,
worker count, or how many rollouts surround a given index.  Two strategies
evaluated under the same master seed see identical noise, which makes paired
cost comparisons sharp.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteCostError
from .filters import (
    precompute_global,
    predict_estimates,
    prior_estimates,
    update_estimates,
)
from .model import TeamModel
from .strategy import MeanField, Optimal, Prepared, StrategyKind

DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Trace:
    """Everything recorded along one rollout.

    Estimator fields are None for the zero strategy, which carries no
    estimator.  Under the mean-field strategy ``agg_xhat`` holds the
    precomputed population plan rather than a filtered quantity.
    """

    x: np.ndarray               # (T, n, d_x)
    u: np.ndarray               # (T - 1, n, d_u)
    y: np.ndarray               # (T, n, d_y)
    x_bar: np.ndarray           # (T, d_x)
    u_bar: np.ndarray           # (T - 1, d_u)
    y_bar: np.ndarray           # (T, d_y)
    stage_cost: np.ndarray      # (T,)
    delta_xhat: Optional[np.ndarray]   # (T, n, d_x)
    agg_xhat: Optional[np.ndarray]     # (T, d_x)
    combined_xhat: Optional[np.ndarray]  # (T, n, d_x)
    est_err: Optional[np.ndarray]      # (T, n, d_x)


@dataclass(frozen=True)
class RolloutBatch:
    """Per-rollout outcomes of a run, ordered by rollout index."""

    costs: np.ndarray            # (B,)
    stage_costs: np.ndarray      # (B, T)
    ms_correction: np.ndarray    # (B,) summed squared aggregate-filter updates
    residual_max: float          # worst relative cost-split residual, NaN-aware
    traces: tuple[Trace, ...]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float
    n_rollouts: int
    residual_max: float
    degenerate: bool             # all rollouts identical (no sampling spread)


def _prepare(model: TeamModel, kind: StrategyKind) -> Prepared:
    """Solve what a strategy acts with; a run calls this once per strategy."""
    return kind.prepare(model)


def _cov_factor(sigma: np.ndarray) -> np.ndarray:
    """A square root F with F F^T = sigma, tolerating singular input."""
    sigma = np.asarray(sigma, dtype=float)
    if not sigma.any():
        return np.zeros_like(sigma)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        lam, vec = np.linalg.eigh(sigma)
        return vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None)))


def _noise_bank(model: TeamModel, seed: int, start: int, stop: int) -> dict:
    """Draw the noise for rollouts [start, stop) in the canonical order."""
    d = model.dims
    B = stop - start
    fac_x = _cov_factor(model.Sigma_x)
    fac_w = [_cov_factor(model.Sigma_w[t]) for t in range(d.T - 1)]
    fac_v = [_cov_factor(model.Sigma_v[t]) for t in range(d.T)]
    x1 = np.empty((B, d.n, d.d_x))
    w = np.empty((d.T - 1, B, d.n, d.d_w))
    v = np.empty((d.T, B, d.n, d.d_v))
    for b in range(B):
        gen = np.random.default_rng(np.random.SeedSequence((seed, start + b)))
        x1[b] = model.mu_x + gen.standard_normal((d.n, d.d_x)) @ fac_x.T
        for t in range(d.T - 1):
            w[t, b] = gen.standard_normal((d.n, d.d_w)) @ fac_w[t].T
        for t in range(d.T):
            v[t, b] = gen.standard_normal((d.n, d.d_v)) @ fac_v[t].T
    return {"x1": x1, "w": w, "v": v}


def _quad_each(vals: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Mean over agents of v^T M v, batched: (B, n, d) -> (B,)."""
    return np.einsum("bnd,de,bne->b", vals, M, vals) / vals.shape[1]


def _quad(vec: np.ndarray, M: np.ndarray) -> np.ndarray:
    return np.einsum("bd,de,be->b", vec, M, vec)


@np.errstate(over="ignore", invalid="ignore")
def _run_batch(model: TeamModel, prep: Prepared, bank: dict,
               keep_traces: int = 0) -> RolloutBatch:
    """Advance a batch of rollouts through the closed loop, vectorized.

    Each stage runs update, action, cost and predict.  The team cost is
    computed twice, directly and through the aggregate/deviation split, and
    the worst relative disagreement is reported as ``residual_max``; a NaN
    anywhere makes it NaN.  A diverging rollout overflows quietly: its
    non-finite cost is what ``_merge`` reports.
    """
    d = model.dims
    n, T = d.n, d.T
    alpha = model.alpha
    a3 = alpha[None, :, None]
    coeffs, plan = prep.coeffs, prep.plan
    B = bank["x1"].shape[0]
    keep = min(keep_traces, B)

    x = bank["x1"].copy()
    if coeffs is not None:
        delta, agg = prior_estimates(model, B)

    stage_costs = np.zeros((B, T))
    ms_correction = np.zeros(B)
    residual_max = 0.0
    hist: dict[str, list] = {key: [] for key in
                             ("x", "u", "y", "delta", "agg", "cost")}

    for t in range(T):
        C, C_bar = model.C[t], model.C_bar[t]
        S, S_bar = model.S[t], model.S_bar[t]
        x_bar = alpha @ x / n
        v = bank["v"][t]
        v_bar = alpha @ v / n
        y = x @ C.T + v @ S.T + a3 * (x_bar @ C_bar.T + v_bar @ S_bar.T)[:, None, :]

        if coeffs is not None:
            if plan is not None:
                agg = plan.mean[t]
            delta, agg, correction = update_estimates(
                model, prep.local, prep.glob, t, delta, agg, y)
            if correction is not None:
                ms_correction += np.einsum("bd,bd->b", correction, correction)

        last = t == T - 1
        if not last:
            u = (np.zeros((B, n, d.d_u)) if coeffs is None
                 else coeffs.act(t, delta, agg, y, alpha))
            u_bar = alpha @ u / n

        # stage cost two ways
        Q, Q_bar = model.Q[t], model.Q_bar[t]
        direct = _quad_each(x, Q) + _quad(x_bar, Q_bar)
        split = _quad(x_bar, Q + Q_bar) \
            + _quad_each(x - a3 * x_bar[:, None, :], Q)
        if not last:
            R, R_bar = model.R[t], model.R_bar[t]
            direct += _quad_each(u, R) + _quad(u_bar, R_bar)
            split += _quad(u_bar, R + R_bar) \
                + _quad_each(u - a3 * u_bar[:, None, :], R)
        residual_max = float(np.maximum(residual_max, (
            np.abs(direct - split) / np.maximum(1.0, np.abs(direct))).max()))
        stage_costs[:, t] = direct

        if keep:
            hist["x"].append(x[:keep].copy())
            hist["y"].append(y[:keep].copy())
            if coeffs is not None:
                hist["delta"].append(delta[:keep].copy())
                hist["agg"].append(
                    np.broadcast_to(agg, (B, d.d_x))[:keep].copy())
            if not last:
                hist["u"].append(u[:keep].copy())

        if not last:
            A, A_bar = model.A[t], model.A_bar[t]
            B_mat, B_bar = model.B[t], model.B_bar[t]
            E, E_bar = model.E[t], model.E_bar[t]
            w = bank["w"][t]
            w_bar = alpha @ w / n
            shared_drift = x_bar @ A_bar.T + u_bar @ B_bar.T + w_bar @ E_bar.T
            x = x @ A.T + u @ B_mat.T + w @ E.T + a3 * shared_drift[:, None, :]
            if coeffs is not None:
                delta, agg = predict_estimates(
                    model, t, delta, agg, u,
                    u_bar if plan is None else plan.u_bar[t])

    traces = tuple(_assemble_trace(model, hist, stage_costs, b,
                                   coeffs is not None)
                   for b in range(keep))
    return RolloutBatch(
        costs=stage_costs.sum(axis=1),
        stage_costs=stage_costs,
        ms_correction=ms_correction,
        residual_max=residual_max,
        traces=traces,
    )


def _assemble_trace(model: TeamModel, hist: dict, stage_costs: np.ndarray,
                    b: int, has_filter: bool) -> Trace:
    alpha = model.alpha
    n = model.n
    x = np.stack([s[b] for s in hist["x"]])
    y = np.stack([s[b] for s in hist["y"]])
    u = (np.stack([s[b] for s in hist["u"]]) if hist["u"]
         else np.zeros((0, n, model.dims.d_u)))
    delta = agg = combined = err = None
    if has_filter:
        delta = np.stack([s[b] for s in hist["delta"]])
        agg = np.stack([s[b] for s in hist["agg"]])
        combined = delta + alpha[None, :, None] * agg[:, None, :]
        err = x - combined
    return Trace(
        x=x, u=u, y=y,
        x_bar=np.einsum("i,tid->td", alpha, x) / n,
        u_bar=np.einsum("i,tid->td", alpha, u) / n,
        y_bar=np.einsum("i,tid->td", alpha, y) / n,
        stage_cost=stage_costs[b],
        delta_xhat=delta, agg_xhat=agg, combined_xhat=combined, est_err=err,
    )


def _chunk_job(args) -> list[RolloutBatch]:
    """Rollouts [start, stop) of every prepared strategy on one noise bank."""
    model, preps, seed, start, stop, keep = args
    bank = _noise_bank(model, seed, start, stop)
    return [_run_batch(model, prep, bank, keep_traces=keep) for prep in preps]


def _merge(batches: list[RolloutBatch]) -> RolloutBatch:
    costs = np.concatenate([b.costs for b in batches])
    bad = int(np.count_nonzero(~np.isfinite(costs)))
    if bad:
        raise NonFiniteCostError(
            f"{bad} of {costs.size} rollouts have a non-finite cost")
    return RolloutBatch(
        costs=costs,
        stage_costs=np.concatenate([b.stage_costs for b in batches]),
        ms_correction=np.concatenate([b.ms_correction for b in batches]),
        residual_max=float(np.max([b.residual_max for b in batches])),
        traces=tuple(t for b in batches for t in b.traces),
    )


def _chunked(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _run_strategies(model: TeamModel, kinds: tuple[StrategyKind, ...],
                    seed: int, n_rollouts: int, chunk: int, workers: int,
                    keep_traces: int = 0) -> list[RolloutBatch]:
    """Run every strategy on the same rollouts, one batch per strategy.

    Each strategy is prepared once; each chunk draws its noise once and
    steps every strategy through it.
    """
    if n_rollouts <= 0:
        raise ValueError("n_rollouts must be positive")
    preps = [_prepare(model, kind) for kind in kinds]
    jobs = [(model, preps, seed, lo, hi, max(0, min(keep_traces - lo, hi - lo)))
            for lo, hi in _chunked(n_rollouts, chunk)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk_job, jobs))
    else:
        parts = [_chunk_job(job) for job in jobs]
    return [_merge([part[i] for part in parts]) for i in range(len(kinds))]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def run_rollouts(model: TeamModel, kind: StrategyKind, seed: int = 0,
                 n_rollouts: int = 1000, chunk: int = DEFAULT_CHUNK,
                 workers: int = 1, keep_traces: int = 0) -> RolloutBatch:
    """Simulate ``n_rollouts`` independent rollouts under one strategy.

    Traces are kept for the first ``keep_traces`` rollout indices only; cost
    and correction arrays always cover every rollout.
    """
    return _run_strategies(model, (kind,), seed, n_rollouts, chunk, workers,
                           keep_traces)[0]


def rollout(model: TeamModel, kind: StrategyKind, seed: int = 0,
            index: int = 0) -> Trace:
    """One fully recorded rollout at the given index of the seed's stream."""
    prep = _prepare(model, kind)
    bank = _noise_bank(model, seed, index, index + 1)
    return _merge([_run_batch(model, prep, bank, keep_traces=1)]).traces[0]


def evaluate_cost(model: TeamModel, kind: StrategyKind, seed: int = 0,
                  n_rollouts: int = 1000, chunk: int = DEFAULT_CHUNK,
                  workers: int = 1) -> CostEstimate:
    """Monte Carlo estimate of the expected team cost with its standard error."""
    batch = run_rollouts(model, kind, seed=seed, n_rollouts=n_rollouts,
                         chunk=chunk, workers=workers)
    costs = batch.costs
    spread = float(costs.std(ddof=1)) if costs.size > 1 else 0.0
    return CostEstimate(
        mean=float(costs.mean()),
        stderr=float(spread / np.sqrt(costs.size)) if costs.size > 1 else 0.0,
        n_rollouts=costs.size,
        residual_max=batch.residual_max,
        degenerate=spread == 0.0,
    )


def paired_cost_gap(model: TeamModel, kind_a: StrategyKind, kind_b: StrategyKind,
                    seed: int = 0, n_rollouts: int = 1000,
                    chunk: int = DEFAULT_CHUNK,
                    workers: int = 1) -> tuple[float, float]:
    """Mean and standard error of cost(a) - cost(b) under common noise.

    Both strategies run on the identical noise bank rollout by rollout, so
    the difference has far less variance than two independent estimates.
    """
    a, b = _run_strategies(model, (kind_a, kind_b), seed, n_rollouts, chunk,
                           workers)
    return _mean_se(a.costs - b.costs)


@dataclass(frozen=True)
class ConvergenceRow:
    """Scaling measurements at one population size."""

    n: int
    max_sigma_bar: float         # largest posterior aggregate-covariance entry
    ms_correction: float         # mean summed squared aggregate-filter update
    cost_gap: float              # paired Monte Carlo mean-field excess cost
    gap_se: float
    exact_gap: float             # oracle value, nan where n * d_x > oracle_cap


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]
    slope_sigma: float
    slope_correction: float
    slope_gap: float


def _log_slope(ns: np.ndarray, values: np.ndarray) -> float:
    if np.any(values <= 0.0) or len(ns) < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def convergence_experiment(model: TeamModel, n_list: tuple[int, ...],
                           rollouts: int = 10_000, seed: int = 0,
                           oracle_cap: int = 256,
                           workers: int = 1) -> ConvergenceResult:
    """Measure how aggregate uncertainty and suboptimality shrink with n.

    The base model must have uniform influence weights; each population size
    reuses its stage matrices unchanged.  Three quantities are tracked per
    size: the exact posterior covariance of the aggregate estimate, the
    Monte Carlo mean of the summed squared aggregate-filter corrections
    under the optimal strategy, and the paired common-noise cost excess of
    the mean-field strategy over the optimal one; the corrections are read
    from the optimal pass of that paired run.  Log-log slopes near -1 are
    the expected signature.  The exact gap from the oracle is reported for
    sizes with n * d_x up to ``oracle_cap`` and is NaN above it; the cap
    only limits what is reported, since the oracle's cost does not grow
    with n.
    """
    from .model import resize_team
    from .oracle import exact_cost

    rows = []
    for n in n_list:
        sized = resize_team(model, n)
        glob = precompute_global(sized)
        max_sigma = float(np.abs(glob.Sigma_post).max())
        meanfield, optimal = _run_strategies(
            sized, (MeanField(), Optimal()), seed, rollouts, DEFAULT_CHUNK,
            workers)
        gap, se = _mean_se(meanfield.costs - optimal.costs)
        if n * sized.dims.d_x <= oracle_cap:
            exact_gap = exact_cost(sized, MeanField()) - exact_cost(sized, Optimal())
        else:
            exact_gap = float("nan")
        rows.append(ConvergenceRow(
            n=n,
            max_sigma_bar=max_sigma,
            ms_correction=float(optimal.ms_correction.mean()),
            cost_gap=gap,
            gap_se=se,
            exact_gap=exact_gap,
        ))
    ns = np.array([row.n for row in rows], dtype=float)
    return ConvergenceResult(
        rows=tuple(rows),
        slope_sigma=_log_slope(ns, np.array([r.max_sigma_bar for r in rows])),
        slope_correction=_log_slope(
            ns, np.array([r.ms_correction for r in rows])),
        slope_gap=_log_slope(ns, np.array([r.cost_gap for r in rows])),
    )


def benchmark_convergence_model() -> TeamModel:
    """Scalar five-stage model with moderate coupling, for scaling studies.

    Uniform influence weights make it resizable to any population; the
    nonzero initial mean keeps the planned aggregate path active, so the
    mean-field strategy differs from the optimal one at finite n.
    """
    from .model import make_model

    return make_model(
        T=5, n=2,
        A=0.9, A_bar=0.3, B=1.0, E=1.0, C=1.0, C_bar=0.5, S=1.0,
        Q=1.0, Q_bar=1.0, R=1.0, R_bar=0.5,
        mu_x=1.0, Sigma_x=1.0, Sigma_w=1.0, Sigma_v=1.0,
    )
