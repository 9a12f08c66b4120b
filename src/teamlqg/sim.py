"""Seeded Monte Carlo simulation of closed-loop team trajectories.

Rollout ``i`` of a run with master seed ``s`` always consumes the same noise,
drawn from a generator keyed by ``(s, i)`` in a fixed order: initial states,
then process noise stage by stage, then observation noise stage by stage.
Costs are therefore reproducible bit for bit, independent of batch size,
worker count, or how many rollouts surround a given index.  Two strategies
evaluated under the same master seed see identical noise, which makes paired
cost comparisons sharp.

The stepping kernel works agent-last: states, observations, actions,
estimates and noise are (B, d, n) arrays, so every stage matrix applies as
one stacked ``M @ x`` and agents are the contiguous axis.  Recorded traces
are transposed once to the (T, n, d) layout of ``Trace``.

Every run takes one path: each strategy is prepared once (``_prepare``),
the run's chunks are queued (``_submit_prepared``), and their results are
read back and merged per strategy (``_gather_prepared``).  The chunk size is
not an option.  A chunk holds at most ``_default_chunk`` rollouts, whose
noise bank fits ``BANK_BUDGET`` and each of whose (B, d, n) stepping arrays
fits ``STEP_BUDGET``, so at large n a chunk is stepped in cache; with more
than one worker it is also at most ``ceil(rollouts / workers)``, so every
worker gets a share.  Since each rollout rounds independently of its batch,
the chunk size changes no output bit.  Chunks go to one process pool per
worker count, created on first use and kept for the life of the process;
with one worker they run inline.  The pool's workers fork after
``numpy.random`` is loaded, so they share the parent's copy of it; neither it
nor the pool machinery is imported until a pool is built.  A run's chunks
are all queued before its caller waits for the first, and a caller with
several runs queues them all and then reads each, so the workers are not
left idle between runs.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import NonFiniteCostError
from .filters import _matvec, predict_estimates, prior_estimates, update_estimates
from .model import Dimensions, TeamModel
from .strategy import MeanField, Optimal, Prepared, StrategyKind

MAX_CHUNK = 2048
BANK_BUDGET = 256 * 2**20   # bytes of noise bank per chunk
STEP_BUDGET = 512 * 2**10   # bytes of one (B, d, n) stepping array per chunk


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


def _cov_factors(stack: np.ndarray) -> np.ndarray:
    """``_cov_factor`` of each matrix in a stack: one batched Cholesky, or
    stage by stage when some stage is zero or not positive definite."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return np.array([_cov_factor(sigma) for sigma in stack])


def _noise_bank(model: TeamModel, seed: int, start: int, stop: int) -> dict:
    """Draw the noise for rollouts [start, stop) in the canonical order.

    Each rollout takes one ``standard_normal`` draw, read as x1, then w stage
    by stage, then v stage by stage, each block (n, d) in C order.  The bank
    holds it agent-last: ``x1`` (B, d_x, n), ``w`` (T - 1, B, d_w, n) and
    ``v`` (T, B, d_v, n), with each covariance factor applied once per stage
    over the whole batch.  All stages' factors come from one batched
    Cholesky when every stage is positive definite.
    """
    d = model.dims
    n, T = d.n, d.T
    B = stop - start
    x1 = np.empty((B, d.d_x, n))
    w = np.empty((T - 1, B, d.d_w, n))
    v = np.empty((T, B, d.d_v, n))
    k_x, k_w = n * d.d_x, (T - 1) * n * d.d_w
    draw = np.empty(k_x + k_w + T * n * d.d_v)
    for b in range(B):
        gen = np.random.default_rng(np.random.SeedSequence((seed, start + b)))
        gen.standard_normal(out=draw)
        x1[b] = draw[:k_x].reshape(n, d.d_x).T
        w[:, b] = draw[k_x:k_x + k_w].reshape(T - 1, n, d.d_w).transpose(0, 2, 1)
        v[:, b] = draw[k_x + k_w:].reshape(T, n, d.d_v).transpose(0, 2, 1)
    np.matmul(_cov_factor(model.Sigma_x), x1, out=x1)
    x1 += model.mu_x[:, None]
    # stage by stage, so the in-place product buffers one stage, not the bank
    for noise, factors in ((w, _cov_factors(model.Sigma_w[:T - 1])),
                           (v, _cov_factors(model.Sigma_v))):
        for t, factor in enumerate(factors):
            np.matmul(factor, noise[t], out=noise[t])
    return {"x1": x1, "w": w, "v": v}


def _bank_bytes_per_rollout(dims: Dimensions) -> int:
    """Bytes of float64 noise one rollout holds in the bank."""
    return 8 * dims.n * (dims.d_x + (dims.T - 1) * dims.d_w + dims.T * dims.d_v)


def _step_bytes_per_rollout(dims: Dimensions) -> int:
    """Bytes one rollout holds in the widest of the kernel's (B, d, n)
    arrays."""
    return 8 * dims.n * max(dims.d_x, dims.d_u, dims.d_y, dims.d_w, dims.d_v)


def _default_chunk(dims: Dimensions) -> int:
    """Rollouts per chunk: at most ``MAX_CHUNK``, with the chunk's noise
    bank within ``BANK_BUDGET`` bytes and each of its stepping arrays within
    ``STEP_BUDGET`` bytes; a rollout larger than either budget still gets a
    chunk of one.

    ``STEP_BUDGET`` keeps a chunk's stepping arrays in a core's cache at
    large n (at n = 1024, d = 2 a chunk holds 32 rollouts).  Its value was
    the fastest of 256 KiB to 1 MiB for paired runs at n = 128 and 1024,
    d = 1, 2 and 5; smaller chunks lose to per-operation overhead.  At
    small n it does not bind.
    """
    return max(1, min(MAX_CHUNK,
                      BANK_BUDGET // _bank_bytes_per_rollout(dims),
                      STEP_BUDGET // _step_bytes_per_rollout(dims)))


def _quad_each(vals: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Mean over agents of v^T M v, batched: (B, d, n) -> (B,)."""
    return np.einsum("bdn,bdn->b", M @ vals, vals) / vals.shape[-1]


def _quad(vec: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v^T M v for each row of a batch (B, d) -> (B,)."""
    return np.einsum("bd,bd->b", _matvec(M, vec), vec)


@np.errstate(over="ignore", invalid="ignore")
def _run_batch(model: TeamModel, prep: Prepared, bank: dict,
               keep_traces: int = 0) -> RolloutBatch:
    """Advance a batch of rollouts through the closed loop, vectorized.

    Every array is agent-last, (B, d, n).  Each stage runs update, action,
    cost and predict.  The team cost is computed twice, directly and through
    the aggregate/deviation split, and the worst relative disagreement is
    reported as ``residual_max``; a NaN anywhere makes it NaN.  A diverging
    rollout overflows quietly: its non-finite cost is what ``_merge``
    reports.
    """
    d = model.dims
    n, T = d.n, d.T
    alpha = model.alpha
    coeffs, plan = prep.coeffs, prep.plan
    B = bank["x1"].shape[0]
    keep = min(keep_traces, B)

    x = bank["x1"]
    if coeffs is not None:
        delta, agg = prior_estimates(model, B)

    stage_costs = np.zeros((B, T))
    ms_correction = np.zeros(B)
    residual_max = 0.0
    hist: dict[str, list] = {key: [] for key in ("x", "u", "y", "delta", "agg")}

    for t in range(T):
        v = bank["v"][t]
        x_bar = x @ alpha / n
        v_bar = v @ alpha / n
        y = model.C[t] @ x
        y += model.S[t] @ v
        y += (_matvec(model.C_bar[t], x_bar)
              + _matvec(model.S_bar[t], v_bar))[..., None] * alpha

        if coeffs is not None:
            if plan is not None:
                agg = plan.mean[t]
            delta, agg, correction = update_estimates(
                model, prep.local, prep.glob, t, delta, agg, y)
            if correction is not None:
                ms_correction += np.einsum("bd,bd->b", correction, correction)

        last = t == T - 1
        if not last:
            u = (np.zeros((B, d.d_u, n)) if coeffs is None
                 else coeffs.act(t, delta, agg, y, alpha))
            u_bar = u @ alpha / n

        # stage cost two ways
        Q, Q_bar = model.Q[t], model.Q_bar[t]
        direct = _quad_each(x, Q) + _quad(x_bar, Q_bar)
        split = _quad(x_bar, Q + Q_bar) \
            + _quad_each(x - x_bar[..., None] * alpha, Q)
        if not last:
            R, R_bar = model.R[t], model.R_bar[t]
            direct += _quad_each(u, R) + _quad(u_bar, R_bar)
            split += _quad(u_bar, R + R_bar) \
                + _quad_each(u - u_bar[..., None] * alpha, R)
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
            w = bank["w"][t]
            w_bar = w @ alpha / n
            shared_drift = (_matvec(model.A_bar[t], x_bar)
                            + _matvec(model.B_bar[t], u_bar)
                            + _matvec(model.E_bar[t], w_bar))
            x = model.A[t] @ x
            x += model.B[t] @ u
            x += model.E[t] @ w
            x += shared_drift[..., None] * alpha
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
    """One rollout's record, transposed from the kernel's (d, n) stages to
    the (T, n, d) layout of ``Trace``."""
    alpha = model.alpha
    n = model.n

    def agents(key):
        return np.ascontiguousarray(
            np.stack([s[b] for s in hist[key]]).transpose(0, 2, 1))

    x = agents("x")
    y = agents("y")
    u = agents("u") if hist["u"] else np.zeros((0, n, model.dims.d_u))
    delta = agg = combined = err = None
    if has_filter:
        delta = agents("delta")
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


@functools.cache
def _pool(workers: int):
    """The process pool of ``workers`` workers, shared by every caller.

    ``numpy.random`` is imported first, so that the workers, forked on the
    pool's first job, share the parent's loaded module rather than each
    importing it for its first noise bank.  No draw uses numpy's global
    generator, so the shared module changes no draw.  Jobs sent to the pool
    run at one worker, so a worker never uses the copy of this cache it
    inherits from the parent.
    """
    import numpy.random  # noqa: F401  (loaded before the workers fork)
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


# The pools are dropped at exit, once their workers have been joined and
# while the pool machinery they call back into is still whole.
atexit.register(_pool.cache_clear)


def _run_each(fn, jobs: list) -> list:
    """``fn`` over one message's jobs, in a worker."""
    return [fn(job) for job in jobs]


def _pool_map(fn, jobs, workers: int, batch: int = 1) -> Iterator:
    """``fn`` over ``jobs``, as an iterator of the results in order.

    At one worker each job runs inline when its result is read.  Otherwise
    every job is sent to the shared pool, ``batch`` jobs per message, before
    this returns, and reading a result waits for it.  When reading raises,
    or the iterator is closed, the jobs no worker has started are cancelled.
    A worker that dies breaks its pool for good, so a broken pool is dropped
    and the next call starts a new one.
    """
    if workers <= 1:
        return (fn(job) for job in jobs)
    results = _pooled(fn, jobs, workers, batch)
    next(results)       # sends every job; from here closing cancels them
    return results


def _pooled(fn, jobs, workers: int, batch: int):
    """``_pool_map``'s pooled form: sends every job on its first step, then
    yields the results in order and cancels what is left when it stops."""
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    try:
        pool = _pool(workers)
        jobs = iter(jobs)
        while part := list(itertools.islice(jobs, batch)):
            futures.append(pool.submit(_run_each, fn, part))
        yield
        for future in futures:
            yield from future.result()
    except BrokenProcessPool:
        _pool.cache_clear()
        raise
    finally:
        for future in futures:
            future.cancel()


def _submit_prepared(model: TeamModel, preps: list[Prepared], seed: int,
                     n_rollouts: int, workers: int,
                     keep_traces: int = 0) -> Iterator:
    """Send out the chunks of a run of every prepared strategy on the same
    rollouts; ``_gather_prepared`` reads them.  Each chunk draws its noise
    once and steps every strategy through it.  Closing the returned
    iterator cancels the chunks not started."""
    if n_rollouts <= 0:
        raise ValueError("n_rollouts must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    chunk = min(_default_chunk(model.dims), math.ceil(n_rollouts / workers))
    jobs = [(model, preps, seed, lo, hi, max(0, min(keep_traces - lo, hi - lo)))
            for lo, hi in _chunked(n_rollouts, chunk)]
    return _pool_map(_chunk_job, jobs, workers if len(jobs) > 1 else 1)


def _gather_prepared(parts: Iterator) -> list[RolloutBatch]:
    """One merged batch per strategy from the chunks ``_submit_prepared``
    sent out, waiting for each in turn."""
    return [_merge(list(batches)) for batches in zip(*parts)]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


def run_rollouts(model: TeamModel, kind: StrategyKind, seed: int = 0,
                 n_rollouts: int = 1000, workers: int = 1,
                 keep_traces: int = 0) -> RolloutBatch:
    """Simulate ``n_rollouts`` independent rollouts under one strategy.

    Traces are kept for the first ``keep_traces`` rollout indices only; cost
    and correction arrays always cover every rollout.
    """
    return _gather_prepared(_submit_prepared(
        model, [_prepare(model, kind)], seed, n_rollouts, workers,
        keep_traces))[0]


def rollout(model: TeamModel, kind: StrategyKind, seed: int = 0,
            index: int = 0) -> Trace:
    """One fully recorded rollout at the given index of the seed's stream."""
    prep = _prepare(model, kind)
    bank = _noise_bank(model, seed, index, index + 1)
    return _merge([_run_batch(model, prep, bank, keep_traces=1)]).traces[0]


def evaluate_cost(model: TeamModel, kind: StrategyKind, seed: int = 0,
                  n_rollouts: int = 1000, workers: int = 1) -> CostEstimate:
    """Monte Carlo estimate of the expected team cost with its standard error."""
    batch = run_rollouts(model, kind, seed=seed, n_rollouts=n_rollouts,
                         workers=workers)
    mean, se = _mean_se(batch.costs)
    return CostEstimate(
        mean=mean,
        stderr=se,
        n_rollouts=batch.costs.size,
        residual_max=batch.residual_max,
        degenerate=se == 0.0,
    )


def paired_cost_gap(model: TeamModel, kind_a: StrategyKind, kind_b: StrategyKind,
                    seed: int = 0, n_rollouts: int = 1000,
                    workers: int = 1) -> tuple[float, float]:
    """Mean and standard error of cost(a) - cost(b) under common noise.

    Both strategies run on the identical noise bank rollout by rollout, so
    the difference has far less variance than two independent estimates.
    """
    a, b = _gather_prepared(_submit_prepared(
        model, [_prepare(model, kind_a), _prepare(model, kind_b)], seed,
        n_rollouts, workers))
    return _mean_se(a.costs - b.costs)


@dataclass(frozen=True)
class ConvergenceRow:
    """Scaling measurements at one population size."""

    n: int
    max_sigma_bar: float         # largest posterior aggregate-covariance entry
    ms_correction: float         # mean summed squared aggregate-filter update
    cost_gap: float              # paired Monte Carlo mean-field excess cost
    gap_se: float
    exact_gap: float             # oracle value


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]
    slope_sigma: float
    slope_correction: float
    slope_gap: float
    slope_exact_gap: float


def _log_slope(ns: np.ndarray, values: np.ndarray) -> float:
    if np.any(values <= 0.0) or np.unique(ns).size < 2:
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def convergence_experiment(model: TeamModel, n_list: tuple[int, ...],
                           rollouts: int = 10_000, seed: int = 0,
                           workers: int = 1) -> ConvergenceResult:
    """Measure how aggregate uncertainty and suboptimality shrink with n.

    The base model must have uniform influence weights; each population size
    reuses its stage matrices unchanged.  Three quantities are tracked per
    size: the exact posterior covariance of the aggregate estimate, the
    Monte Carlo mean of the summed squared aggregate-filter corrections
    under the optimal strategy, and the paired common-noise cost excess of
    the mean-field strategy over the optimal one; the corrections are read
    from the optimal pass of that paired run.  Log-log slopes near -1 are
    the expected signature.  The exact gap from the oracle is reported at
    every size, since the oracle's cost does not grow with n, with its own
    slope: under uniform influence n * exact_gap is the same at every n, so
    that slope is -1 up to rounding.
    """
    from .model import resize_team
    from .oracle import exact_cost

    rows = []
    # every size's chunks are queued first, so the workers step while this
    # process computes each exact gap; an error cancels what is still queued
    with contextlib.ExitStack() as queued:
        runs = []
        for n in n_list:
            sized = resize_team(model, n)
            preps = [_prepare(sized, MeanField()), _prepare(sized, Optimal())]
            runs.append((sized, preps, queued.enter_context(contextlib.closing(
                _submit_prepared(sized, preps, seed, rollouts, workers)))))
        for sized, preps, parts in runs:
            exact_gap = (exact_cost(sized, MeanField())
                         - exact_cost(sized, Optimal()))
            meanfield, optimal = _gather_prepared(parts)
            gap, se = _mean_se(meanfield.costs - optimal.costs)
            rows.append(ConvergenceRow(
                n=sized.n,
                max_sigma_bar=float(np.abs(preps[1].glob.Sigma_post).max()),
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
        slope_exact_gap=_log_slope(ns, np.array([r.exact_gap for r in rows])),
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
