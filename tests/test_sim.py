"""Monte Carlo engine: reproducibility, cross-checks, cost comparisons."""

import contextlib
import functools
import gc
import math
import multiprocessing
import os
import re
import signal
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from teamlqg import (NonFiniteCostError, make_model, resize_team, sim,
                     to_json_dict, validate)
from teamlqg.model import Dimensions
from teamlqg.filters import precompute_global, precompute_local
from teamlqg.oracle import exact_cost
from teamlqg.riccati import solve_riccati
from teamlqg.sim import (
    benchmark_convergence_model,
    convergence_experiment,
    paired_cost_gap,
    Trace,
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
from teamlqg import verify
from teamlqg.verify import (
    _random_rule,
    check_one_model,
    reference_models,
    run_verification_suite,
)

from conftest import scalar_pair_model
from reference import (
    direct_estimate_recursion,
    noise_bank,
    run_decentralized_filters,
)


@contextlib.contextmanager
def _chunks_of(size):
    """Runs inside take chunks of ``size`` rollouts, or fewer where the
    split across workers binds, through the chunk rule every run uses."""
    asked = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_default_chunk",
                      lambda dims: asked.append(dims) or size)
        yield
    assert asked, "no run inside asked for its chunk size"


def test_rerun_is_bitwise_identical(model_s2):
    a = run_rollouts(model_s2, Optimal(), seed=11, n_rollouts=300)
    b = run_rollouts(model_s2, Optimal(), seed=11, n_rollouts=300)
    np.testing.assert_array_equal(a.costs, b.costs)
    np.testing.assert_array_equal(a.ms_correction, b.ms_correction)


def test_chunking_and_prefix_do_not_change_draws(model_s2):
    """Rollout index alone determines the noise, not the batch layout."""
    with _chunks_of(500):
        whole = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=500)
    with _chunks_of(64):
        split = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=500)
        prefix = run_rollouts(model_s2, Optimal(), seed=7, n_rollouts=200)
    np.testing.assert_array_equal(whole.costs, split.costs)
    np.testing.assert_array_equal(whole.costs[:200], prefix.costs)


@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_stage_costs_do_not_depend_on_chunk_size(n):
    """Every rollout's stage costs and aggregate corrections are bitwise the
    same whether it steps alone, in a small chunk, or in the whole batch."""
    rng = np.random.default_rng(100 + n)
    for draw in range(2):
        model = random_team(rng, n=n)
        kinds = (ZeroAction(), Optimal(), MeanField(), _random_rule(model, rng))
        for kind in kinds:
            whole = run_rollouts(model, kind, seed=draw, n_rollouts=14)
            for chunk in (1, 2, 3, 5, 7):
                with _chunks_of(chunk):
                    split = run_rollouts(model, kind, seed=draw, n_rollouts=14)
                np.testing.assert_array_equal(whole.stage_costs,
                                              split.stage_costs)
                np.testing.assert_array_equal(whole.ms_correction,
                                              split.ms_correction)


def test_rollout_is_its_row_of_the_batch():
    """``rollout(..., index=k)`` records exactly rollout k of a batch."""
    rng = np.random.default_rng(41)
    model = random_team(rng, n=3)
    for kind in (Optimal(), MeanField(), _random_rule(model, rng)):
        batch = run_rollouts(model, kind, seed=9, n_rollouts=6, keep_traces=6)
        for k in range(6):
            single = rollout(model, kind, seed=9, index=k)
            np.testing.assert_array_equal(single.stage_cost,
                                          batch.stage_costs[k])
            for field in fields(Trace):
                np.testing.assert_array_equal(getattr(single, field.name),
                                              getattr(batch.traces[k],
                                                      field.name))


def _coupled_pair_dims_model(n, T, sign=1.0):
    """A coupled d=2 team with correlated noise and uniform influence
    ``sign`` (1 or -1), resizable to any n."""
    return make_model(
        T=T, alpha=np.full(n, sign),
        A=[[0.9, 0.2], [-0.1, 0.8]], A_bar=[[0.2, 0.0], [0.1, 0.1]],
        B=np.eye(2), B_bar=0.3 * np.eye(2), C=[[1.0, 0.3], [0.0, 1.0]],
        C_bar=0.4 * np.eye(2), Q=np.eye(2), Q_bar=0.5 * np.eye(2),
        R=np.eye(2), R_bar=0.2 * np.eye(2), mu_x=[1.0, -0.5],
        Sigma_x=[[1.0, 0.3], [0.3, 0.8]], Sigma_w=[[0.5, 0.1], [0.1, 0.4]],
        Sigma_v=[[0.6, -0.2], [-0.2, 0.9]])


def _every_output(batch):
    """A run's outputs as (name, array) pairs, every Trace field included."""
    yield from ((name, getattr(batch, name)) for name in
                ("costs", "stage_costs", "ms_correction", "residual_max"))
    for k, trace in enumerate(batch.traces):
        for field in fields(Trace):
            yield f"traces[{k}].{field.name}", getattr(trace, field.name)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 64, 1024])
def test_uniform_influence_broadcasts_a_scalar_bitwise(monkeypatch, n, sign):
    """Under uniform influence the shared terms broadcast the float alpha_0;
    every output is bitwise what broadcasting the alpha vector gives."""
    model = _coupled_pair_dims_model(n, T=4, sign=sign)
    assert validate(model).ok
    assert type(model.alpha_bcast) is float and model.alpha_bcast == sign
    rng = np.random.default_rng(37)
    custom = CustomLinear(*(rng.normal(scale=0.3, size=(3, 2, 2))
                            for _ in range(4)))
    kinds = (Optimal(), MeanField(), ZeroAction(), custom)

    def runs():
        return [run_rollouts(model, kind, seed=41, n_rollouts=6,
                             keep_traces=6) for kind in kinds]

    scalar = runs()
    monkeypatch.setitem(vars(model), "alpha_bcast", model.alpha)
    assert model.alpha_bcast is model.alpha
    vector = runs()
    for kind, a, b in zip(kinds, scalar, vector):
        assert len(a.traces) == len(b.traces) == 6
        for (name, got), (_, want) in zip(_every_output(a), _every_output(b)):
            np.testing.assert_array_equal(got, want,
                                          err_msg=f"{kind}: {name}")


def test_non_uniform_influence_broadcasts_the_vector():
    model = random_team(np.random.default_rng(38), n=6)
    assert np.unique(model.alpha).size > 1
    assert model.alpha_bcast is model.alpha


@pytest.mark.parametrize("kind", [Optimal(), MeanField()])
def test_chunking_and_workers_do_not_change_draws_at_large_n(kind):
    model = _coupled_pair_dims_model(n=1024, T=3)
    with _chunks_of(40):
        whole = run_rollouts(model, kind, seed=19, n_rollouts=40)
    for chunk, workers in ((7, 1), (7, 2), (40, 2)):
        with _chunks_of(chunk):
            split = run_rollouts(model, kind, seed=19, n_rollouts=40,
                                 workers=workers)
        np.testing.assert_array_equal(whole.costs, split.costs)
        np.testing.assert_array_equal(whole.ms_correction, split.ms_correction)
    with _chunks_of(7):
        prefix = run_rollouts(model, kind, seed=19, n_rollouts=23)
    np.testing.assert_array_equal(whole.costs[:23], prefix.costs)
    np.testing.assert_array_equal(whole.ms_correction[:23],
                                  prefix.ms_correction)


def test_noise_bank_matches_per_block_draws():
    """One draw per rollout, scattered agent-last, is bitwise the noise of
    drawing x1, each w and each v block by block."""
    rng = np.random.default_rng(31)
    models = [random_team(rng, n=int(rng.choice([2, 3, 5, 64])))
              for _ in range(12)]
    models += [_coupled_pair_dims_model(n, T=10) for n in (4, 128, 1024)]
    models.append(scalar_pair_model(T=3, Sigma_x=0.0, Sigma_w=0.0))
    dims = [m.dims for m in models]
    assert {d.d_x for d in dims} == {1, 2, 3}
    assert any(d.d_w != d.d_x for d in dims)
    assert any(d.d_v != d.d_x for d in dims)
    for model in models:
        new = sim._noise_bank(model, 5, 3, 9)
        ref = noise_bank(model, 5, 3, 9)
        np.testing.assert_array_equal(new["x1"].transpose(0, 2, 1), ref["x1"])
        np.testing.assert_array_equal(new["w"].transpose(0, 1, 3, 2), ref["w"])
        np.testing.assert_array_equal(new["v"].transpose(0, 1, 3, 2), ref["v"])


def test_batched_bank_factors_equal_per_stage_factors():
    """One batched Cholesky gives each stage's own factor bitwise; a stack
    with a zero or a rank-deficient stage falls back to the per-stage rule."""
    rng = np.random.default_rng(23)
    stacks = []
    for _ in range(20):
        model = random_team(rng)
        stacks += [model.Sigma_w, model.Sigma_v, model.Sigma_w[:0]]
    zero = scalar_pair_model(T=3, Sigma_w=0.0)
    assert not zero.Sigma_w.any()
    g = rng.normal(size=(2, 3, 5))
    full = g @ g.swapaxes(1, 2)
    rank_one = np.outer(g[0, :, 0], g[0, :, 0])
    mixed = np.stack([full[0], rank_one, np.zeros((3, 3)), full[1]])
    stacks += [zero.Sigma_w, mixed]
    for stack in stacks:
        per_stage = np.array([sim._cov_factor(s) for s in stack])
        np.testing.assert_array_equal(sim._cov_factors(stack),
                                      per_stage.reshape(stack.shape))
    factors = sim._cov_factors(mixed)
    np.testing.assert_allclose(factors @ factors.swapaxes(1, 2), mixed,
                               atol=1e-12)


def _dims(n, T, d):
    return Dimensions(n=n, T=T, d_x=d, d_u=d, d_y=d, d_w=d, d_v=d)


def _fits_every_budget(chunk, dims):
    return (chunk <= sim.MAX_CHUNK
            and chunk * sim._bank_bytes_per_rollout(dims) <= sim.BANK_BUDGET
            and chunk * sim._step_bytes_per_rollout(dims) <= sim.STEP_BUDGET)


def test_default_chunk_keeps_bank_within_budget():
    """Chunk sizes are arithmetic on the dimensions; nothing is drawn."""
    small = _dims(2, 10, 2)
    assert sim._default_chunk(small) == sim.MAX_CHUNK
    # the stepping arrays bind, then a rollout too wide for them, then the bank
    for big in (_dims(1024, 5, 2), _dims(65536, 5, 2), _dims(1024, 2000, 1)):
        chunk = sim._default_chunk(big)
        assert 1 <= chunk < sim.MAX_CHUNK
        assert chunk * sim._bank_bytes_per_rollout(big) <= sim.BANK_BUDGET
        assert chunk == 1 or _fits_every_budget(chunk, big)
        assert not _fits_every_budget(chunk + 1, big)
    huge = _dims(2**24, 5, 2)
    assert sim._bank_bytes_per_rollout(huge) > sim.BANK_BUDGET
    assert sim._default_chunk(huge) == 1


def test_worker_pool_matches_inline(model_s2):
    with _chunks_of(100):
        inline = run_rollouts(model_s2, MeanField(), seed=3, n_rollouts=300)
        pooled = run_rollouts(model_s2, MeanField(), seed=3, n_rollouts=300,
                              workers=2)
    np.testing.assert_array_equal(inline.costs, pooled.costs)
    assert inline.residual_max == pooled.residual_max


_RUNS = {
    "run_rollouts": lambda workers: run_rollouts(
        scalar_pair_model(), Optimal(), n_rollouts=4, workers=workers),
    "paired_cost_gap": lambda workers: paired_cost_gap(
        scalar_pair_model(), MeanField(), Optimal(), n_rollouts=4,
        workers=workers),
    "convergence_experiment": lambda workers: convergence_experiment(
        benchmark_convergence_model(), (2, 4), rollouts=4, workers=workers),
    "run_verification_suite": lambda workers: run_verification_suite(
        n_models=1, mc_rollouts=4, workers=workers),
}


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("run", list(_RUNS))
def test_fewer_than_one_worker_is_rejected(run, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        _RUNS[run](workers)


def test_default_chunk_splits_across_workers_at_large_n(monkeypatch):
    model = _coupled_pair_dims_model(n=1024, T=3)
    # one default chunk's worth: the budgets alone would make one chunk,
    # so only the worker split can make more
    rollouts = sim._default_chunk(model.dims)
    assert rollouts >= 2
    chunked, splits = sim._chunked, []

    def spy(total, chunk):
        splits.append(chunked(total, chunk))
        return splits[-1]

    monkeypatch.setattr(sim, "_chunked", spy)
    pooled = run_rollouts(model, Optimal(), seed=23, n_rollouts=rollouts,
                          workers=2)
    assert len(splits[0]) >= 2
    inline = run_rollouts(model, Optimal(), seed=23, n_rollouts=rollouts)
    np.testing.assert_array_equal(inline.costs, pooled.costs)
    np.testing.assert_array_equal(inline.ms_correction, pooled.ms_correction)


def test_default_chunk_steps_in_cache_at_large_n(monkeypatch):
    """At n = 1024, d = 2 every default chunk's (B, d, n) stepping arrays
    fit ``STEP_BUDGET``, and its noise bank shrinks with them."""
    model = _coupled_pair_dims_model(n=1024, T=3)
    drawn, banks = sim._noise_bank, []

    def spy(*args):
        banks.append(drawn(*args))
        return banks[-1]

    monkeypatch.setattr(sim, "_noise_bank", spy)
    run_rollouts(model, Optimal(), seed=29, n_rollouts=70)
    assert len(banks) >= 2
    for bank in banks:
        for stepped in (bank["x1"], bank["w"][0], bank["v"][0]):
            assert stepped.nbytes <= sim.STEP_BUDGET
    assert sum(bank["x1"].shape[0] for bank in banks) == 70


def test_default_chunk_is_unchanged_at_small_n():
    """At the sizes verify draws and at mc-long-horizon's T = 200, neither
    memory budget binds, so chunks stay at ``MAX_CHUNK``."""
    for n in (2, 3, 5):
        for T in (2, 10, 200):
            for d in (1, 2, 3):
                assert sim._default_chunk(_dims(n, T, d)) == sim.MAX_CHUNK


@pytest.mark.parametrize("workers", [1, 2])
def test_default_chunks_match_one_whole_batch_at_large_n(workers):
    """Cache-sized default chunks change no output bit at n = 1024."""
    model = _coupled_pair_dims_model(n=1024, T=3)
    rollouts = 70
    assert sim._default_chunk(model.dims) < rollouts
    for kind in (Optimal(), MeanField()):
        with _chunks_of(rollouts):
            whole = run_rollouts(model, kind, seed=31, n_rollouts=rollouts)
        split = run_rollouts(model, kind, seed=31, n_rollouts=rollouts,
                             workers=workers)
        for field in ("costs", "stage_costs", "ms_correction"):
            np.testing.assert_array_equal(getattr(whole, field),
                                          getattr(split, field))
    split_gap = paired_cost_gap(model, MeanField(), Optimal(), seed=31,
                                n_rollouts=rollouts, workers=workers)
    with _chunks_of(rollouts):
        assert split_gap == paired_cost_gap(model, MeanField(), Optimal(),
                                            seed=31, n_rollouts=rollouts)


def test_pooled_calls_reuse_the_same_workers(model_s2):
    run_rollouts(model_s2, Optimal(), seed=5, n_rollouts=64, workers=2)
    first = {p.pid for p in multiprocessing.active_children()}
    run_rollouts(model_s2, MeanField(), seed=6, n_rollouts=64, workers=2)
    assert first
    assert {p.pid for p in multiprocessing.active_children()} == first


def test_a_lost_worker_fails_only_the_calls_of_its_pool(model_s2):
    run_rollouts(model_s2, Optimal(), seed=5, n_rollouts=64, workers=2)
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        for _ in range(50):     # the pool notices the loss asynchronously
            run_rollouts(model_s2, Optimal(), seed=5, n_rollouts=64, workers=2)
            time.sleep(0.1)
    pooled = run_rollouts(model_s2, Optimal(), seed=5, n_rollouts=64, workers=2)
    inline = run_rollouts(model_s2, Optimal(), seed=5, n_rollouts=64)
    np.testing.assert_array_equal(pooled.costs, inline.costs)


@pytest.mark.parametrize("n_models", [6, 9])
def test_pooled_verification_suite_matches_inline(n_models):
    """Both counts leave a last message short of ``CHECK_BATCH`` models."""
    assert n_models % verify.CHECK_BATCH
    inline = run_verification_suite(n_models=n_models, seed=3, mc_rollouts=300)
    pooled = run_verification_suite(n_models=n_models, seed=3, mc_rollouts=300,
                                    workers=2)
    assert pooled.to_json_dict() == inline.to_json_dict()


def test_pooled_convergence_rows_match_inline():
    """Every size's chunks queued at once give the rows of the inline sweep,
    bit for bit, cache-sized chunks at n = 1024 included."""
    model = benchmark_convergence_model()
    inline = convergence_experiment(model, (4, 64, 1024), rollouts=64, seed=7)
    pooled = convergence_experiment(model, (4, 64, 1024), rollouts=64, seed=7,
                                    workers=2)
    assert pooled.rows == inline.rows
    # NaN-aware: a slope that cannot be fit is NaN in both
    np.testing.assert_array_equal(
        [getattr(pooled, f.name) for f in fields(pooled) if f.name != "rows"],
        [getattr(inline, f.name) for f in fields(inline) if f.name != "rows"])


def _marked_job(job):
    """Job 0 raises; every other job waits a little, then leaves a marker
    file.  Module level, so the pool's workers can run it."""
    directory, index = job
    if index == 0:
        raise ValueError("job 0 fails")
    time.sleep(0.1)
    (directory / str(index)).touch()
    return index


def test_a_failing_pooled_job_cancels_the_jobs_not_started(tmp_path):
    jobs = [(tmp_path, index) for index in range(40)]
    pool = sim._pool(2)
    results = sim._pool_map(_marked_job, jobs, 2)
    with pytest.raises(ValueError, match="job 0 fails"):
        next(results)
    # the next call runs on the same pool, queued behind any job still running
    assert list(sim._pool_map(abs, [-1, -2, -3], 2)) == [1, 2, 3]
    assert sim._pool(2) is pool
    assert len(list(tmp_path.iterdir())) < 20


def test_closing_an_unread_pooled_map_cancels_its_jobs(tmp_path):
    results = sim._pool_map(_marked_job, [(tmp_path, i) for i in range(1, 40)],
                            2)
    results.close()
    assert list(sim._pool_map(abs, [-4, -5], 2)) == [4, 5]
    assert len(list(tmp_path.iterdir())) < 20


def _slow_after_first(index):
    """Job 0 returns at once, every other job waits a little.  Module
    level, so the pool's workers can run it."""
    if index:
        time.sleep(0.1)
    return index


def test_a_pooled_map_drops_each_future_once_its_result_is_read(monkeypatch):
    """The coordinator holds the futures of the unread jobs only, so its
    memory does not grow with the jobs already read."""
    pool = sim._pool(2)
    refs = []
    submit = pool.submit

    def recording(fn, job):
        future = submit(fn, job)
        refs.append(weakref.ref(future))
        return future

    monkeypatch.setattr(pool, "submit", recording)
    results = sim._pool_map(_slow_after_first, range(40), 2)
    assert next(results) == 0
    # the pool's own thread lets go of a job's future just after its result
    for _ in range(500):
        gc.collect()
        if refs[0]() is None:
            break
        time.sleep(0.01)
    assert refs[0]() is None
    assert not refs[-1]().done()        # the last job is still queued
    results.close()


def _nan_on_seed_4(position, job):
    """The model check, with deviation ``position`` NaN for check seed 4.

    Module level, so the pool's workers can run it."""
    model, kind, seed = job
    devs = list(check_one_model(model, kind, seed=seed))
    if seed == 4:
        devs[position] = math.nan
    return tuple(devs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_verification_reports_a_nan_deviation(monkeypatch, position, workers):
    """A NaN estimate, covariance or cost-split deviation of one model is
    reported as NaN, names that model and fails the suite; a NaN residual
    beats the Monte Carlo runs' finite ones."""
    monkeypatch.setattr(verify, "_check_job",
                        functools.partial(_nan_on_seed_4, position))
    report = run_verification_suite(n_models=3, seed=3, mc_rollouts=200,
                                    workers=workers)
    maxima = [report.max_estimate_deviation, report.max_covariance_deviation,
              report.max_cost_split_residual]
    where = [report.max_estimate_deviation_model,
             report.max_covariance_deviation_model,
             report.max_cost_split_residual_model]
    assert math.isnan(maxima.pop(position))
    assert where[position] == 1
    assert all(math.isfinite(value) for value in maxima)
    assert not report.ok


def test_verification_of_no_models_reports_the_monte_carlo_residual():
    """With no models, the estimate and covariance maxima are 0 and set by
    no model, and the residual is the largest Monte Carlo run's."""
    report = run_verification_suite(n_models=0, seed=3, mc_rollouts=200)
    residuals = []
    for model in reference_models():
        for kind in (ZeroAction(), Optimal()):
            residuals.append(run_rollouts(model, kind, seed=3,
                                          n_rollouts=200).residual_max)
    assert (report.max_estimate_deviation,
            report.max_covariance_deviation) == (0.0, 0.0)
    assert report.max_cost_split_residual == max(residuals) > 0.0
    assert (report.max_estimate_deviation_model,
            report.max_covariance_deviation_model,
            report.max_cost_split_residual_model) == (None, None, None)


def _tied_then_nan(job):
    """Stand-in deviations for the suite at seed 3: the estimate deviation is
    1 from model 2 on, the covariance deviation NaN from model 3 on, and the
    cost split residual 0.  Module level, so the pool's workers can run it."""
    index = job[2] - 3
    return (float(index >= 2), math.nan if index >= 3 else 0.0, 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_verification_names_the_first_model_to_set_each_maximum(monkeypatch,
                                                                workers):
    """A tie goes to the lowest index and the first NaN wins, across ranges;
    a cost split residual no model reaches is set by no model."""
    monkeypatch.setattr(verify, "_check_job", _tied_then_nan)
    report = run_verification_suite(n_models=9, seed=3, mc_rollouts=200,
                                    workers=workers)
    assert (report.max_estimate_deviation,
            report.max_estimate_deviation_model) == (1.0, 2)
    assert math.isnan(report.max_covariance_deviation)
    assert report.max_covariance_deviation_model == 3
    assert report.max_cost_split_residual > 0.0
    assert report.max_cost_split_residual_model is None


def test_a_reported_model_redrawn_alone_gives_its_maximum():
    seed = 21
    report = run_verification_suite(n_models=10, seed=seed, mc_rollouts=50)
    maxima = [report.max_estimate_deviation, report.max_covariance_deviation,
              report.max_cost_split_residual]
    where = [report.max_estimate_deviation_model,
             report.max_covariance_deviation_model,
             report.max_cost_split_residual_model]
    assert where[0] is not None and where[1] is not None
    for position, (value, index) in enumerate(zip(maxima, where)):
        if index is not None:
            model, rule = verify.suite_model(seed, index)
            assert check_one_model(model, rule,
                                   seed=seed + index)[position] == value


@pytest.mark.parametrize("n_models", [0, 10])
def test_pooled_verification_sends_index_ranges_not_models(monkeypatch,
                                                           n_models):
    """Each message holds the check, the seed and an index range; ten models
    leave a last range short of ``CHECK_BATCH``."""
    sent = []

    def recording(fn, jobs, workers):
        sent.extend(jobs)
        return sim._pool_map(fn, jobs, workers)

    monkeypatch.setattr(verify, "_pool_map", recording)
    run_verification_suite(n_models=n_models, seed=3, mc_rollouts=50,
                           workers=2)
    batch = verify.CHECK_BATCH
    assert n_models % batch or not n_models
    assert len(sent) == math.ceil(n_models / batch)
    assert sent == [(verify._check_job, 3, lo, min(lo + batch, n_models))
                    for lo in range(0, n_models, batch)]


def test_a_suite_model_does_not_depend_on_the_model_count(monkeypatch):
    """Model i, its rule and its check seed are the same at every count
    k > i."""
    runs = []

    def record(job):
        model, rule, seed = job
        coefficients = np.concatenate([np.ravel(getattr(rule, f.name))
                                       for f in fields(rule)])
        runs[-1].append((to_json_dict(model), coefficients.tolist(), seed))
        return (0.0, 0.0, 0.0)

    monkeypatch.setattr(verify, "_check_job", record)
    for count in range(1, 6):
        runs.append([])
        run_verification_suite(n_models=count, seed=8, mc_rollouts=50)
    for count, drawn in enumerate(runs, start=1):
        assert drawn == runs[-1][:count]
    assert [seed for *_, seed in runs[-1]] == [8, 9, 10, 11, 12]


def test_verification_mc_checks_match_separate_estimates():
    """Sharing one noise bank between the reference strategies changes no
    sampled value."""
    report = run_verification_suite(n_models=0, seed=4, mc_rollouts=500)
    expected = []
    for model in reference_models():
        for kind in (ZeroAction(), Optimal()):
            batch = run_rollouts(model, kind, seed=4, n_rollouts=500)
            expected.append(sim._mean_se(batch.costs))
    assert [(c.sampled, c.stderr) for c in report.mc_checks] == expected


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
    with _chunks_of(2):
        batch = run_rollouts(model_s2, Optimal(), seed=9, n_rollouts=5,
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
    batch = run_rollouts(model, ZeroAction(), seed=0, n_rollouts=50)
    mean, stderr = sim._mean_se(batch.costs)
    assert mean == pytest.approx(12.0, abs=1e-12)
    assert stderr == 0.0


def test_mc_mean_matches_exact_cost(model_s1, model_s2):
    for model, kind in ((model_s1, ZeroAction()), (model_s1, Optimal()),
                        (model_s2, Optimal()), (model_s2, MeanField())):
        batch = run_rollouts(model, kind, seed=17, n_rollouts=20_000)
        mean, stderr = sim._mean_se(batch.costs)
        target = exact_cost(model, kind)
        assert isinstance(stderr, float)
        assert abs(mean - target) <= 5.0 * stderr
        assert batch.residual_max <= 1e-9


def test_readme_quick_start_example():
    # the README's library quick start, run as written: its Monte Carlo
    # mean, formed in plain numpy, lies within five standard errors of the
    # exact cost
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    (block,) = [b for b in blocks if "run_rollouts(" in b]
    names = {}
    exec(block, names)
    assert abs(names["mean"] - names["exact"]) <= 5.0 * names["stderr"]
    assert len(names["batch"].traces) == 5


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
        batch = run_rollouts(model, kind, seed=1, n_rollouts=rollouts)
        mean, stderr = sim._mean_se(batch.costs)
        target = exact_cost(model, kind)
        assert abs(mean - target) <= 5.0 * stderr, type(kind).__name__
        assert batch.residual_max <= 1e-9


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


def test_exact_gap_at_every_n():
    """The oracle's gap is finite at every n, and under uniform influence
    n * exact_gap does not depend on n.  Measured spread from n = 4 to 1024:
    1.8e-12 relative, the rounding of a difference of two O(1) costs."""
    res = convergence_experiment(benchmark_convergence_model(), (4, 128, 1024),
                                 rollouts=2, seed=0)
    scaled = np.array([row.n * row.exact_gap for row in res.rows])
    assert np.all(np.isfinite(scaled))
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-11)


def test_exact_gap_scales_as_one_over_n_on_random_homogeneous_teams():
    """n * exact_gap does not change with n on five homogeneous random teams,
    n = 4 to 2^16.  Measured worst spread: 1.3e-9 relative at this seed and
    3.3e-9 over seeds 0, 1, 7, 11, 2024 and 5077, the rounding of a
    difference of two O(1) costs, scaled by n."""
    rng = np.random.default_rng(2024)
    for _ in range(5):
        model = random_team(rng, homogeneous=True)
        scaled = []
        for n in (4, 64, 1024, 2 ** 16):
            sized = resize_team(model, n)
            scaled.append(n * (exact_cost(sized, MeanField())
                               - exact_cost(sized, Optimal())))
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled, scaled[0], rtol=1e-8)


def _random_log_fit(rng, ns):
    """Values c * n^s with log-normal scatter, over a wide range of c."""
    return (np.exp(rng.uniform(-20.0, 20.0)) * ns ** rng.uniform(-3.0, 1.0)
            * np.exp(rng.normal(0.0, 0.5, ns.size)))


def test_log_slope_matches_polyfit():
    """The closed-form slope is the least-squares line ``np.polyfit`` fits,
    over 2-8 sizes in [2, 65536], repeats allowed, spanning at least a
    factor of 2.  Measured worst gap over 20 000 such fits: 4.5e-14."""
    rng = np.random.default_rng(2031)
    fits = 0
    while fits < 2000:
        ns = rng.integers(2, 65537, rng.integers(2, 9)).astype(float)
        if ns.max() < 2.0 * ns.min():
            continue
        values = _random_log_fit(rng, ns)
        expected = np.polyfit(np.log(ns), np.log(values), 1)[0]
        assert abs(sim._log_slope(ns, values) - expected) <= 1e-12
        fits += 1


def test_log_slope_is_exact_least_squares_on_close_sizes():
    """Through sizes a few apart the line is ill-conditioned; the closed
    form still matches the least-squares slope of its float logs, computed
    in exact rational arithmetic, where ``np.polyfit`` was measured up to
    3.6e-9 off."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        low = rng.integers(2, 65000)
        ns = rng.integers(low, low + 100, rng.integers(2, 9)).astype(float)
        if ns.min() == ns.max():
            continue
        values = _random_log_fit(rng, ns)
        x = [Fraction(v) for v in np.log(ns)]
        y = [Fraction(v) for v in np.log(values)]
        x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
        exact = float(sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
                      / sum((a - x_mean) ** 2 for a in x))
        assert sim._log_slope(ns, values) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("ns, values", [
    ([], []),
    ([4.0], [1.0]),
    ([4.0, 4.0], [1.0, 2.0]),
    ([4.0, 16.0], [1.0, 0.0]),
    ([4.0, 16.0], [1.0, -1.0]),
    ([4.0, 16.0], [1.0, np.nan]),
    ([4.0, 16.0], [1.0, np.inf]),
    ([4.0, 16.0, np.nan], [1.0, 0.5, 0.25]),
    ([4.0, 16.0, np.inf], [1.0, 0.5, 0.25]),
    ([0.0, 16.0], [1.0, 0.5]),
])
def test_log_slope_is_nan_without_a_warning(ns, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = sim._log_slope(np.array(ns), np.array(values))
    assert math.isnan(slope)


def test_own_gain_weight_falls_exactly_as_one_over_n():
    """On the built-in model the aggregate filter's gains are bit-identical
    at these powers of two, so n * own_gain_weight is equal at every n and
    its slope is -1."""
    res = convergence_experiment(benchmark_convergence_model(),
                                 (4, 64, 1024, 2**16), rollouts=2, seed=0)
    scaled = [row.n * row.own_gain_weight for row in res.rows]
    assert scaled == [scaled[0]] * len(scaled)
    assert scaled[0] > 0.0
    assert abs(res.slope_own_gain_weight + 1.0) <= 1e-12


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
