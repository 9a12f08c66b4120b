"""Benchmark of the teamlqg CLI on one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
checkout the script sits in; nothing needs installing.

``--trace 0`` times the command with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs the same command in-process under
``traced_cli.py`` at one worker and reports the per-layer metrics.  Either
way every output is checked, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted``/``failed`` count correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import NAMES, WORKERS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 165.0     # start no command that would end past this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Self seconds of each span; the rest are counters or computed values.
SPAN_SECONDS = (
    "sim.noise_bank", "sim.run_batch", "sim.prepare", "oracle.exact_cost",
    "oracle.build_joint_model", "oracle.centralized_filter",
    "filters.per_step", "filters.team_error_covariance",
    "random_models.random_team", "verify.check_one_model",
    "riccati.solve_riccati", "filters.precompute_local",
    "filters.precompute_global", "strategy.meanfield_trajectory",
    "model.load_validate",
)
PER_LAYER = {
    **{f"{span}.s": "s" for span in SPAN_SECONDS},
    "sim.noise_bank.calls": "count",
    "sim.noise_bank.rollouts": "count",
    "sim.noise_bank.us_per_rollout": "us",
    "sim.noise_bank.bytes": "bytes",
    "sim.noise_bank.bytes_max": "bytes",
    "sim.run_batch.calls": "count",
    "sim.run_batch.agent_stages": "count",
    "sim.run_batch.agent_stages_per_s": "1/s",
    "sim.prepare.calls": "count",
    "sim.prepare.useful_frac": "frac",
    "sim.pool.overhead_s": "s",
    "oracle.exact_cost.calls": "count",
    "oracle.exact_cost.joint_states_max": "count",
    "verify.check_one_model.total_s": "s",
    "cli.self.s": "s",
    "trace.overhead_frac": "frac",
    "trace.missing_spans": "count",
}
# Exact counts; "computed" marks those taken from array sizes.
COMPUTED = ("sim.noise_bank.rollouts", "sim.noise_bank.bytes",
            "sim.noise_bank.bytes_max", "sim.run_batch.agent_stages",
            "oracle.exact_cost.joint_states_max")


@dataclass(frozen=True)
class Sample:
    wall_s: float
    rss_mb: float       # largest resident set of the process or its children
    code: int
    stdout: str


def _env() -> tuple[dict, dict]:
    """Child environment with workers x threads <= nproc, and its record."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // WORKERS)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, {"nproc": nproc, "workers": WORKERS, "blas_threads": threads}


def _versions() -> dict:
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    return out


def run_command(argv: list[str], env: dict, log: Path) -> Sample:
    """Run one process to completion; time it and take its peak RSS.

    ``os.wait4`` reports the largest resident set of the process and of the
    children it waited for, which covers the pool workers.
    """
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(proc.pid)     # leftover pool workers, if any
    return Sample(wall, usage.ru_maxrss / 1024.0, code,
                  log.read_text(errors="replace"))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Checks:
    """Named correctness checks; a failed or unreadable output counts."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1

    def outputs(self, wl, sample: Sample, out: Path, label: str,
                reference: Path | None = None, ref_label: str = "") -> None:
        self.record(f"{label}: exit code 0", sample.code == 0)
        try:
            results = wl.check(str(out), sample.stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            results = [(f"outputs readable ({type(exc).__name__})", False)]
        for name, ok in results:
            self.record(name, ok)
        if reference is not None:
            self.record(f"{label}: {wl.output} bitwise equal to {ref_label}",
                        _same_bytes(out / wl.output, reference / wl.output))

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


class Runner:
    """Runs the workload's command, plain or traced, into numbered dirs."""

    def __init__(self, wl, work: Path, env: dict):
        self.wl, self.work, self.env = wl, work, env
        self.count = 0
        self.started = time.perf_counter()

    def _dir(self) -> Path:
        self.count += 1
        path = self.work / f"run{self.count:03d}"
        path.mkdir()
        return path

    def plain(self, workers: int) -> tuple[Sample, Path]:
        out = self._dir()
        argv = [sys.executable, "-m", "teamlqg.cli",
                *self.wl.cli_args(workers, str(out))]
        return run_command(argv, self.env, out / "stdout.log"), out

    def traced(self) -> tuple[Sample, Path, dict]:
        out = self._dir()
        spans = out / "spans.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                *self.wl.cli_args(1, str(out))]
        sample = run_command(argv, self.env, out / "stdout.log")
        report = json.loads(spans.read_text()) if spans.exists() else None
        return sample, out, report

    def time_left(self, need: float) -> bool:
        return time.perf_counter() - self.started + need < RUN_DEADLINE_S


def _median(values) -> float:
    return float(statistics.median(values))


def timed_run(wl, runner: Runner, checks: Checks, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    # Untimed warm-up, traced at one worker: it is the bitwise reference
    # for the timed two-worker runs.
    sample, reference, _ = runner.traced()
    checks.outputs(wl, sample, reference, "traced workers=1")

    def probe() -> float:
        sample = run_command(
            [sys.executable, str(HERE / "setup_probe.py"), wl.model_path],
            runner.env, runner.work / "setup.log")
        checks.record("setup probe exit code 0", sample.code == 0)
        return sample.wall_s

    # Set-up probes are spread between the timed runs, so that both medians
    # sample the same stretch of machine time.
    setup, samples = [], []
    while not samples or (sum(s.wall_s for s in samples) < seconds
                          and runner.time_left(samples[-1].wall_s)):
        sample, out = runner.plain(WORKERS)
        checks.outputs(wl, sample, out, f"timed workers={WORKERS}",
                       reference, "traced workers=1")
        samples.append(sample)
        shutil.rmtree(out)
        if len(setup) < SETUP_REPEATS:
            setup.append(probe())
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())

    wall = _median(s.wall_s for s in samples)
    result = {
        "metrics": {
            "setup_s": _median(setup),
            "wall_s": wall,
            "peak_rss_mb": _median(s.rss_mb for s in samples),
        },
        "samples": {"setup_s": len(setup), "wall_s": len(samples),
                    "peak_rss_mb": len(samples)},
        "runs": {"setup_s": setup, "wall_s": [s.wall_s for s in samples]},
        "derived": [],
    }
    if wl.agent_stages is not None:
        result["derived"] = [
            f"agent_stages: {wl.agent_stages} count (computed)",
            f"agent_stages_per_s: {wl.agent_stages / wall:.6g} 1/s "
            f"(agent_stages / wall_s)"]
    return result


def _pool_savings(chunks: list, workers: int) -> float:
    """Seconds a pool of ``workers`` saves over running chunks in order.

    Chunks are grouped by the call that made them; ``ProcessPoolExecutor``
    hands each chunk, in order, to the first worker that is free.
    """
    by_call: dict[int, list[float]] = {}
    for call, seconds in chunks:
        by_call.setdefault(call, []).append(seconds)
    saved = 0.0
    for durations in by_call.values():
        if len(durations) < 2:
            continue            # a single chunk runs without a pool
        free = [0.0] * workers
        for d in durations:
            free[free.index(min(free))] += d
        saved += sum(durations) - max(free)
    return saved


def _layer_metrics(report: dict, plain_w1: float, plain_w2: float,
                   traced_w1: float) -> dict:
    self_s, calls, counters = (report["self_s"], report["calls"],
                               report["counters"])

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out = {f"{span}.s": self_s.get(span, 0.0) for span in SPAN_SECONDS}
    rollouts = counters.get("sim.noise_bank.rollouts", 0)
    stages = counters.get("sim.run_batch.agent_stages", 0)
    out.update({
        "sim.noise_bank.calls": calls.get("sim.noise_bank", 0),
        "sim.noise_bank.rollouts": rollouts,
        "sim.noise_bank.us_per_rollout":
            1e6 * ratio(self_s.get("sim.noise_bank", 0.0), rollouts),
        "sim.noise_bank.bytes": counters.get("sim.noise_bank.bytes", 0),
        "sim.noise_bank.bytes_max":
            counters.get("sim.noise_bank.bytes_max", 0),
        "sim.run_batch.calls": calls.get("sim.run_batch", 0),
        "sim.run_batch.agent_stages": stages,
        "sim.run_batch.agent_stages_per_s":
            ratio(stages, self_s.get("sim.run_batch", 0.0)),
        "sim.prepare.calls": calls.get("sim.prepare", 0),
        "sim.prepare.useful_frac": ratio(
            counters.get("sim.prepare.distinct", 0),
            calls.get("sim.prepare", 0)),
        "sim.pool.overhead_s":
            plain_w2 - (plain_w1 - _pool_savings(report["chunks"], WORKERS)),
        "oracle.exact_cost.calls": calls.get("oracle.exact_cost", 0),
        "oracle.exact_cost.joint_states_max":
            counters.get("oracle.exact_cost.joint_states_max", 0),
        "verify.check_one_model.total_s":
            report["total_s"].get("verify.check_one_model", 0.0),
        "cli.self.s": self_s.get("cli.main", 0.0),
        "trace.overhead_frac": ratio(traced_w1, plain_w1) - 1.0,
        "trace.missing_spans": len(report["missing"]),
    })
    return out


def traced_run(wl, runner: Runner, checks: Checks, seconds: float) -> dict:
    """Per-layer metrics: traced runs at one worker, beside plain runs."""
    sample, reference = runner.plain(1)      # untimed warm-up and reference
    checks.outputs(wl, sample, reference, "plain workers=1")

    rows, reports = [], []
    while not rows or (sum(map(sum, rows)) < seconds
                       and runner.time_left(sum(rows[-1]))):
        traced, t_out, report = runner.traced()
        checks.outputs(wl, traced, t_out, "traced workers=1", reference,
                       "plain workers=1")
        checks.record("trace report written", report is not None)
        plain1, p1_out = runner.plain(1)
        checks.outputs(wl, plain1, p1_out, "plain workers=1", reference,
                       "plain workers=1")
        plain2, p2_out = runner.plain(WORKERS)
        checks.outputs(wl, plain2, p2_out, f"plain workers={WORKERS}",
                       reference, "plain workers=1")
        for path in (t_out, p1_out, p2_out):
            shutil.rmtree(path)
        if report is None:
            break
        rows.append((traced.wall_s, plain1.wall_s, plain2.wall_s))
        reports.append(report)

    if not reports:
        return {"metrics": {name: 0.0 for name in PER_LAYER},
                "samples": {}, "missing": [], "shares": []}
    per_run = [_layer_metrics(rep, p1, p2, tr)
               for rep, (tr, p1, p2) in zip(reports, rows)]
    metrics = {name: _median(m[name] for m in per_run) for name in PER_LAYER}
    last = reports[-1]
    total = sum(last["self_s"].values())
    shares = sorted(((s / total if total else 0.0, name)
                     for name, s in last["self_s"].items()), reverse=True)
    return {
        "metrics": metrics,
        "samples": {name: len(per_run) for name in PER_LAYER},
        "missing": last["missing"] + last["counter_errors"],
        "shares": shares,
    }


def _print_report(args, env_info: dict, result: dict, checks: Checks,
                  units: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps({**env_info, **_versions()},
                                      sort_keys=True))
    for name, unit in units.items():
        value = result["metrics"][name]
        note = " (computed)" if name in COMPUTED else ""
        samples = result["samples"].get(name)
        count = f" (median of {samples} runs)" if samples else ""
        print(f"{name}: {value:.6g} {unit}{count}{note}")
    for name, values in result.get("runs", {}).items():
        print(f"{name} runs: " + " ".join(f"{v:.4f}" for v in values))
    for line in result.get("derived", []):
        print(line)
    for share, name in result.get("shares", [])[:8]:
        print(f"self-time share {name}: {share:.3f}")
    for name in result.get("missing", []):
        print(f"missing span or counter: {name}")
    fail_frac = checks.n_failed / max(checks.attempted, 1)
    print(f"fail_frac: {fail_frac:.6g} ({checks.n_failed} of "
          f"{checks.attempted} checks failed)")
    for name, count in sorted(checks.failed.items()):
        print(f"FAILED x{count}: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny run sizes, for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "teamlqg" / "cli.py").is_file():
        print(f"error: no teamlqg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(NAMES)}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    env, env_info = _env()
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        wl = build(args.workload, args.seed, str(work), tiny=args.tiny)
        runner = Runner(wl, work, env)
        for prep in wl.prep:
            sample = run_command([sys.executable, "-m", "teamlqg.cli", *prep],
                                 env, work / "prep.log")
            if sample.code != 0:
                err = (work / "prep.err").read_text(errors="replace")
                print(f"error: input preparation failed:\n{err}",
                      file=sys.stderr)
                return 2
        checks = Checks()
        if args.trace:
            result, units = traced_run(wl, runner, checks, args.seconds), \
                PER_LAYER
        else:
            result, units = timed_run(wl, runner, checks, args.seconds), \
                END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_report(args, env_info, result, checks, units)
    print(json.dumps({
        "correct": checks.n_failed == 0,
        "attempted": checks.attempted,
        "failed": checks.n_failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
