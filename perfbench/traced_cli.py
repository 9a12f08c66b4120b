"""Run ``teamlqg.cli.main`` in-process with spans around each layer's functions.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

The wrapped functions are replaced by module attribute everywhere the package
looks them up (a name imported with ``from .oracle import exact_cost`` is
patched in the importing module too), so the program itself is unchanged.
A listed function that no longer exists is reported under ``missing``.

A span's self time is its duration minus the time its child spans cover; the
self times of all spans plus ``cli.main``'s own add up to the command's wall
time.  Counts that come from array sizes are exact and repeat run to run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

# span name -> functions (module, attribute) it covers
TARGETS = {
    "cli.main": [("teamlqg.cli", "main")],
    "model.load_validate": [("teamlqg.model", "load_model"),
                            ("teamlqg.model", "validate")],
    "riccati.solve_riccati": [("teamlqg.riccati", "solve_riccati")],
    "filters.precompute_local": [("teamlqg.filters", "precompute_local")],
    "filters.precompute_global": [("teamlqg.filters", "precompute_global")],
    "filters.per_step": [("teamlqg.filters", "measurement_update"),
                         ("teamlqg.filters", "step")],
    "filters.team_error_covariance": [("teamlqg.filters",
                                       "team_error_covariance")],
    "strategy.meanfield_trajectory": [("teamlqg.strategy",
                                       "meanfield_trajectory")],
    "sim.pool_call": [("teamlqg.sim", "run_rollouts"),
                      ("teamlqg.sim", "paired_cost_gap")],
    "sim.chunk_job": [("teamlqg.sim", "_chunk_job"),
                      ("teamlqg.sim", "_paired_chunk_job")],
    "sim.prepare": [("teamlqg.sim", "_prepare")],
    "sim.noise_bank": [("teamlqg.sim", "_noise_bank")],
    "sim.run_batch": [("teamlqg.sim", "_run_batch")],
    "oracle.exact_cost": [("teamlqg.oracle", "exact_cost")],
    "oracle.build_joint_model": [("teamlqg.oracle", "build_joint_model")],
    "oracle.centralized_filter": [("teamlqg.oracle", "centralized_filter")],
    "random_models.random_team": [("teamlqg.random_models", "random_team")],
    "verify.check_one_model": [("teamlqg.verify", "check_one_model")],
}


class Tracer:
    """Aggregates spans as they close: calls, self seconds, counters."""

    def __init__(self):
        self.stack: list[list] = []          # [name, start, child_seconds, id]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}   # outermost spans of a name only
        self.depth: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.chunks: list[tuple[int, float]] = []   # (pool call id, seconds)
        self.prepared: dict[tuple, object] = {}     # distinct (model, strategy)
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._next_id = 0

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [name, 0.0, 0.0, self._next_id]
            parent = self.stack[-1] if self.stack else None
            self.stack.append(frame)
            self.depth[name] = self.depth.get(name, 0) + 1
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = (self.self_s.get(name, 0.0)
                                     + duration - frame[2])
                self.depth[name] -= 1
                if self.depth[name] == 0:
                    self.total_s[name] = self.total_s.get(name, 0.0) + duration
                if name == "sim.chunk_job" and parent is not None:
                    self.chunks.append((parent[3], duration))
            if count is not None:
                try:
                    count(self, sig.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, IndexError) as exc:
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in sorted(
            {mod for targets in TARGETS.values() for mod, _ in targets})]
        modules.append(importlib.import_module("teamlqg"))
        for name, targets in TARGETS.items():
            for home, attr in targets:
                original = getattr(sys.modules[home], attr, None)
                if original is None:
                    self.missing.append(f"{home}.{attr}")
                    continue
                wrapped = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def report(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s,
                "counters": self.counters, "chunks": self.chunks,
                "missing": self.missing,
                "counter_errors": self.counter_errors}


def _count_noise_bank(tracer: Tracer, args: dict, bank) -> None:
    tracer.add("sim.noise_bank.rollouts", args["stop"] - args["start"])
    nbytes = sum(a.nbytes for a in bank.values())
    tracer.add("sim.noise_bank.bytes", nbytes)
    key = "sim.noise_bank.bytes_max"
    tracer.counters[key] = max(tracer.counters.get(key, 0), nbytes)


def _count_run_batch(tracer: Tracer, args: dict, batch) -> None:
    dims = args["model"].dims
    tracer.add("sim.run_batch.agent_stages",
               batch.costs.shape[0] * dims.n * dims.T)


def _count_prepare(tracer: Tracer, args: dict, prep) -> None:
    model, kind = args["model"], args["kind"]
    # Stateless strategies are equal by type; keep the keyed objects alive so
    # their ids cannot be reused by later objects.
    key = (id(model), type(kind).__name__ if not dataclasses.fields(kind)
           else id(kind))
    tracer.prepared[key] = (model, kind)
    tracer.counters["sim.prepare.distinct"] = len(tracer.prepared)


def _count_exact_cost(tracer: Tracer, args: dict, cost) -> None:
    dims = args["model"].dims
    states = dims.n * dims.d_x
    key = "oracle.exact_cost.joint_states_max"
    tracer.counters[key] = max(tracer.counters.get(key, 0), states)


_COUNTERS = {
    "sim.noise_bank": _count_noise_bank,
    "sim.run_batch": _count_run_batch,
    "sim.prepare": _count_prepare,
    "oracle.exact_cost": _count_exact_cost,
}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = sys.modules["teamlqg.cli"].main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
