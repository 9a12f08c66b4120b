"""Command-line interface: validate, precompute, simulate, verify, convergence.

Exit codes: 0 success, 1 model or invariant validation failure, 2 numerical
failure inside a recursion or a non-finite simulated cost, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
from collections.abc import Iterator
from dataclasses import fields
from datetime import datetime, timezone
from itertools import chain, repeat

import numpy as np

from . import __version__
from .errors import NonFiniteCostError, RiccatiError, SingularInnovationError
from .filters import precompute_filters, schedule_to_json_dict
from .model import TeamModel, _alpha_spread, load_model, validate
from .riccati import solve_riccati
from .sim import (_mean_se, benchmark_convergence_model, convergence_experiment,
                  run_rollouts)
from .strategy import parse_strategy
from .verify import run_verification_suite

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

_NUMERICAL_ERRORS = (RiccatiError, SingularInnovationError, NonFiniteCostError)

# the smallest value of each count flag and of --seed, checked before any
# work; verify's Monte Carlo checks each need a standard error, so two
# rollouts at least
_MINIMUM_COUNTS = {"rollouts": 1, "models": 0, "trace_rollouts": 0, "workers": 1,
                   "seed": 0}
_COMMAND_MINIMUMS = {"verify": {"rollouts": 2}}


class _UsageError(Exception):
    pass


class _InvalidError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose own complaints use the usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB.  Linux's ``VmHWM``
    (KiB) counts this process alone.  ``ru_maxrss``, read where
    ``/proc/self/status`` gives no ``VmHWM``, can start at the peak of the
    process that started this one (KiB on Linux, bytes on macOS)."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 2**10
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _default_workers() -> int:
    """The CPUs this process may run on, not every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_model(path: str) -> TeamModel:
    if not os.path.exists(path):
        raise _UsageError(f"model file not found: {path}")
    try:
        return load_model(path)
    except ValueError as exc:
        raise _InvalidError(f"model file rejected: {exc}") from exc


def _load_validated_model(path: str) -> TeamModel:
    model = _read_model(path)
    report = validate(model)
    if not report.ok:
        lines = "\n".join(f"  - {v}" for v in report.violations)
        raise _InvalidError(f"model failed validation:\n{lines}")
    return model


def _make_out_dir(path: str) -> None:
    """Create the ``--out`` directory, before any rollout, sweep or suite
    starts; a path that cannot be one is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _UsageError(
            f"--out cannot be a directory: {path!r} ({exc.strerror})") from exc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(out_dir: str, command: str, files: dict, **fields) -> None:
    """Write ``files`` into ``out_dir``, then its ``manifest.json``.

    ``files`` maps each file name to a JSON document (a dict) or to a CSV
    table, a ``(header, rows)`` pair whose cells are strings or ints; the
    manifest's ``outputs`` lists the names written.
    """
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, dict):
            _write_json(path, content)
            continue
        header, rows = content
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    _write_json(os.path.join(out_dir, "manifest.json"), dict(
        fields, command=command, version=__version__, timestamp_utc=_utc_now(),
        out_dir=out_dir, outputs=sorted(files), peak_rss_mb=_peak_rss_mb()))


def cmd_validate(args) -> int:
    report = validate(_read_model(args.model))
    if report.ok:
        print("0 violations")
        return EXIT_OK
    print(f"{len(report.violations)} violations")
    for violation in report.violations:
        print(f"  - {violation}")
    return EXIT_INVALID


def _schedules(model: TeamModel) -> dict[str, dict]:
    """The precomputed schedule files: file name -> JSON document."""
    gains = solve_riccati(model)
    local, glob = precompute_filters(model)
    return {
        "riccati.json": schedule_to_json_dict(gains),
        "local_filter.json": schedule_to_json_dict(local),
        "global_filter.json": schedule_to_json_dict(glob),
    }


def cmd_precompute(args) -> int:
    model = _load_validated_model(args.model)
    _make_out_dir(args.out)
    files = _schedules(model)
    _write_outputs(args.out, "precompute", files,
                   model=os.path.abspath(args.model))
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return EXIT_OK


def _parse_strategy_arg(text: str, model: TeamModel):
    if "\r" in text:
        # csv quotes a newline but not a lone carriage return, which would
        # split the strategy's costs.csv rows when read back
        raise _UsageError(f"strategy holds a carriage return: {text!r}")
    try:
        return parse_strategy(text, model)
    except FileNotFoundError as exc:
        raise _UsageError(f"strategy file not found: {exc.filename}") from exc
    except ValueError as exc:
        if text.startswith("custom:"):
            raise _InvalidError(f"strategy file rejected: {exc}") from exc
        raise _UsageError(str(exc)) from exc


def cmd_simulate(args) -> int:
    model = _load_validated_model(args.model)
    kind = _parse_strategy_arg(args.strategy, model)
    _make_out_dir(args.out)
    keep = args.trace_rollouts if args.record == "full" else 0
    batch = run_rollouts(model, kind, seed=args.seed, n_rollouts=args.rollouts,
                         workers=args.workers, keep_traces=keep)
    files = {"costs.csv": (
        ["rollout", "strategy", "cost"],
        ((index, args.strategy, _fmt(cost))
         for index, cost in enumerate(batch.costs.tolist())))}
    if keep:
        files["trace.csv"] = _trace_table(batch.traces)
    _write_outputs(args.out, "simulate", files,
                   model=os.path.abspath(args.model), strategy=args.strategy,
                   seed=args.seed, rollouts=args.rollouts,
                   workers=args.workers, record=args.record)
    mean, stderr = _mean_se(batch.costs)
    print(f"mean cost {_fmt(mean)} (stderr {_fmt(stderr)}, "
          f"{batch.costs.size} rollouts)")
    print(f"max cost-split residual {_fmt(batch.residual_max)}")
    return EXIT_OK


def _trace_table(traces) -> tuple[list[str], Iterator]:
    """Long-format trace: one row per recorded component of every field of
    each ``Trace`` that is not None, in field order.

    Stage indices are 1-based; agents are numbered 1..n, with -1 marking
    the population rows of a field with no agent axis; components index
    into vectors, 1-based, and a scalar per stage is component 1.
    """

    def rows(rollout, name, array):
        # (stage, agent, component), with one agent for a population row
        stages = np.expand_dims(array, tuple(range(1, 4 - array.ndim)))
        t, agent, comp = (np.indices(stages.shape) + 1).reshape(3, -1).tolist()
        return zip(repeat(rollout), t, agent if array.ndim == 3 else repeat(-1),
                   repeat(name), comp, map(_fmt, stages.ravel().tolist()))

    return (["rollout", "t", "agent", "variable", "component", "value"],
            chain.from_iterable(
                rows(rollout, field.name, getattr(trace, field.name))
                for rollout, trace in enumerate(traces)
                for field in fields(trace)
                if getattr(trace, field.name) is not None))


def _check_precomputed(model: TeamModel, directory: str) -> bool:
    """Re-derive all schedules and compare each stored document with the
    fresh one; floats parse back exactly, so equal means bit for bit.  A
    stored file that does not parse is not equal."""
    for name, doc in _schedules(model).items():
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise _UsageError(f"precomputed file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                stored = json.load(fh)
            except ValueError:      # not JSON, or not UTF-8
                return False
        if stored != doc:
            return False
    return True


def cmd_verify(args) -> int:
    roundtrip_ok = None
    if args.model and not args.precomputed:
        raise _UsageError("--model requires --precomputed")
    if args.precomputed:
        if not args.model:
            raise _UsageError("--precomputed requires --model")
        model = _load_validated_model(args.model)
        roundtrip_ok = _check_precomputed(model, args.precomputed)
    if args.out is not None:
        _make_out_dir(args.out)
    report = run_verification_suite(n_models=args.models, seed=args.seed,
                                    mc_rollouts=args.rollouts,
                                    workers=args.workers)
    doc = report.to_json_dict()
    if roundtrip_ok is not None:
        doc["precomputed_roundtrip_ok"] = roundtrip_ok
        doc["ok"] = doc["ok"] and roundtrip_ok
    if args.out is not None:
        _write_outputs(args.out, "verify", {"verification.json": doc},
                       models=args.models, seed=args.seed,
                       rollouts=args.rollouts)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if doc["ok"] else EXIT_INVALID


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad n-list {text!r}: {exc}") from exc
    if len(values) < 2 or any(v < 2 for v in values):
        raise _UsageError("n-list needs at least two entries, each >= 2")
    return values


def cmd_convergence(args) -> int:
    if args.model:
        model = _load_validated_model(args.model)
        if _alpha_spread(model) > 0.0:
            raise _InvalidError(
                "convergence experiment needs uniform influence weights")
    else:
        model = benchmark_convergence_model()
    n_list = _parse_n_list(args.n_list)
    _make_out_dir(args.out)
    result = convergence_experiment(model, n_list, rollouts=args.rollouts,
                                    seed=args.seed, workers=args.workers)
    # a slope that cannot be fit (NaN) is written as null
    slopes = {key: None if np.isnan(value) else value
              for key, value in result.__dict__.items()
              if key.startswith("slope_")}
    summary = dict(slopes, rows=[
        dict(row.__dict__, n_exact_gap=row.n * row.exact_gap)
        for row in result.rows])
    columns = ["n", "max_sigma_bar", "ms_correction", "cost_gap", "gap_se",
               "exact_gap"]
    table = [[row.n, *(_fmt(getattr(row, key)) for key in columns[1:])]
             for row in result.rows]
    _write_outputs(args.out, "convergence",
                   {"convergence.csv": (columns, table),
                    "convergence_summary.json": summary},
                   model=(os.path.abspath(args.model) if args.model
                          else "builtin:benchmark"),
                   n_list=list(n_list), seed=args.seed,
                   rollouts=args.rollouts)
    shown = {key: "undefined" if value is None else _fmt(value)
             for key, value in slopes.items()}
    print(f"slopes: sigma {shown['slope_sigma']}, "
          f"correction {shown['slope_correction']}, "
          f"gap {shown['slope_gap']}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="teamlqg",
                     description="Decentralized control and estimation for "
                                 "influence-coupled teams")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("precompute", help="write gain and filter schedules")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("simulate", help="Monte Carlo rollouts of one strategy")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", default="optimal",
                   help="optimal | meanfield | zero | custom:<file>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rollouts", type=int, default=1000)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", default=".")
    p.add_argument("--record", choices=("costs", "full"), default="costs")
    p.add_argument("--trace-rollouts", type=int, default=10,
                   help="rollouts recorded in trace.csv under --record full")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the randomized oracle suite")
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rollouts", type=int, default=100_000,
                   help="Monte Carlo rollouts for the cost cross-checks")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", default=None)
    p.add_argument("--model", default=None,
                   help="model for the --precomputed round-trip check")
    p.add_argument("--precomputed", default=None,
                   help="directory of schedules to re-derive and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", help="population-size scaling study")
    p.add_argument("--model", default=None,
                   help="uniform-influence model file (default: built-in)")
    p.add_argument("--n-list", default="4,16,64,256")
    p.add_argument("--rollouts", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    # the oracle runs at every n; the old cap is accepted and ignored
    p.add_argument("--oracle-cap", type=int, help=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, low in {**_MINIMUM_COUNTS,
                          **_COMMAND_MINIMUMS.get(args.command, {})}.items():
            if getattr(args, name, low) < low:
                flag = "--" + name.replace("_", "-")
                raise _UsageError(f"{flag} must be at least {low}")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InvalidError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
