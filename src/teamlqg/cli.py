"""Command-line interface: validate, precompute, simulate, verify, convergence.

Exit codes: 0 success, 1 model or invariant validation failure, 2 numerical
failure inside a recursion or a non-finite simulated cost, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from datetime import datetime, timezone

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

# the smallest value of each count flag, checked before any work
_MINIMUM_COUNTS = {"rollouts": 1, "models": 0, "trace_rollouts": 0, "workers": 1}


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
    """Peak resident set of this process so far, in MiB; ``ru_maxrss`` is
    in KiB on Linux and in bytes on macOS."""
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


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, command: str, outputs: list[str],
                    **fields) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "timestamp_utc": _utc_now(),
        "out_dir": out_dir,
        "outputs": outputs,
    }
    doc.update(fields)
    doc["peak_rss_mb"] = _peak_rss_mb()
    _write_json(os.path.join(out_dir, "manifest.json"), doc)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


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
    out = _ensure_out(args.out)
    files = _schedules(model)
    for name, doc in files.items():
        _write_json(os.path.join(out, name), doc)
    _write_manifest(out, "precompute", sorted(files),
                    model=os.path.abspath(args.model))
    print(f"wrote {', '.join(sorted(files))} to {out}")
    return EXIT_OK


def _parse_strategy_arg(text: str, model: TeamModel):
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
    out = _ensure_out(args.out)
    keep = args.trace_rollouts if args.record == "full" else 0
    batch = run_rollouts(model, kind, seed=args.seed, n_rollouts=args.rollouts,
                         workers=args.workers, keep_traces=keep)
    costs_path = os.path.join(out, "costs.csv")
    with open(costs_path, "w", encoding="utf-8") as fh:
        fh.write("rollout,strategy,cost\n")
        for index, cost in enumerate(batch.costs):
            fh.write(f"{index},{args.strategy},{_fmt(cost)}\n")
    outputs = ["costs.csv"]
    if keep:
        _write_trace_csv(os.path.join(out, "trace.csv"), batch.traces)
        outputs.append("trace.csv")
    _write_manifest(out, "simulate", sorted(outputs),
                    model=os.path.abspath(args.model), strategy=args.strategy,
                    seed=args.seed, rollouts=args.rollouts,
                    workers=args.workers, record=args.record)
    mean, stderr = _mean_se(batch.costs)
    print(f"mean cost {_fmt(mean)} (stderr {_fmt(stderr)}, "
          f"{batch.costs.size} rollouts)")
    print(f"max cost-split residual {_fmt(batch.residual_max)}")
    return EXIT_OK


def _write_trace_csv(path: str, traces) -> None:
    """Long-format trace: one row per recorded component.

    Stage indices are 1-based; agents are numbered 1..n with -1 marking
    population-aggregate rows; components index into vectors, 1-based.
    """

    def emit(fh, rollout, name, array, aggregate):
        for t, stage in enumerate(array[:, None] if aggregate else array):
            for agent, values in enumerate(stage):
                label = -1 if aggregate else agent + 1
                for comp, value in enumerate(values.reshape(-1)):
                    fh.write(f"{rollout},{t + 1},{label},{name},{comp + 1},"
                             f"{_fmt(value)}\n")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rollout,t,agent,variable,component,value\n")
        for rollout, trace in enumerate(traces):
            emit(fh, rollout, "x", trace.x, False)
            emit(fh, rollout, "u", trace.u, False)
            emit(fh, rollout, "y", trace.y, False)
            emit(fh, rollout, "x_bar", trace.x_bar, True)
            emit(fh, rollout, "u_bar", trace.u_bar, True)
            emit(fh, rollout, "y_bar", trace.y_bar, True)
            emit(fh, rollout, "stage_cost", trace.stage_cost[:, None], True)
            if trace.delta_xhat is not None:
                emit(fh, rollout, "delta_xhat", trace.delta_xhat, False)
                emit(fh, rollout, "combined_xhat", trace.combined_xhat, False)
                emit(fh, rollout, "est_err", trace.est_err, False)
                emit(fh, rollout, "agg_xhat", trace.agg_xhat, True)


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
    report = run_verification_suite(n_models=args.models, seed=args.seed,
                                    mc_rollouts=args.rollouts,
                                    workers=args.workers)
    doc = report.to_json_dict()
    if roundtrip_ok is not None:
        doc["precomputed_roundtrip_ok"] = roundtrip_ok
        doc["ok"] = doc["ok"] and roundtrip_ok
    if args.out:
        out = _ensure_out(args.out)
        _write_json(os.path.join(out, "verification.json"), doc)
        _write_manifest(out, "verify", ["verification.json"],
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
    result = convergence_experiment(model, n_list, rollouts=args.rollouts,
                                    seed=args.seed, workers=args.workers)
    out = _ensure_out(args.out)
    csv_path = os.path.join(out, "convergence.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("n,max_sigma_bar,ms_correction,cost_gap,gap_se,exact_gap\n")
        for row in result.rows:
            fh.write(",".join([
                str(row.n), _fmt(row.max_sigma_bar), _fmt(row.ms_correction),
                _fmt(row.cost_gap), _fmt(row.gap_se), _fmt(row.exact_gap),
            ]) + "\n")
    # a slope that cannot be fit (NaN) is written as null
    slopes = {key: None if np.isnan(value) else value
              for key, value in result.__dict__.items()
              if key.startswith("slope_")}
    summary = dict(slopes, rows=[
        dict(row.__dict__, n_exact_gap=row.n * row.exact_gap)
        for row in result.rows])
    _write_json(os.path.join(out, "convergence_summary.json"), summary)
    _write_manifest(out, "convergence",
                    ["convergence.csv", "convergence_summary.json"],
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
        for name, low in _MINIMUM_COUNTS.items():
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
