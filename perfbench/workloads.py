"""The three benchmark workloads: inputs drawn from a seed, command lines, checks.

Each workload is one closed-loop batch job through the ``teamlqg`` CLI.  The
benchmark draws the model from the workload seed, writes it to disk, and
hands the program only that file and flags.  Every check is NaN-aware: a
comparison is written so that a NaN makes it fail.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

MC_SIGMA = 5.0
RESIDUAL_TOL = 1e-9
SLOPE_TOL = 1e-6

# Run sizes; ``tiny`` is only for the harness smoke test.
SIZES = {
    "mc-long-horizon": {
        "full": {"T": 200, "rollouts": 4096},
        "tiny": {"T": 20, "rollouts": 64},
    },
    "convergence-large-team": {
        "full": {"T": 10, "n_list": (4, 16, 128, 1024), "rollouts": 256,
                 "oracle_cap": 256},
        "tiny": {"T": 4, "n_list": (2, 4, 8), "rollouts": 16,
                 "oracle_cap": 8},
    },
    "verify-many-models": {
        "full": {"models": 200, "rollouts": 500},
        "tiny": {"models": 3, "rollouts": 50},
    },
}
NAMES = tuple(SIZES)
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One generated workload, ready to run."""

    model_path: str
    output: str                 # primary output file, compared bit for bit
    cli_args: Callable[[int, str], list[str]]   # (workers, out_dir) -> argv
    agent_stages: int | None    # computed from the flags, where defined
    check: Callable[[str, str], list[tuple[str, bool]]]  # (out_dir, stdout)
    prep: tuple[list[str], ...] = ()   # untimed CLI runs that make inputs


def _le(value: float, bound: float) -> bool:
    """value <= bound, false for NaN."""
    return bool(value <= bound)


def _draw_team(rng: np.random.Generator, *, n: int, T: int, d: int,
               uniform: bool):
    """A stable, well-posed team with d-dimensional states, actions, sensors."""
    from teamlqg import make_model, normalize_influence

    def scaled(norm: float) -> np.ndarray:
        m = rng.standard_normal((d, d))
        return m * (norm / np.linalg.norm(m, 2))

    def spread(scale: float) -> np.ndarray:
        return scale * rng.standard_normal((d, d)) / np.sqrt(d)

    def pd(floor: float) -> np.ndarray:
        g = rng.standard_normal((d, d + 2))
        return g @ g.T / (d + 2) + floor * np.eye(d)

    alpha = (np.ones(n) if uniform else normalize_influence(
        rng.uniform(0.3, 1.7, n) * rng.choice([-1.0, 1.0], n)))
    return make_model(
        T=T, alpha=alpha,
        A=scaled(rng.uniform(0.8, 1.0)), A_bar=scaled(rng.uniform(0.1, 0.3)),
        B=spread(1.0), B_bar=spread(0.3),
        C=spread(1.0), C_bar=spread(0.4),
        Q=pd(0.5), Q_bar=0.5 * pd(0.0), R=pd(0.5), R_bar=0.2 * pd(0.0),
        mu_x=rng.standard_normal(d),
        Sigma_x=pd(0.2), Sigma_w=pd(0.2), Sigma_v=pd(0.3),
    )


def _read_costs(path: str) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        return np.array([float(row["cost"]) for row in csv.DictReader(fh)])


def _stdout_float(stdout: str, prefix: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return math.nan


def _mc_long_horizon(seed: int, work: str, size: dict) -> Workload:
    from teamlqg import exact_cost, make_model, save_model
    from teamlqg.strategy import Optimal

    # Open-loop-unstable A with near-noiseless sensing over a long horizon.
    rng = np.random.default_rng(seed)
    T, rollouts, n = size["T"], size["rollouts"], 3
    model = make_model(
        T=T, n=n, A=rng.uniform(1.25, 1.35), A_bar=rng.uniform(0.15, 0.25),
        B=1.0, C=1.0, C_bar=rng.uniform(0.2, 0.4), Q=1.0, R=1e-6,
        Sigma_v=1e-8, Sigma_w=1.0, Sigma_x=1.0, mu_x=rng.uniform(0.5, 1.5))
    path = os.path.join(work, "mc_model.json")
    save_model(model, path)
    exact = exact_cost(model, Optimal())

    def cli_args(workers: int, out: str) -> list[str]:
        return ["simulate", "--model", path, "--strategy", "optimal",
                "--workers", str(workers), "--record", "costs",
                "--rollouts", str(rollouts), "--seed", str(seed),
                "--out", out]

    def check(out: str, stdout: str) -> list[tuple[str, bool]]:
        costs = _read_costs(os.path.join(out, "costs.csv"))
        finite = costs.size == rollouts and bool(np.isfinite(costs).all())
        stderr = float(costs.std(ddof=1) / np.sqrt(costs.size))
        gap = abs(float(costs.mean()) - exact)
        residual = _stdout_float(stdout, "max cost-split residual ")
        return [
            ("costs finite", finite),
            ("MC mean within 5 stderr of exact_cost",
             finite and _le(gap, MC_SIGMA * stderr)),
            ("residual_max <= 1e-9", _le(residual, RESIDUAL_TOL)),
        ]

    return Workload(path, "costs.csv", cli_args, rollouts * n * T, check)


def _convergence_large_team(seed: int, work: str, size: dict) -> Workload:
    from teamlqg import save_model

    rng = np.random.default_rng(seed)
    T, rollouts, cap = size["T"], size["rollouts"], size["oracle_cap"]
    n_list, d = size["n_list"], 2
    model = _draw_team(rng, n=n_list[0], T=T, d=d, uniform=True)
    path = os.path.join(work, "convergence_model.json")
    save_model(model, path)

    def cli_args(workers: int, out: str) -> list[str]:
        return ["convergence", "--model", path,
                "--n-list", ",".join(map(str, n_list)),
                "--rollouts", str(rollouts), "--seed", str(seed),
                "--oracle-cap", str(cap), "--workers", str(workers),
                "--out", out]

    def check(out: str, stdout: str) -> list[tuple[str, bool]]:
        with open(os.path.join(out, "convergence_summary.json"),
                  encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = summary["rows"]
        checks = [("one row per n", [r["n"] for r in rows] == list(n_list))]
        for r in rows:
            oracle_ran = r["n"] * d <= cap
            values = [r["max_sigma_bar"], r["ms_correction"], r["cost_gap"],
                      r["gap_se"]] + ([r["exact_gap"]] if oracle_ran else [])
            finite = all(math.isfinite(v) for v in values)
            checks.append((f"n={r['n']} costs finite", finite))
            if oracle_ran:
                checks.append((
                    f"n={r['n']} |cost_gap - exact_gap| <= 5 gap_se",
                    _le(abs(r["cost_gap"] - r["exact_gap"]),
                        MC_SIGMA * r["gap_se"])))
        checks.append(("slope_sigma == -1 within 1e-6",
                       _le(abs(summary["slope_sigma"] + 1.0), SLOPE_TOL)))
        return checks

    stages = sum(3 * rollouts * n * T for n in n_list)  # optimal + paired pass
    return Workload(path, "convergence.csv", cli_args, stages, check)


def _verify_many_models(seed: int, work: str, size: dict) -> Workload:
    from teamlqg import save_model

    rng = np.random.default_rng(seed)
    model = _draw_team(rng, n=5, T=10, d=2, uniform=False)
    path = os.path.join(work, "verify_model.json")
    save_model(model, path)
    precomputed = os.path.join(work, "precomputed")

    def cli_args(workers: int, out: str) -> list[str]:
        return ["verify", "--models", str(size["models"]),
                "--rollouts", str(size["rollouts"]), "--seed", str(seed),
                "--workers", str(workers), "--model", path,
                "--precomputed", precomputed, "--out", out]

    def check(out: str, stdout: str) -> list[tuple[str, bool]]:
        with open(os.path.join(out, "verification.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        values = [doc["max_estimate_deviation"],
                  doc["max_covariance_deviation"],
                  doc["max_cost_split_residual"]]
        for c in doc["mc_checks"]:
            values += [c["sampled"], c["exact"], c["stderr"]]
        return [
            ("costs finite", all(math.isfinite(v) for v in values)),
            ('"ok": true in verification.json', doc["ok"] is True),
        ]

    prep = ["precompute", "--model", path, "--out", precomputed]
    return Workload(path, "verification.json", cli_args, None, check,
                    prep=(prep,))


_BUILDERS = {
    "mc-long-horizon": _mc_long_horizon,
    "convergence-large-team": _convergence_large_team,
    "verify-many-models": _verify_many_models,
}


def build(name: str, seed: int, work: str, tiny: bool = False) -> Workload:
    """Draw the workload's inputs from ``seed`` into ``work``."""
    return _BUILDERS[name](seed, work, SIZES[name]["tiny" if tiny else "full"])
