"""Mutation check of the test suite: does tier-1 fail on each known mutant?

Each mutant is one exact line of a source file and the line that replaces
it.  For each, in turn, the repository is copied to a temporary directory,
the line is replaced there, and tier-1 runs on the copy with ``-x``.  The
mutant is "killed" when a test fails, named with the first failing test,
and "survived" when every test passes.  A mutant whose line no longer
occurs exactly once is reported as "does not apply": the list needs
updating, and the mutant is not counted either way.  The unmutated copy
runs first and must pass, or no verdict would mean anything.

Run from anywhere, with pytest and hypothesis installed:

    python3 devtools/mutants.py

It takes one tier-1 run per mutant plus one, and prints one line per
mutant and a total.  The exit status is 0 when every mutant applied and
was killed, else 1.  The list is never pruned to raise the kill rate: a
survivor is a check still to write.  Mutants run one at a time, so the
copies never compete for memory or cores.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 1800


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the repository root
    old: str            # the whole line, indentation included
    new: str


MUTANTS = (
    Mutant("deviation projection dropped", "src/teamlqg/filters.py",
           "    delta -= (delta @ alpha / n)[..., None] * scale",
           "    pass"),
    Mutant("wrong covariance update", "src/teamlqg/filters.py",
           "        post = (np.eye(d_x) - gain[:, t] @ C[:, t]) @ sigma_pred[:, t]",
           "        post = (np.eye(d_x) + gain[:, t] @ C[:, t]) @ sigma_pred[:, t]"),
    Mutant("aggregate noise not divided by n", "src/teamlqg/filters.py",
           "    n = np.array([1.0, model.dims.n])[pick, None, None]",
           "    n = np.array([1.0, 1.0])[pick, None, None]"),
    Mutant("mean-field plan on the deviation gain", "src/teamlqg/strategy.py",
           "        u_bar[t] = gains.gain_agg[t] @ mean[t]",
           "        u_bar[t] = gains.gain[t] @ mean[t]"),
    Mutant("direct cost's R_bar term off by 1e-6", "src/teamlqg/sim.py",
           "            direct += _quad_each(u, R) + _quad(u_bar, model.R_bar[t])",
           "            direct += _quad_each(u, R) + _quad(u_bar, model.R_bar[t] + 1e-6)"),
    Mutant("complement weight n - r + 1", "src/teamlqg/oracle.py",
           "            weight.append(float(n - len(ones)))",
           "            weight.append(float(n - len(ones) + 1))"),
    Mutant("_merge ignores non-finite costs", "src/teamlqg/sim.py",
           "    bad = int(np.count_nonzero(~np.isfinite(merged.costs)))",
           "    bad = 0"),
    Mutant("unweighted aggregate innovation", "src/teamlqg/filters.py",
           "    agg_innov = raw @ alpha / n",
           "    agg_innov = raw.sum(axis=-1) / n"),
    Mutant("unsymmetrized Riccati inner matrix", "src/teamlqg/riccati.py",
           "        inner = 0.5 * (inner + inner.swapaxes(-1, -2))",
           "        pass"),
    Mutant("no relative singularity threshold", "src/teamlqg/filters.py",
           "_SINGULAR_REL = 1e-12",
           "_SINGULAR_REL = 0.0"),
    Mutant("mean-field plan starts at mu_x", "src/teamlqg/strategy.py",
           "    mean[0] = model.alpha_mean * model.mu_x",
           "    mean[0] = model.mu_x"),
    Mutant("aggregate chain without X_bar", "src/teamlqg/model.py",
           '                                       + getattr(self, key + "_bar")]))',
           '                                       + 0.0 * getattr(self, key + "_bar")]))'),
    Mutant("split cost on the deviation chain's Q", "src/teamlqg/sim.py",
           '        split = _quad(x_bar, model.chains["Q"][1, t]) \\',
           '        split = _quad(x_bar, model.chains["Q"][0, t]) \\'),
    Mutant("model not frozen by its type", "src/teamlqg/model.py",
           "            _freeze(getattr(self, f.name))",
           "            pass"),
    Mutant("residual blind to the split table", "src/teamlqg/sim.py",
           "    residual_max = float((np.abs(stage_costs - split_costs)",
           "    residual_max = float((np.abs(stage_costs - stage_costs)"),
    Mutant("deviation filter noise divided by n", "src/teamlqg/filters.py",
           "    n = np.array([1.0, model.dims.n])[pick, None, None]",
           "    n = np.array([model.dims.n, model.dims.n])[pick, None, None]"),
    Mutant("filter process noise from stage t + 1", "src/teamlqg/filters.py",
           "                   + E[:, t] @ model.Sigma_w[t] @ E[:, t].swapaxes(-1, -2) / n)",
           "                   + E[:, t] @ model.Sigma_w[t + 1] @ E[:, t].swapaxes(-1, -2) / n)"),
    Mutant("trace writer skips est_err", "src/teamlqg/cli.py",
           "                if getattr(trace, field.name) is not None))",
           '                if getattr(trace, field.name) is not None and field.name != "est_err"))'),
    Mutant("unknown keys not rejected", "src/teamlqg/model.py",
           "    if unknown:",
           "    if False:"),
    Mutant("no minimum --seed", "src/teamlqg/cli.py",
           '                   "seed": 0}',
           "                   }"),
)


def _copy_repo(dest: Path) -> None:
    shutil.copytree(REPO, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
        ".perfbench_work"))


def _apply(root: Path, mutant: Mutant) -> bool:
    """Replace the mutant's line in the copy; False when it is not there
    exactly once."""
    path = root / mutant.path
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == mutant.old]
    if len(hits) != 1:
        return False
    lines[hits[0]] = mutant.new
    path.write_text("\n".join(lines))
    return True


def _tier1(root: Path) -> tuple[bool, str]:
    """Run tier-1 on a copy with -x: whether it passed, and if not, the
    first failing test (or why none is named)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
           "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if run.returncode == 0:
        return True, ""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, flags=re.M)
    return False, found.group(1) if found else f"exit {run.returncode}"


def _run_one(mutant: Mutant | None) -> tuple[str, str]:
    """The verdict on one mutant, or on the unmutated copy when None, and
    what killed it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        _copy_repo(root)
        if mutant is not None and not _apply(root, mutant):
            return "does not apply", ""
        passed, detail = _tier1(root)
        return ("survived" if passed else "killed"), detail


def main() -> int:
    verdict, detail = _run_one(None)
    if verdict != "survived":
        print(f"unmutated tier-1 failed ({detail}): no verdict is possible")
        return 1
    counts = {"killed": 0, "survived": 0, "does not apply": 0}
    for mutant in MUTANTS:
        verdict, detail = _run_one(mutant)
        counts[verdict] += 1
        print(f"{verdict:15} {mutant.name} [{mutant.path}]"
              + (f" by {detail}" if detail else ""), flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()),
          f"of {len(MUTANTS)}")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
