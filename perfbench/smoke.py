"""Smoke test of the benchmark harness at tiny sizes.

Usage: python3 perfbench/smoke.py   (from the repository root)

Runs every workload, listed in BENCHMARK.json or not, with tracing off and
on, and checks that each metric named in BENCHMARK.json is printed, by name
and with its unit, both as a report line and in the final JSON line, and
that the JSON line holds no other metric.  Exits 1 on the first miss.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in NAMES:
        for trace, metrics in groups.items():
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"FAIL {label}: result keys {sorted(result)}")
                return 1
            extra = set(result["metrics"]) - {m["name"] for m in metrics}
            if extra:
                print(f"FAIL {label}: metrics not in BENCHMARK.json {extra}")
                return 1
            for m in metrics:
                got = result["metrics"].get(m["name"])
                printed = any(line.startswith(f"{m['name']}: ")
                              and f" {m['unit']}" in line
                              for line in lines[:-1])
                if got is None or got["unit"] != m["unit"] or not printed:
                    print(f"FAIL {label}: {m['name']} [{m['unit']}] missing")
                    return 1
            if not any(line.startswith("fail_frac: ") for line in lines):
                print(f"FAIL {label}: no fail_frac line")
                return 1
            print(f"ok {label}: {len(metrics)} metrics, "
                  f"{result['failed']} of {result['attempted']} checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
