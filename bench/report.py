"""Run every workload of BENCHMARK.json and print each metric by name and unit.

    python3 bench/report.py [--seed 0] [--seconds N] [--trace 0]

Each workload runs as its own `bench/run.py` process, one after another.
The table includes the per-workload names printed by run.py besides the
JSON metrics (train_samples_per_s, audit_pairs_per_s, depth_profile_s,
fail_frac, passes); a blank cell means the workload has no such metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    table: dict[str, dict[str, str]] = {}
    units: dict[str, str] = {}
    names = [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{workload}: output checks failed\n{proc.stderr}", file=sys.stderr)
            status = 1
        print(f"{workload}: {lines[0]}")
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, name, value, unit = line.split(" ", 3)
                table.setdefault(name, {})[workload] = f"{float(value):.6g}"
                units[name] = unit
    width = max(map(len, table), default=10)
    print(f"{'metric':<{width}}  {'unit':<8}" + "".join(f"{w:>12}" for w in names))
    for name, row in table.items():
        print(f"{name:<{width}}  {units[name]:<8}" + "".join(f"{row.get(w, ''):>12}"
                                                           for w in names))
    return status


if __name__ == "__main__":
    sys.exit(main())
