"""Benchmark two local git revisions in alternating pairs and write the
before/after file `BENCH_<n>.json`.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD \
        --workload inpaint=10 --workload audit=5 --workload train=5 \
        --seed 9100 --out BENCH_6.json

Each revision's committed files are exported (`git archive`) into a new
temporary directory, so uncommitted edits and stale build products take no
part. For every workload, pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

where T is the `run_seconds` of the change's BENCHMARK.json, once in
each export with the same seed, base first on even i and change
first on odd i, so that a drift in machine speed falls on both sides
alike. The output holds every run's end-to-end metrics and, per workload,
the median and quartiles of each side, the ratio of the medians and the
number of pairs in which the change was better (the `better` direction of
BENCHMARK.json). The exports are deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision measured before the change")
    p.add_argument("--change", required=True, help="git revision measured after it")
    p.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS",
                   help="a workload and its number of pairs; repeat for more workloads")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--repo", default=".", help="the git repository (default: .)")
    p.add_argument("--workdir", default=None, help="where the exports go (default: system temp)")
    args = p.parse_args(argv)
    args.workloads = []
    for item in args.workload:
        name, _, pairs = item.partition("=")
        if not name or not pairs.isdigit() or int(pairs) < 1:
            p.error(f"--workload takes NAME=PAIRS with PAIRS >= 1, got {item!r}")
        args.workloads.append((name, int(pairs)))
    return args


def git(repo: Path, *argv: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *argv], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(repo: Path, commit: str, dest: Path) -> None:
    """Write the files `commit` tracks into the new directory `dest`."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                       stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in the export `root`: its result line and env."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env,
            "metrics": {n: m["value"] for n, m in result["metrics"].items()}}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Median, quartiles and wins of each metric over a workload's pairs.
    `better` maps a metric name to "lower" or "higher"."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        med = {side: statistics.median(v) for side, v in values.items()}
        quart = {side: statistics.quantiles(v, n=4)[::2] if len(v) > 1 else v * 2
                 for side, v in values.items()}
        wins = sum((c < b) if direction == "lower" else (c > b)
                   for b, c in zip(values["base"], values["change"]))
        out[name] = {"better": direction, "median": med, "quartiles": quart,
                     "ratio": med["change"] / med["base"] if med["base"] else None,
                     "change_better_in": f"{wins}/{len(pairs)}"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(args.repo).resolve()
    commits = {side: git(repo, "rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
               for side in SIDES}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(repo, commits[side], roots[side])
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        report = {
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                       "--trace 0",
            "revisions": {side: {"rev": getattr(args, side), "commit": commits[side],
                                 "subject": git(repo, "log", "-1", "--format=%s",
                                                commits[side])}
                          for side in SIDES},
            "started": started,
            "workloads": {},
        }
        for w, (workload, n_pairs) in enumerate(args.workloads):
            pairs = []
            for i in range(n_pairs):
                seed = args.seed + 100 * w + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run_bench(roots[side], workload, seed, seconds)
                    print(f"{workload} pair {i + 1}/{n_pairs} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()),
                          file=sys.stderr)
                report.setdefault("env", pair[order[0]].pop("env"))
                for side in SIDES:
                    pair[side].pop("env", None)
                pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs,
                                             "summary": summarise(pairs, better)}
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
