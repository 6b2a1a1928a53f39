"""Run one benchmark workload through the aliascope CLI and print its metrics.

    python3 bench/run.py --workload audit --seed 0 --seconds 30 --trace 0

Set-up writes the workload's inputs (the median of several normalised
set-ups gives `setup_s`). Then whole passes of the workload's commands run
back to back, in this process via `aliascope.cli.main(argv)`, for about
`--seconds`.
Each command's time is normalised by a reference kernel timed around it
(see calibrate.py), and each metric takes a command's median over the
passes. Every command's output is checked. With `--trace 0` the last line
of stdout holds the end-to-end metrics of BENCHMARK.json; with `--trace 1`
it holds the per-layer metrics: untraced and traced passes alternate, the
public functions of the library modules are wrapped around the set-up and
the commands of traced passes, and the `nn.probe.*` kernel table runs at
the end.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # pinned for every run, so runs on different commits compare
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS, SETUP_SECONDS = 5, 1.5
TRACED_MODULES = ("nn", "transforms", "audit", "data", "sampling", "theory", "biasstat", "cli")
RAW, NORMALISED = 1, 3  # fields of a command result holding its time
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_record(np) -> dict:
    """BLAS name and the thread count the loaded library reports."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                threads = int(getattr(lib, fn)())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "blas_threads_pinned": BLAS_THREADS}


def mark_topdir(path: Path) -> None:
    """Mark a directory as a top of a tree (`chattr +T`), so that ext4 puts
    each directory made in it, and the files under that, in a block group
    of its own. Without it, a run's files share a group with the files the
    runs before it deleted. Ext4 without a journal skips every inode deleted
    in the last one to six minutes while it looks for a free one, so that
    creating a file costs up to 0.5 ms more and set-up time swings tenfold
    with what ran before. Other file systems are left as they are."""
    import array
    import fcntl

    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags)
    except OSError:
        pass
    finally:
        os.close(fd)


def run_command(cmd, tracer=None) -> tuple[bool, float, int]:
    """Run one command: (ok, seconds inside cli.main, work items). A given
    tracer is installed around the command only, not around its check."""
    from workloads import check_manifest, run_cli

    for out in cmd.outputs:
        for stale in (out, Path(f"{out}.manifest.json")):
            if stale.is_file():
                stale.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = run_cli(cmd.argv)
    except SystemExit as exc:  # argparse usage error
        rc = exc.code
    except Exception:
        rc = traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer:
        tracer.restore()
    if rc != 0:
        print(f"FAIL {cmd.name}: exit {rc}\n{stderr.getvalue()}", file=sys.stderr)
        return False, dt, 0
    try:
        items = cmd.check(stdout.getvalue())
        for out in cmd.outputs:
            check_manifest(out)
    except Exception:  # a failed check is a failed operation, not a crash
        print(f"FAIL {cmd.name}: output check\n{traceback.format_exc()}", file=sys.stderr)
        return False, dt, 0
    return True, dt, items


def run_pass(commands, tracer=None) -> list[tuple[bool, float, int, float]]:
    """Run every command once: (ok, seconds, items, normalised seconds). The
    reference kernel runs before and after each command; the command's
    normalised time divides by the mean of the two."""
    from calibrate import CPU_NOMINAL_S, cpu_ref_s

    results = []
    ref = cpu_ref_s()
    for cmd in commands:
        ok, dt, items = run_command(cmd, tracer)
        ref_after = cpu_ref_s()
        results.append((ok, dt, items, dt * CPU_NOMINAL_S / ((ref + ref_after) / 2)))
        ref = ref_after
    return results


def timed_setup(workload, work: Path, seed: int) -> tuple[float, float]:
    """Write the workload's inputs into the new directory `work`: (seconds,
    normalised seconds), normalised as in run_pass."""
    from calibrate import CPU_NOMINAL_S, cpu_ref_s

    work.mkdir(parents=True)
    ref = cpu_ref_s()
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        workload.setup(work, seed)
    dt = time.perf_counter() - t0
    return dt, dt * CPU_NOMINAL_S / ((ref + cpu_ref_s()) / 2)


def command_medians(passes, field: int = NORMALISED) -> list[float]:
    """Median time of each command over the given passes."""
    return [statistics.median(p[i][field] for p in passes) for i in range(len(passes[0]))]


def per_layer(names, setup_stats, pass_stats, passes, measured) -> dict[str, float]:
    """Resolve per-layer metric names. `measured` holds the ones measured
    directly (`nn.probe.*`, `trace.*`); the rest are `<module>.<function>.
    <field>` with field calls / self_s / s (inclusive) / a counter, summed
    over set-up and averaged over the traced passes."""
    out = {}
    for name in names:
        if name in measured:
            out[name] = measured[name]
            continue
        key, field = name.rsplit(".", 1)
        out[name] = 0.0
        for table, weight in ((setup_stats, 1.0), (pass_stats, 1.0 / passes)):
            st = table.get(key)
            if st is not None:
                value = {"calls": st.calls, "self_s": st.self_s, "s": st.incl_s}.get(field)
                out[name] += weight * (st.counts.get(field, 0) if value is None else value)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aliascope" / "__init__.py").is_file():
        print(f"error: no aliascope sources under {SRC}", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    spec = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import importlib

    import numpy as np

    import aliascope
    import probe
    from tracer import Tracer
    from workloads import WORKLOADS, fill_max_abs_err

    if Path(aliascope.__file__).resolve().parent != SRC / "aliascope":
        print(f"error: imported aliascope from {aliascope.__file__}", file=sys.stderr)
        return 2
    modules = {m: importlib.import_module(f"aliascope.{m}") for m in TRACED_MODULES}
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
           **blas_record(np)}
    print("env " + json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload]()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    mark_topdir(ROOT / ".bench_work")
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(modules, counters={
        "nn.forward": lambda a, k, r: {"images": len(r)},
        "nn.layer_activations": lambda a, k, r: {"images": len(r)},
        "nn.backward_sgd_step": lambda a, k, r: {"images": len(a[1] if len(a) > 1
                                                               else k["batch_x"])},
        "audit.top1_change_probability": lambda a, k, r: {"records": r.n,
                                                          "skipped": len(r.skipped)},
    })
    try:
        # One untimed set-up first, so lazy imports and first-call costs are
        # paid; then repeat until SETUP_REPEATS and SETUP_SECONDS are both
        # met. Each set-up writes a new directory; the commands use the last.
        setups = []
        while len(setups) <= SETUP_REPEATS or sum(raw for raw, _ in setups[1:]) < SETUP_SECONDS:
            work = work_root / str(len(setups))
            if args.trace:
                tracer.install()
            try:
                setups.append(timed_setup(workload, work, args.seed))
            finally:
                tracer.restore()
            if args.trace:  # per-layer figures count one set-up
                break
        setup_stats, _ = tracer.take()
        commands = workload.commands(work, args.seed)

        # Whole passes until --seconds: a pass starts only if it should end
        # within half a pass of the deadline. With tracing, untraced and
        # traced passes alternate.
        untraced, traced = [], []
        start = time.perf_counter()
        while (len(untraced) < 1 or len(traced) < args.trace
               or time.perf_counter() - start + statistics.mean(
                   sum(c[RAW] for c in p) for p in untraced + traced) / 2 < args.seconds):
            if args.trace and len(traced) < len(untraced):
                traced.append(run_pass(commands, tracer))
            else:
                untraced.append(run_pass(commands))
        pass_stats, covered = tracer.take()
        fill_err = fill_max_abs_err(args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        results = [c for p in untraced + traced for c in p]
        attempted, failed = len(results), sum(not c[0] for c in results)
        medians = command_medians(untraced)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            measured = probe.probe_table(modules["nn"], args.seed)
            measured["trace.overhead_frac"] = sum(command_medians(traced)) / sum(medians) - 1.0
            measured["trace.unattributed_frac"] = 1.0 - covered / sum(
                c[RAW] for p in traced for c in p)
            values = per_layer(names, setup_stats, pass_stats, len(traced), measured)
        else:
            kind = workload.main_kind
            main = [i for i, cmd in enumerate(commands) if cmd.kind == kind]
            items = statistics.median(sum(p[i][2] for i in main) for p in untraced)
            raw = command_medians(untraced, RAW)
            values = {
                "setup_s": statistics.median(norm for _, norm in setups[1:]),
                "wall_s": sum(medians),
                "items_per_s": items / sum(medians[i] for i in main),
                "fill_max_abs_err": fill_err,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            # Printed for people, not part of the JSON: the per-workload names,
            # raw (not normalised) times and the CPU speed relative to nominal.
            named = {f"{'train_samples' if kind == 'train' else 'audit_pairs'}_per_s":
                     (values["items_per_s"], "1/s"),
                     "fail_frac": (failed / attempted, "ratio"),
                     "passes": (len(untraced), "count"),
                     "raw_setup_s": (statistics.median(raw for raw, _ in setups[1:]), "s"),
                     "raw_wall_s": (sum(raw), "s"),
                     "raw_items_per_s": (items / sum(raw[i] for i in main), "1/s"),
                     "cpu_speed": (sum(medians) / sum(raw), "ratio")}
            named.update({"depth_profile_s": (medians[i], "s")
                          for i, cmd in enumerate(commands) if cmd.kind == "depth"})
            for name, (value, unit) in named.items():
                print(f"metric {name} {value!r} {unit}")
        for name in units:
            print(f"metric {name} {values[name]!r} {units[name]}")
    finally:
        tracer.restore()
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()

    correct = failed == 0 and math.isfinite(fill_err)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
