"""Run every aliascope subcommand at seed 0 on a tiny fixed dataset and
record what each one printed and wrote, so that two revisions can be
compared byte for byte.

    python3 scripts/golden.py [--out golden.json]
    python3 scripts/golden.py --base HEAD~1

The commands run in-process through `aliascope.cli.main`, all of them in
one child process per revision whose PYTHONPATH is that revision's `src`:
the working tree's, and with `--base REV` also REV's committed files,
exported by `bench_pairs.export` into a temporary directory. The command
list, the spec files and the annotations CSVs come from this script, so both
revisions get the same inputs. Each command's record holds its exit status,
its stdout and stderr with the temporary directory spelled `$WORK`, and the
sha256 of every file it wrote or changed; a manifest is hashed without its
`wall_time_s`, the one field that differs between identical runs. Each
manifest a command writes must give the sha256 of its output's bytes.

Without --base the working tree's record is written to --out (default:
stdout). With --base the two records are compared, each difference is
printed, and the exit status is 1 if any command differs. A run that REV's
own copy of this script does not list is left out of REV's record, so a run
added to COMMANDS shows as new, not as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
REPO = SCRIPTS.parent

SPEC = """\
input 1 16 16
conv 4 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
conv 4 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
gap
dense 3
softmax
"""
# a conv with no relu under gap: its backward reads gap's gradient unmasked
LINEAR_SPEC = """\
input 1 16 16
conv 4 3 stride=2 pad=zero act=relu
conv 4 3 stride=1 pad=circular act=none
gap
dense 3
softmax
"""
# an overlapping 3x3 max-pool at stride 2 on an odd 16 -> 7 map: windows
# share a row and a column, so a change to the max fold's order shows
POOL3_SPEC = """\
input 1 16 16
conv 4 3 stride=1 pad=circular act=relu
maxpool 3 stride=2
gap
dense 3
softmax
"""

DATA, MODEL, IMAGE = "$WORK/ds", "$WORK/model.shnn", "$WORK/ds/0/00000.pgm"
# 12x12 patterns on 12x12 images: stripes and a checker that reach the image
# border, so an inpaint run of this set measures the harmonic fill's bytes
FULL = "$WORK/ds_full"
# a 16x16 P5 image with no black border (gen-data's images have one, around
# which the harmonic fill is 0): its fill differs from a black background
RAMP = b"P5\n16 16\n255\n" + bytes((40 + 9 * y + 5 * x + 60 * ((x * y) % 3)) % 256
                                     for y in range(16) for x in range(16))
# the ramp in P6, its three channels offset: a 1-channel model refuses it
RAMP_RGB = b"P6\n16 16\n255\n" + bytes((40 + 9 * y + 5 * x + 60 * ((x * y) % 3) + 50 * c) % 256
                                         for y in range(16) for x in range(16) for c in range(3))
# a ramp of 16 rows and 10 columns: taller than wide, its embed is 12 x 8
TALL = b"P5\n10 16\n255\n" + bytes((40 + 9 * y + 5 * x + 60 * ((x * y) % 3)) % 256
                                     for y in range(16) for x in range(10))
# a dataset whose files are not named as gen-data names them: the ramp, its
# payload reversed and its payload inverted. Its ids are 0/a, 0/b and 1/z.
NAMED = "$WORK/ds_named"
NAMED_FILES = {"0/b.pgm": RAMP, "0/a.PGM": RAMP[:13] + RAMP[:12:-1],
               "1/z.pgm": RAMP[:13] + bytes(255 - b for b in RAMP[13:])}

# (name, argv); "$WORK" stands for the run's directory
COMMANDS = [
    ("gen-data", ["gen-data", "--out", DATA, "--classes", "3", "--per-class", "8",
                  "--canvas", "16", "--pattern", "7", "--jitter", "2"]),
    ("gen-data-full", ["gen-data", "--out", FULL, "--classes", "3", "--per-class", "4",
                       "--canvas", "12", "--pattern", "12", "--jitter", "0"]),
    ("train", ["train", "--spec", "$WORK/net.spec", "--data", DATA, "--out", MODEL,
               "--epochs", "20", "--lr", "0.3", "--batch", "4"]),
    ("train-linear-gap", ["train", "--spec", "$WORK/linear.spec", "--data", DATA,
                          "--out", "$WORK/linear.shnn", "--epochs", "10", "--lr", "0.3",
                          "--batch", "5"]),
    ("train-overlapping-pool", ["train", "--spec", "$WORK/pool3.spec", "--data", DATA,
                                "--out", "$WORK/pool3.shnn", "--epochs", "10", "--lr", "0.3",
                                "--batch", "4"]),
    ("train-diverged", ["train", "--spec", "$WORK/net.spec", "--data", DATA,
                        "--out", "$WORK/diverged.shnn", "--epochs", "2", "--init-scale", "1e300"]),
    ("eval", ["eval", "--model", MODEL, "--data", DATA]),
    ("audit-shift", ["audit-shift", "--model", MODEL, "--data", DATA,
                     "--out", "$WORK/shift.csv", "--canvas", "20", "--embed", "16"]),
    ("audit-shift-overlapping-pool", ["audit-shift", "--model", "$WORK/pool3.shnn",
                                      "--data", DATA, "--out", "$WORK/shift_pool3.csv",
                                      "--canvas", "20", "--embed", "16"]),
    # the first 5 of the 24 images: the audit reads only those
    ("audit-shift-limit", ["audit-shift", "--model", MODEL, "--data", DATA,
                           "--out", "$WORK/shift_limit.csv", "--limit", "5", "--canvas", "20",
                           "--embed", "16"]),
    ("audit-shift-inpaint", ["audit-shift", "--model", MODEL, "--data", DATA,
                             "--out", "$WORK/shift_inpaint.csv", "--canvas", "20",
                             "--embed", "12", "--delta", "-1", "--fill", "inpaint"]),
    ("audit-shift-inpaint-full", ["audit-shift", "--model", MODEL, "--data", FULL,
                                  "--out", "$WORK/shift_inpaint_full.csv", "--canvas", "20",
                                  "--embed", "12", "--fill", "inpaint"]),
    # each row names the file it measured
    ("audit-shift-named", ["audit-shift", "--model", MODEL, "--data", NAMED,
                           "--out", "$WORK/shift_named.csv", "--canvas", "20", "--embed", "16"]),
    ("audit-shift-nothing-scored", ["audit-shift", "--model", MODEL, "--data", DATA,
                                    "--out", "$WORK/none.csv", "--canvas", "10",
                                    "--embed", "16"]),
    ("depth-profile-nothing-scored", ["depth-profile", "--model", MODEL, "--data", DATA,
                                      "--out", "$WORK/none_depth.csv", "--layers", "0",
                                      "--epochs", "1", "--canvas", "10", "--embed", "16"]),
    ("audit-scale", ["audit-scale", "--model", MODEL, "--data", DATA,
                     "--out", "$WORK/scale.csv", "--canvas", "20", "--embed", "14"]),
    ("audit-scale-inpaint", ["audit-scale", "--model", MODEL, "--data", DATA,
                             "--out", "$WORK/scale_inpaint.csv", "--canvas", "20",
                             "--embed", "12", "--fill", "inpaint"]),
    ("audit-scale-inpaint-full", ["audit-scale", "--model", MODEL, "--data", FULL,
                                  "--out", "$WORK/scale_inpaint_full.csv", "--canvas", "20",
                                  "--embed", "12", "--fill", "inpaint"]),
    ("audit-crop", ["audit-crop", "--model", MODEL, "--data", DATA, "--out", "$WORK/crop.csv",
                    "--crop-size", "12", "--noise-scale", "0.1"]),
    # 64 px crops of the 400 px resize: a chunk holds 2 of the 24 crop pairs
    ("audit-crop-chunked", ["audit-crop", "--model", MODEL, "--data", DATA,
                            "--out", "$WORK/crop_chunked.csv", "--crop-size", "64",
                            "--noise-scale", "0.1"]),
    ("sweep-embed", ["sweep-embed", "--model", MODEL, "--data", DATA,
                     "--out", "$WORK/sweep.csv", "--canvas", "20", "--sizes", "10,14"]),
    # each embed size resizes a stack at two sizes, the size and one more
    ("sweep-embed-scale", ["sweep-embed", "--model", MODEL, "--data", DATA,
                           "--out", "$WORK/sweep_scale.csv", "--canvas", "20", "--sizes", "10,14",
                           "--mode", "scale"]),
    ("jaggedness", ["jaggedness", "--model", MODEL, "--image", IMAGE, "--label", "0",
                    "--out", "$WORK/jag.csv", "--canvas", "20", "--embed", "12",
                    "--sweep-end", "9"]),
    # rows 0..8 of a 12 px embed on a 20 px canvas, flush left: the known
    # rectangle touches the top edge first and the bottom edge last
    ("jaggedness-inpaint", ["jaggedness", "--model", MODEL, "--image", IMAGE, "--label", "0",
                            "--out", "$WORK/jag_inpaint.csv", "--canvas", "20", "--embed", "12",
                            "--sweep-end", "8", "--fill", "inpaint"]),
    # rows 4..8 fit and are scored, rows 9..12 are written as nan
    ("jaggedness-partial", ["jaggedness", "--model", MODEL, "--image", IMAGE, "--label", "0",
                            "--out", "$WORK/jag_partial.csv", "--canvas", "20", "--embed", "12",
                            "--sweep-start", "4", "--sweep-end", "12"]),
    ("jaggedness-nothing-scored", ["jaggedness", "--model", MODEL, "--image", IMAGE,
                                   "--label", "0", "--out", "$WORK/none_jag.csv",
                                   "--canvas", "20", "--embed", "12", "--sweep-start", "30",
                                   "--sweep-end", "40"]),
    ("jaggedness-label-out-of-range", ["jaggedness", "--model", MODEL, "--image", IMAGE,
                                       "--label", "-1", "--out", "$WORK/label_jag.csv",
                                       "--canvas", "20", "--embed", "12"]),
    ("depth-profile", ["depth-profile", "--model", MODEL, "--data", DATA,
                       "--out", "$WORK/depth.csv", "--layers", "0,1,3", "--epochs", "2",
                       "--canvas", "20", "--embed", "14"]),
    ("depth-profile-repeated-layers", ["depth-profile", "--model", MODEL, "--data", DATA,
                                       "--out", "$WORK/depth_repeated.csv", "--layers", "3,0,3",
                                       "--epochs", "2", "--canvas", "20", "--embed", "14"]),
    # canvas pairs of images that reach their border, so the fill is not 0
    ("depth-profile-inpaint", ["depth-profile", "--model", MODEL, "--data", FULL,
                               "--out", "$WORK/depth_inpaint.csv", "--layers", "0,1,3",
                               "--epochs", "2", "--canvas", "20", "--embed", "12",
                               "--fill", "inpaint"]),
    ("shiftability", ["shiftability", "--model", MODEL, "--image", IMAGE, "--layer", "1"]),
    ("shiftability-nothing-measured", ["shiftability", "--model", MODEL, "--image", IMAGE,
                                       "--layer", "1", "--kernel", "sinc"]),
    ("shiftability-layer-out-of-range", ["shiftability", "--model", MODEL, "--image", IMAGE,
                                         "--layer", "-1"]),
    ("feature-trace", ["feature-trace", "--model", MODEL, "--image", IMAGE, "--layer", "3",
                       "--out", "$WORK/trace_max.csv", "--canvas", "20", "--embed", "12",
                       "--shifts", "4"]),
    # the pooled features of the overlapping max-pool, written as numbers
    ("feature-trace-overlapping-pool", ["feature-trace", "--model", "$WORK/pool3.shnn",
                                        "--image", IMAGE, "--layer", "1",
                                        "--out", "$WORK/trace_pool3.csv", "--canvas", "20",
                                        "--embed", "12", "--shifts", "4"]),
    ("feature-trace-inpaint", ["feature-trace", "--model", MODEL, "--image", "$WORK/ramp.pgm",
                               "--layer", "3", "--out", "$WORK/trace_inpaint.csv",
                               "--canvas", "20", "--embed", "12", "--shifts", "4",
                               "--fill", "inpaint"]),
    ("feature-trace-tall-inpaint", ["feature-trace", "--model", MODEL,
                                    "--image", "$WORK/tall.pgm", "--layer", "3",
                                    "--out", "$WORK/trace_tall.csv", "--canvas", "20",
                                    "--embed", "12", "--shifts", "4", "--fill", "inpaint"]),
    # P6 read by its magic number, whatever the case of the suffix
    ("feature-trace-ppm-wrong-channels", ["feature-trace", "--model", MODEL,
                                          "--image", "$WORK/ramp.ppm", "--layer", "3",
                                          "--out", "$WORK/trace_ppm.csv", "--canvas", "20",
                                          "--embed", "12"]),
    ("feature-trace-PPM-wrong-channels", ["feature-trace", "--model", MODEL,
                                          "--image", "$WORK/ramp.PPM", "--layer", "3",
                                          "--out", "$WORK/trace_PPM.csv", "--canvas", "20",
                                          "--embed", "12"]),
    ("feature-trace-embed-out-of-range", ["feature-trace", "--model", MODEL, "--image", IMAGE,
                                          "--layer", "3", "--out", "$WORK/trace_big.csv",
                                          "--canvas", "20", "--embed", "40"]),
    ("pool-swap", ["pool-swap", "--model", MODEL, "--out", "$WORK/blurred.shnn",
                   "--old", "max 2 2", "--new", "avg 4 0"]),
    ("feature-trace-blurred", ["feature-trace", "--model", "$WORK/blurred.shnn",
                               "--image", IMAGE, "--layer", "3", "--out", "$WORK/trace_avg.csv",
                               "--canvas", "20", "--embed", "12", "--shifts", "4"]),
    ("bias-audit", ["bias-audit", "--annotations", "$WORK/boxes.csv", "--out", "$WORK/bias.csv",
                    "--pos-grid", "3", "--size-bins", "4"]),
    ("bias-audit-two-bins", ["bias-audit", "--annotations", "$WORK/boxes.csv",
                             "--out", "$WORK/bias_two.csv", "--pos-grid", "2",
                             "--size-bins", "2"]),
    ("bias-audit-nothing-scored", ["bias-audit", "--annotations", "$WORK/no_boxes.csv",
                                   "--out", "$WORK/none_bias.csv"]),
    ("verify-theory", ["verify-theory"]),
]


ANNOTATION_HEADER = "category,img_w,img_h,box_x,box_y,box_w,box_h"


def _annotations() -> str:
    """A fixed annotations CSV: one category of centred boxes, one spread."""
    rows = [ANNOTATION_HEADER]
    for i in range(120):
        rows.append(f"centred,100,100,{45 + i % 3},{44 + i % 5},8,{10 + i % 7}")
        rows.append(f"spread,100,100,{(i * 37) % 90},{(i * 53) % 90},8,{5 + (i * 11) % 40}")
    return "\n".join(rows) + "\n"


def _file_hashes(work: Path) -> dict[str, str]:
    """sha256 of every file under `work`, by path relative to it; manifests
    without their wall time."""
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).replace(str(work), "$WORK").encode()
        out[str(path.relative_to(work))] = hashlib.sha256(data).hexdigest()
    return out


def _check_output_hashes(manifest: Path) -> None:
    for out, digest in json.loads(manifest.read_text())["output_hashes"].items():
        if hashlib.sha256(Path(out).read_bytes()).hexdigest() != digest:
            raise RuntimeError(f"{manifest.name}: output_hashes does not match {out}")


def collect(work: Path, src: Path) -> dict:
    """Run COMMANDS in `work` with this process's aliascope, which must be
    the one under `src`; returns the record."""
    import numpy as np

    import aliascope
    from aliascope import cli

    if Path(aliascope.__file__).resolve().parent != src.resolve() / "aliascope":
        raise RuntimeError(f"imported aliascope from {aliascope.__file__}, not {src}")
    (work / "net.spec").write_text(SPEC)
    (work / "linear.spec").write_text(LINEAR_SPEC)
    (work / "pool3.spec").write_text(POOL3_SPEC)
    (work / "boxes.csv").write_text(_annotations())
    (work / "no_boxes.csv").write_text(ANNOTATION_HEADER + "\n")
    (work / "ramp.pgm").write_bytes(RAMP)
    (work / "ramp.ppm").write_bytes(RAMP_RGB)
    (work / "ramp.PPM").write_bytes(RAMP_RGB)
    (work / "tall.pgm").write_bytes(TALL)
    for name, blob in NAMED_FILES.items():
        path = Path(NAMED.replace("$WORK", str(work)), name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    record = {"env": {"python": sys.version.split()[0], "numpy": np.__version__},
              "commands": {}}
    for name, argv in COMMANDS:
        before = _file_hashes(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([a.replace("$WORK", str(work)) for a in argv] + ["--seed", "0"])
        after = _file_hashes(work)
        for path in after:
            if path.endswith(".manifest.json") and before.get(path) != after[path]:
                _check_output_hashes(work / path)
        record["commands"][name] = {
            "argv": argv,
            "status": status,
            "stdout": out.getvalue().replace(str(work), "$WORK"),
            "stderr": err.getvalue().replace(str(work), "$WORK"),
            "files": {p: h for p, h in after.items() if before.get(p) != h},
        }
    return record


def run_revision(src: Path) -> dict:
    """The record of the aliascope under `src`, from one child process."""
    with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{SCRIPTS}")
        code = ("import json, sys; from pathlib import Path; import golden; "
                "print(json.dumps(golden.collect(Path(sys.argv[1]), Path(sys.argv[2]))))")
        proc = subprocess.run([sys.executable, "-c", code, str(work), str(src)], cwd=tmp,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"golden run of {src} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)


def diff(base: dict, change: dict) -> list[str]:
    """One line per command field in which the two records differ."""
    lines = []
    for name in dict.fromkeys(list(base["commands"]) + list(change["commands"])):
        b, c = base["commands"].get(name), change["commands"].get(name)
        if b is None or c is None:
            lines.append(f"{name}: only in {'change' if b is None else 'base'}")
            continue
        for key in ("status", "stdout", "stderr"):
            if b[key] != c[key]:
                lines.append(f"{name}: {key} differs: {b[key]!r} vs {c[key]!r}")
        for path in sorted(set(b["files"]) | set(c["files"])):
            if b["files"].get(path) != c["files"].get(path):
                lines.append(f"{name}: {path} differs")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", help="git revision to compare the working tree with")
    p.add_argument("--out", help="where to write the working tree's record (default: stdout)")
    args = p.parse_args(argv)
    change = run_revision(REPO / "src")
    if args.base is None:
        text = json.dumps(change, indent=2, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    from bench_pairs import export

    with tempfile.TemporaryDirectory(prefix="golden_base_") as tmp:
        export(REPO, args.base, Path(tmp) / "base")
        base = run_revision(Path(tmp) / "base" / "src")
        script = Path(tmp) / "base" / "scripts" / "golden.py"
        if script.is_file():
            spec = importlib.util.spec_from_file_location("golden_base", script)
            listed = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(listed)
            names = {name for name, _ in listed.COMMANDS}
            base["commands"] = {k: v for k, v in base["commands"].items() if k in names}
    lines = diff(base, change)
    for line in lines:
        print(line)
    n = len(change["commands"])
    print(f"{n - len({ln.split(':')[0] for ln in lines})}/{n} commands identical to {args.base}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
