"""The benchmark's workloads: inputs made from a seed, the CLI commands of one
pass, and a check of every command's output.

Why each workload exists (see README.md for the metric-to-layer table):

- train: the only workload where `nn.backward_sgd_step` dominates; it also
  runs `nn.forward` at batch 256 through the per-epoch accuracy and `eval`.
- audit: the north-star audit commands on seed-initialised reference nets.
  The work is batch-1 forward passes (`nn.forward`, `nn.layer_activations`)
  on black-filled canvases; backward is near zero.
- inpaint: the same audit path as `audit`, on full-frame patterns with
  `--fill inpaint`, so `transforms.inpaint_fill` does most of the work. The
  acceptance images have zero borders, whose harmonic fill is identically 0,
  so they cannot serve here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aliascope import cli, data, nn, transforms
from harmonic import harmonic_fill

# The two reference nets of the acceptance suite.
STRIDED_SPEC = """\
input 1 32 32
conv 8 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
conv 16 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
gap
dense 16
softmax
"""

STRIDE1_SPEC = """\
input 1 32 32
conv 16 3 stride=1 pad=circular act=relu
conv 16 3 stride=1 pad=circular act=relu
gap
dense 16
softmax
"""

NETS = {"stride1": STRIDE1_SPEC, "strided": STRIDED_SPEC}
CLASSES, PER_CLASS = 16, 50
N_IMAGES = CLASSES * PER_CLASS
ACCEPTANCE_DATA = ["--canvas", "32", "--pattern", "9", "--jitter", "10"]
FULL_FRAME_DATA = ["--canvas", "16", "--pattern", "16", "--jitter", "0"]
TRAIN_EPOCHS = 1
INPAINT_CANVAS, INPAINT_EMBED = 64, 28
ANNOTATION_CATEGORIES, ANNOTATIONS_PER_CATEGORY = 20, 2500


NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


class CheckFailed(Exception):
    """A command exited 0 but its output is missing or wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Command:
    argv: list[str]
    kind: str  # "train" (SGD samples), "audit" (scored pairs), "depth" or "other"
    outputs: tuple[Path, ...]  # artifacts that must exist with a parseable manifest
    check: Callable[[str], int]  # stdout -> work items done; raises CheckFailed

    @property
    def name(self) -> str:
        return self.argv[0]


def run_cli(argv: list[str]) -> int:
    """Call the CLI through the module attribute, so a tracer sees it."""
    return cli.main([str(a) for a in argv])


def check_manifest(out: Path) -> None:
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    require(str(out) in manifest["outputs"], f"{out} missing from its manifest outputs")


def _finite(text: str) -> float:
    value = float(text)
    require(math.isfinite(value), f"non-finite value {text!r}")
    return value


def _unit(text: str) -> float:
    value = _finite(text)
    require(0.0 <= value <= 1.0, f"value {text!r} outside [0, 1]")
    return value


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _report_check(path: Path, expect_n: int, invariant: bool = False) -> Callable[[str], int]:
    """Audit report CSV: one row per record, matching the summary line."""
    def check(stdout: str) -> int:
        summary = [ln for ln in path.read_text().splitlines() if ln.startswith("#summary")]
        require(len(summary) == 1, f"{path.name}: expected one summary line")
        n = int(re.search(r"\bn=(\d+)", summary[0]).group(1))
        p_hat = _unit(re.search(r"p_hat=([^,]+)", summary[0]).group(1))
        header, *rows = _csv_rows(path)
        require(len(rows) == n == expect_n, f"{path.name}: {len(rows)} rows, n={n}, "
                                            f"expected {expect_n}")
        changed = [r[header.index("changed")] for r in rows]
        require(set(changed) <= {"true", "false"}, f"{path.name}: bad changed column")
        require(abs(p_hat - changed.count("true") / n) < 1e-12, f"{path.name}: p_hat mismatch")
        for r in rows:
            _finite(r[header.index("score_before")])
            _finite(r[header.index("score_after")])
        if invariant:  # the paper's observation: stride-1 circular gap nets never flip
            require(p_hat == 0.0, f"{path.name}: stride-1 net flipped, p_hat={p_hat}")
        return n
    return check


def _curve_check(path: Path, params: list[int]) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        _, *rows = _csv_rows(path)
        require([int(r[0]) for r in rows] == params, f"{path.name}: parameters {rows}")
        for r in rows:
            _finite(r[1])
        return 0
    return check


class Workload:
    """Base: `setup` writes the inputs, `commands` lists one pass."""

    data_flags: list[str] = ACCEPTANCE_DATA

    def setup(self, work: Path, seed: int) -> None:
        rc = run_cli(["gen-data", "--out", work / "ds", "--classes", CLASSES,
                      "--per-class", PER_CLASS, *self.data_flags, "--seed", seed])
        require(rc == 0, f"gen-data exited {rc}")
        for name, text in NETS.items():
            (work / f"{name}.spec").write_text(text)

    def save_init_models(self, work: Path, seed: int) -> None:
        for name, text in NETS.items():
            nn.save_model(nn.init_model(nn.parse_spec(text), seed=seed), work / f"{name}.shnn")

    def commands(self, work: Path, seed: int) -> list[Command]:
        raise NotImplementedError


class TrainWorkload(Workload):
    main_kind = "train"

    def __init__(self):
        self.digests: dict[Path, str] = {}

    def _train_check(self, work: Path, name: str, seed: int) -> Callable[[str], int]:
        out = work / f"{name}.shnn"

        def check(stdout: str) -> int:
            model = nn.load_model(out)
            spec = nn.parse_spec(NETS[name])
            require(nn.format_spec(model.spec) == nn.format_spec(spec), f"{out.name}: spec")
            init = nn.init_model(spec, seed=seed)
            for p, q in zip(model.params, init.params):
                for key, arr in p.items():
                    require(bool(np.all(np.isfinite(arr))), f"{out.name}: non-finite weights")
                    require(not np.array_equal(arr, q[key]), f"{out.name}: {key} left at init")
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            require(self.digests.setdefault(out, digest) == digest,
                    f"{out.name}: same seed gave different weights in another pass")
            return TRAIN_EPOCHS * N_IMAGES
        return check

    @staticmethod
    def _eval_check(stdout: str) -> int:
        m = re.search(r"accuracy=(\S+) n=(\d+)", stdout)
        require(m is not None, "eval printed no accuracy")
        _unit(m.group(1))
        require(int(m.group(2)) == N_IMAGES, f"eval scored {m.group(2)} images")
        return 0

    def commands(self, work: Path, seed: int) -> list[Command]:
        cmds = []
        for name in NETS:
            out = work / f"{name}.shnn"
            cmds.append(Command(
                ["train", "--spec", work / f"{name}.spec", "--data", work / "ds", "--out", out,
                 "--epochs", TRAIN_EPOCHS, "--lr", 0.5, "--batch", 16, "--seed", seed],
                "train", (out,), self._train_check(work, name, seed)))
        for name in NETS:
            cmds.append(Command(["eval", "--model", work / f"{name}.shnn", "--data", work / "ds"],
                                "other", (), self._eval_check))
        return cmds


def write_annotations(path: Path, seed: int) -> None:
    """Bounding boxes: every fourth category sits at the image centre, the
    rest are placed uniformly."""
    rng = np.random.default_rng(seed)
    n = ANNOTATION_CATEGORIES * ANNOTATIONS_PER_CATEGORY
    cat = np.repeat(np.arange(ANNOTATION_CATEGORIES), ANNOTATIONS_PER_CATEGORY)
    img_w = rng.integers(200, 801, n)
    img_h = rng.integers(200, 801, n)
    box_w = np.maximum(1, (img_w * rng.uniform(0.05, 0.5, n)).astype(int))
    box_h = np.maximum(1, (img_h * rng.uniform(0.05, 0.5, n)).astype(int))
    x = (rng.random(n) * (img_w - box_w)).astype(int)
    y = (rng.random(n) * (img_h - box_h)).astype(int)
    centred = cat % 4 == 0
    x[centred] = (img_w[centred] - box_w[centred]) // 2
    y[centred] = (img_h[centred] - box_h[centred]) // 2
    rows = [f"cat{row[0]:02d}," + ",".join(map(str, row[1:]))
            for row in zip(cat, img_w, img_h, x, y, box_w, box_h)]
    path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n" + "\n".join(rows) + "\n")


class AuditWorkload(Workload):
    main_kind = "audit"
    shift_images, sweep_images, depth_images = 500, 300, 300

    def setup(self, work: Path, seed: int) -> None:
        super().setup(work, seed)
        self.save_init_models(work, seed)
        shutil.copyfile(work / "ds" / "3" / "00000.pgm", work / "probe.pgm")
        write_annotations(work / "annotations.csv", seed)

    def commands(self, work: Path, seed: int) -> list[Command]:
        proto = ["--canvas", 40, "--embed", 32]
        strided, blurred = work / "strided.shnn", work / "blurred.shnn"
        cmds = []
        for name in NETS:
            out = work / f"shift_{name}.csv"
            cmds.append(Command(
                ["audit-shift", "--model", work / f"{name}.shnn", "--data", work / "ds",
                 "--out", out, "--limit", self.shift_images, *proto, "--seed", seed],
                "audit", (out,), _report_check(out, self.shift_images, name == "stride1")))
        out = work / "scale.csv"
        cmds.append(Command(
            ["audit-scale", "--model", strided, "--data", work / "ds", "--out", out,
             "--limit", self.shift_images, *proto, "--seed", seed],
            "audit", (out,), _report_check(out, self.shift_images)))

        sizes = [32, 36, 40]
        sweep = work / "sweep.csv"

        def sweep_check(stdout: str) -> int:
            _curve_check(sweep, sizes)(stdout)
            for r in _csv_rows(sweep)[1:]:
                _unit(r[1])
            ns = [int(n) for n in re.findall(r"^embed=\d+ p_hat=\S+ n=(\d+)$", stdout, re.M)]
            require(ns == [self.sweep_images] * len(sizes), f"sweep-embed scored {ns}")
            return sum(ns)

        cmds.append(Command(
            ["sweep-embed", "--model", strided, "--data", work / "ds", "--out", sweep,
             "--canvas", 44, "--sizes", ",".join(map(str, sizes)),
             "--limit", self.sweep_images, "--seed", seed],
            "audit", (sweep,), sweep_check))

        depth = work / "depth.csv"

        def depth_check(stdout: str) -> int:
            header, *rows = _csv_rows(depth)
            require(header == ["layer", "depth_fraction", "readout_accuracy", "flip_rate"],
                    f"depth-profile header {header}")
            require([int(r[0]) for r in rows] == [0, 3], f"depth-profile layers {rows}")
            for r in rows:
                for v in r[1:]:
                    _unit(v)
            return 0

        cmds.append(Command(
            ["depth-profile", "--model", strided, "--data", work / "ds", "--out", depth,
             "--layers", "0,3", "--canvas", 40, "--embed", 28, "--limit", self.depth_images,
             "--epochs", 5, "--seed", seed],
            "depth", (depth,), depth_check))

        def swap_check(stdout: str) -> int:
            text = nn.format_spec(nn.load_model(blurred).spec)
            require("maxpool" not in text and text.count("avgpool 6 stride=2") == 2,
                    f"pool-swap wrote spec {text!r}")
            return 0

        cmds.append(Command(
            ["pool-swap", "--model", strided, "--out", blurred, "--old", "max 2 2",
             "--new", "avg 6 2", "--seed", seed],
            "other", (blurred,), swap_check))

        shifts = list(range(9))
        for name, model in (("max", strided), ("avg", blurred)):
            out = work / f"trace_{name}.csv"

            def trace_check(stdout: str, out=out) -> int:
                header, *rows = _csv_rows(out)
                require(header == ["shift"] + [f"ch{c}" for c in range(16)],
                        f"{out.name} header {header}")
                require([int(r[0]) for r in rows] == shifts, f"{out.name} shifts")
                for r in rows:
                    for v in r[1:]:
                        # Known defect: feature-trace writes numpy reprs such
                        # as "np.float64(0.25)"; the check reads either form.
                        _finite(NUMPY_REPR.sub(r"\1", v))
                return 0

            cmds.append(Command(
                ["feature-trace", "--model", model, "--image", work / "probe.pgm",
                 "--layer", 3, "--out", out, *proto, "--seed", seed],
                "other", (out,), trace_check))

        jag = work / "jag.csv"
        cmds.append(Command(
            ["jaggedness", "--model", strided, "--image", work / "probe.pgm", "--label", 3,
             "--out", jag, *proto, "--sweep-end", 8, "--seed", seed],
            "other", (jag,), _curve_check(jag, list(range(9)))))

        def shiftability_check(stdout: str) -> int:
            m = re.search(r"shiftability_error=(\S+)", stdout)
            require(m is not None and _finite(m.group(1)) >= 0.0, "shiftability output")
            return 0

        cmds.append(Command(
            ["shiftability", "--model", strided, "--image", work / "probe.pgm",
             "--layer", 3, "--seed", seed],
            "other", (), shiftability_check))

        def theory_check(stdout: str) -> int:
            lines = stdout.strip().splitlines()
            require(len(lines) >= 3 and all(ln.endswith(": PASS") for ln in lines),
                    f"verify-theory printed {lines}")
            return 0

        cmds.append(Command(["verify-theory", "--seed", seed], "other", (), theory_check))

        bias = work / "bias.csv"

        def bias_check(stdout: str) -> int:
            header, *rows = _csv_rows(bias)
            require(header[:2] == ["category", "n"], f"bias-audit header {header}")
            require(len(rows) == ANNOTATION_CATEGORIES, f"bias-audit wrote {len(rows)} rows")
            require(sum(int(r[1]) for r in rows)
                    == ANNOTATION_CATEGORIES * ANNOTATIONS_PER_CATEGORY, "bias-audit counts")
            centred = [r for r in rows if int(r[0][3:]) % 4 == 0]
            require(all(r[-1] == "true" for r in centred), "bias-audit missed a centred category")
            return 0

        cmds.append(Command(
            ["bias-audit", "--annotations", work / "annotations.csv", "--out", bias,
             "--seed", seed],
            "other", (bias,), bias_check))
        return cmds


class InpaintWorkload(Workload):
    main_kind = "audit"
    data_flags = FULL_FRAME_DATA
    images = 120

    def setup(self, work: Path, seed: int) -> None:
        super().setup(work, seed)
        self.save_init_models(work, seed)

    def commands(self, work: Path, seed: int) -> list[Command]:
        cmds = []
        for verb in ("audit-shift", "audit-scale"):
            out = work / f"{verb}_inpaint.csv"
            cmds.append(Command(
                [verb, "--model", work / "strided.shnn", "--data", work / "ds", "--out", out,
                 "--limit", self.images, "--canvas", INPAINT_CANVAS, "--embed", INPAINT_EMBED,
                 "--fill", "inpaint",
                 "--seed", seed],
                "audit", (out,), _report_check(out, self.images)))
        return cmds


def fill_max_abs_err(seed: int) -> float:
    """Max |program fill - reference harmonic fill| over canvases of the
    inpaint workload's protocol: one full-frame pattern per class, embedded
    at a seeded position with `--fill inpaint`."""
    rng = np.random.default_rng([seed, 1])
    span = INPAINT_CANVAS - INPAINT_EMBED + 1
    worst = 0.0
    for cls in range(CLASSES):
        pattern = data.class_pattern(cls, 16)[None]
        top, left = (int(v) for v in rng.integers(0, span, 2))
        proto = transforms.EmbeddingProtocol(INPAINT_CANVAS, INPAINT_CANVAS, INPAINT_EMBED,
                                             (top, left), transforms.FillMode.INPAINT)
        canvas, known = transforms.embed(pattern, proto)
        reference = harmonic_fill(np.where(known, canvas, 0.0), known)
        worst = max(worst, float(np.max(np.abs(canvas - reference))))
    return worst


WORKLOADS = {"train": TrainWorkload, "audit": AuditWorkload, "inpaint": InpaintWorkload}
