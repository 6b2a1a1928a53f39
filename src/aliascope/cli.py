"""Command-line surface: one subcommand per experiment.

`COMMANDS` declares each subcommand once: its function, its help and its
flags, each flag with its default (or REQUIRED) and one parse type that also
checks the flag's bound, so a value out of range is a usage error before
any work starts. A command's input flags are not in the table:
`build_parser` reads them off the parameters of its function after `args`.

`main` does every subcommand's I/O in one place. It loads the input flags
through `INPUTS`, in its order, so the first input that fails to load is the
one reported, and passes the loaded values to the command by flag name. The
command prints its summary and returns its artifact: CSV text from `_csv`,
model bytes, or None when it writes no file. `main` writes the artifact to
`<out>.tmp` and renames that over `<out>`, then writes a JSON run manifest
next to it the same way, with the sha256 of the bytes written. gen-data
alone writes its output, a directory, itself. The library formats no file.

All randomness flows from --seed (default 0). Exit codes: 0 success, 1
domain error, 2 usage error. An audit that scores no image, a jaggedness
curve that scores no position, a bias audit with no valid box and a run out
of memory (MemoryError) are domain errors and write nothing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

from . import __version__, audit, biasstat, data, nn, sampling, theory
from .audit import AuditMode, AuditRecord
from .transforms import EmbeddingProtocol, FillMode

# Input flags and their loaders of the parsed arguments, in load order.
INPUTS = {
    "spec": lambda args: nn.parse_spec(Path(args.spec).read_text()),
    "model": lambda args: nn.load_model(args.model),
    "image": lambda args: data.read_image(args.image),
    # an audit reads only the --limit images it scores; depth-profile trains on all
    "data": lambda args: data.load_dataset(
        args.data, None if args.cmd == "depth-profile" else getattr(args, "limit", None)),
    "annotations": lambda args: biasstat.read_annotations_csv(args.annotations),
}


def _write_atomically(path: Path, blob: bytes) -> None:
    """Write `blob` to `<path>.tmp`, then rename it over `path`."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(blob)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_manifest(args, started: float, artifact: bytes | None) -> None:
    """Record the run of a command that wrote `args.out`: its invocation,
    seed, input file hashes, the hash of the artifact it wrote, and wall
    time since `started`, a `time.perf_counter()` reading (the benchmark's
    clock, which no clock step moves), next to the output (inside it when
    the output is a directory, as for gen-data, whose output is not hashed)."""
    inputs = [Path(getattr(args, flag)) for flag in INPUTS if hasattr(args, flag)]
    out = Path(args.out)
    manifest = {
        "command": "aliascope " + " ".join(args.invocation),
        "seed": args.seed,
        "version": __version__,
        "input_hashes": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in inputs if p.is_file()},
        "outputs": [str(args.out)],
        "output_hashes": ({} if artifact is None else
                          {str(args.out): hashlib.sha256(artifact).hexdigest()}),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    final = Path(f"{out / 'dataset' if out.is_dir() else out}.manifest.json")
    _write_atomically(final, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _csv(header, rows, before: str = "", after: str = "") -> str:
    """CSV text: `before`, the header, one line per row, then `after`. Lines
    end in "\\n", floats are written by repr and booleans as true/false."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(float(value)) if isinstance(value, float) else value
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return before + buf.getvalue() + after


def _audit_images(ds, limit=None):
    """(image id, image) and (image id, label) pairs of the first `limit`
    images of the dataset, by the ids it carries."""
    ids = ds.ids[:limit]
    return list(zip(ids, ds.images)), list(zip(ids, ds.labels.tolist()))


def _proto(args) -> EmbeddingProtocol:
    return EmbeddingProtocol(args.canvas, args.canvas, args.embed, (0, 0),
                             FillMode(args.fill))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    cfg = data.SyntheticConfig(args.classes, args.per_class, args.canvas,
                               args.pattern, args.jitter, args.seed)
    ds = data.generate_synthetic(cfg)
    data.save_dataset(ds, args.out)
    print(f"wrote {len(ds.images)} images to {args.out}")


def cmd_train(args, spec, data):
    cfg = nn.TrainConfig(args.lr, args.epochs, args.batch, args.seed, args.init_scale)
    return nn.model_bytes(nn.train(spec, data.images, data.labels, cfg, verbose=True))


def cmd_eval(args, model, data):
    acc = nn._accuracy(model, data.images, data.labels)
    print(f"accuracy={acc:.4f} n={len(data.images)}")


def _run_audit(args, model, ds, mode: AuditMode, proto: EmbeddingProtocol, **kwargs):
    images, labels = _audit_images(ds, args.limit)
    report = audit.top1_change_probability(model, images, labels, proto, mode,
                                           seed=args.seed, **kwargs)
    lo, hi = report.wilson_interval
    print(f"p_hat={report.p_hat:.4f} ci=[{lo:.4f},{hi:.4f}] n={report.n} "
          f"skipped={len(report.skipped)}")
    return _csv(AuditRecord._fields, report.records,
                after=f"#summary,p_hat={report.p_hat!r},ci_low={lo!r},ci_high={hi!r},"
                      f"n={report.n}\n")


def cmd_audit_shift(args, model, data):
    return _run_audit(args, model, data, AuditMode.TRANSLATE, _proto(args), delta=args.delta)


def cmd_audit_scale(args, model, data):
    return _run_audit(args, model, data, AuditMode.SCALE, _proto(args))


def cmd_audit_crop(args, model, data):
    proto = EmbeddingProtocol(args.crop_size, args.crop_size, args.crop_size, (0, 0))
    return _run_audit(args, model, data, AuditMode.CROP_NOISE, proto,
                      crop_size=args.crop_size, noise_scale=args.noise_scale)


def cmd_sweep_embed(args, model, data):
    images, labels = _audit_images(data, args.limit)
    mode = AuditMode.TRANSLATE if args.mode == "shift" else AuditMode.SCALE
    reports = [audit.top1_change_probability(model, images, labels,
                                             replace(_proto(args), embed_size=size), mode,
                                             seed=args.seed)
               for size in args.sizes]
    for size, rep in zip(args.sizes, reports):
        print(f"embed={size} p_hat={rep.p_hat:.4f} n={rep.n}")
    return _csv(("embed_size", "p_hat", "n"),
                [(size, rep.p_hat, rep.n) for size, rep in zip(args.sizes, reports)])


def cmd_jaggedness(args, model, image):
    sweep = range(args.sweep_start, args.sweep_end + 1)
    series = audit.jaggedness_curve(model, image, _proto(args), sweep, args.label)
    return _csv(("position", "score"), series)


def cmd_depth_profile(args, model, data):
    images, _ = _audit_images(data, args.limit)
    cfg = nn.TrainConfig(args.lr, args.epochs, args.batch, args.seed)
    profile = audit.depth_invariance_profile(model, data.images, data.labels, args.layers, cfg,
                                             _proto(args), images, seed=args.seed)
    for e in profile:
        print(f"layer={e.layer_index} acc={e.readout_accuracy:.3f} flip={e.flip_rate:.4f}")
    return _csv(("layer", "depth_fraction", "readout_accuracy", "flip_rate"), profile)


def cmd_shiftability(args, model, image):
    s = audit.spatial_layer_factor(model, args.layer)
    basis = sampling.BasisKernel(sampling.KernelKind(args.kernel), max(1, s),
                                 window_halfwidth=args.window)
    err = audit.feature_shiftability_error(model, args.layer, image, basis)
    print(f"layer={args.layer} stride={s} shiftability_error={err!r}")


def cmd_feature_trace(args, model, image):
    shifts = list(range(args.shifts + 1))
    trace = audit.feature_shift_trace(model, args.layer, image, _proto(args), shifts)
    print(f"trace variance across shifts: {float(trace.var(axis=0).mean())!r}")
    return _csv(["shift", *(f"ch{c}" for c in range(trace.shape[1]))],
                ([dy, *row] for dy, row in zip(shifts, trace)))


def cmd_pool_swap(args, model):
    swapped = nn.replace_pooling(model, args.old, args.new)
    print("replaced {} {} {} -> {} {} {}".format(*astuple(args.old), *astuple(args.new)))
    return nn.model_bytes(swapped)


def cmd_bias_audit(args, annotations):
    report = biasstat.category_bias_report(annotations, args.pos_grid, args.size_bins)
    print(f"categories={len(report)} flagged={sum(r.flagged for r in report)}")
    return _csv(("category", "n", "chi2_pos", "p_pos", "chi2_size", "p_size", "flagged"),
                ((r.category, r.n, "", "", "", "", "insufficient data") if r.insufficient
                 else r[:-1] for r in report),  # all but `insufficient`
                before=f"#bins,position={args.pos_grid}x{args.pos_grid},size={args.size_bins}\n")


def cmd_verify_theory(args):
    results = theory.verify_all(args.seed)
    for name, ok in results.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, ok in results.items() if not ok]
    if failed:
        raise ValueError(f"theory gates failed: {', '.join(failed)}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class Num:
    """A parse type: an int, or with `kind=float` a finite float; at least
    `lo` (above it when `above`), and not 0 when `nonzero` says why."""

    def __init__(self, kind=int, lo=None, above=False, nonzero=""):
        self.kind, self.lo, self.above, self.nonzero = kind, lo, above, nonzero
        self.__name__ = "integer" if kind is int else "float"  # "invalid <__name__> value"

    def __call__(self, text: str):
        value = self.kind(text)
        if self.kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be a finite number")
        if self.nonzero and value == 0:
            raise argparse.ArgumentTypeError(f"must be nonzero: {self.nonzero}")
        if self.lo is not None and (value <= self.lo if self.above else value < self.lo):
            raise argparse.ArgumentTypeError(
                f"must be above {self.lo}" if self.above else "must be positive"
                if self.lo == 1 and self.kind is int else f"must be at least {self.lo}")
        return value


class IntList(Num):
    """A parse type: comma-separated ints, each at least `lo`."""

    def __init__(self, lo=None):
        super().__init__(int, lo)
        self.__name__ = "integer list"

    def __call__(self, text: str) -> list[int]:
        return [Num.__call__(self, item) for item in text.split(",")]


def pool_descriptor(text: str) -> nn.PoolSpec:
    """A parse type: '<max|avg> <k> <stride>', k at least 1 and stride at least 0."""
    op, kernel, stride = text.split()  # a ValueError reads "invalid pool_descriptor value"
    if op not in ("max", "avg") or int(kernel) < 1 or int(stride) < 0:
        raise ValueError(text)
    return nn.PoolSpec(op, int(kernel), int(stride))


REQUIRED = object()  # the default of a flag that must be given
INT_GE0, INT_GE1, FLOAT_GE0 = Num(lo=0), Num(lo=1), Num(float, 0)
SEED, OUT, LIMIT = ("--seed", 0, INT_GE0), ("--out", REQUIRED, str), ("--limit", None, INT_GE1)
PROTO = [("--canvas", 32, INT_GE1), ("--embed", 24, INT_GE1),
         ("--fill", "black", ("black", "inpaint"))]

# Each subcommand's function, help and flags. A flag is (name, default or
# REQUIRED, parse type[, help]); a parse type is a Num, an IntList,
# `pool_descriptor`, int, str, or a tuple of choices. Every subcommand also takes
# SEED and, before its own flags, one required flag per parameter of its function
# after `args`: its inputs.
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic translatable dataset",
                 [OUT, ("--classes", 8, INT_GE1), ("--per-class", 100, INT_GE1),
                  ("--canvas", 32, INT_GE1), ("--pattern", 9, INT_GE1), ("--jitter", 4, INT_GE0)]),
    "train": (cmd_train, "train a model from a network spec file",
              [OUT, ("--epochs", 20, INT_GE0), ("--lr", 0.05, FLOAT_GE0), ("--batch", 32, INT_GE1),
               ("--init-scale", 1.0, Num(float, 0, above=True))]),
    "eval": (cmd_eval, "dataset accuracy of a saved model", []),
    "audit-shift": (cmd_audit_shift, "top-1 flip rate under the shift protocol", [
        OUT, LIMIT, *PROTO,
        ("--delta", 1, Num(nonzero="a zero shift compares an image with itself"))]),
    "audit-scale": (cmd_audit_scale, "top-1 flip rate under the scale protocol",
                    [OUT, LIMIT, *PROTO]),
    "audit-crop": (cmd_audit_crop, "top-1 flip rate for 1-pixel-shifted crops",
                   [OUT, LIMIT, ("--crop-size", 32, INT_GE1), ("--noise-scale", 0.0, FLOAT_GE0)]),
    "sweep-embed": (cmd_sweep_embed, "flip rate vs embedding size",
                    [OUT, LIMIT, ("--sizes", REQUIRED, IntList(1), "comma-separated embed sizes"),
                     ("--mode", "shift", ("shift", "scale")), *PROTO]),
    "jaggedness": (cmd_jaggedness, "correct-class score vs position sweep", [
        ("--label", REQUIRED, int), OUT, ("--sweep-start", 0, int), ("--sweep-end", 8, int),
        *PROTO]),
    "depth-profile": (cmd_depth_profile, "per-layer readout accuracy and flip rate", [
        OUT, LIMIT, ("--layers", REQUIRED, IntList(), "comma-separated layer indices"),
        ("--epochs", 10, INT_GE0), ("--lr", 0.1, FLOAT_GE0), ("--batch", 32, INT_GE1), *PROTO]),
    "shiftability": (cmd_shiftability, "shiftability error of a strided layer", [
        ("--layer", REQUIRED, int),
        ("--kernel", "tent", tuple(kind.value for kind in sampling.KernelKind)),
        ("--window", 0, INT_GE0)]),
    "feature-trace": (cmd_feature_trace, "per-channel spatial sums vs shift",
                      [("--layer", REQUIRED, int), OUT, ("--shifts", 8, INT_GE0), *PROTO]),
    "pool-swap": (cmd_pool_swap, "replace pooling layers, keeping weights", [
        OUT, ("--old", REQUIRED, pool_descriptor, "'max 2 2' style descriptor"),
        ("--new", REQUIRED, pool_descriptor, "'avg 6 2' style descriptor (stride 0 keeps old)")]),
    "bias-audit": (cmd_bias_audit, "chi-squared dataset-bias report",
                   [OUT, ("--pos-grid", 5, Num(lo=2)), ("--size-bins", 10, Num(lo=2))]),
    "verify-theory": (cmd_verify_theory, "numeric checks of the invariance observation / "
                      "claim / corollary / stride lattice", []),
}


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a formatter per flag, each reading the terminal width (less
    # 2 columns): read it once
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="aliascope", formatter_class=fmt,
                                     description="Sampling-theory CNN invariance audits")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=fmt)
        p.set_defaults(fn=fn)
        code = fn.__code__  # read directly: building signature objects costs ~1 ms here
        inputs = [(f"--{arg}", REQUIRED, str) for arg in code.co_varnames[1:code.co_argcount]]
        for flag, default, kind, *text in (SEED, *inputs, *flags):
            p.add_argument(flag, required=default is REQUIRED, default=default,
                           help=text[0] if text else None,
                           **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.invocation = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        inputs = {flag: load(args) for flag, load in INPUTS.items() if hasattr(args, flag)}
        artifact = args.fn(args, **inputs)
        if isinstance(artifact, str):
            artifact = artifact.encode()
        if artifact is not None:
            _write_atomically(Path(args.out), artifact)
        if hasattr(args, "out"):
            write_manifest(args, started, artifact)
        return 0
    except (ValueError, OSError, IndexError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
