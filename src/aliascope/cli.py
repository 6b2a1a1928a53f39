"""Command-line surface: one subcommand per experiment, CSV artifacts, and a
JSON run manifest written atomically next to every output.

All randomness flows from --seed (default 0, overridable via the
ALIASCOPE_SEED environment variable). Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, audit, biasstat, data, nn, sampling, theory
from .audit import AuditMode
from .transforms import EmbeddingProtocol, FillMode, ShiftSpec


def _default_seed() -> int:
    return int(os.environ.get("ALIASCOPE_SEED", "0"))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


MANIFEST_INPUTS = ("spec", "model", "image", "annotations")  # flags naming hashed input files


def write_manifest(args, started: float) -> None:
    """Record the run of a command that wrote `args.out`: its invocation,
    seed, input file hashes and wall time, next to the output (inside it
    when the output is a directory, as for gen-data)."""
    inputs = [getattr(args, flag) for flag in MANIFEST_INPUTS if getattr(args, flag, None)]
    manifest = {
        "command": "aliascope " + " ".join(getattr(args, "invocation", sys.argv[1:])),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "input_hashes": {str(p): _sha256(p) for p in inputs if Path(p).is_file()},
        "outputs": [str(args.out)],
        "wall_time_s": round(time.time() - started, 3),
    }
    out = Path(args.out)
    final = Path(f"{out / 'dataset' if out.is_dir() else out}.manifest.json")
    tmp = final.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(final)


def _load_audit_images(root, limit=None):
    ds = data.load_dataset(root)
    images = [(f"{int(lbl)}/{i:05d}", img) for i, (img, lbl) in enumerate(zip(ds.images, ds.labels))]
    labels = [(iid, int(lbl)) for (iid, _), lbl in zip(images, ds.labels)]
    if limit:
        images, labels = images[:limit], labels[:limit]
    return ds, images, labels


def _proto(args) -> EmbeddingProtocol:
    return EmbeddingProtocol(args.canvas, args.canvas, args.embed, (0, 0),
                             FillMode(args.fill))


def _print_summary(report) -> None:
    lo, hi = report.wilson_interval
    print(f"p_hat={report.p_hat:.4f} ci=[{lo:.4f},{hi:.4f}] n={report.n} "
          f"skipped={len(report.skipped)}")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    cfg = data.SyntheticConfig(args.classes, args.per_class, args.canvas,
                               args.pattern, args.jitter, args.seed)
    ds = data.generate_synthetic(cfg)
    data.save_dataset(ds, args.out)
    print(f"wrote {len(ds.images)} images to {args.out}")
    return 0


def cmd_train(args):
    spec = nn.parse_spec(Path(args.spec).read_text())
    ds = data.load_dataset(args.data)
    cfg = nn.TrainConfig(args.lr, args.epochs, args.batch, args.seed, args.init_scale)
    model = nn.train(spec, ds.images, ds.labels, cfg, verbose=True)
    nn.save_model(model, args.out)
    return 0


def cmd_eval(args):
    model = nn.load_model(args.model)
    ds = data.load_dataset(args.data)
    acc = nn._accuracy(model, ds.images, ds.labels)
    print(f"accuracy={acc:.4f} n={len(ds.images)}")
    return 0


def _run_audit(args, mode: AuditMode, proto: EmbeddingProtocol, **kwargs):
    model = nn.load_model(args.model)
    _, images, labels = _load_audit_images(args.data, args.limit)
    report = audit.top1_change_probability(model, images, proto, mode,
                                           seed=args.seed, labels=labels, **kwargs)
    audit.write_report_csv(report, args.out)
    _print_summary(report)
    return 0


def cmd_audit_shift(args):
    return _run_audit(args, AuditMode.TRANSLATE, _proto(args), delta=ShiftSpec(args.delta, 0))


def cmd_audit_scale(args):
    return _run_audit(args, AuditMode.SCALE, _proto(args))


def cmd_audit_crop(args):
    proto = EmbeddingProtocol(args.crop_size, args.crop_size, args.crop_size, (0, 0))
    return _run_audit(args, AuditMode.CROP_NOISE, proto, crop_size=args.crop_size,
                      noise_scale=args.noise_scale)


def cmd_sweep_embed(args):
    model = nn.load_model(args.model)
    _, images, labels = _load_audit_images(args.data, args.limit)
    sizes = [int(s) for s in args.sizes.split(",")]
    mode = AuditMode.TRANSLATE if args.mode == "shift" else AuditMode.SCALE
    kwargs = {"delta": ShiftSpec(1, 0)} if mode is AuditMode.TRANSLATE else {}
    results = audit.embedding_size_sweep(model, images, _proto(args), sizes, mode,
                                         seed=args.seed, labels=labels, **kwargs)
    audit.write_curve_csv([(size, rep.p_hat) for size, rep in results], args.out,
                          param_name="embed_size", value_name="p_hat")
    for size, rep in results:
        print(f"embed={size} p_hat={rep.p_hat:.4f} n={rep.n}")
    return 0


def cmd_jaggedness(args):
    model = nn.load_model(args.model)
    image = data.read_image(args.image)
    proto = _proto(args)
    sweep = range(args.sweep_start, args.sweep_end + 1)
    series = audit.jaggedness_curve(model, image, proto, sweep, args.label)
    audit.write_curve_csv(series, args.out, param_name="position", value_name="score")
    return 0


def cmd_depth_profile(args):
    model = nn.load_model(args.model)
    ds, images, _ = _load_audit_images(args.data, args.limit)
    layers = [int(x) for x in args.layers.split(",")]
    cfg = nn.TrainConfig(args.lr, args.epochs, args.batch, args.seed)
    profile = audit.depth_invariance_profile(model, ds.images, ds.labels, layers, cfg,
                                             _proto(args), images, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("layer,depth_fraction,readout_accuracy,flip_rate\n")
        for e in profile:
            fh.write(f"{e.layer_index},{e.depth_fraction!r},{e.readout_accuracy!r},"
                     f"{e.flip_rate!r}\n")
    for e in profile:
        print(f"layer={e.layer_index} acc={e.readout_accuracy:.3f} flip={e.flip_rate:.4f}")
    return 0


def cmd_shiftability(args):
    model = nn.load_model(args.model)
    image = data.read_image(args.image)
    kind = {"tent": sampling.KernelKind.LINEAR_TENT,
            "cubic": sampling.KernelKind.CUBIC_BSPLINE,
            "sinc": sampling.KernelKind.WINDOWED_SINC}[args.kernel]
    s = model.spec.cumulative_factors[args.layer]
    basis = sampling.BasisKernel(kind, max(1, s), window_halfwidth=args.window)
    err = audit.feature_shiftability_error(model, args.layer, image, basis)
    print(f"layer={args.layer} stride={s} shiftability_error={err!r}")
    return 0


def cmd_feature_trace(args):
    model = nn.load_model(args.model)
    image = data.read_image(args.image)
    shifts = list(range(args.shifts + 1))
    trace = audit.feature_shift_trace(model, args.layer, image, _proto(args), shifts)
    with open(args.out, "w") as fh:
        fh.write("shift," + ",".join(f"ch{c}" for c in range(trace.shape[1])) + "\n")
        for dy, row in zip(shifts, trace):
            fh.write(f"{dy}," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"trace variance across shifts: {float(trace.var(axis=0).mean())!r}")
    return 0


def cmd_pool_swap(args):
    model = nn.load_model(args.model)
    swapped = nn.replace_pooling(model, _parse_pool(args.old), _parse_pool(args.new))
    nn.save_model(swapped, args.out)
    print(f"replaced {args.old} -> {args.new}")
    return 0


def _parse_pool(text: str) -> nn.PoolSpec:
    parts = text.split()
    if len(parts) != 3 or parts[0] not in ("max", "avg"):
        raise ValueError(f"pool descriptor must be '<max|avg> <k> <stride>', got '{text}'")
    return nn.PoolSpec(parts[0], int(parts[1]), int(parts[2]))


def cmd_bias_audit(args):
    annotations = biasstat.read_annotations_csv(args.annotations)
    report = biasstat.category_bias_report(annotations, args.pos_grid, args.size_bins)
    biasstat.write_bias_report_csv(report, args.out, args.pos_grid, args.size_bins)
    flagged = sum(r.flagged for r in report)
    print(f"categories={len(report)} flagged={flagged}")
    return 0


def cmd_verify_theory(args):
    results = theory.verify_all(args.seed)
    for name, ok in results.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(results.values()) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_proto_flags(p, default_canvas=32, default_embed=24):
    p.add_argument("--canvas", type=int, default=default_canvas)
    p.add_argument("--embed", type=int, default=default_embed)
    p.add_argument("--fill", choices=["black", "inpaint"], default="black")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aliascope",
                                     description="Sampling-theory CNN invariance audits")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--seed", type=int, default=_default_seed())
        p.set_defaults(fn=fn)
        return p

    def add_audit(name, fn, help):
        """A subcommand that audits --model on the images under --data."""
        p = add(name, fn, help=help)
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--limit", type=int, default=None)
        return p

    p = add("gen-data", cmd_gen_data, help="generate a synthetic translatable dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--canvas", type=int, default=32)
    p.add_argument("--pattern", type=int, default=9)
    p.add_argument("--jitter", type=int, default=4)

    p = add("train", cmd_train, help="train a model from a network spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--init-scale", type=float, default=1.0)

    p = add("eval", cmd_eval, help="dataset accuracy of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    for name, fn in (("audit-shift", cmd_audit_shift), ("audit-scale", cmd_audit_scale)):
        p = add_audit(name, fn, help=f"top-1 flip rate under the {name.split('-')[1]} protocol")
        _add_proto_flags(p)
        if name == "audit-shift":
            p.add_argument("--delta", type=int, default=1)

    p = add_audit("audit-crop", cmd_audit_crop, help="top-1 flip rate for 1-pixel-shifted crops")
    p.add_argument("--crop-size", type=int, default=32)
    p.add_argument("--noise-scale", type=float, default=0.0)

    p = add_audit("sweep-embed", cmd_sweep_embed, help="flip rate vs embedding size")
    p.add_argument("--sizes", required=True, help="comma-separated embed sizes")
    p.add_argument("--mode", choices=["shift", "scale"], default="shift")
    _add_proto_flags(p)

    p = add("jaggedness", cmd_jaggedness, help="correct-class score vs position sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sweep-start", type=int, default=0)
    p.add_argument("--sweep-end", type=int, default=8)
    _add_proto_flags(p)

    p = add_audit("depth-profile", cmd_depth_profile,
                  help="per-layer readout accuracy and flip rate")
    p.add_argument("--layers", required=True, help="comma-separated layer indices")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=32)
    _add_proto_flags(p)

    p = add("shiftability", cmd_shiftability, help="shiftability error of a strided layer")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--kernel", choices=["tent", "cubic", "sinc"], default="tent")
    p.add_argument("--window", type=int, default=0)

    p = add("feature-trace", cmd_feature_trace, help="per-channel spatial sums vs shift")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shifts", type=int, default=8)
    _add_proto_flags(p)

    p = add("pool-swap", cmd_pool_swap, help="replace pooling layers, keeping weights")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--old", required=True, help="'max 2 2' style descriptor")
    p.add_argument("--new", required=True, help="'avg 6 2' style descriptor (stride 0 keeps old)")

    p = add("bias-audit", cmd_bias_audit, help="chi-squared dataset-bias report")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pos-grid", type=int, default=5)
    p.add_argument("--size-bins", type=int, default=10)

    add("verify-theory", cmd_verify_theory,
        help="numeric checks of the invariance observation / claim / corollary")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.invocation = list(sys.argv[1:] if argv is None else argv)
    started = time.time()
    try:
        status = args.fn(args)
        if status == 0 and getattr(args, "out", None):
            write_manifest(args, started)
        return status
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
