"""Measurement harness: top-1 change probabilities under 1-pixel protocols,
jaggedness curves, embedding-size sweeps, depth-wise readout profiles,
feature-map shift traces, feature shiftability errors, and piecewise
invariance checks.

Per-image protocol randomness (positions) is seeded from (global seed,
image id) so reports are stable under reordering; records are sorted by
image id before aggregation and writing.

Every audit scores its canvases in batches: canvases are built lazily and
stacked into one `nn.forward` / `nn.layer_activations` call per chunk of at
most `CHUNK_VALUES` input values. The forward kernels are batch-invariant
(see `nn`), so a canvas gets the same bits whichever chunk it lands in, and
reports do not depend on image order or chunking. The chunk is bounded by
memory, not tuned for speed: a larger one stops paying once the per-call
overhead is amortised, while every activation of the chunk is held at once,
and canvases of skipped images or invalid sweep points are never stacked.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from . import nn, sampling, transforms
from .tensor import argmax_flat, spatial_sum
from .transforms import EmbeddingProtocol, PiecewiseTransform, ShiftSpec


CHUNK_VALUES = 16384  # input values per batched forward call: 10 canvases at 40x40


def _forward_chunks(fn, items):
    """Yield (key, fn(stack)[row]) for each (key, canvas) of `items`, in order.

    Canvases are stacked into calls of at most CHUNK_VALUES input values (a
    larger canvas goes alone); a change of canvas shape also closes a chunk.
    """
    keys, batch, size = [], [], 0
    for key, canvas in items:
        if batch and (size + canvas.size > CHUNK_VALUES or canvas.shape != batch[0].shape):
            yield from zip(keys, fn(np.stack(batch)))
            keys, batch, size = [], [], 0
        keys.append(key)
        batch.append(canvas)
        size += canvas.size
    if batch:
        yield from zip(keys, fn(np.stack(batch)))


def _pooled_activations(model, layer_index: int):
    """Batched layer features, spatially summed when the layer is spatial."""
    def fn(x):
        act = nn.layer_activations(model, x, layer_index)
        return spatial_sum(act) if act.ndim == 4 else act
    return fn


class AuditMode(Enum):
    TRANSLATE = "translate"
    SCALE = "scale"
    CROP_NOISE = "crop+noise"


@dataclass(frozen=True)
class AuditRecord:
    image_id: str
    protocol: str
    mode: str
    param_before: str
    param_after: str
    top1_before: int
    top1_after: int
    changed: bool
    score_before: float
    score_after: float


@dataclass(frozen=True)
class AuditReport:
    records: tuple[AuditRecord, ...]
    skipped: tuple[tuple[str, str], ...]  # (image_id, reason)

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def p_hat(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.changed for r in self.records) / len(self.records)

    @property
    def wilson_interval(self) -> tuple[float, float]:
        return wilson_interval(sum(r.changed for r in self.records), self.n)


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def image_seed(global_seed: int, image_id: str) -> int:
    """Stable per-image seed derived from the global seed and image id."""
    return (global_seed * 0x9E3779B1 + zlib.crc32(image_id.encode("utf-8"))) % (2**32)


def _random_position(rng, proto: EmbeddingProtocol, eh: int, ew: int,
                     margin_bottom: int = 0, margin_right: int = 0):
    top = int(rng.integers(0, proto.canvas_h - eh - margin_bottom + 1))
    left = int(rng.integers(0, proto.canvas_w - ew - margin_right + 1))
    return top, left


def _embedded_extent(img, embed_size):
    _, h, w = img.shape
    if w >= h:
        return max(1, round(h * embed_size / w)), embed_size
    return embed_size, max(1, round(w * embed_size / h))


def top1_change_probability(model, images, proto: EmbeddingProtocol, mode: AuditMode,
                            seed: int = 0, delta: ShiftSpec = ShiftSpec(1, 0),
                            crop_size: int = 0, noise_scale: float = 0.0,
                            labels=None) -> AuditReport:
    """Fraction of images whose top-1 prediction flips under a 1-step protocol.

    `images` is a sequence of (image_id, (c, h, w) array). Positions are
    drawn per image from the derived seed; geometry violations are recorded
    as skips, not raised. When labels are given, the recorded scores are the
    correct-class scores; otherwise the before-top-1 class is scored.
    """
    records = []
    skipped = []
    label_of = dict(labels) if labels else {}
    protocol = (f"canvas={proto.canvas_h}x{proto.canvas_w},embed={proto.embed_size},"
                f"fill={proto.fill.value}")

    def canvases():
        for image_id, img in images:
            rng = np.random.default_rng(image_seed(seed, image_id))
            try:
                if mode is AuditMode.TRANSLATE:
                    eh, ew = _embedded_extent(img, proto.embed_size)
                    pos = _random_position(rng, proto, eh, ew,
                                           margin_bottom=max(0, delta.dy),
                                           margin_right=max(0, delta.dx))
                    p = replace(proto, position=pos)
                    before, _ = transforms.embed(img, p)
                    after = transforms.shift_embedded(img, p, delta)
                    pb, pa = f"{pos}", f"{(pos[0] + delta.dy, pos[1] + delta.dx)}"
                elif mode is AuditMode.SCALE:
                    eh, ew = _embedded_extent(img, proto.embed_size + 1)
                    pos = _random_position(rng, proto, eh, ew)
                    p = replace(proto, position=pos)
                    before, after = transforms.scale_pair(img, p, proto.embed_size)
                    pb, pa = str(proto.embed_size), str(proto.embed_size + 1)
                else:
                    before, after = transforms.crop_pair_with_noise(
                        img, crop_size, noise_scale, image_seed(seed, image_id))
                    pb, pa = "crop", "crop+1px"
            except ValueError as exc:
                skipped.append((image_id, str(exc)))
                continue
            yield (image_id, pb, pa), before
            yield None, after

    scored = _forward_chunks(partial(nn.forward, model), canvases())
    for ((image_id, pb, pa), scores_b), (_, scores_a) in zip(scored, scored):
        t1b, t1a = argmax_flat(scores_b), argmax_flat(scores_a)
        cls = label_of.get(image_id, t1b)
        records.append(AuditRecord(
            image_id=image_id, protocol=protocol,
            mode=mode.value, param_before=pb, param_after=pa,
            top1_before=t1b, top1_after=t1a, changed=t1b != t1a,
            score_before=float(scores_b[cls]), score_after=float(scores_a[cls])))
    records.sort(key=lambda r: r.image_id)
    skipped.sort()
    return AuditReport(tuple(records), tuple(skipped))


def jaggedness_curve(model, image, proto: EmbeddingProtocol, sweep, label: int,
                     mode: AuditMode = AuditMode.TRANSLATE):
    """Correct-class score as one protocol parameter sweeps.

    TRANSLATE sweeps the top-row position; SCALE sweeps the embed size.
    Invalid sweep points are emitted with a NaN score.
    """
    series = [(param, float("nan")) for param in sweep]

    def canvases():
        for i, (param, _) in enumerate(series):
            try:
                if mode is AuditMode.TRANSLATE:
                    p = replace(proto, position=(int(param), proto.position[1]))
                    canvas, _ = transforms.embed(image, p)
                else:
                    canvas, _ = transforms.embed(image, replace(proto, embed_size=int(param)))
            except ValueError:
                continue
            yield i, canvas

    for i, scores in _forward_chunks(partial(nn.forward, model), canvases()):
        series[i] = (series[i][0], float(scores[label]))
    return series


def embedding_size_sweep(model, images, proto: EmbeddingProtocol, sizes, mode: AuditMode,
                         seed: int = 0, **kwargs) -> list[tuple[int, AuditReport]]:
    """top1_change_probability per embedding size, in the given order."""
    out = []
    for size in sizes:
        report = top1_change_probability(model, images, replace(proto, embed_size=size),
                                         mode, seed=seed, **kwargs)
        out.append((size, report))
    return out


@dataclass(frozen=True)
class DepthProfileEntry:
    layer_index: int
    depth_fraction: float
    readout_accuracy: float
    flip_rate: float


def depth_invariance_profile(model, xs, ys, layer_indices, cfg, proto: EmbeddingProtocol,
                             audit_images, seed: int = 0,
                             delta: ShiftSpec = ShiftSpec(1, 0)) -> list[DepthProfileEntry]:
    """Per-layer readout accuracy and 1-pixel-shift flip rate.

    A gap+dense+softmax readout is trained on frozen features of each probed
    layer, then audited with the translate protocol. Reports absolute layer
    indices plus a normalized depth fraction.
    """
    n_layers = len(model.spec.layers)
    out = []
    for li in layer_indices:
        readout = nn.train_readout(model, li, xs, ys, cfg)
        acc = nn._accuracy(readout, xs, ys)
        report = top1_change_probability(readout, audit_images, proto,
                                         AuditMode.TRANSLATE, seed=seed, delta=delta)
        out.append(DepthProfileEntry(li, li / max(1, n_layers - 1), acc, report.p_hat))
    return out


def feature_shift_trace(model, layer_index: int, image, proto: EmbeddingProtocol,
                        shifts) -> np.ndarray:
    """Per-channel spatial sums of one layer as the embedding shifts.

    Returns an array of shape (len(shifts), channels); shifts are vertical
    pixel displacements.
    """
    canvases = ((None, transforms.shift_embedded(image, proto, ShiftSpec(int(dy), 0)))
                for dy in shifts)
    return np.stack([row for _, row in
                     _forward_chunks(_pooled_activations(model, layer_index), canvases)])


def feature_shiftability_error(model, layer_index: int, image, basis: sampling.BasisKernel) -> float:
    """Shiftability error of a strided layer's learned response.

    The dense response along each spatial axis is obtained by shift-and-
    sample: the input is circularly shifted through every sub-stride phase
    and the layer re-evaluated, which measures exactly what the deployed
    strided network computes. Stride-1 layers are trivially shiftable and
    report 0.
    """
    s = model.spec.cumulative_factors[layer_index]
    if s == 1:
        return 0.0
    x = np.asarray(image, dtype=np.float64)
    # input shifted by -t puts the response sampled at grid position j*s + t
    shifted = ((None, np.roll(x, -t, axis=axis)) for axis in (1, 2) for t in range(s))
    acts = [act for _, act in _forward_chunks(
        lambda b: nn.layer_activations(model, b, layer_index), shifted)]
    c, h, w = acts[0].shape
    dense_h = np.zeros((c, h * s, w))
    dense_w = np.zeros((c, h, w * s))
    for t in range(s):
        dense_h[:, t::s, :] = acts[t]
        dense_w[:, :, t::s] = acts[s + t]
    worst = 0.0
    for ch in range(c):
        col = dense_h[ch, :, w // 2]
        row = dense_w[ch, h // 2, :]
        for profile in (col, row):
            if profile.shape[0] >= 4 * s + 2 * basis.support:
                worst = max(worst, sampling.shiftability_error(profile, s, basis))
    return worst


def piecewise_invariance_check(model, image, t: PiecewiseTransform,
                               layer_index: int | None = None) -> float:
    """Max gap-pooled feature gap between an image and its piecewise shift.

    Features are taken at `layer_index` (default: the last spatial layer)
    and pooled by spatial summation. The caller asserts containment of
    feature support and receptive fields via margins in `t`.
    """
    if layer_index is None:
        layer_index = _last_spatial_layer(model.spec)
    x = np.asarray(image, dtype=np.float64)
    pair = ((None, x), (None, transforms.piecewise_shift(x, t)))
    pb, pa = (row for _, row in _forward_chunks(_pooled_activations(model, layer_index), pair))
    return float(np.max(np.abs(pa - pb)))


def _last_spatial_layer(spec: nn.NetworkSpec) -> int:
    last = None
    for i, shape in enumerate(spec.shapes):
        if len(shape) == 3:
            last = i
    if last is None:
        raise ValueError("model has no spatial layers")
    return last


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

REPORT_HEADER = ["image_id", "protocol", "mode", "param_before", "param_after",
                 "top1_before", "top1_after", "changed", "score_before", "score_after"]


def write_report_csv(report: AuditReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for r in report.records:
            writer.writerow([r.image_id, r.protocol, r.mode, r.param_before, r.param_after,
                             r.top1_before, r.top1_after, str(r.changed).lower(),
                             repr(r.score_before), repr(r.score_after)])
        lo, hi = report.wilson_interval
        fh.write(f"#summary,p_hat={report.p_hat!r},ci_low={lo!r},ci_high={hi!r},n={report.n}\n")


def write_curve_csv(series, path, param_name: str = "param", value_name: str = "value") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([param_name, value_name])
        for param, value in series:
            writer.writerow([param, repr(float(value))])
