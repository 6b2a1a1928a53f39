"""Measurement harness: top-1 change probabilities under 1-pixel protocols,
jaggedness curves, depth-wise readout profiles, feature-map shift traces and
feature shiftability errors, as reports, curves and arrays that `cli` writes.

Per-image protocol randomness (positions) is seeded from (global seed,
image id) so reports are stable under reordering; records are sorted by
image id.

Every audit, sweep and trace canvas is scored by `nn._stacked`, one call
per chunk; `_canvases` builds a chunk of placed canvases, and a crop pair is
its own two canvases. Canvases that do not fit (skipped images, sweep points
off the canvas) are never built. The forward kernels are batch-invariant
(see `nn`), so a canvas gets the same bits whichever chunk it lands in, and
results do not depend on image order or chunking. `nn.pooled_features` is
the one pooled read-out: the feature trace takes its spatial sums, the depth
profile its means. An audit that scores no image, and a jaggedness curve
that scores no position, raise ValueError: they measured nothing.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from . import nn, sampling, transforms
from .transforms import EmbeddingProtocol, FillMode, Rect, ShiftSpec


class AuditMode(Enum):
    TRANSLATE = "translate"
    SCALE = "scale"
    CROP_NOISE = "crop+noise"


class AuditRecord(NamedTuple):
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
        return sum(r.changed for r in self.records) / self.n

    @property
    def wilson_interval(self) -> tuple[float, float]:
        return wilson_interval(sum(r.changed for r in self.records), self.n)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def image_seed(global_seed: int, image_id: str) -> int:
    """Stable per-image seed derived from the global seed and image id."""
    return (global_seed * 0x9E3779B1 + zlib.crc32(image_id.encode("utf-8"))) % (2**32)


def _random_position(rng, proto: EmbeddingProtocol, eh: int, ew: int,
                     delta: ShiftSpec = ShiftSpec(0, 0)):
    """A top-left corner drawn uniformly among those where an eh x ew image
    fits the canvas both there and moved by `delta`."""
    top, left = max(0, -delta.dy), max(0, -delta.dx)
    room_h = proto.canvas_h - eh - abs(delta.dy)
    room_w = proto.canvas_w - ew - abs(delta.dx)
    if room_h < 0 or room_w < 0:
        raise ValueError(f"embedded image {eh}x{ew} and a step of ({delta.dy}, "
                         f"{delta.dx}) do not fit the {proto.canvas_h}x{proto.canvas_w} "
                         f"canvas")
    return top + int(rng.integers(0, room_h + 1)), left + int(rng.integers(0, room_w + 1))


def _canvases(proto: EmbeddingProtocol, chunk) -> np.ndarray:
    """The canvases of a chunk of plans as one array, in plan order. A plan
    is (image, places); each place, an (embed size, position) that fits,
    makes one canvas: the image resized to that size and pasted there with
    proto's fill. Each image of the chunk (by identity) is resized once per
    embed size, the images of one shape as one stack, and an inpaint fill is
    one `transforms.inpaint_fill` call on the whole chunk."""
    placed = [(img, size, pos) for img, places in chunk for size, pos in places]
    groups, resized = {}, {}  # groups: (embed size, image shape) -> {id: image}
    for img, size, _ in placed:
        groups.setdefault((size, img.shape), {})[id(img)] = img
    for (size, _), group in groups.items():
        stack = transforms.resize_longest_side(np.stack(list(group.values())), size)
        resized.update(zip([(i, size) for i in group], stack))
    canvases = np.zeros((len(placed), chunk[0][0].shape[0], proto.canvas_h, proto.canvas_w))
    for canvas, (img, size, pos) in zip(canvases, placed):
        transforms.paste(resized[id(img), size], pos, canvas)
    if proto.fill is FillMode.BLACK:
        return canvases
    return transforms.inpaint_fill(canvases, [Rect(*pos, *resized[id(img), size].shape[1:])
                                              for img, size, pos in placed])


def _canvas_rows(fn, plans, proto: EmbeddingProtocol) -> np.ndarray:
    """fn's rows for the canvases of `plans` (see `_canvases`), in plan
    order, read out by `nn._stacked`: a plan adds one canvas per place."""
    canvas = (proto.canvas_h, proto.canvas_w)
    return nn._stacked(fn, plans, lambda plan: (len(plan[1]), plan[0].shape[0], *canvas),
                       partial(_canvases, proto))


def _scored_pairs(fn, images, proto: EmbeddingProtocol, mode: AuditMode, seed: int = 0,
                  delta: ShiftSpec = ShiftSpec(1, 0), crop_size: int = 0,
                  noise_scale: float = 0.0):
    """Plan each image's before/after canvases under a 1-step protocol, with
    positions drawn from the image's derived seed, and score them by
    `_canvas_rows` (a crop pair by `nn._stacked`, as its two canvases).
    Returns (keys, before, after, skipped): keys holds (image_id,
    param_before, param_after) for each scored image in input order, before
    and after hold fn's rows for its two canvases, and skipped holds the
    sorted (image_id, reason) of the images whose canvases do not fit.
    Raises ValueError when no image is scored."""
    plans, skipped = [], []  # plans: (key, image, (embed size, position) of each canvas)
    size = proto.embed_size
    for image_id, img in images:
        rng = np.random.default_rng(image_seed(seed, image_id))
        try:
            if mode is AuditMode.TRANSLATE:
                extent = transforms.embedded_extent(*img.shape[1:], size)
                pos = _random_position(rng, proto, *extent, delta)
                moved = (pos[0] + delta.dy, pos[1] + delta.dx)
                plans.append(((image_id, f"{pos}", f"{moved}"), img, ((size, pos), (size, moved))))
            elif mode is AuditMode.SCALE:
                extent = transforms.embedded_extent(*img.shape[1:], size + 1)
                pos = _random_position(rng, proto, *extent)
                plans.append(((image_id, str(size), str(size + 1)), img,
                              ((size, pos), (size + 1, pos))))
            else:
                transforms.check_crop(img.shape, crop_size)
                plans.append(((image_id, "crop", "crop+1px"), img, None))
        except ValueError as exc:
            skipped.append((image_id, str(exc)))
    skipped.sort()
    if not plans:
        first = f"; first: {skipped[0][0]}: {skipped[0][1]}" if skipped else ""
        raise ValueError(f"audit scored no image ({len(skipped)} skipped{first})")
    if mode is AuditMode.CROP_NOISE:  # a crop pair is cut as its chunk is gathered
        rows = nn._stacked(fn, (transforms.crop_pair_with_noise(
            img, crop_size, noise_scale, image_seed(seed, key[0])) for key, img, _ in plans),
            build=np.concatenate)
    else:
        rows = _canvas_rows(fn, [(img, places) for _, img, places in plans], proto)
    return tuple(key for key, _, _ in plans), rows[0::2], rows[1::2], tuple(skipped)


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
    keys, before, after, skipped = _scored_pairs(partial(nn.forward, model), images, proto,
                                                 mode, seed, delta, crop_size, noise_scale)
    label_of = dict(labels) if labels else {}
    protocol = (f"canvas={proto.canvas_h}x{proto.canvas_w},embed={proto.embed_size},"
                f"fill={proto.fill.value}")
    records = []
    for (image_id, pb, pa), scores_b, scores_a, t1b, t1a in zip(
            keys, before, after, np.argmax(before, axis=1).tolist(),
            np.argmax(after, axis=1).tolist()):
        cls = label_of.get(image_id, t1b)
        records.append(AuditRecord(
            image_id=image_id, protocol=protocol,
            mode=mode.value, param_before=pb, param_after=pa,
            top1_before=t1b, top1_after=t1a, changed=t1b != t1a,
            score_before=float(scores_b[cls]), score_after=float(scores_a[cls])))
    records.sort(key=lambda r: r.image_id)
    return AuditReport(tuple(records), skipped)


def jaggedness_curve(model, image, proto: EmbeddingProtocol, sweep, label: int):
    """Correct-class score as the top-row position of the embedding sweeps.

    Sweep points that do not fit, found arithmetically, are emitted with a
    NaN score; a sweep with no point that fits, and a label that is not one
    of the model's classes, raise ValueError.
    """
    if not 0 <= label < model.spec.shapes[-1][0]:
        raise ValueError(f"label {label} out of range for {model.spec.shapes[-1][0]} classes")
    sweep, (size, col) = list(sweep), (proto.embed_size, proto.position[1])
    eh, ew = transforms.embedded_extent(*image.shape[1:], size)
    fits = [i for i, p in enumerate(sweep)
            if 0 <= int(p) <= proto.canvas_h - eh and 0 <= col <= proto.canvas_w - ew]
    if not fits:
        first = ""
        for p in sweep[:1]:  # nothing fits, so the first point is the first misfit
            try:
                transforms.check_fits(eh, ew, (int(p), col), proto.canvas_h, proto.canvas_w)
            except ValueError as exc:
                first = f"; first: position {p}: {exc}"
        raise ValueError(f"jaggedness curve scored no position ({len(sweep)} in the "
                         f"sweep{first})")
    rows = _canvas_rows(partial(nn.forward, model),
                        [(image, ((size, (int(sweep[i]), col)),)) for i in fits], proto)
    scores = dict(zip(fits, rows[:, label].tolist()))
    return [(p, scores.get(i, math.nan)) for i, p in enumerate(sweep)]


class DepthProfileEntry(NamedTuple):
    layer_index: int
    depth_fraction: float
    readout_accuracy: float
    flip_rate: float


def depth_invariance_profile(model, xs, ys, layer_indices, cfg, proto: EmbeddingProtocol,
                             audit_images, seed: int = 0,
                             delta: ShiftSpec = ShiftSpec(1, 0)) -> list[DepthProfileEntry]:
    """Per-layer readout accuracy and 1-pixel-shift flip rate.

    A dense+softmax head is trained by `cfg` on the frozen, gap-pooled
    features of each probed layer, and scores the layer's features of the
    training images (its readout accuracy) and of the translate protocol's
    canvas pairs (its flip rate). The base net runs once per training image
    and once per canvas, up to the deepest probed layer, whatever the number
    of layers; a repeated layer reuses its head. This is bitwise what a
    readout model (the base's layers up to the probed one, gap, then the
    head) gives run on its own, since the kernels are batch-invariant and a
    layer's output does not depend on the layers after it. Entries follow
    `layer_indices` and report absolute layer indices plus a normalized
    depth fraction.
    """
    layers = list(dict.fromkeys(layer_indices))
    features = partial(nn.pooled_features, model, layers=layers, reduce=np.mean)
    _, before, after, _ = _scored_pairs(features, audit_images, proto, AuditMode.TRANSLATE,
                                        seed, delta)
    train_feats = nn._stacked(features, xs)
    head_layers = (nn.DenseSpec(int(model.spec.shapes[-1][0])), nn.SoftmaxSpec())
    measured, lo = {}, 0
    for li in layers:
        hi = lo + model.spec.shapes[li][0]  # channels, or units of a flat layer
        # the head's input: contiguous (n, c, 1, 1) columns of this layer
        f_train, f_before, f_after = (np.ascontiguousarray(f[:, lo:hi])[:, :, None, None]
                                      for f in (train_feats, before, after))
        head = nn.train(nn.make_spec(f_train.shape[1:], head_layers), f_train, ys, cfg)
        flips = np.argmax(nn.forward(head, f_before), axis=1) != np.argmax(
            nn.forward(head, f_after), axis=1)
        measured[li] = (nn._accuracy(head, f_train, ys), int(np.sum(flips)) / len(flips))
        lo = hi
    return [DepthProfileEntry(li, li / max(1, len(model.spec.layers) - 1), *measured[li])
            for li in layer_indices]


def feature_shift_trace(model, layer_index: int, image, proto: EmbeddingProtocol,
                        shifts) -> np.ndarray:
    """Per-channel spatial sums of one layer as the embedding shifts.

    Returns an array of shape (len(shifts), channels); shifts are vertical
    pixel displacements. A shift that does not fit raises ValueError.
    """
    (top, left), size = proto.position, proto.embed_size
    extent, plans = transforms.embedded_extent(*image.shape[1:], size), []
    for dy in map(int, shifts):  # checked before the resize, whose cost grows as size squared
        transforms.check_fits(*extent, (top + dy, left), proto.canvas_h, proto.canvas_w)
        plans.append((image, ((size, (top + dy, left)),)))
    return _canvas_rows(partial(nn.pooled_features, model, layers=[layer_index], reduce=np.sum),
                        plans, proto)


def spatial_layer_factor(model, layer_index: int) -> int:
    """The cumulative stride of a layer, which must exist and be spatial."""
    if len(model.spec.shapes[nn._check_layer(model, layer_index)]) != 3:
        raise ValueError(f"layer {layer_index} is not spatial")
    return model.spec.cumulative_factors[layer_index]


def feature_shiftability_error(model, layer_index: int, image, basis: sampling.BasisKernel) -> float:
    """Shiftability error of a strided layer's learned response.

    The dense response along each spatial axis is obtained by shift-and-
    sample: the input is circularly shifted through every sub-stride phase
    and the layer re-evaluated, which measures exactly what the deployed
    strided network computes. Stride-1 layers are trivially shiftable and
    report 0. A strided layer whose longest dense profile is shorter than
    4 s + 2 support measures nothing and raises ValueError.
    """
    s = spatial_layer_factor(model, layer_index)
    if s == 1:
        return 0.0
    x = np.asarray(image, dtype=np.float64)
    # input shifted by -t puts the response sampled at grid position j*s + t
    acts = nn._stacked(partial(nn.layer_activations, model, layer_index=layer_index),
                       (np.roll(x, -t, axis=axis) for axis in (1, 2) for t in range(s)))
    c, h, w = acts.shape[1:]
    dense_h = acts[:s].transpose(1, 2, 0, 3).reshape(c, h * s, w)
    dense_w = acts[s:].transpose(1, 2, 3, 0).reshape(c, h, w * s)
    need = 4 * s + 2 * basis.support
    if max(h, w) * s < need:
        raise ValueError(f"shiftability needs a dense profile of {need} samples, "
                         f"the longest is {max(h, w) * s}")
    worst = 0.0
    for ch in range(c):
        col = dense_h[ch, :, w // 2]
        row = dense_w[ch, h // 2, :]
        for profile in (col, row):
            if profile.shape[0] >= need:
                worst = max(worst, sampling.shiftability_error(profile, s, basis))
    return worst
