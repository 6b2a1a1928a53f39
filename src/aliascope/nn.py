"""Minimal trainable CNN engine.

Layers: conv (zero or circular padding, optional relu), max/avg pooling,
global average pooling, dense, softmax. Everything runs on float64 numpy
arrays in (n, c, h, w) order; backward passes are hand-written and checked
against finite differences in the test suite.

Circular padding is a first-class option because it makes gap-head networks
with stride 1 *exactly* translation invariant at desk scale, with no edge
caveats.

Forward passes are batch-invariant: `forward(m, x)[i]` is bitwise equal to
`forward(m, x[i:i+1])[0]` for every batch. Conv is one GEMM per image on
that image's im2col matrix, dense is a per-image vector-matrix product, and
pooling, gap and softmax are elementwise or per-row. So callers may stack
inputs in any grouping (the audits do, see `audit`) and get the same bits as
one at a time. The cost of a batch is its memory: every layer's activations
for the whole batch are held at once, plus one image's patch matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import PadMode, argmax_flat


class SpecError(ValueError):
    """Network description rejected: syntax or shape inference failure."""


# ---------------------------------------------------------------------------
# Layer specs and the network grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int = 1
    pad: PadMode = PadMode.ZERO
    activation: str = "none"  # relu | none


@dataclass(frozen=True)
class PoolSpec:
    op: str  # max | avg
    kernel: int
    stride: int


@dataclass(frozen=True)
class GapSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    units: int


@dataclass(frozen=True)
class SoftmaxSpec:
    pass


LayerSpec = ConvSpec | PoolSpec | GapSpec | DenseSpec | SoftmaxSpec


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int, int]  # (c, h, w)
    layers: tuple[LayerSpec, ...]
    # inferred, one entry per layer
    shapes: tuple[tuple, ...] = field(default=(), compare=False)
    cumulative_factors: tuple[int, ...] = field(default=(), compare=False)


def _infer_shapes(input_shape, layers):
    """Shape-check the pipeline; returns (out_shapes, cumulative_factors)."""
    c, h, w = input_shape
    shape: tuple = (c, h, w)
    factor = 1
    shapes = []
    factors = []
    seen_gap = False
    for idx, layer in enumerate(layers):
        if isinstance(layer, ConvSpec):
            if len(shape) != 3 or seen_gap:
                raise SpecError(f"layer {idx}: conv needs a spatial input")
            ci, hi, wi = shape
            if layer.kernel > hi or layer.kernel > wi:
                raise SpecError(f"layer {idx}: conv kernel {layer.kernel} exceeds input {hi}x{wi}")
            ho = -(-hi // layer.stride)  # same-padding: ceil(h / stride)
            wo = -(-wi // layer.stride)
            shape = (layer.out_channels, ho, wo)
            factor *= layer.stride
        elif isinstance(layer, PoolSpec):
            if len(shape) != 3 or seen_gap:
                raise SpecError(f"layer {idx}: pooling needs a spatial input")
            ci, hi, wi = shape
            if layer.kernel > hi or layer.kernel > wi:
                raise SpecError(f"layer {idx}: pooling kernel {layer.kernel} exceeds input {hi}x{wi}")
            ho = (hi - layer.kernel) // layer.stride + 1
            wo = (wi - layer.kernel) // layer.stride + 1
            shape = (ci, ho, wo)
            factor *= layer.stride
        elif isinstance(layer, GapSpec):
            if len(shape) != 3:
                raise SpecError(f"layer {idx}: gap needs a spatial input")
            if seen_gap:
                raise SpecError(f"layer {idx}: gap may appear at most once")
            seen_gap = True
            shape = (shape[0],)
        elif isinstance(layer, DenseSpec):
            feat = int(np.prod(shape))
            shape = (layer.units,)
        elif isinstance(layer, SoftmaxSpec):
            if len(shape) != 1:
                raise SpecError(f"layer {idx}: softmax needs a flat input")
        else:  # pragma: no cover
            raise SpecError(f"layer {idx}: unknown layer kind")
        shapes.append(shape)
        factors.append(factor)
    if not layers or len(shapes[-1]) != 1:
        raise SpecError("network must end in a class-score vector")
    return tuple(shapes), tuple(factors)


def make_spec(input_shape, layers) -> NetworkSpec:
    if any(d < 1 for d in input_shape):
        raise SpecError("input dims must be >= 1")
    for layer in layers:
        if isinstance(layer, (ConvSpec, PoolSpec)) and (layer.stride < 1 or layer.kernel < 1):
            raise SpecError("stride and kernel must be >= 1")
    shapes, factors = _infer_shapes(tuple(input_shape), tuple(layers))
    return NetworkSpec(tuple(input_shape), tuple(layers), shapes, factors)


def _parse_kv(tokens, line_no):
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"line {line_no}: expected key=value, got '{tok}'")
        k, v = tok.split("=", 1)
        kv[k] = v
    return kv


def parse_spec(text: str) -> NetworkSpec:
    """Parse the line-oriented network grammar ('#' starts a comment)."""
    input_shape = None
    layers: list[LayerSpec] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "input":
                if len(tokens) != 4:
                    raise SpecError(f"line {line_no}: input takes <c> <h> <w>")
                input_shape = tuple(int(t) for t in tokens[1:])
            elif kind == "conv":
                if len(tokens) < 3:
                    raise SpecError(f"line {line_no}: conv takes <out_ch> <k> [options]")
                kv = _parse_kv(tokens[3:], line_no)
                pad = kv.get("pad", "zero")
                if pad not in ("zero", "circular"):
                    raise SpecError(f"line {line_no}: unknown pad mode '{pad}'")
                act = kv.get("act", "none")
                if act not in ("relu", "none"):
                    raise SpecError(f"line {line_no}: unknown activation '{act}'")
                layers.append(ConvSpec(int(tokens[1]), int(tokens[2]),
                                       int(kv.get("stride", 1)), PadMode(pad), act))
            elif kind in ("maxpool", "avgpool"):
                if len(tokens) < 2:
                    raise SpecError(f"line {line_no}: {kind} takes <k> [stride=<s>]")
                kv = _parse_kv(tokens[2:], line_no)
                layers.append(PoolSpec(kind[:3], int(tokens[1]), int(kv.get("stride", 1))))
            elif kind == "gap":
                layers.append(GapSpec())
            elif kind == "dense":
                if len(tokens) != 2:
                    raise SpecError(f"line {line_no}: dense takes <units>")
                layers.append(DenseSpec(int(tokens[1])))
            elif kind == "softmax":
                layers.append(SoftmaxSpec())
            else:
                raise SpecError(f"line {line_no}: unknown layer '{kind}'")
        except ValueError as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(f"line {line_no}: {exc}") from exc
    if input_shape is None:
        raise SpecError("missing 'input <c> <h> <w>' line")
    return make_spec(input_shape, layers)


def format_spec(spec: NetworkSpec) -> str:
    """Inverse of parse_spec (up to whitespace)."""
    lines = ["input {} {} {}".format(*spec.input_shape)]
    for layer in spec.layers:
        if isinstance(layer, ConvSpec):
            lines.append(f"conv {layer.out_channels} {layer.kernel} stride={layer.stride} "
                         f"pad={layer.pad.value} act={layer.activation}")
        elif isinstance(layer, PoolSpec):
            lines.append(f"{layer.op}pool {layer.kernel} stride={layer.stride}")
        elif isinstance(layer, GapSpec):
            lines.append("gap")
        elif isinstance(layer, DenseSpec):
            lines.append(f"dense {layer.units}")
        else:
            lines.append("softmax")
    return "\n".join(lines) + "\n"


def subsampling_factor(spec: NetworkSpec) -> int:
    """Product of all strides up to (and excluding) gap / dense."""
    factor = 1
    for layer in spec.layers:
        if isinstance(layer, (GapSpec, DenseSpec)):
            break
        if isinstance(layer, (ConvSpec, PoolSpec)):
            factor *= layer.stride
    return factor


def exact_invariance_fraction(factor: int) -> Fraction:
    """Fraction of 2D translations for which exact invariance is guaranteed."""
    return Fraction(1, factor * factor)


def replace_pooling(spec: NetworkSpec, old: PoolSpec, new: PoolSpec) -> NetworkSpec:
    """Substitute every pooling layer matching `old` with `new`.

    A new stride of 0 means "keep the old stride". Conv weights are untouched
    by construction since pooling layers carry none.
    """
    out = []
    hits = 0
    for layer in spec.layers:
        if layer == old:
            hits += 1
            stride = new.stride if new.stride > 0 else old.stride
            out.append(PoolSpec(new.op, new.kernel, stride))
        else:
            out.append(layer)
    if hits == 0:
        raise SpecError("no pooling layer matches the descriptor")
    return make_spec(spec.input_shape, out)


# ---------------------------------------------------------------------------
# Model: weights + forward/backward
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.learning_rate < 0 or self.epochs < 0 or self.batch_size < 1 or self.init_scale <= 0:
            raise ValueError("train config values must be positive")


@dataclass
class Model:
    spec: NetworkSpec
    params: list[dict]  # per layer: {"w": ..., "b": ...} or {}
    rng_seed: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        return forward(self, x)

    def copy(self) -> "Model":
        return Model(self.spec, [{k: v.copy() for k, v in p.items()} for p in self.params],
                     self.rng_seed)


def init_model(spec: NetworkSpec, seed: int = 0, init_scale: float = 1.0) -> Model:
    """Seed-deterministic uniform init in [-a, a], a = init_scale / sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    params: list[dict] = []
    in_shape: tuple = spec.input_shape
    for layer, out_shape in zip(spec.layers, spec.shapes):
        if isinstance(layer, ConvSpec):
            fan_in = in_shape[0] * layer.kernel * layer.kernel
            a = init_scale / np.sqrt(fan_in)
            params.append({
                "w": rng.uniform(-a, a, (layer.out_channels, in_shape[0], layer.kernel, layer.kernel)),
                "b": np.zeros(layer.out_channels),
            })
        elif isinstance(layer, DenseSpec):
            fan_in = int(np.prod(in_shape))
            a = init_scale / np.sqrt(fan_in)
            params.append({
                "w": rng.uniform(-a, a, (layer.units, fan_in)),
                "b": np.zeros(layer.units),
            })
        else:
            params.append({})
        in_shape = out_shape
    return Model(spec, params, rng_seed=seed)


def _pad_spatial(x, left, right, mode: PadMode):
    if left == 0 and right == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(left, right), (left, right)]
    return np.pad(x, width, mode="constant" if mode is PadMode.ZERO else "wrap")


def _conv_forward(x, layer: ConvSpec, p):
    """GEMM convolution, one image at a time: W (o, c*k*k) @ im2col (c*k*k, ho*wo).

    Each image's product has the same shapes whatever the batch size, so the
    result for an image does not depend on the other images in the batch, and
    only one image's patch matrix exists at a time.
    """
    k, s = layer.kernel, layer.stride
    xp = _pad_spatial(x, (k - 1) // 2, k // 2, layer.pad)
    n, c = x.shape[:2]
    w = p["w"].reshape(p["w"].shape[0], -1)
    ho, wo = -(-x.shape[2] // s), -(-x.shape[3] // s)
    patches = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]  # n,c,ho,wo,k,k
    pre = np.empty((n, w.shape[0], ho * wo))
    for i in range(n):
        cols = patches[i].transpose(0, 3, 4, 1, 2).reshape(c * k * k, ho * wo)  # im2col copy
        np.matmul(w, cols, out=pre[i])
    pre = pre.reshape(n, w.shape[0], ho, wo)
    pre += p["b"][None, :, None, None]
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return out, (x.shape, xp, pre)


def _conv_backward(dy, layer: ConvSpec, p, cache):
    x_shape, xp, pre = cache
    k, s = layer.kernel, layer.stride
    left = (k - 1) // 2
    if layer.activation == "relu":
        dy = dy * (pre > 0)
    patches = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]  # n,c,ho,wo,k,k
    dw = np.einsum("nohw,nchwij->ocij", dy, patches, optimize=True)
    db = dy.sum(axis=(0, 2, 3))
    dxp = np.zeros(xp.shape)
    ho, wo = dy.shape[2], dy.shape[3]
    w = p["w"]
    for i in range(k):
        for j in range(k):
            contrib = np.einsum("nohw,oc->nchw", dy, w[:, :, i, j], optimize=True)
            dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += contrib
    # fold padding gradients back into the input
    n, c, h, wdt = x_shape
    right = k // 2
    if left == 0 and right == 0:
        dx = dxp
    elif layer.pad is PadMode.ZERO:
        dx = dxp[:, :, left:left + h, left:left + wdt]
    else:
        dx = np.zeros(x_shape)
        hp, wp = xp.shape[2], xp.shape[3]
        rows = (np.arange(hp) - left) % h
        cols = (np.arange(wp) - left) % wdt
        np.add.at(dx, (slice(None), slice(None), rows[:, None], cols[None, :]), dxp)
    return dx, {"w": dw, "b": db}


def _pool_windows(t, layer: PoolSpec, out_hw):
    """For each kernel offset in row-major order, the strided view of `t`
    holding that offset of every pooling window."""
    k, s = layer.kernel, layer.stride
    ho, wo = out_hw
    for i in range(k):
        for j in range(k):
            yield t[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]


def _pool_forward(x, layer: PoolSpec):
    k, s = layer.kernel, layer.stride
    hw = ((x.shape[2] - k) // s + 1, (x.shape[3] - k) // s + 1)
    combine = np.maximum if layer.op == "max" else np.add
    windows = _pool_windows(x, layer, hw)
    out = next(windows).copy()
    for view in windows:
        combine(out, view, out=out)
    if layer.op == "avg":
        out /= k * k
    return out, (x, out)


def _pool_backward(dy, layer: PoolSpec, cache):
    x, out = cache
    hw = dy.shape[2:]
    dx = np.zeros(x.shape)
    if layer.op == "max":
        # route each window's gradient to its first maximum in row-major order
        routed = np.zeros(dy.shape, dtype=bool)
        for x_view, dx_view in zip(_pool_windows(x, layer, hw), _pool_windows(dx, layer, hw)):
            hit = (x_view == out) & ~routed
            routed |= hit
            dx_view += np.where(hit, dy, 0.0)
    else:
        g = dy / (layer.kernel * layer.kernel)
        for dx_view in _pool_windows(dx, layer, hw):
            dx_view += g
    return dx


def _size_agnostic(spec: NetworkSpec) -> bool:
    """True when forward works for any spatial input size: every dense layer
    sits after gap, so no weight shape depends on h or w."""
    seen_gap = False
    for layer in spec.layers:
        if isinstance(layer, GapSpec):
            seen_gap = True
        elif isinstance(layer, DenseSpec) and not seen_gap:
            return False
    return True


def _forward_layers(model: Model, x: np.ndarray, upto: int | None = None):
    """Run layers [0, upto]; returns (activations list, caches list)."""
    spec = model.spec
    if x.ndim == 3:
        x = x[None]
    if x.shape[1] != spec.input_shape[0]:
        raise ValueError(f"input has {x.shape[1]} channels, spec wants {spec.input_shape[0]}")
    if x.shape[2:] != spec.input_shape[1:] and not _size_agnostic(spec):
        raise ValueError(f"input shape {x.shape[1:]} does not match spec {spec.input_shape} "
                         "and the network is not spatial-size agnostic")
    x = np.asarray(x, dtype=np.float64)
    last = len(spec.layers) - 1 if upto is None else upto
    acts, caches = [], []
    cur = x
    for li in range(last + 1):
        layer = spec.layers[li]
        p = model.params[li]
        if isinstance(layer, ConvSpec):
            cur, cache = _conv_forward(cur, layer, p)
        elif isinstance(layer, PoolSpec):
            cur, cache = _pool_forward(cur, layer)
        elif isinstance(layer, GapSpec):
            cache = cur.shape
            cur = cur.mean(axis=(2, 3))
        elif isinstance(layer, DenseSpec):
            flat = cur.reshape(cur.shape[0], -1)
            cache = (cur.shape, flat)
            cur = (flat[:, None] @ p["w"].T)[:, 0] + p["b"]  # per image: batch-invariant
        elif isinstance(layer, SoftmaxSpec):
            z = cur - cur.max(axis=1, keepdims=True)
            e = np.exp(z)
            cur = e / e.sum(axis=1, keepdims=True)
            cache = cur
        acts.append(cur)
        caches.append(cache)
    return acts, caches


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Full forward pass; returns (n, num_classes) class scores."""
    acts, _ = _forward_layers(model, x)
    return acts[-1]


def layer_activations(model: Model, x: np.ndarray, layer_index: int) -> np.ndarray:
    """Forward truncated after layer_index."""
    if not 0 <= layer_index < len(model.spec.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    acts, _ = _forward_layers(model, x, upto=layer_index)
    return acts[layer_index]


def predict_top1(model, x: np.ndarray) -> int:
    """Top-1 class of a single input; smallest index wins ties."""
    scores = model.forward(x)
    return argmax_flat(scores[0] if scores.ndim == 2 else scores)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(labels)), labels], 1e-300, None)
    return float(-np.mean(np.log(p)))


def backward_sgd_step(model: Model, batch_x: np.ndarray, batch_y: np.ndarray,
                      lr: float, trainable: set[int] | None = None) -> float:
    """One SGD step on mean cross-entropy; mutates model weights in place.

    `trainable` restricts the update to the given layer indices (used by
    readout training with a frozen base).
    """
    if len(batch_x) == 0:
        raise ValueError("empty batch")
    spec = model.spec
    acts, caches = _forward_layers(model, batch_x)
    probs = acts[-1]
    if not isinstance(spec.layers[-1], SoftmaxSpec):
        raise SpecError("training requires a softmax output layer")
    n = len(batch_y)
    loss = cross_entropy(probs, batch_y)
    # softmax + cross-entropy folded into one gradient
    dcur = probs.copy()
    dcur[np.arange(n), batch_y] -= 1.0
    dcur /= n
    for li in range(len(spec.layers) - 2, -1, -1):
        layer = spec.layers[li]
        p = model.params[li]
        if isinstance(layer, ConvSpec):
            dcur, grads = _conv_backward(dcur, layer, p, caches[li])
            if trainable is None or li in trainable:
                p["w"] -= lr * grads["w"]
                p["b"] -= lr * grads["b"]
        elif isinstance(layer, PoolSpec):
            dcur = _pool_backward(dcur, layer, caches[li])
        elif isinstance(layer, GapSpec):
            shape = caches[li]
            dcur = np.broadcast_to(dcur[:, :, None, None] / (shape[2] * shape[3]), shape).copy()
        elif isinstance(layer, DenseSpec):
            in_shape, flat = caches[li]
            dw = dcur.T @ flat
            db = dcur.sum(axis=0)
            dcur = (dcur @ p["w"]).reshape(in_shape)
            if trainable is None or li in trainable:
                p["w"] -= lr * dw
                p["b"] -= lr * db
    return loss


def _accuracy(model, xs, ys, batch: int = 256) -> float:
    hits = 0
    for i in range(0, len(xs), batch):
        scores = model.forward(xs[i:i + batch])
        hits += int(np.sum(np.argmax(scores, axis=1) == ys[i:i + batch]))
    return hits / len(xs)


def train(spec: NetworkSpec, xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig,
          verbose: bool = False) -> Model:
    """Train from scratch with plain SGD; deterministic given cfg.seed."""
    if len(xs) == 0:
        raise ValueError("empty dataset")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    model = init_model(spec, seed=cfg.seed, init_scale=cfg.init_scale)
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(xs))
        total = 0.0
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i:i + cfg.batch_size]
            total += backward_sgd_step(model, xs[sel], ys[sel], cfg.learning_rate) * len(sel)
        if verbose:
            print(f"epoch {epoch + 1}: loss={total / len(xs):.4f} "
                  f"acc={_accuracy(model, xs, ys):.3f}")
    return model


@dataclass
class ReadoutModel:
    """gap + dense + softmax head on frozen features of a base model."""

    base: Model
    layer_index: int
    head: Model

    def features(self, x: np.ndarray) -> np.ndarray:
        f = layer_activations(self.base, x, self.layer_index)
        if f.ndim == 2:  # already flat: wrap as 1x1 spatial for the gap head
            f = f[:, :, None, None]
        return f

    def forward(self, x: np.ndarray) -> np.ndarray:
        return forward(self.head, self.features(x))


def train_readout(model: Model, layer_index: int, xs: np.ndarray, ys: np.ndarray,
                  cfg: TrainConfig, num_classes: int | None = None) -> ReadoutModel:
    """Train a gap+dense+softmax readout on frozen features of one layer."""
    if not 0 <= layer_index < len(model.spec.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    if num_classes is None:
        num_classes = int(model.spec.shapes[-1][0])
    feat_shape = model.spec.shapes[layer_index]
    if len(feat_shape) == 1:
        feat_shape = (feat_shape[0], 1, 1)
    head_spec = make_spec(feat_shape, (GapSpec(), DenseSpec(num_classes), SoftmaxSpec()))
    readout = ReadoutModel(model, layer_index, init_model(head_spec, cfg.seed, cfg.init_scale))
    if cfg.epochs == 0:
        return readout
    # extract features once: the base is frozen
    feats = []
    for i in range(0, len(xs), 256):
        feats.append(readout.features(np.asarray(xs[i:i + 256], dtype=np.float64)))
    feats = np.concatenate(feats, axis=0)
    ys = np.asarray(ys, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(feats))
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i:i + cfg.batch_size]
            backward_sgd_step(readout.head, feats[sel], ys[sel], cfg.learning_rate)
    return readout


# ---------------------------------------------------------------------------
# Serialization: "SHNN" little-endian binary
# ---------------------------------------------------------------------------

MAGIC = b"SHNN"
FORMAT_VERSION = 1


def save_model(model: Model, path) -> None:
    spec_text = format_spec(model.spec).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION),
              struct.pack("<I", len(spec_text)), spec_text]
    for p in model.params:
        for key in ("w", "b"):
            if key in p:
                arr = np.ascontiguousarray(p[key], dtype="<f8")
                chunks.append(struct.pack("<I", arr.ndim))
                chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
                chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class ModelFileError(ValueError):
    pass


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ModelFileError("truncated model file")
        out = blob[off:off + n]
        off += n
        return out

    if take(4) != MAGIC:
        raise ModelFileError("bad magic bytes")
    (version,) = struct.unpack("<I", take(4))
    if version != FORMAT_VERSION:
        raise ModelFileError(f"unsupported format version {version}")
    (spec_len,) = struct.unpack("<I", take(4))
    spec = parse_spec(take(spec_len).decode("utf-8"))
    model = init_model(spec, seed=0)
    for p in model.params:
        for key in ("w", "b"):
            if key in p:
                (rank,) = struct.unpack("<I", take(4))
                shape = struct.unpack(f"<{rank}I", take(4 * rank))
                if shape != p[key].shape:
                    raise ModelFileError(f"weight shape {shape} does not match spec")
                count = int(np.prod(shape))
                p[key] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).copy()
    if off != len(blob):
        raise ModelFileError("trailing bytes after weights")
    return model
