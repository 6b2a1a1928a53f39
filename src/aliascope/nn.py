"""Minimal trainable CNN engine.

Layers: conv (zero or circular padding, optional relu), max/avg pooling,
global average pooling, dense, softmax. Everything runs on float64 numpy
arrays in (n, c, h, w) order; backward passes are hand-written and checked
against finite differences in the test suite.

Circular padding is a first-class option because it makes gap-head networks
with stride 1 *exactly* translation invariant at desk scale, with no edge
caveats.

Each layer kind is one frozen dataclass (`ConvSpec`, `PoolSpec`, `GapSpec`,
`DenseSpec`, `SoftmaxSpec`) that owns everything about the kind: its line of
the spec grammar (`parse`, `format`), the checks on its fields (`validate`),
its output shape and subsampling stride (`out_shape`, `factor`), its weight
init (`init_params`) and its kernels (`forward`, `backward`). `make_spec`,
`parse_spec`, `format_spec`, `init_model`, `forward` and `backward_sgd_step`
are single loops over the layers. A new layer kind, such as a blur-then-
subsample pool, is one new class and one entry in `LAYER_KINDS` (SHNN files
store the weights named "w" and "b").

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

from .tensor import PadMode


class SpecError(ValueError):
    """Network description rejected: syntax or shape inference failure."""


# ---------------------------------------------------------------------------
# Layer kinds
# ---------------------------------------------------------------------------

def _parse_kv(tokens):
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"expected key=value, got '{tok}'")
        k, v = tok.split("=", 1)
        kv[k] = v
    return kv


def _pad_spatial(x, left, right, mode: PadMode):
    if left == 0 and right == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(left, right), (left, right)]
    return np.pad(x, width, mode="constant" if mode is PadMode.ZERO else "wrap")


def _spatial_hw(shape, what: str, kernel: int = 1):
    """(h, w) of a (c, h, w) layer input that a kernel x kernel window fits."""
    if len(shape) != 3:
        raise SpecError(f"{what} needs a spatial input")
    if kernel > shape[1] or kernel > shape[2]:
        raise SpecError(f"{what} kernel {kernel} exceeds input {shape[1]}x{shape[2]}")
    return shape[1], shape[2]


class _Layer:
    """What a layer kind has unless it says otherwise: a bare keyword line,
    no fields to check, no subsampling and no weights."""

    factor = 1  # subsampling stride, multiplied into NetworkSpec.cumulative_factors

    @classmethod
    def parse(cls, kind: str, args: list[str]):
        return cls()

    def validate(self) -> None:
        pass

    def init_params(self, in_shape, rng, init_scale) -> dict:
        return {}


class _Window(_Layer):
    """A kernel x kernel window moved by `stride` over a spatial input."""

    @property
    def factor(self) -> int:
        return self.stride

    def validate(self) -> None:
        if self.stride < 1 or self.kernel < 1:
            raise SpecError("stride and kernel must be >= 1")


@dataclass(frozen=True)
class ConvSpec(_Window):
    out_channels: int
    kernel: int
    stride: int = 1
    pad: PadMode = PadMode.ZERO
    activation: str = "none"  # relu | none

    @classmethod
    def parse(cls, kind, args):
        if len(args) < 2:
            raise SpecError("conv takes <out_ch> <k> [options]")
        kv = _parse_kv(args[2:])
        pad = kv.get("pad", "zero")
        if pad not in ("zero", "circular"):
            raise SpecError(f"unknown pad mode '{pad}'")
        return cls(int(args[0]), int(args[1]), int(kv.get("stride", 1)), PadMode(pad),
                   kv.get("act", "none"))

    def format(self) -> str:
        return (f"conv {self.out_channels} {self.kernel} stride={self.stride} "
                f"pad={self.pad.value} act={self.activation}")

    def validate(self) -> None:
        super().validate()
        if self.out_channels < 1:
            raise SpecError("conv channels must be >= 1")
        if self.pad not in tuple(PadMode):
            raise SpecError(f"unknown pad mode {self.pad!r}")
        if self.activation not in ("relu", "none"):
            raise SpecError(f"unknown activation '{self.activation}'")

    def out_shape(self, shape):
        h, w = _spatial_hw(shape, "conv", self.kernel)
        return (self.out_channels, -(-h // self.stride), -(-w // self.stride))  # ceil(h / stride)

    def init_params(self, in_shape, rng, init_scale):
        k = self.kernel
        a = init_scale / np.sqrt(in_shape[0] * k * k)
        return {"w": rng.uniform(-a, a, (self.out_channels, in_shape[0], k, k)),
                "b": np.zeros(self.out_channels)}

    def forward(self, x, p):
        """GEMM convolution, one image at a time: W (o, c*k*k) @ im2col (c*k*k, ho*wo).

        Each image's product has the same shapes whatever the batch size, so
        the result for an image does not depend on the other images in the
        batch, and only one image's patch matrix exists at a time.
        """
        k, s = self.kernel, self.stride
        xp = _pad_spatial(x, (k - 1) // 2, k // 2, self.pad)
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
        out = np.maximum(pre, 0.0) if self.activation == "relu" else pre
        return out, (x.shape, xp, pre)

    def backward(self, dy, p, cache):
        x_shape, xp, pre = cache
        k, s = self.kernel, self.stride
        left = (k - 1) // 2
        if self.activation == "relu":
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
        elif self.pad is PadMode.ZERO:
            dx = dxp[:, :, left:left + h, left:left + wdt]
        else:
            dx = np.zeros(x_shape)
            hp, wp = xp.shape[2], xp.shape[3]
            rows = (np.arange(hp) - left) % h
            cols = (np.arange(wp) - left) % wdt
            np.add.at(dx, (slice(None), slice(None), rows[:, None], cols[None, :]), dxp)
        return dx, {"w": dw, "b": db}


@dataclass(frozen=True)
class PoolSpec(_Window):
    op: str  # max | avg
    kernel: int
    stride: int

    @classmethod
    def parse(cls, kind, args):
        if len(args) < 1:
            raise SpecError(f"{kind} takes <k> [stride=<s>]")
        kv = _parse_kv(args[1:])
        return cls(kind[:3], int(args[0]), int(kv.get("stride", 1)))

    def format(self) -> str:
        return f"{self.op}pool {self.kernel} stride={self.stride}"

    def validate(self) -> None:
        super().validate()
        if self.op not in ("max", "avg"):
            raise SpecError(f"unknown pooling op '{self.op}'")

    def out_shape(self, shape):
        h, w = _spatial_hw(shape, "pooling", self.kernel)
        k, s = self.kernel, self.stride
        return (shape[0], (h - k) // s + 1, (w - k) // s + 1)

    def _windows(self, t, out_hw):
        """For each kernel offset in row-major order, the strided view of `t`
        holding that offset of every pooling window."""
        k, s = self.kernel, self.stride
        ho, wo = out_hw
        for i in range(k):
            for j in range(k):
                yield t[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]

    def forward(self, x, p):
        combine = np.maximum if self.op == "max" else np.add
        windows = self._windows(x, self.out_shape(x.shape[1:])[1:])
        out = next(windows).copy()
        for view in windows:
            combine(out, view, out=out)
        if self.op == "avg":
            out /= self.kernel * self.kernel
        return out, (x, out)

    def backward(self, dy, p, cache):
        x, out = cache
        hw = dy.shape[2:]
        dx = np.zeros(x.shape)
        if self.op == "max":
            # route each window's gradient to its first maximum in row-major order
            routed = np.zeros(dy.shape, dtype=bool)
            for x_view, dx_view in zip(self._windows(x, hw), self._windows(dx, hw)):
                hit = (x_view == out) & ~routed
                routed |= hit
                dx_view += np.where(hit, dy, 0.0)
        else:
            g = dy / (self.kernel * self.kernel)
            for dx_view in self._windows(dx, hw):
                dx_view += g
        return dx, {}


@dataclass(frozen=True)
class GapSpec(_Layer):
    def format(self) -> str:
        return "gap"

    def out_shape(self, shape):
        _spatial_hw(shape, "gap")
        return (shape[0],)

    def forward(self, x, p):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, p, shape):
        return np.broadcast_to(dy[:, :, None, None] / (shape[2] * shape[3]), shape).copy(), {}


@dataclass(frozen=True)
class DenseSpec(_Layer):
    units: int

    @classmethod
    def parse(cls, kind, args):
        if len(args) != 1:
            raise SpecError("dense takes <units>")
        return cls(int(args[0]))

    def format(self) -> str:
        return f"dense {self.units}"

    def validate(self) -> None:
        if self.units < 1:
            raise SpecError("dense units must be >= 1")

    def out_shape(self, shape):
        return (self.units,)

    def init_params(self, in_shape, rng, init_scale):
        fan_in = int(np.prod(in_shape))
        a = init_scale / np.sqrt(fan_in)
        return {"w": rng.uniform(-a, a, (self.units, fan_in)), "b": np.zeros(self.units)}

    def forward(self, x, p):
        flat = x.reshape(x.shape[0], -1)
        out = (flat[:, None] @ p["w"].T)[:, 0] + p["b"]  # per image: batch-invariant
        return out, (x.shape, flat)

    def backward(self, dy, p, cache):
        in_shape, flat = cache
        return (dy @ p["w"]).reshape(in_shape), {"w": dy.T @ flat, "b": dy.sum(axis=0)}


@dataclass(frozen=True)
class SoftmaxSpec(_Layer):
    def format(self) -> str:
        return "softmax"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise SpecError("softmax needs a flat input")
        return shape

    def forward(self, x, p):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        return y, y

    def backward(self, dy, p, y):
        # the output softmax is folded into the loss gradient; this serves a softmax mid-network
        return y * (dy - (dy * y).sum(axis=1, keepdims=True)), {}


LAYER_KINDS = {"conv": ConvSpec, "maxpool": PoolSpec, "avgpool": PoolSpec,
               "gap": GapSpec, "dense": DenseSpec, "softmax": SoftmaxSpec}


# ---------------------------------------------------------------------------
# Network specs and the network grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple[int, int, int]  # (c, h, w)
    layers: tuple[_Layer, ...]
    # inferred, one entry per layer
    shapes: tuple[tuple, ...] = field(default=(), compare=False)
    cumulative_factors: tuple[int, ...] = field(default=(), compare=False)


def make_spec(input_shape, layers) -> NetworkSpec:
    """Validate every layer and infer its output shape and cumulative stride."""
    input_shape, layers = tuple(input_shape), tuple(layers)
    if any(d < 1 for d in input_shape):
        raise SpecError("input dims must be >= 1")
    shape, factor = input_shape, 1
    shapes, factors = [], []
    for idx, layer in enumerate(layers):
        try:
            layer.validate()
            shape = layer.out_shape(shape)
        except SpecError as exc:
            raise SpecError(f"layer {idx}: {exc}") from None
        factor *= layer.factor
        shapes.append(shape)
        factors.append(factor)
    if len(shape) != 1:  # also catches an empty layer list
        raise SpecError("network must end in a class-score vector")
    return NetworkSpec(input_shape, layers, tuple(shapes), tuple(factors))


def parse_spec(text: str) -> NetworkSpec:
    """Parse the line-oriented network grammar ('#' starts a comment)."""
    input_shape = None
    layers: list[_Layer] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "input":
                if len(args) != 3:
                    raise SpecError("input takes <c> <h> <w>")
                input_shape = tuple(int(t) for t in args)
            elif kind in LAYER_KINDS:
                layers.append(LAYER_KINDS[kind].parse(kind, args))
            else:
                raise SpecError(f"unknown layer '{kind}'")
        except ValueError as exc:  # SpecError, or int() of a bad number
            raise SpecError(f"line {line_no}: {exc}") from exc
    if input_shape is None:
        raise SpecError("missing 'input <c> <h> <w>' line")
    return make_spec(input_shape, layers)


def format_spec(spec: NetworkSpec) -> str:
    """Inverse of parse_spec (up to whitespace)."""
    lines = ["input {} {} {}".format(*spec.input_shape)]
    lines += [layer.format() for layer in spec.layers]
    return "\n".join(lines) + "\n"


def exact_invariance_fraction(factor: int) -> Fraction:
    """Fraction of 2D translations for which exact invariance is guaranteed."""
    return Fraction(1, factor * factor)


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


def init_model(spec: NetworkSpec, seed: int = 0, init_scale: float = 1.0) -> Model:
    """Seed-deterministic uniform init in [-a, a], a = init_scale / sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    in_shapes = (spec.input_shape,) + spec.shapes[:-1]
    params = [layer.init_params(s, rng, init_scale) for layer, s in zip(spec.layers, in_shapes)]
    return Model(spec, params, rng_seed=seed)


def replace_pooling(model: Model, old: PoolSpec, new: PoolSpec) -> Model:
    """Substitute every pooling layer matching `old` with `new`, carrying the
    conv and dense weights over.

    A new stride of 0 means "keep the old stride". Raises SpecError when no
    layer matches, or when the swap changes a weight's shape (a dense layer
    fed by the pool), since those weights cannot be carried.
    """
    if old not in model.spec.layers:
        raise SpecError("no pooling layer matches the descriptor")
    stride = new.stride if new.stride > 0 else old.stride
    layers = [PoolSpec(new.op, new.kernel, stride) if layer == old else layer
              for layer in model.spec.layers]
    swapped = init_model(make_spec(model.spec.input_shape, layers), seed=model.rng_seed)
    for li, (p_old, p_new) in enumerate(zip(model.params, swapped.params)):
        for key in p_old:
            if p_old[key].shape != p_new[key].shape:
                raise SpecError(f"pool swap changes layer {li} {key} shape "
                                f"{p_old[key].shape} -> {p_new[key].shape}")
            p_new[key] = p_old[key].copy()
    return swapped


def _forward_layers(model: Model, x: np.ndarray, upto: int | None = None):
    """Run layers [0, upto]; returns (activations list, caches list)."""
    spec = model.spec
    if x.ndim == 3:
        x = x[None]
    if x.shape[1] != spec.input_shape[0]:
        raise ValueError(f"input has {x.shape[1]} channels, spec wants {spec.input_shape[0]}")
    # any spatial size works when every dense layer's input is already flat:
    # then no weight shape depends on h or w
    in_shapes = (spec.input_shape,) + spec.shapes[:-1]
    fixed_size = any(isinstance(layer, DenseSpec) and len(s) > 1
                     for layer, s in zip(spec.layers, in_shapes))
    if x.shape[2:] != spec.input_shape[1:] and fixed_size:
        raise ValueError(f"input shape {x.shape[1:]} does not match spec {spec.input_shape} "
                         "and the network is not spatial-size agnostic")
    cur = np.asarray(x, dtype=np.float64)
    last = len(spec.layers) if upto is None else upto + 1
    acts, caches = [], []
    for layer, p in zip(spec.layers[:last], model.params):
        cur, cache = layer.forward(cur, p)
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


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(labels)), labels], 1e-300, None)
    return float(-np.mean(np.log(p)))


def backward_sgd_step(model: Model, batch_x: np.ndarray, batch_y: np.ndarray,
                      lr: float) -> float:
    """One SGD step on mean cross-entropy; mutates model weights in place."""
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
    for layer, p, cache in zip(spec.layers[-2::-1], model.params[-2::-1], caches[-2::-1]):
        dcur, grads = layer.backward(dcur, p, cache)
        for key, g in grads.items():
            p[key] -= lr * g
    return loss


def _accuracy(model, xs, ys, batch: int = 256) -> float:
    hits = 0
    for i in range(0, len(xs), batch):
        scores = forward(model, xs[i:i + batch])
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


def train_readout(model: Model, layer_index: int, xs: np.ndarray, ys: np.ndarray,
                  cfg: TrainConfig, num_classes: int | None = None) -> Model:
    """Train a gap+dense+softmax readout on frozen features of one layer.

    The readout is a plain Model: the base's layers [0..layer_index] with
    copies of their weights, then the head (dense+softmax alone when the
    features are already flat). The head is trained on its own, on features
    extracted once from the base.
    """
    if not 0 <= layer_index < len(model.spec.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    if num_classes is None:
        num_classes = int(model.spec.shapes[-1][0])
    feats = np.concatenate([layer_activations(model, xs[i:i + 256], layer_index)
                            for i in range(0, len(xs), 256)])
    head_layers = (DenseSpec(num_classes), SoftmaxSpec())
    if feats.ndim == 4:
        head_layers = (GapSpec(),) + head_layers
    else:  # flat features feed the head as 1x1 maps
        feats = feats[:, :, None, None]
    head = train(make_spec(feats.shape[1:], head_layers), feats, ys, cfg)
    spec = make_spec(model.spec.input_shape, model.spec.layers[:layer_index + 1] + head_layers)
    base = [{k: v.copy() for k, v in p.items()} for p in model.params[:layer_index + 1]]
    return Model(spec, base + head.params, rng_seed=cfg.seed)


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
    spec_bytes = take(spec_len)
    try:
        spec = parse_spec(spec_bytes.decode("utf-8"))
    except (UnicodeDecodeError, SpecError) as exc:
        raise ModelFileError(f"bad network spec in model file: {exc}") from exc
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
