"""Minimal trainable CNN engine.

Layers: conv (zero or circular padding, optional relu), max/avg pooling,
global average pooling, dense, softmax. Everything runs on float64 numpy
arrays in (n, c, h, w) order; backward passes are hand-written and checked
against finite differences in the test suite. 64-bit storage is deliberate:
the invariance checks assert tolerances down to 1e-9, which float32 would
blur.

Circular padding is a first-class option because it makes gap-head networks
with stride 1 translation invariant at desk scale, with no edge caveats, to
within `theory.EXACT_TOL`. Not bitwise: OpenBLAS runs a GEMM's last
`ho*wo mod 8` columns through another kernel, so a rolled input's conv map
is the rolled map at 40x40 but not, in its last bits, at 33x33; gap rounds.

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
inputs in any grouping and get the same bits as one at a time. The cost of a
batch is its memory: every layer's activations for the whole batch are held
at once, plus one image's patch matrix. `chunked` is the one chunk rule (at
most `CHUNK_VALUES` input values a call) and `_stacked` the one loop over its
chunks: the dataset accuracy, `theory`, the shiftability error, the depth
profile, the crop pairs and the audits' placed canvases are all read out by
it, so only a training batch is ever larger.
`pooled_features` is the one pooled read-out (the depth profile, the feature
trace, `theory`'s corollary): one pass up to the deepest of its layers serves
them all, since a layer's output does not depend on how far the pass goes.

`backward_sgd_step` also returns how many of its batch's images the forward
pass before the step got right, so `train` prints each epoch's running
accuracy without a second pass over the data.

Each `Model` owns its layers' large arrays. `Model.scratch` holds one dict
of buffers per layer (not compared, not saved, not settable), and the conv
and pool kernels write their padded frames, patch matrices, outputs, masks
and gradients into views of them. A buffer is replaced by a larger one only
when a call needs more room than any before it, so it only grows, to the
largest call the model has run. The reason is allocation churn: when every
layer call allocates its temporaries afresh, glibc hands arrays above its
mmap threshold new mappings and returns heap memory above its trim threshold
on free, so each call faults in new pages. A warmed SGD step of the stride-1
reference net allocated 22.8 MB that way, and a 1-epoch `train` of it took
about 310k minor page faults and a third of its run time in the kernel. A
backward step consumes its forward's cache: conv's backward writes the
relu-masked dy over the forward's `out` and its input gradient over its
padded input `xp`, each once the step has read what it held, and gap's
backward returns a read-only broadcast view. After a batch-16 step the
stride-1 reference net's buffers hold 7.79 MiB and the strided net's
4.73 MiB (18.53 and 6.98 MiB when each gradient had a buffer of its own).
A forward alone leaves 8.15 and 3.32 MiB on an audit chunk (10 x 40^2)
and 11.26 and 3.88 MiB on an inpaint chunk (4 x 64^2).
The kernels keep every GEMM's operands (the weight gradient's transposed,
see below) and every elementwise op's order, so the bits are those of
fresh arrays. Two consequences: a `Model` is not reentrant (two
calls on one model must not interleave, e.g. from threads), and nothing
returned aliases a buffer: `forward`'s class scores come from gap, dense or
softmax, which allocate their small outputs, `pooled_features` reduces into
a fresh array and `layer_activations` copies.

Conv's forward and its input gradient run one loop, `_gemm_each`: for each
image, fill the patch buffer "cols", then one GEMM into that image's rows
of the output (im2col, Chellapilla et al. 2006). The weight gradient is the
sum over images of cols_i @ dy_i^T (c*k*k, o), transposed once, with cols_i
the forward's patch matrix from the same generator, `_im2col`, rebuilt
rather than kept for the whole batch; each product is bitwise the transpose
of dy_i @ cols_i^T, which a test checks on the reference nets' shapes. The
input gradient is the stride-1 "full" correlation of dy, dilated by the
stride, with the flipped, channel-transposed kernel; padding's adjoint then
crops (zero) or adds the margins back around the image (circular). Its
patch matrix is the im2col of dy set in a zero frame, but no frame is
built: `_dy_cols` zeroes "cols" once per call and writes each image's dy
straight to the matrix's non-zero entries through one strided view, so
each GEMM has the framed correlation's operands and dx its bits, which a
test checks. At stride s > 1 that GEMM still multiplies the zero columns
of the dilated dy. Nothing reads the input gradient of layer 0, so
`backward_sgd_step` asks every layer but the first for it (`need_dx`): a
first conv or dense costs only its weight product, and a first pool or gap
costs nothing.

The elementwise work runs on contiguous operands where it can, since numpy
runs a stride-0 or strided operand at about half the rate. Conv's bias is
added from a contiguous (o, ho*wo) row, broadcast over the batch axis only,
which is written into "cols" once the GEMM loop has finished with it: each
output element gets the same single add as from the (o, 1, 1) broadcast.
Max-pool folds each k x k window in two 1-D passes, 2(k-1) `np.maximum`
calls against k*k-1 strided ones: first the k column offsets, into an
(n, c, h', wo) intermediate of the h' <= h rows some window reads, held in
the pool's "dx" buffer, which only its backward uses otherwise, then the k
row offsets into "out". Max is exact,
and numpy returns the second operand on a tie (+0.0 against -0.0
included), so each fold keeps the last maximum of its row or column and
the two passes pick the element the row-major k*k fold picks, the last
maximum in row-major order; a test checks the bytes. Avg-pool keeps its
row-major k*k sum: a separable sum adds in another order, and so rounds
to other bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided


class PadMode(Enum):
    ZERO = "zero"
    CIRCULAR = "circular"


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


def _buffer(buf: dict, name: str, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of `shape`: a view on the buffer `name` of a
    layer's scratch dict, which is replaced by a larger one only when a call
    needs more room than any call before it. A name keeps one dtype."""
    size = math.prod(shape)
    if name not in buf or buf[name].size < size:
        buf[name] = np.empty(size, dtype)
    return buf[name][:size].reshape(shape)


def _pad_spatial(x, left, right, mode: PadMode, buf: dict):
    """x with `left` and `right` extra positions around both spatial axes,
    written into the buffer "xp": zeros, or the circular wrap of x."""
    if left == 0 and right == 0:
        return x
    n, c, h, w = x.shape
    xp = _buffer(buf, "xp", (n, c, h + left + right, w + left + right))
    xp[:, :, left:left + h, left:left + w] = x
    if mode is PadMode.ZERO:
        xp[:, :, :left] = 0.0
        xp[:, :, left + h:] = 0.0
        xp[:, :, left:left + h, :left] = 0.0
        xp[:, :, left:left + h, left + w:] = 0.0
    else:
        _wrap(xp[:, :, :, left:left + w], left, h, axis=2)
        _wrap(xp, left, w, axis=3)
    return xp


def _im2col(xp, k: int, s: int, buf):
    """The patch matrices of a padded batch, one per image: (c*k*k, ho*wo),
    rows in (c, i, j) order, the image's k x k windows at stride s copied
    into the buffer "cols", which each step of the iteration overwrites.
    The forward's GEMM loop and the weight gradient read this one generator;
    the input gradient's GEMM loop reads `_dy_cols`."""
    n, c, hp, wp = xp.shape
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    windows = as_strided(xp, (n, c, k, k, ho, wo),  # offset (i, j) of each window, strided
                         xp.strides + (xp.strides[2] * s, xp.strides[3] * s), writeable=False)
    cols = _buffer(buf, "cols", (c * k * k, ho * wo))
    return _patches(windows, cols, cols.reshape(c, k, k, ho, wo))


def _dy_cols(dy, k: int, s: int, hp: int, wp: int, buf):
    """The input gradient's patch matrices, one per image: (o*k*k, hp*wp),
    rows in (o, i, j) order, the k x k windows at stride 1 of dy dilated by
    s and set k-1 in from the top-left of a zero frame one kernel larger
    than the (hp, wp) padded input. Only dy's own entries are non-zero, so
    "cols" is zeroed once per call and each image writes them alone:
    dy[o, y, x] goes to row (o*k + i)*k + j, column (k-1-i + s*y)*wp +
    (k-1-j + s*x), for every (i, j), all distinct entries inside the
    matrix. That is one strided view of "cols" from column (k-1)*wp + k-1;
    as_strided checks no bounds, so a test holds its strides to the framed
    correlation."""
    o, ho, wo = dy.shape[1:]
    cols = _buffer(buf, "cols", (o * k * k, hp * wp))
    cols.fill(0.0)
    e = cols.itemsize
    frame = as_strided(cols.reshape(-1)[(k - 1) * wp + k - 1:], (o, k, k, ho, wo),
                       (e * k * k * hp * wp, e * (k * hp - 1) * wp, e * (hp * wp - 1),
                        e * s * wp, e * s))
    return _patches(dy[:, :, None, None], cols, frame)


def _patches(images, cols, view):
    """Yield `cols` once per image, after copying the image into `view`, a
    view of `cols` that the image's broadcast shape fills."""
    for image in images:
        np.copyto(view, image)
        yield cols


def _gemm_each(w2d, patches, out):
    """out[i] = w2d @ the i-th patch matrix: one GEMM per image, whose shapes
    do not depend on the batch."""
    for i, cols in enumerate(patches):
        np.matmul(w2d, cols, out=out[i])
    return out


def _periods(left: int, size: int, length: int):
    """(lo, hi, src) for each period of `size` positions along an axis of
    `length` other than the inner one [left, left + size), and so disjoint
    from it: its positions [lo, hi) correspond to [src, src + hi - lo) of
    the inner period."""
    for p in range(left - size * -(-left // size), length, size):
        if p != left:
            lo, hi = max(p, 0), min(p + size, length)
            yield lo, hi, left + lo - p


def _wrap(g, left: int, size: int, axis: int):
    """Circular padding along one axis, in place: each position outside the
    inner `size` positions from `left` copies its inner counterpart, one slice
    copy per period (the forward twin of `_fold_wrap`)."""
    at = (slice(None),) * axis
    for lo, hi, src in _periods(left, size, g.shape[axis]):
        g[at + (slice(lo, hi),)] = g[at + (slice(src, src + hi - lo),)]


def _fold_wrap(g, left: int, size: int, axis: int):
    """Adjoint of circular padding along one axis, in place: each padded
    position p outside [left, left + size) adds into left + (p - left) % size,
    one slice add per period. Returns the view of the inner `size` positions."""
    at = (slice(None),) * axis
    for lo, hi, src in _periods(left, size, g.shape[axis]):
        g[at + (slice(src, src + hi - lo),)] += g[at + (slice(lo, hi),)]
    return g[at + (slice(left, left + size),)]


def _taps(t, axis: int, k: int, s: int, count: int):
    """For each of the k offsets of a window moved by s along `axis`, the
    strided view of `t` holding that offset of `count` windows."""
    at = (slice(None),) * axis
    for i in range(k):
        yield t[at + (slice(i, i + s * (count - 1) + 1, s),)]


def _fold(combine, views, out):
    """out = combine(...combine(combine(v0, v1), v2)..., v_last) over the
    views in order: one call per view after the first, and a copy when there
    is only one."""
    acc = next(views)
    for view in views:
        acc = combine(acc, view, out=out)
    if acc is not out:
        np.copyto(out, acc)
    return out


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

    def forward(self, x, p, buf):
        """GEMM convolution, one image at a time: W (o, c*k*k) @ im2col (c*k*k, ho*wo).

        Each image's product has the same shapes whatever the batch size, so
        the result for an image does not depend on the other images in the
        batch, and only one image's patch matrix exists at a time. Bias and
        relu are applied in place on the GEMM output, the bias from a
        contiguous (o, ho*wo) row written into the spent patch buffer.
        """
        k, s = self.kernel, self.stride
        xp = _pad_spatial(x, (k - 1) // 2, k // 2, self.pad, buf)
        w = p["w"].reshape(p["w"].shape[0], -1)
        n, o = x.shape[0], w.shape[0]
        ho, wo = -(-x.shape[2] // s), -(-x.shape[3] // s)
        out = _gemm_each(w, _im2col(xp, k, s, buf), _buffer(buf, "out", (n, o, ho * wo)))
        bias = _buffer(buf, "cols", (o, ho * wo))
        bias[...] = p["b"][:, None]
        out += bias  # broadcast over the batch axis only: the same add, at a contiguous rate
        out = out.reshape(n, o, ho, wo)
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out, (x.shape, xp, out)

    def backward(self, dy, p, cache, buf, need_dx=True):
        """dw and, when asked for, dx: two im2col GEMMs per image (see the
        module docstring). Consumes the cache: the relu-masked dy is written
        over the forward's `out`, and dx over its padded input `xp`."""
        x_shape, xp, out = cache
        k, s = self.kernel, self.stride
        o, c = p["w"].shape[:2]
        n, ho, wo = dy.shape[0], dy.shape[2], dy.shape[3]
        if self.activation == "relu":  # out > 0 exactly where the pre-activation is
            dy = np.multiply(dy, np.greater(out, 0.0, out=out), out=out)  # dy * 1.0 or 0.0
        dy_rows = dy.reshape(n, o, ho * wo)
        # dw^T, summed in image order: cols_i @ dy_i^T has the bits of (dy_i @ cols_i^T)^T
        dw, term = np.zeros((c * k * k, o)), np.empty((c * k * k, o))
        for i, cols in enumerate(_im2col(xp, k, s, buf)):
            dw += np.matmul(cols, dy_rows[i].T, out=term)
        grads = {"w": dw.T.reshape(p["w"].shape), "b": dy_rows.sum(axis=(0, 2))}
        if not need_dx:
            return None, grads
        hp, wp = xp.shape[2], xp.shape[3]
        w_flip = p["w"][:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
        dxp = _gemm_each(w_flip, _dy_cols(dy, k, s, hp, wp, buf),
                         _buffer(buf, "xp", (n, c, hp * wp))).reshape(n, c, hp, wp)
        left = (k - 1) // 2
        h, wdt = x_shape[2:]
        if self.pad is PadMode.ZERO:
            return dxp[:, :, left:left + h, left:left + wdt], grads
        return _fold_wrap(_fold_wrap(dxp, left, h, axis=2), left, wdt, axis=3), grads


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
        for rows in _taps(t, 2, self.kernel, self.stride, out_hw[0]):
            yield from _taps(rows, 3, self.kernel, self.stride, out_hw[1])

    def forward(self, x, p, buf):
        k, s = self.kernel, self.stride
        _, ho, wo = self.out_shape(x.shape[1:])
        out = _buffer(buf, "out", x.shape[:2] + (ho, wo))
        if self.op == "avg":  # the row-major k*k sum: its order fixes the bits
            _fold(np.add, self._windows(x, (ho, wo)), out)
            out /= k * k
        else:  # the k column offsets into the backward's "dx", then the k row offsets
            hu = s * (ho - 1) + k  # the rows some window reads
            rows = _buffer(buf, "dx", x.shape[:2] + (hu, wo))
            _fold(np.maximum, _taps(x[:, :, :hu], 3, k, s, wo), rows)
            _fold(np.maximum, _taps(rows, 2, k, s, ho), out)
        return out, (x, out)

    def backward(self, dy, p, cache, buf, need_dx=True):
        if not need_dx:
            return None, {}
        x, out = cache
        hw = dy.shape[2:]
        dx = _buffer(buf, "dx", x.shape)
        dx.fill(0.0)
        if self.op == "max":
            # route each window's gradient to its first maximum in row-major order
            routed = _buffer(buf, "routed", dy.shape, bool)
            routed.fill(False)
            hit = _buffer(buf, "hit", dy.shape, bool)
            masked = _buffer(buf, "masked", dy.shape)
            for x_view, dx_view in zip(self._windows(x, hw), self._windows(dx, hw)):
                np.greater(np.equal(x_view, out, out=hit), routed, out=hit)  # and not routed
                routed |= hit
                # a miss adds dy * 0 = +-0.0, and dx, zeroed, holds no -0.0: for a
                # finite dy, the sums have the bits of adding the hits alone
                dx_view += np.multiply(dy, hit, out=masked)
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

    def forward(self, x, p, buf):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, p, shape, buf, need_dx=True):
        if not need_dx:
            return None, {}
        return np.broadcast_to((dy / (shape[2] * shape[3]))[:, :, None, None], shape), {}


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

    def forward(self, x, p, buf):
        flat = x.reshape(x.shape[0], -1)
        out = (flat[:, None] @ p["w"].T)[:, 0] + p["b"]  # per image: batch-invariant
        return out, (x.shape, flat)

    def backward(self, dy, p, cache, buf, need_dx=True):
        in_shape, flat = cache
        dx = (dy @ p["w"]).reshape(in_shape) if need_dx else None
        return dx, {"w": dy.T @ flat, "b": dy.sum(axis=0)}


@dataclass(frozen=True)
class SoftmaxSpec(_Layer):
    def format(self) -> str:
        return "softmax"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise SpecError("softmax needs a flat input")
        return shape

    def forward(self, x, p, buf):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        return y, y

    def backward(self, dy, p, y, buf, need_dx=True):
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
        # the chained comparisons are False for NaN
        if not (0 <= self.learning_rate < math.inf and 0 < self.init_scale < math.inf
                and self.epochs >= 0 and self.batch_size >= 1):
            raise ValueError("train config needs epochs >= 0, batch_size >= 1, a finite "
                             "learning_rate >= 0 and a finite init_scale > 0")


@dataclass
class Model:
    spec: NetworkSpec
    params: list[dict]  # per layer: {"w": ..., "b": ...} or {}
    # per layer: the buffers its kernels write into (see the module docstring)
    scratch: list[dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = [{} for _ in self.spec.layers]


def init_model(spec: NetworkSpec, seed: int = 0, init_scale: float = 1.0) -> Model:
    """Seed-deterministic uniform init in [-a, a], a = init_scale / sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    in_shapes = (spec.input_shape,) + spec.shapes[:-1]
    params = [layer.init_params(s, rng, init_scale) for layer, s in zip(spec.layers, in_shapes)]
    return Model(spec, params)


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
    swapped = init_model(make_spec(model.spec.input_shape, layers))
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
    if 0 in x.shape[2:]:
        raise ValueError(f"input shape {x.shape[1:]} has an empty spatial axis")
    # any spatial size works when every dense layer that runs has a flat
    # input: then no weight shape it uses depends on h or w
    last = len(spec.layers) if upto is None else upto + 1
    in_shapes = (spec.input_shape,) + spec.shapes[:-1]
    fixed_size = any(isinstance(layer, DenseSpec) and len(s) > 1
                     for layer, s in zip(spec.layers[:last], in_shapes))
    if x.shape[2:] != spec.input_shape[1:] and fixed_size:
        raise ValueError(f"input shape {x.shape[1:]} does not match spec {spec.input_shape} "
                         "and the network is not spatial-size agnostic")
    cur = np.asarray(x, dtype=np.float64)
    acts, caches = [], []
    for layer, p, buf in zip(spec.layers[:last], model.params, model.scratch):
        cur, cache = layer.forward(cur, p, buf)
        acts.append(cur)
        caches.append(cache)
    return acts, caches


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Full forward pass; returns (n, num_classes) class scores, a fresh
    array: the last layer is gap, dense or softmax, which do not buffer."""
    acts, _ = _forward_layers(model, x)
    return acts[-1]


def _check_layer(model: Model, layer_index: int) -> int:
    """`layer_index`, when the model has that layer; IndexError otherwise."""
    if not 0 <= layer_index < len(model.spec.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    return layer_index


def layer_activations(model: Model, x: np.ndarray, layer_index: int) -> np.ndarray:
    """Forward truncated after layer_index; a copy, not the layer's buffer."""
    acts, _ = _forward_layers(model, x, upto=_check_layer(model, layer_index))
    return acts[layer_index].copy()


def pooled_features(model: Model, x: np.ndarray, layers, reduce) -> np.ndarray:
    """One pass up to the deepest of `layers`: their outputs, each spatial one
    reduced over space by `reduce` (np.mean, as gap does, or np.sum), joined
    along axis 1 in the order of `layers` into a fresh array."""
    acts, _ = _forward_layers(model, x, upto=max(_check_layer(model, li) for li in layers))
    return np.concatenate([reduce(acts[li], axis=(2, 3)) if acts[li].ndim == 4 else acts[li]
                           for li in layers], axis=1)


CHUNK_VALUES = 16384  # input values per batched forward call: 10 canvases at 40x40


def chunked(items, shape):
    """Split `items` into lists, in order, one per batched forward call: at
    most CHUNK_VALUES input values, or one item when it alone is larger.
    `shape(item)` is the shape of the inputs an item adds (a pair of canvases
    adds (2, c, h, w)); an item of another shape than the chunk's first
    closes the chunk."""
    chunk, size = [], 0
    for item in items:
        item_shape = shape(item)
        if chunk and (size + math.prod(item_shape) > CHUNK_VALUES
                      or item_shape != shape(chunk[0])):
            yield chunk
            chunk, size = [], 0
        chunk.append(item)
        size += math.prod(item_shape)
    if chunk:
        yield chunk


def _stacked(fn, items, shape=np.shape, build=np.stack) -> np.ndarray:
    """fn's rows for the iterable `items`, in order: one call per chunk of
    `chunked` (by `shape`), on `build` of the chunk: by default the stack of
    its inputs; a pair of canvases is one item, built by np.concatenate.
    `fn` is a batched forward such as `forward`, whose result for an input
    does not depend on the other inputs of its call. Its outputs are held
    until they are joined, so it must return arrays that no later call
    overwrites (as `forward`, `layer_activations` and `pooled_features` do)."""
    out = [fn(build(chunk)) for chunk in chunked(items, shape)]
    if not out:
        raise ValueError("no inputs")
    return np.concatenate(out)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(labels)), labels], 1e-300, None)
    return float(-np.mean(np.log(p)))


def backward_sgd_step(model: Model, batch_x: np.ndarray, batch_y: np.ndarray,
                      lr: float) -> tuple[float, int]:
    """One SGD step on mean cross-entropy; mutates model weights in place.

    Returns the batch's mean cross-entropy and the number of its images whose
    top-1 class is the label, both from the forward pass before the step.
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
    correct = int(np.sum(np.argmax(probs, axis=1) == batch_y))
    # softmax + cross-entropy folded into one gradient
    dcur = probs.copy()
    dcur[np.arange(n), batch_y] -= 1.0
    dcur /= n
    for li in range(len(spec.layers) - 2, -1, -1):
        p = model.params[li]
        # nothing reads the input gradient of layer 0
        dcur, grads = spec.layers[li].backward(dcur, p, caches[li], model.scratch[li],
                                               need_dx=li > 0)
        for key, g in grads.items():
            p[key] -= lr * g
    return loss, correct


def _accuracy(model, xs, ys) -> float:
    scores = _stacked(partial(forward, model), xs)
    return int(np.sum(np.argmax(scores, axis=1) == ys)) / len(xs)


def train(spec: NetworkSpec, xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig,
          verbose: bool = False) -> Model:
    """Train from scratch with plain SGD; deterministic given cfg.seed.

    With `verbose`, each epoch prints its mean loss and running accuracy:
    both come from the forward pass of each SGD step, so they describe the
    weights as they moved through the epoch, not the weights at its end.
    Training stops with a ValueError naming the epoch when the loss diverges.
    """
    if len(xs) == 0:
        raise ValueError("empty dataset")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    model = init_model(spec, seed=cfg.seed, init_scale=cfg.init_scale)
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(xs))
        total, correct = 0.0, 0
        try:
            with np.errstate(over="raise", invalid="raise"):
                for i in range(0, len(order), cfg.batch_size):
                    sel = order[i:i + cfg.batch_size]
                    loss, right = backward_sgd_step(model, xs[sel], ys[sel], cfg.learning_rate)
                    total += loss * len(sel)
                    correct += right
        except FloatingPointError as exc:
            raise ValueError(f"training diverged in epoch {epoch + 1}: {exc}") from None
        if not math.isfinite(total):  # NaN inputs make no floating-point error
            raise ValueError(f"training diverged in epoch {epoch + 1}: the loss is {total}")
        if verbose:
            print(f"epoch {epoch + 1}: loss={total / len(xs):.4f} "
                  f"running_acc={correct / len(xs):.3f}")
    return model


# ---------------------------------------------------------------------------
# Serialization: "SHNN" little-endian binary
# ---------------------------------------------------------------------------

MAGIC = b"SHNN"
FORMAT_VERSION = 1


def model_bytes(model: Model) -> bytes:
    """The model file: magic, version, spec text, then each weight array's shape and values."""
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
    return b"".join(chunks)


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_bytes(model))


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
    model = init_model(spec)
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
