import copy
import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aliascope import audit, nn, theory
from aliascope.nn import (
    ConvSpec,
    DenseSpec,
    GapSpec,
    Model,
    ModelFileError,
    PoolSpec,
    SoftmaxSpec,
    PadMode,
    SpecError,
    TrainConfig,
    _pad_spatial,
    backward_sgd_step,
    cross_entropy,
    format_spec,
    forward,
    init_model,
    layer_activations,
    load_model,
    make_spec,
    parse_spec,
    replace_pooling,
    save_model,
    train,
)
from aliascope.transforms import EmbeddingProtocol
from reference_nets import STRIDE1_SPEC, STRIDED_SPEC

SMALL_TEXT = """\
# toy classifier
input 1 8 8
conv 4 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
gap
dense 3
softmax
"""


def small_spec():
    return parse_spec(SMALL_TEXT)


# ---------------------------------------------------------------------------
# grammar and shape inference
# ---------------------------------------------------------------------------

def test_parse_format_roundtrip():
    spec = small_spec()
    assert parse_spec(format_spec(spec)) == spec
    assert spec.input_shape == (1, 8, 8)
    assert spec.shapes == ((4, 8, 8), (4, 4, 4), (4,), (3,), (3,))
    assert spec.cumulative_factors == (1, 2, 2, 2, 2)


def test_parse_conv_defaults():
    spec = parse_spec("input 1 8 8\nconv 2 3\ndense 2\nsoftmax\n")
    conv = spec.layers[0]
    assert conv == ConvSpec(2, 3, 1, PadMode.ZERO, "none")


@pytest.mark.parametrize("text,fragment", [
    ("conv 2 3\ndense 2\nsoftmax", "input"),
    ("input 1 8 8\nwibble 3", "line 2"),
    ("input 1 8 8\nconv 2 3 pad=mirror\ndense 2\nsoftmax", "pad mode"),
    ("input 1 8 8\nconv 2 3 act=tanh\ndense 2\nsoftmax", "activation"),
    ("input 1 8 8\nconv 2 three\ndense 2\nsoftmax", "line 2"),
    ("input 1 8 8\nconv 2 3 stride\ndense 2\nsoftmax", "key=value"),
    ("input 0 8 8\ndense 2\nsoftmax", ">= 1"),
    ("input 1 8 8\nconv 2 9\ndense 2\nsoftmax", "exceeds"),
    ("input 1 8 8\nmaxpool 9\ndense 2\nsoftmax", "exceeds"),
    ("input 1 8 8\nconv 2 3", "class-score"),
    ("input 1 8 8\ngap\ngap\ndense 2\nsoftmax", "spatial"),
    ("input 1 8 8\ngap\nconv 2 3\nsoftmax", "spatial"),
    ("input 1 8 8\nsoftmax", "flat"),
    ("input 1 8 8\nconv 2 3 strid=2\ngap\ndense 2\nsoftmax", "line 2: unknown option 'strid'"),
    ("input 1 8 8\nconv 2 3 padd=circular\ngap\ndense 2\nsoftmax", "unknown option 'padd'"),
    ("input 1 8 8\nmaxpool 2 pad=zero\ngap\ndense 2\nsoftmax", "unknown option 'pad'"),
    ("input 1 8 8\nconv 2 3 stride=1 stride=2\ngap\ndense 2\nsoftmax", "repeated option 'stride'"),
    ("input 1 8 8\nmaxpool 2 stride=2 stride=2\ngap\ndense 2\nsoftmax", "repeated option 'stride'"),
    ("input 1 8 8\ngap 5\ndense 2\nsoftmax", "line 2: gap takes no arguments"),
    ("input 1 8 8\ngap\ndense 2\nsoftmax x", "line 4: softmax takes no arguments"),
    ("input 1 8 8\ninput 1 4 4\ngap\ndense 2\nsoftmax", "line 2: a second 'input' line"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_spec(text)


@pytest.mark.parametrize("layer", [PoolSpec("max", 0, 0), PoolSpec("avg", 2, 0),
                                   ConvSpec(2, 0), ConvSpec(2, 3, 0),
                                   ConvSpec(0, 3), ConvSpec(-1, 3), DenseSpec(0)])
def test_make_spec_rejects_empty_kernel_or_stride(layer):
    with pytest.raises(SpecError, match=">= 1"):
        make_spec((1, 8, 8), (layer, GapSpec(), DenseSpec(2), SoftmaxSpec()))
    with pytest.raises(SpecError, match=">= 1"):  # wherever the layer sits
        make_spec((1, 8, 8), (GapSpec(), DenseSpec(2), layer, SoftmaxSpec()))


@pytest.mark.parametrize("layer,fragment", [
    (ConvSpec(2, 3, 1, PadMode.ZERO, "tanh"), "activation"),
    (ConvSpec(2, 3, 1, "zero"), "pad mode"),
    (PoolSpec("median", 2, 2), "pooling op"),
])
def test_make_spec_rejects_bad_layer_fields(layer, fragment):
    with pytest.raises(SpecError, match=fragment):
        make_spec((1, 8, 8), (layer, GapSpec(), DenseSpec(2), SoftmaxSpec()))


def test_pool_output_shape_valid_window():
    spec = parse_spec("input 1 7 7\nmaxpool 2 stride=2\ngap\ndense 2\nsoftmax\n")
    assert spec.shapes[0] == (1, 3, 3)  # (7 - 2) // 2 + 1


def test_conv_strided_shape_is_ceil():
    spec = parse_spec("input 1 7 7\nconv 2 3 stride=2\ngap\ndense 2\nsoftmax\n")
    assert spec.shapes[0] == (2, 4, 4)


def test_subsampling_factor_product_of_strides():
    text = ("input 1 60 60\nconv 4 3 stride=2\nconv 4 3 stride=2\n"
            "conv 4 3 stride=3\nconv 4 3 stride=5\ngap\ndense 2\nsoftmax\n")
    spec = parse_spec(text)
    assert spec.cumulative_factors[-1] == 60
    assert small_spec().cumulative_factors[-1] == 2


def test_replace_pooling():
    model = init_model(small_spec(), seed=3)
    swapped = replace_pooling(model, PoolSpec("max", 2, 2), PoolSpec("avg", 6, 0))
    assert swapped.spec.layers[1] == PoolSpec("avg", 6, 2)  # stride 0 keeps old stride
    assert swapped.spec.cumulative_factors == model.spec.cumulative_factors
    for p_old, p_new in zip(model.params, swapped.params):
        for key in p_old:  # conv and dense weights carried over, as copies
            assert np.array_equal(p_old[key], p_new[key]) and p_old[key] is not p_new[key]
    with pytest.raises(SpecError, match="matches"):
        replace_pooling(model, PoolSpec("avg", 3, 3), PoolSpec("max", 2, 2))
    flat = init_model(parse_spec("input 1 8 8\nmaxpool 2 stride=2\ndense 3\nsoftmax\n"))
    with pytest.raises(SpecError, match="shape"):  # the dense weights no longer fit
        replace_pooling(flat, PoolSpec("max", 2, 2), PoolSpec("avg", 4, 0))


# ---------------------------------------------------------------------------
# padding, as conv layers apply it through _pad_spatial
# ---------------------------------------------------------------------------

def test_pad_margin_zero_identity():
    t = np.arange(12.0).reshape(1, 1, 3, 4)
    assert np.array_equal(_pad_spatial(t, 0, 0, PadMode.ZERO, {}), t)
    assert np.array_equal(_pad_spatial(t, 0, 0, PadMode.CIRCULAR, {}), t)


def test_pad_circular_wraps():
    t = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = _pad_spatial(t, 1, 1, PadMode.CIRCULAR, {})
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out[0, 0, 1:3, 1:3], t[0, 0])
    # every border row/column equals the wrapped opposite one
    assert np.array_equal(out[0, 0, 0, 1:3], t[0, 0, 1])
    assert np.array_equal(out[0, 0, 3, 1:3], t[0, 0, 0])
    assert np.array_equal(out[0, 0, 1:3, 0], t[0, 0, :, 1])
    assert np.array_equal(out[0, 0, 1:3, 3], t[0, 0, :, 0])


def test_pad_zero_preserves_sum():
    rng = np.random.default_rng(7)
    t = rng.random((1, 1, 3, 3))
    out = _pad_spatial(t, 2, 2, PadMode.ZERO, {})
    # brute-force oracle: sum every element of the padded tensor
    total = 0.0
    for v in out.flatten():
        total += v
    assert total == pytest.approx(t.sum(), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_circular_pad_preserves_value_multiset(seed, margin):
    rng = np.random.default_rng(seed)
    t = rng.random((1, 1, 3, 4))
    out = _pad_spatial(t, margin, margin, PadMode.CIRCULAR, {})
    assert set(np.unique(out)) == set(np.unique(t))


@given(st.integers(0, 2**32 - 1), st.sampled_from(PadMode), st.integers(0, 9), st.integers(0, 9),
       st.integers(1, 4), st.integers(1, 4))
def test_pad_into_a_reused_buffer_is_np_pad(seed, mode, left, right, h, w):
    """Slice-copy padding, margins wider than the image included, equals
    np.pad bitwise, also when the buffer held other data before."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(2, 2, h, w))
    want = np.pad(t, [(0, 0), (0, 0), (left, right), (left, right)],
                  mode="constant" if mode is PadMode.ZERO else "wrap")
    buf = {"xp": np.full(want.size + 5, np.nan)}
    assert np.array_equal(_pad_spatial(t, left, right, mode, buf), want)


# ---------------------------------------------------------------------------
# forward pass against brute-force oracles
# ---------------------------------------------------------------------------

def _conv_oracle(x, w, b, stride, pad_mode):
    """Direct quadruple-loop same-padding correlation."""
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    left = (k - 1) // 2
    ho, wo = -(-h // stride), -(-wd // stride)
    out = np.zeros((n, oc, ho, wo))
    for ni in range(n):
        for o in range(oc):
            for yi in range(ho):
                for xi in range(wo):
                    acc = b[o]
                    for ci in range(c):
                        for i in range(k):
                            for j in range(k):
                                r = yi * stride + i - left
                                s_ = xi * stride + j - left
                                if pad_mode is PadMode.CIRCULAR:
                                    acc += x[ni, ci, r % h, s_ % wd] * w[o, ci, i, j]
                                elif 0 <= r < h and 0 <= s_ < wd:
                                    acc += x[ni, ci, r, s_] * w[o, ci, i, j]
                    out[ni, o, yi, xi] = acc
    return out


@pytest.mark.parametrize("pad_mode", [PadMode.ZERO, PadMode.CIRCULAR])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [2, 3])
def test_conv_forward_matches_loop_oracle(pad_mode, stride, kernel):
    rng = np.random.default_rng(10)
    spec = make_spec((2, 6, 6), (ConvSpec(3, kernel, stride, pad_mode, "none"),
                                 GapSpec(), DenseSpec(2), SoftmaxSpec()))
    model = init_model(spec, seed=1)
    x = rng.normal(size=(2, 2, 6, 6))
    got = layer_activations(model, x, 0)
    want = _conv_oracle(x, model.params[0]["w"], model.params[0]["b"], stride, pad_mode)
    assert np.max(np.abs(got - want)) < 1e-12


def test_conv_forward_matches_scipy():
    scipy_signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(11)
    spec = make_spec((1, 8, 8), (ConvSpec(1, 3, 1, PadMode.CIRCULAR, "none"),
                                 GapSpec(), DenseSpec(2), SoftmaxSpec()))
    model = init_model(spec, seed=2)
    x = rng.normal(size=(1, 1, 8, 8))
    got = layer_activations(model, x, 0)[0, 0]
    want = scipy_signal.correlate2d(x[0, 0], model.params[0]["w"][0, 0],
                                    mode="same", boundary="wrap")
    assert np.max(np.abs(got - want)) < 1e-12


POOL_ORACLE_CASES = {"max": [(2, 2), (3, 1)], "avg": [(2, 2), (3, 2), (6, 2)]}


@pytest.mark.parametrize("op", ["max", "avg"])
def test_pool_forward_matches_loop_oracle(op):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 8, 7))
    for k, s in POOL_ORACLE_CASES[op]:
        spec = make_spec((3, 8, 7), (PoolSpec(op, k, s), GapSpec(), DenseSpec(2), SoftmaxSpec()))
        model = init_model(spec, seed=0)
        got = layer_activations(model, x, 0)
        want = np.zeros((2, *spec.shapes[0]))
        for n, c, i, j in np.ndindex(want.shape):
            win = x[n, c, s * i:s * i + k, s * j:s * j + k]
            want[n, c, i, j] = win.max() if op == "max" else win.mean()
        assert np.max(np.abs(got - want)) < 1e-12, (k, s)


def _row_major_max_fold(x, k, s):
    """The max-pool forward as one fold over the k*k window offsets in
    row-major order: a copy of offset (0, 0), then np.maximum with each
    later offset."""
    ho, wo = (x.shape[2] - k) // s + 1, (x.shape[3] - k) // s + 1
    out = np.empty(x.shape[:2] + (ho, wo))
    for i, j in np.ndindex(k, k):
        view = x[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
        if i == j == 0:
            np.copyto(out, view)
        else:
            np.maximum(out, view, out=out)
    return out


MAX_FOLD_INPUTS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    # few distinct values: most windows hold their maximum more than once
    "repeated": lambda rng, shape: rng.integers(-3, 2, shape).astype(np.float64),
    # windows whose maximum is a zero of either sign, tied with the other sign
    "signed-zeros": lambda rng, shape: rng.choice([0.0, -0.0, -1.0, -0.5], shape),
}


@pytest.mark.parametrize("kind", MAX_FOLD_INPUTS)
@pytest.mark.parametrize("k, s", [(k, s) for k in (1, 2, 3, 6) for s in (1, 2, 3)])
def test_maxpool_forward_is_the_row_major_fold_bytewise(k, s, kind):
    """The two 1-D folds (columns, then rows) pick the element the row-major
    k*k fold picks, on ties and on +0.0/-0.0 ties too: k > s, k = s and
    k < s, on odd and non-square inputs."""
    rng = np.random.default_rng(k * 10 + s)
    layer = PoolSpec("max", k, s)
    buf = {}
    for shape in [(2, 3, 9, 7), (3, 2, 13, 11), (1, 1, 6, 6)]:
        x = MAX_FOLD_INPUTS[kind](rng, shape)
        out, _ = layer.forward(x, {}, buf)
        assert out.tobytes() == _row_major_max_fold(x, k, s).tobytes(), shape


def test_relu_clamps_negative():
    spec = make_spec((1, 4, 4), (ConvSpec(1, 1, 1, PadMode.ZERO, "relu"),
                                 GapSpec(), DenseSpec(2), SoftmaxSpec()))
    model = init_model(spec, seed=0)
    model.params[0]["w"][:] = 1.0
    x = np.array([[[[-2.0, 3.0], [0.0, -1.0]]]])
    spec_small = make_spec((1, 2, 2), spec.layers)
    model_small = Model(spec_small, model.params)
    out = layer_activations(model_small, x, 0)
    assert np.array_equal(out[0, 0], [[0.0, 3.0], [0.0, 0.0]])


def test_softmax_output_is_distribution():
    model = init_model(small_spec(), seed=3)
    x = np.random.default_rng(13).random((4, 1, 8, 8))
    probs = forward(model, x)
    assert probs.shape == (4, 3)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_rejects_bad_input():
    model = init_model(small_spec(), seed=0)
    with pytest.raises(ValueError, match="channels"):
        forward(model, np.zeros((1, 2, 8, 8)))
    # gap-head network accepts other spatial sizes
    assert forward(model, np.zeros((1, 1, 12, 12))).shape == (1, 3)
    # but a flatten-dense network does not
    rigid = parse_spec("input 1 8 8\ndense 3\nsoftmax\n")
    rmodel = init_model(rigid, seed=0)
    with pytest.raises(ValueError, match="agnostic"):
        forward(rmodel, np.zeros((1, 1, 9, 9)))
    circular = init_model(parse_spec("input 1 8 8\nconv 2 3 pad=circular\ngap\ndense 3\n"
                                     "softmax\n"), seed=0)
    for shape in ((1, 1, 0, 8), (1, 1, 8, 0), (2, 1, 0, 0)):
        for m in (model, circular):
            with pytest.raises(ValueError, match="empty spatial axis"):
                forward(m, np.zeros(shape))


def test_layer_activations_index_range():
    model = init_model(small_spec(), seed=0)
    with pytest.raises(IndexError):
        layer_activations(model, np.zeros((1, 1, 8, 8)), 5)
    for layers, bad in (([-1], -1), ([5], 5), ([0, 5], 5), ([-1, 2], -1)):
        with pytest.raises(IndexError, match=f"layer index {bad} out of range"):
            nn.pooled_features(model, np.zeros((1, 1, 8, 8)), layers, np.sum)


def test_predict_top1_tie_break():
    spec = parse_spec("input 1 2 2\ngap\ndense 3\nsoftmax\n")
    model = init_model(spec, seed=0)
    model.params[1]["w"][:] = 0.0
    model.params[1]["b"][:] = 0.0  # all classes tie
    assert int(np.argmax(forward(model, np.ones((1, 2, 2))[None])[0])) == 0


def test_cross_entropy_known_values():
    probs = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert cross_entropy(probs, np.array([0, 0])) == pytest.approx(np.log(2) / 2, abs=1e-12)
    assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == 0.0
    assert np.isfinite(cross_entropy(np.array([[0.0, 1.0]]), np.array([0])))


# Every layer kind and option: zero/circular conv at stride 1 and 2, max/avg
# pools with kernel == stride and kernel != stride, dense before and after gap.
BATCH_INVARIANCE_BODIES = [
    "conv 3 3 stride=1 pad=zero act=relu\ngap\ndense 4",
    "conv 3 3 stride=2 pad=circular act=none\ndense 4",
    "conv 3 2 stride=2 pad=zero act=relu\nmaxpool 2 stride=2\ngap\ndense 4",
    "conv 3 3 stride=1 pad=circular act=relu\nmaxpool 3 stride=1\ndense 5\ndense 4",
    "avgpool 2 stride=2\nconv 2 3 stride=1 pad=circular act=relu\ngap\ndense 4",
    "conv 3 3 stride=1 pad=zero act=none\navgpool 3 stride=2\ndense 4",
]


@pytest.mark.parametrize("body", BATCH_INVARIANCE_BODIES)
@settings(deadline=None, max_examples=8)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_forward_is_batch_invariant(body, n, seed):
    model = init_model(parse_spec(f"input 2 9 10\n{body}\nsoftmax\n"), seed=seed % 7)
    x = np.random.default_rng(seed).normal(size=(n, 2, 9, 10))
    batched = forward(model, x)
    for i in range(n):
        assert np.array_equal(batched[i], forward(model, x[i:i + 1])[0])


def test_stacked_reads_out_a_generator_in_chunks(monkeypatch):
    model = init_model(small_spec(), seed=0)
    xs = np.random.default_rng(3).normal(size=(7, 1, 8, 8))
    calls = []

    def fn(batch):
        calls.append(len(batch))
        return forward(model, batch)

    monkeypatch.setattr(nn, "CHUNK_VALUES", 3 * 64)  # three inputs per call
    got = nn._stacked(fn, (x for x in xs))
    assert calls == [3, 3, 1]
    assert np.array_equal(got, forward(model, xs))
    with pytest.raises(ValueError, match="no inputs"):
        nn._stacked(fn, iter(()))
    assert calls == [3, 3, 1]  # nothing is run for no input


def test_stacked_never_splits_a_pair_built_by_concatenate(monkeypatch):
    model = init_model(small_spec(), seed=0)
    pairs = np.random.default_rng(4).normal(size=(5, 2, 1, 8, 8))
    calls = []

    def fn(batch):
        calls.append(len(batch))
        return forward(model, batch)

    monkeypatch.setattr(nn, "CHUNK_VALUES", 5 * 64)  # two and a half pairs of 8x8 inputs
    got = nn._stacked(fn, iter(pairs), build=np.concatenate)
    assert calls == [4, 4, 2]  # whole pairs only
    assert np.array_equal(got, forward(model, pairs.reshape(10, 1, 8, 8)))


def test_chunked_closes_a_chunk_on_its_value_bound_and_on_a_new_shape(monkeypatch):
    monkeypatch.setattr(nn, "CHUNK_VALUES", 10)
    shapes = [(2, 2), (2, 2), (2, 2), (3, 4), (1, 4), (1, 4), (2, 2)]
    got = list(nn.chunked(range(len(shapes)), lambda i: shapes[i]))
    # 4+4 values, then 4; a 12-value item alone; 4+4; a new shape closes the last
    assert got == [[0, 1], [2], [3], [4, 5], [6]]
    assert list(nn.chunked([], lambda i: shapes[i])) == []


# ---------------------------------------------------------------------------
# exact invariance of the stride-1 circular architecture
# ---------------------------------------------------------------------------

def test_stride1_circular_gap_net_is_exactly_shift_invariant():
    text = ("input 1 10 10\nconv 4 3 pad=circular act=relu\n"
            "conv 4 3 pad=circular act=relu\ngap\ndense 3\nsoftmax\n")
    model = init_model(parse_spec(text), seed=4)  # arbitrary untrained weights
    x = np.random.default_rng(14).random((1, 10, 10))
    base = forward(model, x[None])
    for dy in range(10):
        for dx in range(10):
            shifted = np.roll(np.roll(x, dy, axis=1), dx, axis=2)
            assert np.max(np.abs(forward(model, shifted[None]) - base)) < 1e-9


def test_stride1_circular_gap_net_is_invariant_within_exact_tol_at_33x33():
    """At 33x33 a conv GEMM has 1089 columns, so its last 1089 mod 8 go
    through another OpenBLAS kernel: a rolled input's maps may differ from
    the rolled maps in the last bits, and gap's sum rounds on top. The
    scores still agree to within theory.EXACT_TOL."""
    text = ("input 1 33 33\nconv 4 3 pad=circular act=relu\n"
            "conv 4 3 pad=circular act=relu\ngap\ndense 3\nsoftmax\n")
    model = init_model(parse_spec(text), seed=6)
    x = np.random.default_rng(16).random((1, 33, 33))
    shifts = [(1, 0), (0, 1), (5, 7), (32, 32), (16, 3)]
    base = forward(model, x[None])
    rolled = forward(model, np.stack([np.roll(x, s, axis=(1, 2)) for s in shifts]))
    assert np.max(np.abs(rolled - base)) < theory.EXACT_TOL


def test_strided_net_is_invariant_only_to_full_factor_shifts():
    model = init_model(small_spec(), seed=5)
    x = np.random.default_rng(15).random((1, 8, 8))
    base = forward(model, x[None])
    shifted = np.roll(x, 2, axis=2)  # shift by the subsampling factor
    assert np.max(np.abs(forward(model, shifted[None]) - base)) < 1e-9


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def _fd_gradient_check(text, seed=6, eps=1e-6, tol=1e-4):
    spec = parse_spec(text)
    model = init_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, *spec.input_shape))
    y = rng.integers(0, spec.shapes[-1][0], size=3)
    stepped = copy.deepcopy(model)
    backward_sgd_step(stepped, x, y, lr=1.0)
    worst = 0.0
    for li, p in enumerate(model.params):
        for key, w in p.items():
            analytic = w - stepped.params[li][key]  # lr=1 so delta == gradient
            flat = w.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = cross_entropy(forward(model, x), y)
                flat[idx] = orig - eps
                lm = cross_entropy(forward(model, x), y)
                flat[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                worst = max(worst, abs(analytic.reshape(-1)[idx] - numeric))
    assert worst < tol


def test_gradients_conv_pool_dense():
    _fd_gradient_check("input 1 6 6\nconv 3 3 pad=circular act=relu\n"
                       "avgpool 2 stride=2\ngap\ndense 3\nsoftmax\n")


def test_gradients_zero_pad_stride2():
    _fd_gradient_check("input 2 6 6\nconv 3 3 stride=2 pad=zero act=relu\n"
                       "gap\ndense 2\nsoftmax\n")


def test_gradients_maxpool_and_flatten_dense():
    _fd_gradient_check("input 1 6 6\nconv 2 3 pad=zero act=none\n"
                       "maxpool 2 stride=2\ndense 4\nsoftmax\n")


def test_gradients_overlapping_maxpool():
    _fd_gradient_check("input 1 7 7\nconv 2 3 pad=zero act=none\n"
                       "maxpool 3 stride=1\nmaxpool 3 stride=2\ndense 3\nsoftmax\n")


def test_gradients_softmax_mid_network():
    _fd_gradient_check("input 1 4 4\nconv 2 3 pad=circular act=relu\n"
                       "dense 5\nsoftmax\ndense 3\nsoftmax\n")


def test_gradients_circular_conv_after_conv():
    # layer 1 is a conv, so its input gradient reaches layer 0's weights
    _fd_gradient_check("input 1 7 5\nconv 3 3 pad=circular act=relu\n"
                       "conv 3 4 stride=2 pad=circular act=relu\ngap\ndense 3\nsoftmax\n")


def test_gradients_zero_pad_conv_after_conv():
    _fd_gradient_check("input 1 7 5\nconv 3 3 pad=zero act=relu\n"
                       "conv 3 4 stride=2 pad=zero act=relu\ngap\ndense 3\nsoftmax\n")


@settings(deadline=None, max_examples=200)
@given(pad=st.sampled_from(PadMode), kernel=st.integers(1, 5), stride=st.integers(1, 3),
       extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       channels=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**16))
def test_conv_backward_is_the_adjoint_of_forward(pad, kernel, stride, extra, channels, seed):
    """With no activation, forward(x) - b is bilinear in x and w, so for any
    dy: <forward(x) - b, dy> == <x, dx> == <w, dw>."""
    c_in, c_out = channels
    layer = ConvSpec(c_out, kernel, stride, pad, "none")
    h, w = kernel + extra[0], kernel + extra[1]  # also non-square and not divisible by stride
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, c_in, h, w))
    p = {"w": rng.normal(size=(c_out, c_in, kernel, kernel)), "b": rng.normal(size=c_out)}
    y, cache = layer.forward(x, p, {})
    dy = rng.normal(size=y.shape)
    dx, grads = layer.backward(dy, p, cache, {})
    assert dx.shape == x.shape
    lhs = np.vdot(y - p["b"][None, :, None, None], dy)
    assert np.vdot(x, dx) == pytest.approx(lhs, rel=1e-12, abs=1e-12)
    assert np.vdot(p["w"], grads["w"]) == pytest.approx(lhs, rel=1e-12, abs=1e-12)
    assert np.allclose(grads["b"], dy.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)


def test_maxpool_backward_routes_to_first_max():
    spec = make_spec((1, 2, 2), (PoolSpec("max", 2, 2), DenseSpec(2), SoftmaxSpec()))
    model = init_model(spec, seed=0)
    model.params[1]["w"][:] = np.array([[1.0], [-1.0]])
    x = np.full((1, 1, 2, 2), 3.0)  # all tied: gradient must hit index (0, 0) only
    backward_sgd_step(model, x.copy(), np.array([0]), lr=1.0)

    def pool_dx(layer, x, dy):
        return layer.backward(dy, {}, layer.forward(x, {}, {})[1], {})[0]

    dx = pool_dx(spec.layers[0], x, np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 0, 0] == 1.0
    assert dx.sum() == 1.0
    # overlapping 2x2 windows at stride 1: each window's gradient goes to its
    # own first maximum, and windows sharing a maximum add up there
    layer = PoolSpec("max", 2, 1)
    dx = pool_dx(layer, np.full((1, 1, 3, 3), 3.0), np.ones((1, 1, 2, 2)))
    assert np.array_equal(dx[0, 0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    peak = np.zeros((1, 1, 3, 3))
    peak[0, 0, 1, 1] = 5.0
    dx = pool_dx(layer, peak, np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert dx[0, 0, 1, 1] == 10.0
    assert dx.sum() == 10.0


@pytest.mark.parametrize("first", ["maxpool 2 stride=2", "avgpool 3 stride=1", "gap", "dense 3"])
def test_a_first_pool_or_gap_returns_no_input_gradient(first, monkeypatch):
    """The step runs no backward under the lowest layer with weights and asks
    that layer for its weight gradient alone: a first pool or gap runs none.
    The weights move as when every layer that runs computes its input
    gradient."""
    spec = parse_spec(f"input 2 6 6\n{first}\ndense 3\nsoftmax\n")
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(4, 2, 6, 6)), np.array([0, 1, 2, 1])
    model = init_model(spec, seed=0)
    twin = copy.deepcopy(model)
    asked, kinds = [], {type(layer): type(layer).backward for layer in spec.layers}

    def record(force):
        """Patch every kind's backward to log (layer, need_dx), and with
        `force` to compute the input gradient whatever it is asked."""
        for kind, backward in kinds.items():
            monkeypatch.setattr(kind, "backward", lambda self, *args, need_dx, backward=backward: (
                asked.append((self, need_dx)) or backward(self, *args, need_dx=need_dx or force)))

    record(force=False)
    backward_sgd_step(model, x, y, lr=0.5)
    dense = DenseSpec(3)
    assert asked == ([(dense, True), (dense, False)] if first == "dense 3" else [(dense, False)])
    record(force=True)
    backward_sgd_step(twin, x, y, lr=0.5)
    for p, q in zip(model.params, twin.params, strict=True):
        assert p.keys() == q.keys() and all(np.array_equal(p[k], q[k]) for k in p)


def test_a_step_refuses_a_net_with_no_softmax_output_before_its_forward():
    spec = parse_spec("input 1 6 6\nconv 2 3 stride=1 pad=zero act=relu\ngap\ndense 3\n")
    model = init_model(spec, seed=0)
    with pytest.raises(SpecError, match="^training requires a softmax output layer$"):
        backward_sgd_step(model, np.zeros((2, 1, 6, 6)), np.array([0, 1]), lr=0.1)
    assert model.scratch == [{}, {}, {}]


def test_a_linear_conv_under_gap_steps_as_on_a_contiguous_gradient(monkeypatch):
    """gap's input gradient is a read-only broadcast view, and a conv with no
    relu reads it as it is, for its weight and bias sums and its frame."""
    spec = parse_spec("input 2 9 9\nconv 3 3 stride=1 pad=zero act=relu\n"
                      "conv 4 3 stride=2 pad=circular act=none\ngap\ndense 3\nsoftmax\n")
    rng = np.random.default_rng(12)
    batches = [(rng.normal(size=(n, 2, 9, 9)), rng.integers(0, 3, n)) for n in (5, 3, 5)]
    model = init_model(spec, seed=4)
    twin = copy.deepcopy(model)
    for x, y in batches:
        backward_sgd_step(model, x, y, lr=0.5)
    backward = GapSpec.backward
    monkeypatch.setattr(GapSpec, "backward", lambda *args, **kwargs: (
        np.ascontiguousarray(backward(*args, **kwargs)[0]), {}))
    for x, y in batches:
        backward_sgd_step(twin, x, y, lr=0.5)
    for p, q in zip(model.params, twin.params, strict=True):
        assert p.keys() == q.keys() and all(np.array_equal(p[k], q[k]) for k in p)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _two_blob_dataset(n_per=20, seed=20):
    """Class 0: bright top half. Class 1: bright bottom half."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label in (0, 1):
        for _ in range(n_per):
            img = rng.random((1, 8, 8)) * 0.1
            if label == 0:
                img[0, :4] += 1.0
            else:
                img[0, 4:] += 1.0
            xs.append(img)
            ys.append(label)
    return np.array(xs), np.array(ys)


def test_train_learns_separable_data():
    xs, ys = _two_blob_dataset()
    spec = parse_spec("input 1 8 8\nconv 4 3 act=relu\nmaxpool 2 stride=2\n"
                      "dense 2\nsoftmax\n")
    model = train(spec, xs, ys, TrainConfig(0.1, 12, 8, seed=0))
    assert nn._accuracy(model, xs, ys) >= 0.95


def test_train_prints_the_running_accuracy_of_each_epoch(capsys):
    xs, ys = _two_blob_dataset()
    spec = parse_spec("input 1 8 8\nconv 2 3 act=relu\ngap\ndense 2\nsoftmax\n")
    cfg = TrainConfig(0.1, 3, 8, seed=5)
    model = train(spec, xs, ys, cfg, verbose=True)
    printed = [line.split("running_acc=")[1] for line in capsys.readouterr().out.splitlines()]
    # the same SGD steps, each batch's top-1 hits counted before its step
    oracle = init_model(spec, seed=cfg.seed, init_scale=cfg.init_scale)
    rng = np.random.default_rng(cfg.seed + 1)
    want = []
    for _ in range(cfg.epochs):
        order, right = rng.permutation(len(xs)), 0
        for i in range(0, len(xs), cfg.batch_size):
            sel = order[i:i + cfg.batch_size]
            right += int(np.sum(np.argmax(forward(oracle, xs[sel]), axis=1) == ys[sel]))
            backward_sgd_step(oracle, xs[sel], ys[sel], cfg.learning_rate)
        want.append(f"{right / len(xs):.3f}")
    assert printed == want
    assert nn.model_bytes(model) == nn.model_bytes(oracle)


def test_train_stops_at_the_epoch_whose_loss_is_not_finite():
    xs, ys = _two_blob_dataset(n_per=8)
    spec = parse_spec("input 1 8 8\nconv 2 3 act=relu\ngap\ndense 2\nsoftmax\n")
    # the weights overflow the dense product: every weight would end NaN
    with pytest.raises(ValueError, match="diverged in epoch 1: overflow encountered in matmul"):
        train(spec, xs, ys, TrainConfig(0.1, 2, 8, seed=0, init_scale=1e300))
    # a NaN pixel sets no floating-point flag, but the loss is NaN
    xs[3, 0, 2, 2] = np.nan
    with pytest.raises(ValueError, match="diverged in epoch 1: the loss is nan"):
        train(spec, xs, ys, TrainConfig(0.1, 2, 8, seed=0))
    # and so does a depth profile's readout head, on that pixel's features
    with pytest.raises(ValueError, match="diverged in epoch 1: the loss is nan"):
        _profile(init_model(spec, seed=0), 0, xs, ys, TrainConfig(0.1, 2, 8, seed=0))


def test_train_is_seed_deterministic():
    xs, ys = _two_blob_dataset(n_per=8)
    spec = parse_spec("input 1 8 8\nconv 2 3 act=relu\ngap\ndense 2\nsoftmax\n")
    cfg = TrainConfig(0.1, 3, 8, seed=7)
    m1 = train(spec, xs, ys, cfg)
    m2 = train(spec, xs, ys, cfg)
    for p1, p2 in zip(m1.params, m2.params):
        for key in p1:
            assert np.array_equal(p1[key], p2[key])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("field, value", [("learning_rate", math.nan), ("learning_rate", math.inf),
                                          ("init_scale", math.nan), ("init_scale", math.inf),
                                          ("init_scale", 0.0), ("epochs", -1)])
def test_train_config_refuses_non_finite_values_and_says_what_it_needs(field, value):
    with pytest.raises(ValueError, match="a finite learning_rate >= 0 and a finite init_scale > 0"):
        TrainConfig(**{field: value})
    TrainConfig(learning_rate=0.0, epochs=0)  # zero rate and zero epochs are valid


def test_init_model_bounds_and_zero_bias():
    spec = small_spec()
    model = init_model(spec, seed=9, init_scale=0.5)
    w = model.params[0]["w"]
    a = 0.5 / np.sqrt(1 * 3 * 3)
    assert np.max(np.abs(w)) <= a
    assert np.all(model.params[0]["b"] == 0.0)
    assert np.all(model.params[3]["b"] == 0.0)


def _stripes_dataset(n_per=20, seed=23):
    """Class 0: horizontal stripes. Class 1: vertical stripes."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    base = np.indices((8, 8))
    for label in (0, 1):
        for _ in range(n_per):
            img = (base[label] % 2).astype(float)[None] + rng.random((1, 8, 8)) * 0.1
            xs.append(img)
            ys.append(label)
    return np.array(xs), np.array(ys)


def _profile(model, layer_index, xs, ys, cfg):
    """The depth profile's entry for one layer, audited on the first four
    training images."""
    proto = EmbeddingProtocol(xs.shape[2] + 2, xs.shape[3] + 2, xs.shape[2], (0, 0))
    images = [(f"x/{i}", x) for i, x in enumerate(xs[:4])]
    (entry,) = audit.depth_invariance_profile(model, xs, ys, [layer_index], cfg, proto, images)
    return entry


def test_train_readout_frozen_base():
    xs, ys = _stripes_dataset()
    spec = parse_spec("input 1 8 8\nconv 4 3 act=relu\nmaxpool 2 stride=2\n"
                      "gap\ndense 2\nsoftmax\n")
    base = train(spec, xs, ys, TrainConfig(0.1, 8, 8, seed=1))
    frozen = copy.deepcopy(base)
    entry = _profile(base, 1, xs, ys, TrainConfig(0.2, 8, 8, seed=2))
    for p1, p2 in zip(base.params, frozen.params):
        for key in p1:
            assert np.array_equal(p1[key], p2[key])
    assert entry.readout_accuracy >= 0.95


def test_train_readout_index_range():
    model = init_model(small_spec(), seed=0)
    with pytest.raises(IndexError):
        _profile(model, 9, np.zeros((4, 1, 8, 8)), np.zeros(4, dtype=int),
                 TrainConfig(0.1, 0, 8, 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    model = init_model(small_spec(), seed=21)
    path = tmp_path / "m.shnn"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    for p1, p2 in zip(model.params, loaded.params):
        assert set(p1) == set(p2)
        for key in p1:
            assert np.array_equal(p1[key], p2[key])
    x = np.random.default_rng(22).random((2, 1, 8, 8))
    assert np.array_equal(forward(model, x), forward(loaded, x))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.shnn"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ModelFileError, match="magic"):
        load_model(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    model = init_model(small_spec(), seed=0)
    path = tmp_path / "m.shnn"
    save_model(model, path)
    blob = path.read_bytes()
    (tmp_path / "short.shnn").write_bytes(blob[:-4])
    with pytest.raises(ModelFileError, match="truncated"):
        load_model(tmp_path / "short.shnn")
    (tmp_path / "long.shnn").write_bytes(blob + b"\x00")
    with pytest.raises(ModelFileError, match="trailing"):
        load_model(tmp_path / "long.shnn")


def test_load_rejects_wrong_version(tmp_path):
    model = init_model(small_spec(), seed=0)
    path = tmp_path / "m.shnn"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFileError, match="version"):
        load_model(path)


# ---------------------------------------------------------------------------
# properties over generated specs and damaged model files
# ---------------------------------------------------------------------------

INPUT_SHAPES = st.tuples(st.integers(1, 2), st.integers(1, 8), st.integers(1, 8))
SIZES = st.integers(0, 3)  # 0 is out of range for every size, so make_spec must reject it


@st.composite
def layer_lists(draw):
    """Window layers, an optional gap, dense layers, an optional softmax;
    sometimes shuffled, so that the shape rules reject the order."""
    windows = st.one_of(
        st.builds(ConvSpec, SIZES, SIZES, SIZES, st.sampled_from(PadMode),
                  st.sampled_from(["relu", "none"])),
        st.builds(PoolSpec, st.sampled_from(["max", "avg"]), SIZES, SIZES))
    layers = draw(st.lists(windows, max_size=3))
    layers += [GapSpec()] * draw(st.integers(0, 1))
    layers += draw(st.lists(st.builds(DenseSpec, SIZES), max_size=2))
    layers += [SoftmaxSpec()] * draw(st.integers(0, 1))
    return draw(st.permutations(layers)) if draw(st.integers(0, 3)) == 0 else layers


@settings(deadline=None, max_examples=150)
@given(input_shape=INPUT_SHAPES, layers=layer_lists())
def test_format_then_parse_is_identity(input_shape, layers):
    try:
        spec = make_spec(input_shape, layers)
    except SpecError:
        return
    again = parse_spec(format_spec(spec))
    assert again == spec
    assert (again.shapes, again.cumulative_factors) == (spec.shapes, spec.cumulative_factors)


@settings(deadline=None, max_examples=150)
@given(input_shape=INPUT_SHAPES, layers=layer_lists(), seed=st.integers(0, 2**16))
def test_every_accepted_spec_builds_runs_and_round_trips(input_shape, layers, seed):
    try:
        spec = make_spec(input_shape, layers)
    except SpecError:  # the only error make_spec may raise
        return
    model = init_model(spec, seed=seed)
    x = np.random.default_rng(seed).normal(size=(2, *input_shape))
    scores = forward(model, x)
    assert scores.shape == (2, *spec.shapes[-1]) and np.all(np.isfinite(scores))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.shnn"
        save_model(model, path)
        blob = path.read_bytes()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == blob
    assert loaded.spec == spec
    assert np.array_equal(forward(loaded, x), scores)


@pytest.fixture(scope="module")
def model_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.shnn"
    save_model(init_model(small_spec(), seed=0), path)
    return path.read_bytes()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_damaged_model_file_raises_only_model_file_error(model_blob, data):
    if data.draw(st.booleans(), label="truncate"):
        blob = model_blob[:data.draw(st.integers(0, len(model_blob) - 1), label="length")]
    else:
        # half the flips land in the header and spec text, which is most of the risk
        spec_end = 12 + int.from_bytes(model_blob[8:12], "little")
        span = data.draw(st.sampled_from([spec_end, len(model_blob)]), label="span")
        bit = data.draw(st.integers(0, 8 * span - 1), label="bit")
        blob = bytearray(model_blob)
        blob[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.shnn"
        path.write_bytes(bytes(blob))
        try:
            load_model(path)
        except ModelFileError:
            pass


# ---------------------------------------------------------------------------
# per-model buffers: the same bits as fresh arrays, nothing returned aliased,
# and no allocation churn
# ---------------------------------------------------------------------------

@st.composite
def size_agnostic_nets(draw):
    """A spec of 1-4 window layers then gap, dense and softmax, so that any
    input at least as large as its own runs through it."""
    windows = st.one_of(
        st.builds(ConvSpec, st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
                  st.sampled_from(PadMode), st.sampled_from(["relu", "none"])),
        st.builds(PoolSpec, st.sampled_from(["max", "avg"]), st.integers(1, 3),
                  st.integers(1, 2)))
    layers = draw(st.lists(windows, min_size=1, max_size=4))
    input_shape = (draw(st.integers(1, 2)), draw(st.integers(6, 12)), draw(st.integers(6, 12)))
    try:
        return make_spec(input_shape, layers + [GapSpec(), DenseSpec(3), SoftmaxSpec()])
    except SpecError:
        assume(False)


@settings(deadline=None, max_examples=60)
@given(spec=size_agnostic_nets(), seed=st.integers(0, 2**16),
       calls=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)),
                      min_size=2, max_size=4))
def test_scratch_buffers_give_the_bits_of_fresh_arrays(spec, seed, calls):
    """One model runs calls of changing batch and spatial size, its buffers
    poisoned with NaN between calls; a model with no buffers yet must agree
    bitwise on every layer's activations, the loss and the updated weights."""
    rng = np.random.default_rng(seed)
    warm = init_model(spec, seed=seed)

    def fresh():
        return Model(spec, copy.deepcopy(warm.params))

    c, h0, w0 = spec.input_shape
    for n, dh, dw in calls:
        x = rng.normal(size=(n, c, h0 + dh, w0 + dw))
        y = rng.integers(0, 3, n)
        assert np.array_equal(forward(warm, x), forward(fresh(), x))
        for li in range(len(spec.layers)):
            assert np.array_equal(layer_activations(warm, x, li),
                                  layer_activations(fresh(), x, li))
        before = fresh()
        assert backward_sgd_step(warm, x, y, 0.1) == backward_sgd_step(before, x, y, 0.1)
        for p_warm, p_fresh in zip(warm.params, before.params):
            for key in p_warm:
                assert np.array_equal(p_warm[key], p_fresh[key]), key
        for buffers in warm.scratch:
            for buf in buffers.values():
                buf.fill(np.nan)


def test_returned_arrays_survive_later_calls():
    model = init_model(small_spec(), seed=0)
    rng = np.random.default_rng(1)
    x1, x2 = rng.normal(size=(3, 1, 8, 8)), rng.normal(size=(3, 1, 8, 8))
    acts = [layer_activations(model, x1, li) for li in range(len(model.spec.layers))]
    scores = forward(model, x1)
    kept = [a.copy() for a in acts], scores.copy()
    for li in range(len(model.spec.layers)):
        layer_activations(model, x2, li)
    forward(model, x2)
    backward_sgd_step(model, x2, np.array([0, 1, 2]), 0.1)
    assert all(np.array_equal(a, k) for a, k in zip(acts, kept[0]))
    assert np.array_equal(scores, kept[1])


def _reference_convs():
    """(net, layer index, layer, input shape) of every conv of the reference nets."""
    for name, text in (("stride1", STRIDE1_SPEC), ("strided", STRIDED_SPEC)):
        spec = parse_spec(text)
        in_shapes = (spec.input_shape,) + spec.shapes[:-1]
        for li, (layer, shape) in enumerate(zip(spec.layers, in_shapes)):
            if isinstance(layer, ConvSpec):
                yield pytest.param(spec, li, layer, shape, id=f"{name}-layer{li}")


@pytest.mark.parametrize("n", [1, 7, 16])
@pytest.mark.parametrize("spec, li, layer, in_shape", _reference_convs())
def test_conv_weight_gradient_is_the_sum_of_dy_cols_products_bitwise(spec, li, layer, in_shape,
                                                                    n):
    """ConvSpec.backward sums cols_i @ dy_i^T and transposes the sum; that must
    give the bits of the sum of dy_i @ cols_i^T over the images, in order,
    with cols_i each padded image's contiguous (c*k*k, ho*wo) patch matrix.
    The bias gradient is the sum of the masked dy over images and space."""
    rng = np.random.default_rng(li * 100 + n)
    p = init_model(spec, seed=n).params[li]
    x = rng.normal(size=(n,) + in_shape)
    out, cache = layer.forward(x, p, {})
    raw = rng.normal(size=out.shape)
    dy = raw * (out > 0)  # relu-masked, before backward writes over out
    k, s = layer.kernel, layer.stride
    mode = "wrap" if layer.pad is PadMode.CIRCULAR else "constant"
    xp = np.pad(x, ((0, 0), (0, 0), ((k - 1) // 2, k // 2), ((k - 1) // 2, k // 2)), mode=mode)
    want = np.zeros((p["w"].shape[0], p["w"][0].size))
    for i in range(n):
        windows = np.lib.stride_tricks.sliding_window_view(xp[i], (k, k), axis=(1, 2))
        cols = np.ascontiguousarray(windows[:, ::s, ::s].transpose(0, 3, 4, 1, 2)
                                    .reshape(want.shape[1], -1))
        want += dy[i].reshape(len(want), -1) @ cols.T
    _, grads = layer.backward(raw, p, cache, {})
    assert np.array_equal(grads["w"], want.reshape(p["w"].shape))
    assert np.array_equal(grads["b"], dy.sum(axis=(0, 2, 3)))


def _bias_cases():
    """Every reference conv at batch 16 on the nets' 32^2 input and at batch
    10 on an audit chunk's 40^2."""
    for param in _reference_convs():
        spec, li, layer, (c, h, w) = param.values
        for n, side in ((16, 32), (10, 40)):
            yield pytest.param(spec, li, layer, (n, c, h * side // 32, w * side // 32),
                               id=f"{param.id}-n{n}-{side}")


@pytest.mark.parametrize("spec, li, layer, x_shape", _bias_cases())
def test_conv_forward_adds_its_bias_as_the_broadcast_add_bytewise(spec, li, layer, x_shape):
    """The bias comes from a contiguous (o, ho*wo) row; each output element
    must get the bits of out + b[None, :, None, None], the add of the (o, 1, 1)
    broadcast, on the GEMM output, before the relu."""
    rng = np.random.default_rng(li + x_shape[0])
    p = dict(init_model(spec, seed=li).params[li], b=rng.normal(size=layer.out_channels))
    x = rng.normal(size=x_shape)
    linear = ConvSpec(layer.out_channels, layer.kernel, layer.stride, layer.pad, "none")
    gemm, _ = linear.forward(x, dict(p, b=np.full_like(p["b"], -0.0)), {})  # x + -0.0 is x
    want = gemm + p["b"][None, :, None, None]
    if layer.activation == "relu":
        want = np.maximum(want, 0.0)
    got, _ = layer.forward(x, p, {})
    assert got.tobytes() == want.tobytes()


def _block_cases():
    """(layer, input shape, blocked): every reference conv at batch 2 on
    canvases of 32^2, 40^2, 44^2, 64^2, 33^2 and 34^2 (1156 columns, no
    multiple of 8), then convs of c*k*k = 9 to 432 patch rows and a stride-2
    conv at 40^2 out. `blocked` says whether the forward splits the layer's
    product into row blocks."""
    blocked = {("stride1-layer1", side) for side in (32, 40, 44, 64)} | {("strided-layer2", 64)}
    for name, text in (("stride1", STRIDE1_SPEC), ("strided", STRIDED_SPEC)):
        for side in (32, 40, 44, 64, 33, 34):
            spec = parse_spec(text.replace("32 32", f"{side} {side}"))
            in_shapes = (spec.input_shape,) + spec.shapes[:-1]
            for li, (layer, shape) in enumerate(zip(spec.layers, in_shapes)):
                if isinstance(layer, ConvSpec):
                    key = (f"{name}-layer{li}", side)
                    yield pytest.param(layer, (2,) + shape, key in blocked, id=f"{key[0]}-{side}")
    for o, c, k, s, blocked in [(128, 1, 3, 1, True), (16, 8, 3, 1, True), (8, 32, 3, 1, True),
                                (16, 32, 3, 1, True), (8, 24, 4, 1, True), (16, 24, 4, 1, True),
                                (8, 48, 3, 1, False), (16, 48, 3, 1, False),
                                (16, 16, 3, 2, True)]:
        yield pytest.param(ConvSpec(o, k, s, PadMode.CIRCULAR, "relu"), (2, c, 40 * s, 40 * s),
                           blocked, id=f"o{o}-ckk{c * k * k}-stride{s}")


@pytest.mark.parametrize("pad", list(PadMode))
@pytest.mark.parametrize("layer, x_shape, blocked", _block_cases())
def test_conv_forward_in_row_blocks_is_one_product_per_image_bytewise(layer, x_shape, blocked,
                                                                      pad):
    """Conv's forward multiplies a large patch matrix in blocks of whole
    output rows, by the rule of `nn._block_rows`. Each output must keep the
    bytes of one GEMM per image, w2d @ the image's whole contiguous patch
    matrix, plus the bias row, then relu."""
    layer = dataclasses.replace(layer, pad=pad)
    n, c, h, w = x_shape
    o, k, s = layer.out_channels, layer.kernel, layer.stride
    ho, wo = -(-h // s), -(-w // s)
    assert (nn._block_rows(o, c * k * k, ho, wo) < ho) == blocked
    rng = np.random.default_rng(o * c * k + h)
    p = {"w": rng.normal(size=(o, c, k, k)), "b": rng.normal(size=o)}
    x = rng.normal(size=x_shape)
    mode = "wrap" if pad is PadMode.CIRCULAR else "constant"
    xp = np.pad(x, ((0, 0), (0, 0), ((k - 1) // 2, k // 2), ((k - 1) // 2, k // 2)), mode=mode)
    want = np.empty((n, o, ho * wo))
    for i in range(n):
        windows = np.lib.stride_tricks.sliding_window_view(xp[i], (k, k), axis=(1, 2))
        cols = np.ascontiguousarray(windows[:, ::s, ::s].transpose(0, 3, 4, 1, 2)
                                    .reshape(c * k * k, -1))
        want[i] = p["w"].reshape(o, -1) @ cols + p["b"][:, None]
    got, _ = layer.forward(x, p, {})
    assert got.tobytes() == np.maximum(want, 0.0).reshape(n, o, ho, wo).tobytes()


def _fold(g, left, size, axis):
    """Circular padding's adjoint along `axis`: each padded position p adds,
    in ascending order of p, into the inner position left + (p - left) % size."""
    g = np.moveaxis(g, axis, 0)
    acc = g[left:left + size].copy()
    for pos in range(len(g)):
        if not left <= pos < left + size:
            acc[(pos - left) % size] += g[pos]
    return np.moveaxis(acc, 0, axis)


def _framed_dy_dx(layer, w, x_shape, dy):
    """The input gradient as the stride-1 valid correlation of the zero-framed
    dy, dilated by the stride and set k-1 in from the top-left of a frame one
    kernel larger than the padded input, with the flipped, channel-transposed
    kernel: one GEMM per image on its contiguous patch matrix, then the
    padding's adjoint, a crop (zero) or a fold (circular)."""
    k, s = layer.kernel, layer.stride
    n, o, ho, wo = dy.shape
    c, h, wdt = x_shape[1:]
    hp, wp, left = h + k - 1, wdt + k - 1, (k - 1) // 2
    dilated = np.zeros((n, o, s * (ho - 1) + 1, s * (wo - 1) + 1))
    dilated[:, :, ::s, ::s] = dy
    framed = np.pad(dilated, ((0, 0), (0, 0), (k - 1, hp - dilated.shape[2]),
                              (k - 1, wp - dilated.shape[3])))
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
    dxp = np.empty((n, c, hp, wp))
    for i in range(n):
        windows = np.lib.stride_tricks.sliding_window_view(framed[i], (k, k), axis=(1, 2))
        cols = np.ascontiguousarray(windows.transpose(0, 3, 4, 1, 2).reshape(o * k * k, -1))
        dxp[i] = (w_flip @ cols).reshape(c, hp, wp)
    if layer.pad is PadMode.ZERO:
        return dxp[:, :, left:left + h, left:left + wdt]
    return _fold(_fold(dxp, left, h, axis=2), left, wdt, axis=3)


def _dx_cases():
    """(layer, input shape, (net, layer index) or None, n): every reference
    conv at batch 1, 7 and 16, then each (kernel, stride) with both pads,
    with and without relu, on a non-square input and on one the kernel is
    larger than."""
    for param in _reference_convs():
        spec, li, layer, in_shape = param.values
        for n in (1, 7, 16):
            yield pytest.param(layer, in_shape, (spec, li), n, id=f"{param.id}-n{n}")
    for k, s in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2), (2, 2)]:
        for pad in PadMode:
            for act in ("relu", "none"):
                layer = ConvSpec(3, k, s, pad, act)
                for h, w in {(7, 5), (max(k - 1, 1), max(k - 2, 1))}:
                    yield pytest.param(layer, (2, h, w), None, 3,
                                       id=f"k{k}-s{s}-{pad.value}-{act}-{h}x{w}")


@pytest.mark.parametrize("layer, in_shape, net, n", _dx_cases())
def test_conv_input_gradient_is_the_framed_dy_correlation_bitwise(layer, in_shape, net, n):
    """ConvSpec.backward writes each image's dx patch matrix straight from dy
    through a strided view of a zeroed buffer; it must hold the entries of the
    framed dy's patch matrix, so dx keeps its bits. The patch buffer is
    poisoned with NaN between the forward and the backward."""
    rng = np.random.default_rng(n * 10 + layer.kernel)
    if net is None:
        p = {"w": rng.normal(size=(layer.out_channels, in_shape[0], layer.kernel, layer.kernel)),
             "b": rng.normal(size=layer.out_channels)}
    else:
        p = init_model(net[0], seed=n).params[net[1]]
    x = rng.normal(size=(n,) + in_shape)
    buf = {}
    out, cache = layer.forward(x, p, buf)
    raw = rng.normal(size=out.shape)
    dy = raw * (out > 0) if layer.activation == "relu" else raw
    want = _framed_dy_dx(layer, p["w"], x.shape, dy)
    buf["cols"].fill(np.nan)
    dx, _ = layer.backward(raw, p, cache, buf)
    assert dx.shape == x.shape
    assert np.array_equal(dx, want)


def _warm_peak_mb(call) -> float:
    """Peak of the memory `call` allocates through Python, once warmed up."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    if not tracing:
        tracemalloc.stop()
    return peak / 1e6


def test_warm_sgd_step_allocates_no_large_arrays():
    model = init_model(parse_spec(STRIDE1_SPEC), seed=0)
    rng = np.random.default_rng(2)
    x, y = rng.random((16, 1, 32, 32)), rng.integers(0, 16, 16)
    # every step re-allocated its activations and gradients: 22.8 MB
    assert _warm_peak_mb(lambda: backward_sgd_step(model, x, y, 0.1)) < 2.0


@pytest.mark.parametrize("text, bound_mib", [(STRIDE1_SPEC, 8.0), (STRIDED_SPEC, 5.0)],
                         ids=["stride1", "strided"])
def test_sgd_step_scratch_stays_within_its_bound(text, bound_mib):
    """A backward writes into buffers its forward has finished with. When the
    relu-masked dy, the padded dx and gap's dx had buffers of their own, a
    batch-16 step left 18.53 and 6.98 MiB of scratch."""
    model = init_model(parse_spec(text), seed=0)
    rng = np.random.default_rng(2)
    backward_sgd_step(model, rng.random((16, 1, 32, 32)), rng.integers(0, 16, 16), 0.1)
    assert sum(b.nbytes for buffers in model.scratch for b in buffers.values()) < bound_mib * 2**20


@pytest.mark.parametrize("text", [STRIDE1_SPEC, STRIDED_SPEC])
def test_warm_forward_allocates_no_large_arrays(text):
    model = init_model(parse_spec(text), seed=0)
    x = np.random.default_rng(3).random((10, 1, 40, 40))  # one audit chunk
    # every forward re-allocated its activations: 12.4 MB on the stride-1 net
    assert _warm_peak_mb(lambda: forward(model, x)) < 1.0


@pytest.mark.parametrize("text, x_shape, bound_mib", [
    (STRIDE1_SPEC, (10, 1, 40, 40), 6.7), (STRIDE1_SPEC, (4, 1, 64, 64), 7.3),
    (STRIDED_SPEC, (10, 1, 40, 40), 3.35), (STRIDED_SPEC, (4, 1, 64, 64), 3.5)],
    ids=["stride1-audit", "stride1-inpaint", "strided-audit", "strided-inpaint"])
def test_forward_scratch_stays_within_its_bound(text, x_shape, bound_mib):
    """A forward alone, on one audit chunk (10 x 40^2) and one inpaint chunk
    (4 x 64^2): 6.65, 7.26, 3.32 and 3.46 MiB of scratch. They were 8.15,
    11.26, 3.32 and 3.88 when conv's forward held each image's whole patch
    matrix, not a block of its rows. The strided net's max-pool row pass
    takes 0.73 and 0.75 of those MiB, and conv's bias row, where it is
    larger than the patch block, 0.08 and 0.44 of the stride-1 net's."""
    model = init_model(parse_spec(text), seed=0)
    forward(model, np.random.default_rng(3).random(x_shape))
    assert sum(b.nbytes for buffers in model.scratch for b in buffers.values()) < bound_mib * 2**20


def _readout_head_on_full_features(model, layer_index, xs, ys, cfg):
    """The reference readout head: gap+dense+softmax trained on the probed
    layer's full-resolution features."""
    feats = layer_activations(model, xs, layer_index)
    head_layers = (GapSpec(), DenseSpec(model.spec.shapes[-1][0]), SoftmaxSpec())
    return train(make_spec(feats.shape[1:], head_layers), feats, ys, cfg)


@pytest.mark.parametrize("layer_index", [0, 1, 3])
def test_readout_on_pooled_features_is_the_gap_head_bitwise(layer_index, monkeypatch):
    model = init_model(parse_spec(STRIDED_SPEC), seed=0)
    rng = np.random.default_rng(4)
    xs, ys = rng.random((40, 1, 32, 32)), rng.integers(0, 16, 40)
    cfg = TrainConfig(0.5, 2, 8, seed=3)
    oracle = _readout_head_on_full_features(model, layer_index, xs, ys, cfg)
    # the pooled read-out is the reduction of each layer's copied activations
    layers = range(len(model.spec.layers))
    for reduce in (np.sum, np.mean):
        singles = [nn.pooled_features(model, xs, [li], reduce) for li in layers]
        for li, got in zip(layers, singles):
            act = layer_activations(model, xs, li)
            assert np.array_equal(got, reduce(act, axis=(2, 3)) if act.ndim == 4 else act)
        assert np.array_equal(nn.pooled_features(model, xs, [3, 0, 5, 3], reduce),
                              np.concatenate([singles[i] for i in (3, 0, 5, 3)], axis=1))
    heads = []

    def recording_train(*args, **kwargs):
        heads.append(train(*args, **kwargs))
        return heads[-1]

    monkeypatch.setattr(nn, "train", recording_train)
    entry = _profile(model, layer_index, xs, ys, cfg)
    (head,) = heads
    assert head.spec.layers == oracle.spec.layers[1:]
    assert [sorted(p) for p in head.params] == [sorted(p) for p in oracle.params[1:]]
    for p, q in zip(head.params, oracle.params[1:]):
        for key in p:
            assert np.array_equal(p[key], q[key]), key
    assert entry.readout_accuracy == nn._accuracy(oracle, layer_activations(model, xs,
                                                                             layer_index), ys)


def test_layer0_readout_keeps_no_full_resolution_features():
    model = init_model(parse_spec(STRIDED_SPEC), seed=0)
    rng = np.random.default_rng(5)
    xs, ys = rng.random((800, 1, 32, 32)), rng.integers(0, 16, 800)  # acceptance-size data
    cfg = TrainConfig(0.5, 1, 32, seed=0)
    # the 800x8x32x32 layer-0 features alone are 52 MB
    assert _warm_peak_mb(lambda: _profile(model, 0, xs, ys, cfg)) < 8.0
