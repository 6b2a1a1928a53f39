import copy
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliascope import nn
from aliascope.nn import (
    ConvSpec,
    DenseSpec,
    GapSpec,
    Model,
    ModelFileError,
    PoolSpec,
    SoftmaxSpec,
    SpecError,
    TrainConfig,
    backward_sgd_step,
    cross_entropy,
    exact_invariance_fraction,
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
    train_readout,
)
from aliascope.tensor import PadMode, argmax_flat

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


def test_exact_invariance_fraction():
    assert exact_invariance_fraction(1) == Fraction(1)
    assert exact_invariance_fraction(60) == Fraction(1, 3600)


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


def test_layer_activations_index_range():
    model = init_model(small_spec(), seed=0)
    with pytest.raises(IndexError):
        layer_activations(model, np.zeros((1, 1, 8, 8)), 5)


def test_predict_top1_tie_break():
    spec = parse_spec("input 1 2 2\ngap\ndense 3\nsoftmax\n")
    model = init_model(spec, seed=0)
    model.params[1]["w"][:] = 0.0
    model.params[1]["b"][:] = 0.0  # all classes tie
    assert argmax_flat(forward(model, np.ones((1, 2, 2)))[0]) == 0


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


def test_maxpool_backward_routes_to_first_max():
    spec = make_spec((1, 2, 2), (PoolSpec("max", 2, 2), DenseSpec(2), SoftmaxSpec()))
    model = init_model(spec, seed=0)
    model.params[1]["w"][:] = np.array([[1.0], [-1.0]])
    x = np.full((1, 1, 2, 2), 3.0)  # all tied: gradient must hit index (0, 0) only
    backward_sgd_step(model, x.copy(), np.array([0]), lr=1.0)

    def pool_dx(layer, x, dy):
        return layer.backward(dy, {}, layer.forward(x, {})[1])[0]

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


def test_train_readout_frozen_base():
    xs, ys = _stripes_dataset()
    spec = parse_spec("input 1 8 8\nconv 4 3 act=relu\nmaxpool 2 stride=2\n"
                      "gap\ndense 2\nsoftmax\n")
    base = train(spec, xs, ys, TrainConfig(0.1, 8, 8, seed=1))
    frozen = copy.deepcopy(base)
    readout = train_readout(base, 1, xs, ys, TrainConfig(0.2, 8, 8, seed=2))
    for p1, p2 in zip(base.params, frozen.params):
        for key in p1:
            assert np.array_equal(p1[key], p2[key])
    # a plain model: the base's first two layers and weights, then the head
    assert readout.spec.layers == spec.layers[:2] + (GapSpec(), DenseSpec(2), SoftmaxSpec())
    assert np.array_equal(readout.params[0]["w"], base.params[0]["w"])
    probs = forward(readout, xs)
    acc = float(np.mean(np.argmax(probs, axis=1) == ys))
    assert acc >= 0.95


@settings(deadline=None, max_examples=4)
@given(seed=st.integers(0, 2**16), layer_index=st.sampled_from([1, 2]))
def test_readout_is_a_plain_model_that_round_trips(seed, layer_index):
    # layer 1 is spatial (gap head), layer 2 a flat dense layer (dense head)
    spec = parse_spec("input 1 8 8\nconv 3 3 pad=circular act=relu\nmaxpool 2 stride=2\n"
                      "dense 5\nsoftmax\n")
    base = init_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    xs, ys = rng.random((12, 1, 8, 8)), rng.integers(0, 5, 12)
    readout = train_readout(base, layer_index, xs, ys, TrainConfig(0.5, 2, 4, seed=seed))
    # it scores as the trained head applied to the base's frozen features
    feats = layer_activations(base, xs, layer_index)
    if feats.ndim == 2:
        feats = feats[:, :, None, None]
    head_layers = readout.spec.layers[layer_index + 1:]
    head = Model(make_spec(feats.shape[1:], head_layers), readout.params[layer_index + 1:])
    scores = forward(readout, xs)
    assert np.array_equal(scores, forward(head, feats))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(readout, Path(tmp) / "r.shnn")
        loaded = load_model(Path(tmp) / "r.shnn")
    assert loaded.spec == readout.spec
    assert np.array_equal(forward(loaded, xs), scores)


def test_train_readout_index_range():
    model = init_model(small_spec(), seed=0)
    with pytest.raises(IndexError):
        train_readout(model, 9, np.zeros((1, 1, 8, 8)), np.zeros(1, dtype=int),
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
