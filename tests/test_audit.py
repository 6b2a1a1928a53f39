import ast
import collections
import csv
import io
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from aliascope import audit, cli, nn, transforms
from aliascope.audit import (
    AuditMode,
    DepthProfileEntry,
    depth_invariance_profile,
    feature_shift_trace,
    feature_shiftability_error,
    image_seed,
    jaggedness_curve,
    top1_change_probability,
    wilson_interval,
)
from aliascope.nn import TrainConfig, init_model, parse_spec
from aliascope.sampling import BasisKernel, KernelKind
from aliascope.transforms import EmbeddingProtocol, FillMode

STRIDE1 = ("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
           "gap\ndense 3\nsoftmax\n")
STRIDED = ("input 1 16 16\nconv 4 3 pad=circular act=relu\nmaxpool 2 stride=2\n"
           "gap\ndense 3\nsoftmax\n")

PROTO = EmbeddingProtocol(16, 16, 8, (0, 0), FillMode.BLACK)


def _images(n=12, seed=0, size=6):
    rng = np.random.default_rng(seed)
    return [(f"img/{i:03d}", rng.random((1, size, size))) for i in range(n)]


def _labels(images):
    """(image id, class) pairs for `images`: the classes 0, 1, 2 in turn."""
    return [(image_id, i % 3) for i, (image_id, _) in enumerate(images)]


# ---------------------------------------------------------------------------
# wilson interval and seeding
# ---------------------------------------------------------------------------

def test_wilson_interval_known_values():
    # textbook case: k=0 gives a nonzero upper bound, k=n a sub-1 lower bound
    lo, hi = wilson_interval(0, 10)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.2775, abs=2e-3)
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(0.7225, abs=2e-3)


def test_wilson_interval_against_direct_formula():
    z = 1.959963984540054
    for k, n in [(3, 50), (25, 100), (499, 1000)]:
        p = k / n
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)


def test_wilson_interval_contains_p_hat_and_orders():
    for k, n in [(0, 1), (1, 3), (7, 9), (50, 200)]:
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_empty():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_image_seed_stable_and_distinct():
    assert image_seed(0, "a") == image_seed(0, "a")
    assert image_seed(0, "a") != image_seed(0, "b")
    assert image_seed(0, "a") != image_seed(1, "a")
    assert 0 <= image_seed(12345, "x/999") < 2**32


# ---------------------------------------------------------------------------
# top-1 change probability
# ---------------------------------------------------------------------------

def test_translate_flip_rate_zero_for_stride1_circular():
    model = init_model(parse_spec(STRIDE1), seed=0)
    report = top1_change_probability(model, _images(), _labels(_images()), PROTO,
                                     AuditMode.TRANSLATE, seed=0)
    assert report.n == 12
    assert report.p_hat == 0.0
    for r in report.records:
        assert not r.changed
        assert abs(r.score_before - r.score_after) < 1e-9


def test_translate_report_is_order_independent():
    model = init_model(parse_spec(STRIDED), seed=1)
    images = _images()
    r1 = top1_change_probability(model, images, _labels(images), PROTO, AuditMode.TRANSLATE,
                                 seed=3)
    r2 = top1_change_probability(model, list(reversed(images)), _labels(images), PROTO,
                                 AuditMode.TRANSLATE, seed=3)
    assert r1 == r2


@pytest.mark.parametrize("mode", [AuditMode.TRANSLATE, AuditMode.SCALE])
def test_report_is_independent_of_chunking_and_order(monkeypatch, mode):
    model = init_model(parse_spec(STRIDED), seed=1)
    images = _images(40)  # 40 pairs of 16x16 canvases: default chunks of 32 and 8 pairs
    labels = _labels(images)
    whole = top1_change_probability(model, images, labels, PROTO, mode, seed=3)
    rotated = images[7:] + images[:7]  # moves images across the chunk boundary
    assert top1_change_probability(model, rotated, labels, PROTO, mode, seed=3) == whole
    assert top1_change_probability(model, images[::-1], labels, PROTO, mode, seed=3) == whole
    ds = SimpleNamespace(images=[img for _, img in images], labels=np.arange(40) % 3,
                         ids=tuple(image_id for image_id, _ in images))
    args = SimpleNamespace(limit=None, seed=3)
    calls = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward", lambda m, x: calls.append(len(x)) or forward(m, x))
    report = cli._run_audit(args, model, ds, mode, PROTO)
    assert calls == [64, 16]
    # below one pair, one pair, three pairs: a pair is never split
    for values, sizes in ((1, [2] * 40), (2 * 256, [2] * 40), (6 * 256, [6] * 13 + [2])):
        monkeypatch.setattr(nn, "CHUNK_VALUES", values)
        calls.clear()
        assert cli._run_audit(args, model, ds, mode, PROTO) == report
        assert calls == sizes


@pytest.mark.parametrize("fill", FillMode)
def test_sweep_and_trace_are_independent_of_chunking(monkeypatch, fill):
    """The jaggedness series and the feature trace are the same bytes with
    chunks of one canvas, three canvases and the default, and a chunk
    resizes the swept image once."""
    model = init_model(parse_spec(STRIDED), seed=1)
    img = np.random.default_rng(2).random((1, 6, 6))
    proto = EmbeddingProtocol(16, 16, 8, (0, 3), fill)
    calls, resizes = [], []
    forward, features, resize = nn.forward, nn.pooled_features, transforms.resize_longest_side
    monkeypatch.setattr(nn, "forward", lambda m, x: calls.append(len(x)) or forward(m, x))
    monkeypatch.setattr(nn, "pooled_features",
                        lambda m, x, **kw: calls.append(len(x)) or features(m, x, **kw))
    monkeypatch.setattr(transforms, "resize_longest_side",
                        lambda x, s: resizes.append(len(x)) or resize(x, s))

    def run():
        calls.clear()
        resizes.clear()
        series = jaggedness_curve(model, img, proto, range(-2, 12), label=1)  # rows 0..8 fit
        trace = feature_shift_trace(model, 1, img, proto, range(7))
        return repr(series), trace.tobytes(), list(calls), list(resizes)

    whole = run()
    assert whole[2:] == ([9, 7], [1, 1])  # one chunk each, one resize of the one image
    assert whole[0].count("nan") == 5
    for values, sizes in ((1, [1] * 16), (3 * 256, [3, 3, 3, 3, 3, 1])):
        monkeypatch.setattr(nn, "CHUNK_VALUES", values)
        series, trace, got, resized = run()
        assert (series, trace) == whole[:2]
        assert got == sizes
        assert resized == [1] * len(sizes)  # once per chunk, not once per canvas


def test_jaggedness_fit_checks_do_not_grow_with_the_sweep(monkeypatch):
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(6).random((1, 6, 6))
    checks = []
    check_fits = transforms.check_fits
    monkeypatch.setattr(transforms, "check_fits",
                        lambda *args: checks.append(args) or check_fits(*args))

    def count(sweep):
        checks.clear()
        try:
            series = jaggedness_curve(model, img, PROTO, sweep, label=0)
        except ValueError:
            series = None
        return len(checks), series

    short, long = count(range(0, 12)), count(range(0, 10**5))  # rows 0..8 fit
    assert short[0] == long[0]
    assert long[1][:9] == short[1][:9] and len(long[1]) == 10**5
    assert all(math.isnan(v) for _, v in long[1][9:])
    assert count(range(30, 40))[0] == count(range(30, 30 + 10**5))[0] == 1  # nothing fits


def _canvas_pairs(images, proto, mode, **kwargs):
    """The audit's keys, before and after canvases and skips, with the
    canvases as they are scored, and the shape of each chunk."""
    chunks = []

    def fn(x):
        chunks.append(x.copy())
        return np.zeros((len(x), 1))

    keys, _, _, skipped = audit._scored_pairs(fn, images, proto, mode, **kwargs)
    canvases = [canvas for chunk in chunks for canvas in chunk]
    return keys, canvases[0::2], canvases[1::2], skipped, [chunk.shape for chunk in chunks]


@pytest.mark.parametrize("fill", FillMode)
@pytest.mark.parametrize("mode", [AuditMode.TRANSLATE, AuditMode.SCALE])
def test_each_canvas_of_a_chunk_is_the_embed_of_its_image_alone(mode, fill):
    proto = EmbeddingProtocol(12, 20, 12, (0, 0), fill)
    rng = np.random.default_rng(9)
    # wide images leave a row to move down and room for embed size 13; the
    # square one, in the middle of the first chunk, has neither; the 10x12
    # one has a single row to spare
    shapes = [(1, 5, 7), (1, 4, 8), (1, 6, 6), (1, 10, 12), (1, 5, 7), (3, 5, 7), (3, 4, 8),
              (1, 4, 8)]
    images = [(f"img/{i}", rng.random(shape)) for i, shape in enumerate(shapes)]
    keys, before, after, skipped, chunks = _canvas_pairs(images, proto, mode, seed=16)
    assert [key[0] for key in keys] == [f"img/{i}" for i in (0, 1, 3, 4, 5, 6, 7)]
    assert [image_id for image_id, _ in skipped] == ["img/2"]
    assert chunks == [(8, 1, 12, 20), (4, 3, 12, 20), (2, 1, 12, 20)]  # a new c closes a chunk
    expected, rects = [], []
    for image_id, img in images[:2] + images[3:]:
        size = proto.embed_size
        if mode is AuditMode.TRANSLATE:
            pos = audit._random_position(np.random.default_rng(image_seed(16, image_id)), proto,
                                         *transforms.embedded_extent(*img.shape[1:], size), 1)
            places = ((size, pos), (size, (pos[0] + 1, pos[1])))
        else:
            pos = audit._random_position(np.random.default_rng(image_seed(16, image_id)), proto,
                                         *transforms.embedded_extent(*img.shape[1:], size + 1))
            places = ((size, pos), (size + 1, pos))
        expected.append([transforms.embed(img, replace(proto, embed_size=s, position=p))[0]
                         for s, p in places])
        rects += [transforms.Rect(*p, *transforms.embedded_extent(*img.shape[1:], s))
                  for s, p in places]
    # the known rectangles touch each canvas edge, and the first chunk holds
    # several ring layouts, one of them on a single canvas
    assert any(r.top == 0 for r in rects) and any(r.top + r.height == 12 for r in rects)
    assert any(r.left == 0 for r in rects) and any(r.left + r.width == 20 for r in rects)
    layouts = collections.Counter(tuple(map(len, transforms._ring_sides(r, 12, 20)))
                                  for r in rects[:8])
    assert len(layouts) > 1 and 1 in layouts.values()
    for b, a, (want_b, want_a) in zip(before, after, expected, strict=True):
        assert np.array_equal(b, want_b) and np.array_equal(a, want_a)


def test_a_chunk_is_filled_by_one_call(monkeypatch):
    calls = []
    fill = transforms.inpaint_fill
    monkeypatch.setattr(transforms, "inpaint_fill",
                        lambda canvases, rects: calls.append(len(rects)) or fill(canvases, rects))
    monkeypatch.setattr(nn, "CHUNK_VALUES", 10 * 256)  # five pairs of 16x16 canvases
    proto = EmbeddingProtocol(16, 16, 8, (0, 0), FillMode.INPAINT)
    _, _, _, _, chunks = _canvas_pairs(_images(12), proto, AuditMode.TRANSLATE, seed=3)
    assert [chunk[0] for chunk in chunks] == calls == [10, 10, 4]


def test_crop_pairs_are_cut_into_their_rows():
    images = _images(5, size=20)
    keys, before, after, _, chunks = _canvas_pairs(images, PROTO, AuditMode.CROP_NOISE,
                                                   seed=4, crop_size=12, noise_scale=0.2)
    assert chunks == [(10, 1, 12, 12)]
    for (image_id, img), b, a in zip(images, before, after, strict=True):
        want_b, want_a = transforms.crop_pair_with_noise(img, 12, 0.2, image_seed(4, image_id))
        assert np.array_equal(b, want_b) and np.array_equal(a, want_a)


def test_scale_pair_sizes_differ_by_one():
    proto = EmbeddingProtocol(12, 12, 6, (0, 0))
    keys, before, after, _, _ = _canvas_pairs([("one", np.full((1, 5, 5), 1.0))], proto,
                                              AuditMode.SCALE)
    assert keys == (("one", "6", "7"),)
    a, b = before[0][0], after[0][0]  # embed sizes 6 and 7
    assert (a > 0).sum() == 36 and (b > 0).sum() == 49
    top, left = np.argwhere(a > 0).min(axis=0)
    assert np.array_equal(np.argwhere(b > 0).min(axis=0), (top, left))  # same top-left corner
    assert a[top:top + 6, left:left + 6].all() and b[top:top + 7, left:left + 7].all()


def test_translate_skips_images_with_no_room_to_shift():
    model = init_model(parse_spec(STRIDE1), seed=0)
    rng = np.random.default_rng(30)
    # wide images embed as 4x16 strips and leave room for the (1, 0) shift;
    # the square one fills the canvas vertically and cannot move down
    images = [(f"img/{i:03d}", rng.random((1, 4, 16))) for i in range(3)]
    images.append(("big/000", rng.random((1, 40, 40))))
    proto = EmbeddingProtocol(16, 16, 16, (0, 0))
    report = top1_change_probability(model, images, _labels(images), proto, AuditMode.TRANSLATE)
    assert report.n == 3
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "big/000"


@pytest.mark.parametrize("delta", [-1, 2, -3])
def test_translate_positions_leave_room_for_a_step_of_either_sign(delta):
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(40, size=12)  # 12x12 in a 16x16 canvas: 4 - |step| rows to spare
    proto = EmbeddingProtocol(16, 16, 12, (0, 0))
    report = top1_change_probability(model, images, _labels(images), proto, AuditMode.TRANSLATE,
                                     delta=delta)
    assert report.skipped == () and report.n == 40
    for r in report.records:
        before, after = ast.literal_eval(r.param_before), ast.literal_eval(r.param_after)
        assert after == (before[0] + delta, before[1])
        assert all(0 <= v <= 4 for v in before + after)


def test_scale_mode_params_and_flip_counting():
    model = init_model(parse_spec(STRIDED), seed=2)
    report = top1_change_probability(model, _images(), _labels(_images()), PROTO, AuditMode.SCALE,
                                     seed=0)
    assert report.n == 12
    for r in report.records:
        assert r.param_before == "8" and r.param_after == "9"
        assert r.changed == (r.top1_before != r.top1_after)
    assert report.p_hat == sum(r.changed for r in report.records) / 12


def test_crop_noise_mode_runs():
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(4, size=20)
    report = top1_change_probability(model, images, _labels(images), PROTO,
                                     AuditMode.CROP_NOISE, seed=0, crop_size=16, noise_scale=0.2)
    assert report.n == 4
    for r in report.records:
        assert r.mode == "crop+noise"


def test_labels_select_scored_class():
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(2)
    labels = [(images[0][0], 2), (images[1][0], 1)]
    report = top1_change_probability(model, images, labels, PROTO, AuditMode.TRANSLATE)
    for r, (_, cls) in zip(report.records, labels):
        assert 0.0 < r.score_before < 1.0


def test_audit_that_scores_nothing_raises():
    model = init_model(parse_spec(STRIDE1), seed=0)
    proto = EmbeddingProtocol(6, 6, 8, (0, 0))  # an 8-pixel embed never fits
    with pytest.raises(ValueError, match=r"^audit scored no image \(3 skipped; first: "
                                         r"img/000: .*do not fit"):
        top1_change_probability(model, _images(3), _labels(_images(3)), proto,
                                AuditMode.TRANSLATE)
    with pytest.raises(ValueError, match=r"^audit scored no image \(0 skipped\)$"):
        top1_change_probability(model, [], [], PROTO, AuditMode.SCALE)


def test_a_scale_audit_that_fits_nothing_names_no_step():
    model = init_model(parse_spec(STRIDE1), seed=0)
    proto = EmbeddingProtocol(8, 8, 8, (0, 0))  # the 9-pixel after canvas never fits
    with pytest.raises(ValueError, match=r"^audit scored no image \(3 skipped; first: img/000: "
                                         r"embedded image 9x9 does not fit the 8x8 canvas\)$"):
        top1_change_probability(model, _images(3), _labels(_images(3)), proto, AuditMode.SCALE)


@pytest.mark.parametrize("label", [3, -1])
def test_a_label_the_model_has_no_class_for_is_refused_before_any_canvas(label, monkeypatch):
    """Each audit and the depth profile check every label against the
    model's 3 classes first: an audit used to score every canvas, then fail
    indexing the scores by the label."""
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(4)
    labels = _labels(images)
    labels[1:3] = [(labels[1][0], label), (labels[2][0], 5)]

    def no_canvas(*args):
        raise AssertionError("a canvas was built")

    monkeypatch.setattr(audit, "_canvases", no_canvas)
    for mode in (AuditMode.TRANSLATE, AuditMode.SCALE, AuditMode.CROP_NOISE):
        with pytest.raises(ValueError, match=rf"^image img/001 has label {label}, but the model "
                                             r"has 3 classes$"):
            top1_change_probability(model, images, labels, PROTO, mode, crop_size=4)
    xs = np.stack([img for _, img in images])
    with pytest.raises(ValueError, match=rf"^image #1 has label {label}, but the model has 3 "
                                         r"classes$"):
        depth_invariance_profile(model, xs, np.array([y for _, y in labels]), [0],
                                 TrainConfig(0.2, 1, 8, 0), PROTO, images)


# ---------------------------------------------------------------------------
# curves, sweeps, profiles
# ---------------------------------------------------------------------------

def test_jaggedness_curve_flat_for_stride1():
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(5).random((1, 6, 6))
    series = jaggedness_curve(model, img, PROTO, range(0, 9), label=1)
    vals = [v for _, v in series]
    assert len(series) == 9
    assert max(vals) - min(vals) < 1e-9


def test_jaggedness_curve_nan_for_invalid_points():
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(6).random((1, 6, 6))
    series = jaggedness_curve(model, img, PROTO, [0, 50], label=0)
    assert not math.isnan(series[0][1])
    assert math.isnan(series[1][1])


def _unresizable(monkeypatch):
    def resize(*args):
        raise AssertionError("resized an image that fits nowhere")
    monkeypatch.setattr(transforms, "resize_longest_side", resize)


def test_jaggedness_curve_that_scores_nothing_raises(monkeypatch):
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(6).random((1, 6, 6))
    _unresizable(monkeypatch)  # no position fits, so the image is never resized
    with pytest.raises(ValueError, match=r"scored no position \(2 in the sweep; first: "
                                         r"position 50: "):
        jaggedness_curve(model, img, PROTO, [50, 60], label=0)
    with pytest.raises(ValueError, match=r"scored no position \(0 in the sweep\)$"):
        jaggedness_curve(model, img, PROTO, range(5, 3), label=0)


@pytest.mark.parametrize("label", [-1, 3])
def test_jaggedness_curve_rejects_a_label_that_is_no_class(monkeypatch, label):
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(6).random((1, 6, 6))
    monkeypatch.setattr(nn, "forward", None)  # scoring anything would raise TypeError
    with pytest.raises(ValueError, match=f"label {label} out of range for 3 classes"):
        jaggedness_curve(model, img, PROTO, range(0, 4), label=label)


def _tiny_dataset(n_per=6, seed=8):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    base = np.indices((16, 16))
    for label in range(3):
        pattern = (base[0] % 2, base[1] % 2, (base[0] + base[1]) % 2)[label].astype(float)
        for _ in range(n_per):
            xs.append(pattern[None] + rng.random((1, 16, 16)) * 0.1)
            ys.append(label)
    return np.array(xs), np.array(ys)


def test_depth_profile_shape_and_monotone_depth_fraction():
    xs, ys = _tiny_dataset()
    model = init_model(parse_spec(STRIDED), seed=6)
    audit_images = [(f"a/{i}", xs[i]) for i in range(6)]
    entries = depth_invariance_profile(model, xs, ys, [0, 1], TrainConfig(0.2, 2, 8, 0),
                                       PROTO, audit_images)
    assert [e.layer_index for e in entries] == [0, 1]
    assert entries[0].depth_fraction < entries[1].depth_fraction
    for e in entries:
        assert 0.0 <= e.readout_accuracy <= 1.0
        assert 0.0 <= e.flip_rate <= 1.0


DEEP = ("input 1 16 16\nconv 4 3 pad=circular act=relu\nmaxpool 2 stride=2\n"
        "conv 6 3 pad=circular act=relu\nmaxpool 2 stride=2\ngap\ndense 3\nsoftmax\n")
# a dense layer fed by a spatial one: layer 2 is flat, and inputs keep the spec's size
FLAT = "input 1 8 8\nconv 3 3 pad=circular act=relu\nmaxpool 2 stride=2\ndense 5\nsoftmax\n"


def _three_pass_profile(model, xs, ys, layer_indices, cfg, proto, audit_images, seed):
    """The depth profile as each probed layer's own readout model gives it:
    the base's layers up to the probed one, a gap when it is spatial, then a
    dense+softmax head trained on its pooled features. The readout runs the
    base's layers again for its accuracy and once more for its audit."""
    n_layers = len(model.spec.layers)
    out = []
    for li in layer_indices:
        feats = nn.layer_activations(model, xs, li)
        gap = (nn.GapSpec(),) if feats.ndim == 4 else ()
        if gap:
            feats = feats.mean(axis=(2, 3))
        head_layers = (nn.DenseSpec(model.spec.shapes[-1][0]), nn.SoftmaxSpec())
        head = nn.train(nn.make_spec((feats.shape[1], 1, 1), head_layers),
                        feats[:, :, None, None], ys, cfg)
        spec = nn.make_spec(model.spec.input_shape,
                            model.spec.layers[:li + 1] + gap + head_layers)
        readout = nn.Model(spec, model.params[:li + 1] + [{} for _ in gap] + head.params)
        report = top1_change_probability(readout, audit_images, _labels(audit_images), proto,
                                         AuditMode.TRANSLATE, seed=seed)
        out.append(DepthProfileEntry(li, li / max(1, n_layers - 1),
                                     nn._accuracy(readout, xs, ys), report.p_hat))
    return out


def test_depth_profile_is_the_three_pass_readout_bitwise():
    xs, ys = _tiny_dataset()
    model = nn.train(parse_spec(DEEP), xs, ys, TrainConfig(0.3, 15, 6, seed=1))
    proto = EmbeddingProtocol(20, 20, 14, (0, 0), FillMode.BLACK)
    images = _images(40, seed=6, size=10)
    cfg = TrainConfig(0.5, 5, 8, seed=1)
    entries = depth_invariance_profile(model, xs, ys, [3, 0, 3], cfg, proto, images, seed=2)
    assert entries == _three_pass_profile(model, xs, ys, [3, 0, 3], cfg, proto, images,
                                          seed=2)
    assert entries[0] == entries[2]
    assert entries[0].flip_rate > 0.0


def test_depth_profile_of_a_flat_layer_is_the_three_pass_readout_bitwise():
    model = init_model(parse_spec(FLAT), seed=3, init_scale=3.0)
    rng = np.random.default_rng(5)
    xs, ys = rng.random((30, 1, 8, 8)), rng.integers(0, 5, 30)
    proto = EmbeddingProtocol(8, 8, 6, (0, 0), FillMode.BLACK)
    images = _images(20, seed=7)
    cfg = TrainConfig(0.5, 3, 8, seed=2)
    entries = depth_invariance_profile(model, xs, ys, [2, 1], cfg, proto, images, seed=4)
    assert entries == _three_pass_profile(model, xs, ys, [2, 1], cfg, proto, images,
                                          seed=4)
    # layers before the dense one take canvases of any size, as their readout does
    larger = EmbeddingProtocol(11, 11, 6, (0, 0), FillMode.BLACK)
    assert depth_invariance_profile(model, xs, ys, [1], cfg, larger, images) == \
        _three_pass_profile(model, xs, ys, [1], cfg, larger, images, seed=0)


def test_depth_profile_runs_the_base_once_per_image(monkeypatch):
    model = init_model(parse_spec(DEEP), seed=4)
    xs, ys = _tiny_dataset()
    # wide images fit the canvas moved down a row; the square one does not
    images = [(f"wide/{i}", x) for i, x in enumerate(xs[:9, :, :8])] + _images(1)
    proto = EmbeddingProtocol(16, 16, 16, (0, 0), FillMode.BLACK)
    seen = []
    forward_layers = nn._forward_layers

    def counting(m, x, upto=None):
        if m is model:
            seen.append(len(x))
        return forward_layers(m, x, upto)

    monkeypatch.setattr(nn, "_forward_layers", counting)
    for layers in ([0], [3, 0, 3], [0, 1, 2, 3]):
        seen.clear()
        depth_invariance_profile(model, xs, ys, layers, TrainConfig(0.2, 1, 8, 0), proto,
                                 images)
        assert sum(seen) == len(xs) + 2 * 9


# ---------------------------------------------------------------------------
# feature traces and shiftability
# ---------------------------------------------------------------------------

def test_feature_shift_trace_constant_for_stride1():
    model = init_model(parse_spec(STRIDE1), seed=7)
    img = np.random.default_rng(9).random((1, 6, 6))
    proto = EmbeddingProtocol(16, 16, 8, (2, 2), FillMode.BLACK)
    trace = feature_shift_trace(model, 0, img, proto, range(4))
    assert trace.shape == (4, 4)
    assert np.max(np.std(trace, axis=0)) < 1e-9


def test_feature_shift_trace_checks_the_fit_before_resizing(monkeypatch):
    model = init_model(parse_spec(STRIDE1), seed=7)
    img = np.random.default_rng(9).random((1, 6, 6))
    _unresizable(monkeypatch)
    with pytest.raises(ValueError, match=r"^embedded image 8x8 at \(9, 2\) overflows 16x16"):
        feature_shift_trace(model, 0, img, EmbeddingProtocol(16, 16, 8, (2, 2)), range(9))
    with pytest.raises(ValueError, match=r"^embedded image 40x40 at \(0, 0\) overflows"):
        feature_shift_trace(model, 0, img, EmbeddingProtocol(20, 20, 40, (0, 0)), [0])


def test_feature_shift_trace_varies_after_subsampling():
    model = init_model(parse_spec(STRIDED), seed=8)
    img = np.random.default_rng(10).random((1, 6, 6))
    proto = EmbeddingProtocol(16, 16, 8, (2, 2), FillMode.BLACK)
    trace = feature_shift_trace(model, 1, img, proto, range(4))
    assert trace.shape == (4, 4)
    assert np.max(np.std(trace, axis=0)) > 1e-9


def test_feature_shiftability_error_zero_for_stride1():
    model = init_model(parse_spec(STRIDE1), seed=9)
    img = np.random.default_rng(11).random((1, 16, 16))
    basis = BasisKernel(KernelKind.LINEAR_TENT, 2)
    assert feature_shiftability_error(model, 0, img, basis) == 0.0


def test_feature_shiftability_error_positive_after_pooling():
    spec = parse_spec("input 1 32 32\nconv 4 3 pad=circular act=relu\n"
                      "maxpool 2 stride=2\ngap\ndense 3\nsoftmax\n")
    model = init_model(spec, seed=10)
    img = np.random.default_rng(12).random((1, 32, 32))
    basis = BasisKernel(KernelKind.LINEAR_TENT, 2)
    err = feature_shiftability_error(model, 1, img, basis)
    assert err > 0.0


def test_feature_shiftability_error_rejects_profiles_too_short_to_measure():
    # layer 1 of the strided net is 8x8 at stride 2: dense profiles of 16
    model = init_model(parse_spec(STRIDED), seed=8)
    img = np.random.default_rng(10).random((1, 16, 16))
    for window in (0, 50):  # the sinc's default window is 8 s = 16
        basis = BasisKernel(KernelKind.WINDOWED_SINC, 2, window)
        need = 4 * 2 + 2 * basis.support
        with pytest.raises(ValueError, match=f"profile of {need} samples, the longest is 16"):
            feature_shiftability_error(model, 1, img, basis)
    assert feature_shiftability_error(model, 1, img,
                                      BasisKernel(KernelKind.WINDOWED_SINC, 2, 1)) > 0.0


def test_feature_shiftability_error_rejects_a_missing_or_flat_layer():
    model = init_model(parse_spec(STRIDE1), seed=9)  # stride 1 throughout
    img = np.random.default_rng(11).random((1, 16, 16))
    basis = BasisKernel(KernelKind.LINEAR_TENT, 2)
    for layer in (-1, -4, 4):
        with pytest.raises(IndexError, match=f"layer index {layer} out of range"):
            feature_shiftability_error(model, layer, img, basis)
    for layer in (1, 2):  # gap and dense
        with pytest.raises(ValueError, match=f"layer {layer} is not spatial"):
            feature_shiftability_error(model, layer, img, basis)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_write_report_csv_roundtrip():
    model = init_model(parse_spec(STRIDED), seed=13)
    rng = np.random.default_rng(0)
    ds = SimpleNamespace(images=[rng.random((1, 6, 6)) for _ in range(5)],
                         labels=np.array([0, 1, 2, 0, 1]), ids=("a", "b", "c", "d", "e"))
    images, labels = cli._audit_images(ds)
    report = top1_change_probability(model, images, labels, PROTO, AuditMode.TRANSLATE)
    text = cli._run_audit(SimpleNamespace(limit=None, seed=0), model, ds,
                          AuditMode.TRANSLATE, PROTO)
    lines = text.splitlines()
    assert lines[0].split(",")[0] == "image_id"
    assert lines[-1].startswith("#summary,")
    rows = [row for row in csv.reader(io.StringIO(text)) if not row[0].startswith("#")]
    assert len(rows) == 1 + report.n
    for row, rec in zip(rows[1:], report.records):
        assert row[0] == rec.image_id
        assert row[7] == str(rec.changed).lower()
        assert float(row[8]) == rec.score_before  # repr round-trips exactly
    summary = dict(kv.split("=") for kv in lines[-1][len("#summary,"):].split(","))
    assert float(summary["p_hat"]) == report.p_hat
    assert int(summary["n"]) == report.n
