import csv
import math

import numpy as np
import pytest

from aliascope import audit
from aliascope.audit import (
    AuditMode,
    AuditReport,
    depth_invariance_profile,
    embedding_size_sweep,
    feature_shift_trace,
    feature_shiftability_error,
    image_seed,
    jaggedness_curve,
    piecewise_invariance_check,
    top1_change_probability,
    wilson_interval,
    write_curve_csv,
    write_report_csv,
)
from aliascope.nn import TrainConfig, init_model, parse_spec
from aliascope.sampling import BasisKernel, KernelKind
from aliascope.transforms import (
    EmbeddingProtocol,
    FillMode,
    PiecewiseTransform,
    Rect,
)

STRIDE1 = ("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
           "gap\ndense 3\nsoftmax\n")
STRIDED = ("input 1 16 16\nconv 4 3 pad=circular act=relu\nmaxpool 2 stride=2\n"
           "gap\ndense 3\nsoftmax\n")

PROTO = EmbeddingProtocol(16, 16, 8, (0, 0), FillMode.BLACK)


def _images(n=12, seed=0, size=6):
    rng = np.random.default_rng(seed)
    return [(f"img/{i:03d}", rng.random((1, size, size))) for i in range(n)]


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
    report = top1_change_probability(model, _images(), PROTO, AuditMode.TRANSLATE, seed=0)
    assert report.n == 12
    assert report.p_hat == 0.0
    for r in report.records:
        assert not r.changed
        assert abs(r.score_before - r.score_after) < 1e-9


def test_translate_report_is_order_independent():
    model = init_model(parse_spec(STRIDED), seed=1)
    images = _images()
    r1 = top1_change_probability(model, images, PROTO, AuditMode.TRANSLATE, seed=3)
    r2 = top1_change_probability(model, list(reversed(images)), PROTO,
                                 AuditMode.TRANSLATE, seed=3)
    assert r1 == r2


@pytest.mark.parametrize("mode", [AuditMode.TRANSLATE, AuditMode.SCALE])
def test_report_is_independent_of_chunking_and_order(monkeypatch, mode):
    model = init_model(parse_spec(STRIDED), seed=1)
    images = _images(40)  # 80 canvases of 16x16: two default chunks
    whole = top1_change_probability(model, images, PROTO, mode, seed=3)
    rotated = images[7:] + images[:7]  # moves images across the chunk boundary
    assert top1_change_probability(model, rotated, PROTO, mode, seed=3) == whole
    # 3 canvases per chunk: before and after of a pair land in different calls
    monkeypatch.setattr(audit, "CHUNK_VALUES", 3 * 16 * 16)
    assert top1_change_probability(model, images[::-1], PROTO, mode, seed=3) == whole
    monkeypatch.setattr(audit, "CHUNK_VALUES", 1)  # one canvas per forward call
    assert top1_change_probability(model, images, PROTO, mode, seed=3) == whole


def test_translate_skips_images_with_no_room_to_shift():
    model = init_model(parse_spec(STRIDE1), seed=0)
    rng = np.random.default_rng(30)
    # wide images embed as 4x16 strips and leave room for the (1, 0) shift;
    # the square one fills the canvas vertically and cannot move down
    images = [(f"img/{i:03d}", rng.random((1, 4, 16))) for i in range(3)]
    images.append(("big/000", rng.random((1, 40, 40))))
    proto = EmbeddingProtocol(16, 16, 16, (0, 0))
    report = top1_change_probability(model, images, proto, AuditMode.TRANSLATE)
    assert report.n == 3
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "big/000"


def test_scale_mode_params_and_flip_counting():
    model = init_model(parse_spec(STRIDED), seed=2)
    report = top1_change_probability(model, _images(), PROTO, AuditMode.SCALE, seed=0)
    assert report.n == 12
    for r in report.records:
        assert r.param_before == "8" and r.param_after == "9"
        assert r.changed == (r.top1_before != r.top1_after)
    assert report.p_hat == sum(r.changed for r in report.records) / 12


def test_crop_noise_mode_runs():
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(4, size=20)
    report = top1_change_probability(model, images, PROTO, AuditMode.CROP_NOISE,
                                     seed=0, crop_size=16, noise_scale=0.2)
    assert report.n == 4
    for r in report.records:
        assert r.mode == "crop+noise"


def test_labels_select_scored_class():
    model = init_model(parse_spec(STRIDE1), seed=0)
    images = _images(2)
    labels = [(images[0][0], 2), (images[1][0], 1)]
    report = top1_change_probability(model, images, PROTO, AuditMode.TRANSLATE,
                                     labels=labels)
    for r, (_, cls) in zip(report.records, labels):
        assert 0.0 < r.score_before < 1.0


def test_report_properties_empty():
    report = AuditReport((), ())
    assert report.p_hat == 0.0
    assert report.wilson_interval == (0.0, 1.0)


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


def test_jaggedness_curve_scale_mode():
    model = init_model(parse_spec(STRIDE1), seed=4)
    img = np.random.default_rng(7).random((1, 6, 6))
    series = jaggedness_curve(model, img, PROTO, [4, 8, 12], label=0, mode=AuditMode.SCALE)
    assert all(not math.isnan(v) for _, v in series)


def test_embedding_size_sweep_structure():
    model = init_model(parse_spec(STRIDED), seed=5)
    out = embedding_size_sweep(model, _images(6), PROTO, [6, 8, 10], AuditMode.TRANSLATE)
    assert [size for size, _ in out] == [6, 8, 10]
    for _, report in out:
        assert isinstance(report, AuditReport)
        assert report.n + len(report.skipped) == 6


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


# ---------------------------------------------------------------------------
# piecewise invariance
# ---------------------------------------------------------------------------

def test_piecewise_invariance_stride1_exact():
    model = init_model(parse_spec(STRIDE1), seed=11)
    canvas = np.zeros((1, 16, 16))
    canvas[0, 3:6, 3:6] = 1.0
    canvas[0, 10:13, 10:13] = 2.0
    t = PiecewiseTransform(((Rect(0, 0, 8, 8), (1, 0)), (Rect(8, 8, 8, 8), (0, -1))))
    assert piecewise_invariance_check(model, canvas, t) < 1e-9


def test_piecewise_invariance_detects_exact_position_detector():
    # 1x1 conv then stride-2 pooling: content on even rows only; shifting one
    # half by an odd offset changes the pooled response
    spec = parse_spec("input 1 16 16\nconv 1 1\nmaxpool 1 stride=2\n"
                      "gap\ndense 2\nsoftmax\n")
    model = init_model(spec, seed=12)
    model.params[0]["w"][:] = 1.0
    canvas = np.zeros((1, 16, 16))
    canvas[0, 2:6:2, 2:6:2] = 1.0
    canvas[0, 10:14:2, 2:6:2] = 1.0
    t = PiecewiseTransform(((Rect(8, 0, 8, 8), (1, 0)),))
    assert piecewise_invariance_check(model, canvas, t, layer_index=1) > 0.5


def test_piecewise_invariance_default_layer_errors_without_spatial():
    spec = parse_spec("input 1 4 4\ndense 2\nsoftmax\n")
    model = init_model(spec, seed=0)
    with pytest.raises(ValueError, match="no spatial"):
        piecewise_invariance_check(model, np.zeros((1, 4, 4)),
                                   PiecewiseTransform(()))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_write_report_csv_roundtrip(tmp_path):
    model = init_model(parse_spec(STRIDED), seed=13)
    report = top1_change_probability(model, _images(5), PROTO, AuditMode.TRANSLATE)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[0] == "image_id"
    assert lines[-1].startswith("#summary,")
    with open(path) as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert len(rows) == 1 + report.n
    for row, rec in zip(rows[1:], report.records):
        assert row[0] == rec.image_id
        assert row[7] == str(rec.changed).lower()
        assert float(row[8]) == rec.score_before  # repr round-trips exactly
    summary = dict(kv.split("=") for kv in lines[-1][len("#summary,"):].split(",") )
    assert float(summary["p_hat"]) == report.p_hat
    assert int(summary["n"]) == report.n


def test_write_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv([(0, 0.5), (1, 0.25)], path, "shift", "score")
    lines = path.read_text().splitlines()
    assert lines[0] == "shift,score"
    assert lines[1] == "0,0.5"
    assert lines[2] == "1,0.25"
