import numpy as np
import pytest

from aliascope.transforms import (
    EmbeddingProtocol,
    FillMode,
    PiecewiseTransform,
    Rect,
    ShiftSpec,
    bilinear_resize,
    crop_pair_with_noise,
    embed,
    inpaint_fill,
    piecewise_shift,
    resize_longest_side,
    scale_pair,
    shift_embedded,
)


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def test_resize_identity():
    img = np.random.default_rng(0).random((1, 5, 5))
    out = bilinear_resize(img, 5)
    assert np.array_equal(out, img)
    assert out is not img


def test_resize_constant_stays_constant():
    img = np.full((2, 6, 6), 0.7)
    for new_w in (3, 5, 7, 12):
        out = bilinear_resize(img, new_w)
        assert np.allclose(out, 0.7, atol=1e-12)


def test_resize_preserves_aspect_ratio():
    img = np.zeros((1, 10, 20))
    out = bilinear_resize(img, 10)
    assert out.shape == (1, 5, 10)
    out = bilinear_resize(np.zeros((1, 7, 5)), 10)
    assert out.shape == (1, 14, 10)


def test_resize_2x_half_pixel_centers():
    # doubling width puts two dst pixels at src offsets -0.25 and +0.25:
    # clamping at the edges, interior pixels mix neighbors with weights 3/4, 1/4
    img = np.array([[[0.0, 4.0, 8.0, 12.0]]])
    out = bilinear_resize(img, 8)[0, 0]
    expected = [0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 12.0]
    assert np.allclose(out, expected, atol=1e-12)


def test_resize_matches_scipy_zoom_on_linear_ramp():
    # bilinear interpolation reproduces any affine function exactly away
    # from the clamped border, whatever the implementation
    h, w = 8, 8
    ramp = (np.arange(h)[:, None] * 2.0 + np.arange(w)[None, :] * 3.0)[None]
    out = bilinear_resize(ramp, 16)[0]
    ys = np.clip((np.arange(16) + 0.5) * h / 16 - 0.5, 0, h - 1)
    xs = np.clip((np.arange(16) + 0.5) * w / 16 - 0.5, 0, w - 1)
    expected = ys[:, None] * 2.0 + xs[None, :] * 3.0
    assert np.allclose(out, expected, atol=1e-12)


def test_resize_rejects_bad_width():
    with pytest.raises(ValueError):
        bilinear_resize(np.zeros((1, 4, 4)), 0)


def test_resize_longest_side_orientation():
    assert resize_longest_side(np.zeros((1, 4, 8)), 16).shape == (1, 8, 16)
    assert resize_longest_side(np.zeros((1, 8, 4)), 16).shape == (1, 16, 8)


# ---------------------------------------------------------------------------
# harmonic inpainting
# ---------------------------------------------------------------------------

def _dense_harmonic_solve(canvas, known):
    """Oracle: solve the discrete Laplace system with a dense linear solver."""
    c, h, w = canvas.shape
    out = canvas.copy()
    unknown = np.argwhere(~known)
    index = {tuple(p): i for i, p in enumerate(unknown)}
    m = len(unknown)
    for ch in range(c):
        a = np.zeros((m, m))
        rhs = np.zeros(m)
        for i, (y, x) in enumerate(unknown):
            nbrs = [(y + dy, x + dx) for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1))
                    if 0 <= y + dy < h and 0 <= x + dx < w]
            a[i, i] = len(nbrs)
            for ny, nx in nbrs:
                if known[ny, nx]:
                    rhs[i] += canvas[ch, ny, nx]
                else:
                    a[i, index[(ny, nx)]] = -1.0
        sol = np.linalg.solve(a, rhs)
        for i, (y, x) in enumerate(unknown):
            out[ch, y, x] = sol[i]
    return out


def test_inpaint_constant_boundary():
    canvas = np.full((1, 6, 6), 3.0)
    known = np.ones((6, 6), dtype=bool)
    known[2:4, 2:4] = False
    canvas[0, 2:4, 2:4] = 0.0
    out = inpaint_fill(canvas, known)
    assert np.allclose(out, 3.0, atol=1e-2)
    assert np.array_equal(out[0, known], canvas[0, known])


def test_inpaint_matches_dense_solve():
    rng = np.random.default_rng(1)
    canvas = rng.random((1, 8, 8))
    known = np.ones((8, 8), dtype=bool)
    known[3:6, 2:6] = False
    got = inpaint_fill(canvas, known)
    want = _dense_harmonic_solve(canvas, known)
    assert np.max(np.abs(got - want)) < 5e-3


def test_inpaint_respects_maximum_principle():
    rng = np.random.default_rng(2)
    canvas = rng.random((1, 10, 10))
    known = np.ones((10, 10), dtype=bool)
    known[4:8, 4:8] = False
    out = inpaint_fill(canvas, known)
    lo, hi = canvas[0, known].min(), canvas[0, known].max()
    assert np.all(out >= lo - 1e-9)
    assert np.all(out <= hi + 1e-9)


def test_inpaint_edge_cases():
    canvas = np.random.default_rng(3).random((1, 4, 4))
    assert np.array_equal(inpaint_fill(canvas, np.ones((4, 4), bool)), canvas)
    with pytest.raises(ValueError):
        inpaint_fill(canvas, np.zeros((4, 4), bool))


# ---------------------------------------------------------------------------
# embedding and shift/scale protocols
# ---------------------------------------------------------------------------

PROTO = EmbeddingProtocol(12, 12, 6, (2, 3), FillMode.BLACK)


def test_embed_places_resized_image():
    img = np.full((1, 3, 3), 2.0)
    canvas, mask = embed(img, PROTO)
    assert canvas.shape == (1, 12, 12)
    assert mask.sum() == 36
    assert np.allclose(canvas[0, 2:8, 3:9], 2.0, atol=1e-12)
    assert np.all(canvas[0, ~mask] == 0.0)


def test_embed_rejects_overflow():
    img = np.zeros((1, 3, 3))
    with pytest.raises(ValueError, match="overflows"):
        embed(img, EmbeddingProtocol(12, 12, 6, (8, 8)))
    with pytest.raises(ValueError, match="overflows"):
        embed(img, EmbeddingProtocol(12, 12, 6, (-1, 0)))


def test_embed_inpaint_background_is_nonzero():
    img = np.full((1, 3, 3), 5.0)
    proto = EmbeddingProtocol(12, 12, 6, (2, 3), FillMode.INPAINT)
    canvas, mask = embed(img, proto)
    assert np.allclose(canvas[0, mask], 5.0, atol=1e-12)
    assert np.allclose(canvas[0, ~mask], 5.0, atol=1e-2)  # harmonic fill of constant


def test_shift_embedded_translates_content():
    img = np.full((1, 3, 3), 1.0)
    base, _ = embed(img, PROTO)
    shifted = shift_embedded(img, PROTO, ShiftSpec(1, 0))
    assert np.array_equal(shifted, np.roll(base, 1, axis=1))
    shifted = shift_embedded(img, PROTO, ShiftSpec(0, -1))
    assert np.array_equal(shifted, np.roll(base, -1, axis=2))


def test_scale_pair_sizes_differ_by_one():
    img = np.full((1, 5, 5), 1.0)
    a, b = scale_pair(img, PROTO, 6)
    assert (a[0] > 0).sum() == 36
    assert (b[0] > 0).sum() == 49
    # same top-left corner
    assert a[0, 2, 3] > 0 and b[0, 2, 3] > 0
    assert np.all(a[0, :2] == 0) and np.all(b[0, :2] == 0)


# ---------------------------------------------------------------------------
# crop pairs with shared noise
# ---------------------------------------------------------------------------

def test_crop_pair_one_pixel_apart():
    rng = np.random.default_rng(4)
    img = rng.random((1, 30, 40))
    a, b = crop_pair_with_noise(img, crop_size=10, noise_scale=0.0, seed=5, long_side=40)
    assert a.shape == b.shape == (1, 10, 10)
    # identical content shifted one horizontal pixel
    assert np.array_equal(a[:, :, 1:], b[:, :, :-1])


def test_crop_pair_noise_is_shared():
    img = np.full((1, 30, 40), 0.4)
    a, b = crop_pair_with_noise(img, 10, noise_scale=0.94, seed=6, long_side=40)
    # same noise field sampled one pixel apart: overlap columns agree exactly
    assert np.array_equal(a[:, :, 1:], b[:, :, :-1])
    assert not np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0  # pixels stay in [0, 1]
    assert a.max() == 1.0  # clipping engaged for this scale


def test_crop_pair_seed_deterministic():
    img = np.random.default_rng(7).random((1, 30, 40))
    a1, b1 = crop_pair_with_noise(img, 10, 0.2, seed=8, long_side=40)
    a2, b2 = crop_pair_with_noise(img, 10, 0.2, seed=8, long_side=40)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    a3, _ = crop_pair_with_noise(img, 10, 0.2, seed=9, long_side=40)
    assert not np.array_equal(a1, a3)


def test_crop_pair_resizes_long_side():
    img = np.random.default_rng(10).random((1, 10, 20))
    a, b = crop_pair_with_noise(img, 8, 0.0, seed=0, long_side=16)
    assert a.shape == (1, 8, 8)


def test_crop_pair_rejects_oversized_crop():
    img = np.zeros((1, 20, 20))
    with pytest.raises(ValueError, match="too large"):
        crop_pair_with_noise(img, 20, 0.0, seed=0, long_side=20)


# ---------------------------------------------------------------------------
# piecewise region shifts
# ---------------------------------------------------------------------------

def test_piecewise_shift_moves_each_region():
    canvas = np.zeros((1, 10, 10))
    canvas[0, 2, 2] = 1.0
    canvas[0, 7, 7] = 2.0
    t = PiecewiseTransform(((Rect(0, 0, 5, 5), (1, 0)),
                            (Rect(5, 5, 5, 5), (-1, 1))))
    out = piecewise_shift(canvas, t)
    assert out[0, 3, 2] == 1.0 and out[0, 2, 2] == 0.0
    assert out[0, 6, 8] == 2.0 and out[0, 7, 7] == 0.0
    assert out.sum() == canvas.sum()


def test_piecewise_shift_untouched_outside_pieces():
    canvas = np.zeros((1, 8, 8))
    canvas[0, 0, 7] = 9.0  # outside the only piece
    canvas[0, 2, 2] = 1.0
    out = piecewise_shift(canvas, PiecewiseTransform(((Rect(1, 1, 4, 4), (0, 1)),)))
    assert out[0, 0, 7] == 9.0
    assert out[0, 2, 3] == 1.0


def test_piecewise_shift_rejects_overlap():
    canvas = np.zeros((1, 8, 8))
    t = PiecewiseTransform(((Rect(0, 0, 5, 5), (0, 0)), (Rect(4, 4, 3, 3), (0, 0))))
    with pytest.raises(ValueError, match="overlap"):
        piecewise_shift(canvas, t)


def test_piecewise_shift_rejects_out_of_canvas_rect():
    canvas = np.zeros((1, 8, 8))
    with pytest.raises(ValueError, match="outside"):
        piecewise_shift(canvas, PiecewiseTransform(((Rect(5, 5, 5, 5), (0, 0)),)))


def test_piecewise_shift_rejects_content_leaving_region():
    canvas = np.zeros((1, 8, 8))
    canvas[0, 0, 0] = 1.0
    t = PiecewiseTransform(((Rect(0, 0, 4, 4), (-1, 0)),))
    with pytest.raises(ValueError, match="shifted out"):
        piecewise_shift(canvas, t)


def test_piecewise_shift_zero_delta_is_identity():
    canvas = np.random.default_rng(11).random((2, 8, 8))
    out = piecewise_shift(canvas, PiecewiseTransform(((Rect(0, 0, 8, 8), (0, 0)),)))
    assert np.array_equal(out, canvas)
