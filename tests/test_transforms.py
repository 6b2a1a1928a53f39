import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aliascope import transforms
from aliascope.transforms import (
    EmbeddingProtocol,
    FillMode,
    PiecewiseTransform,
    Rect,
    bilinear_resize,
    crop_pair_with_noise,
    embed,
    embedded_extent,
    inpaint_fill,
    paste,
    piecewise_shift,
    resize_longest_side,
)


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def test_resize_identity():
    img = np.random.default_rng(0).random((1, 5, 5))
    out = bilinear_resize(img, 5, 5)
    assert np.array_equal(out, img)
    assert out is not img


def test_resize_constant_stays_constant():
    img = np.full((2, 6, 6), 0.7)
    for new_w in (3, 5, 7, 12):
        out = bilinear_resize(img, new_w, new_w)
        assert np.allclose(out, 0.7, atol=1e-12)


def test_resize_preserves_aspect_ratio():
    img = np.zeros((1, 10, 20))
    out = resize_longest_side(img, 10)
    assert out.shape == (1, 5, 10)
    out = resize_longest_side(np.zeros((1, 7, 5)), 14)
    assert out.shape == (1, 14, 10)


def test_resize_2x_half_pixel_centers():
    # doubling width puts two dst pixels at src offsets -0.25 and +0.25:
    # clamping at the edges, interior pixels mix neighbors with weights 3/4, 1/4
    img = np.array([[[0.0, 4.0, 8.0, 12.0]]])
    out = bilinear_resize(img, 1, 8)[0, 0]
    expected = [0.0, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 12.0]
    assert np.allclose(out, expected, atol=1e-12)


def test_resize_matches_scipy_zoom_on_linear_ramp():
    # bilinear interpolation reproduces any affine function exactly away
    # from the clamped border, whatever the implementation
    h, w = 8, 8
    ramp = (np.arange(h)[:, None] * 2.0 + np.arange(w)[None, :] * 3.0)[None]
    out = bilinear_resize(ramp, 16, 16)[0]
    ys = np.clip((np.arange(16) + 0.5) * h / 16 - 0.5, 0, h - 1)
    xs = np.clip((np.arange(16) + 0.5) * w / 16 - 0.5, 0, w - 1)
    expected = ys[:, None] * 2.0 + xs[None, :] * 3.0
    assert np.allclose(out, expected, atol=1e-12)


def _resize_one_image(img, new_h, new_w):
    """The resize of one (c, h, w) image as it was before stacks: coordinate
    tables built on each call."""
    c, h, w = img.shape

    def src_coords(n_dst, n_src):
        x = (np.arange(n_dst) + 0.5) * n_src / n_dst - 0.5
        x = np.clip(x, 0.0, n_src - 1.0)
        lo = np.floor(x).astype(int)
        hi = np.minimum(lo + 1, n_src - 1)
        return lo, hi, x - lo

    ry0, ry1, fy = src_coords(new_h, h)
    cx0, cx1, fx = src_coords(new_w, w)
    top = img[:, ry0][:, :, cx0] * (1 - fx) + img[:, ry0][:, :, cx1] * fx
    bot = img[:, ry1][:, :, cx0] * (1 - fx) + img[:, ry1][:, :, cx1] * fx
    return top * (1 - fy[None, :, None]) + bot * fy[None, :, None]


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("new_hw", [(4, 5), (13, 9)], ids=["shrink", "grow"])
def test_resizing_a_stack_resizes_each_image_alone(c, new_hw):
    stack = np.random.default_rng(c).random((4, c, 7, 6))
    out = bilinear_resize(stack, *new_hw)
    assert out.shape == (4, c, *new_hw)
    for img, got in zip(stack, out):
        assert np.array_equal(got, _resize_one_image(img, *new_hw))
        assert np.array_equal(bilinear_resize(img, *new_hw), got)
    assert np.array_equal(resize_longest_side(stack, 9), bilinear_resize(stack, 9, 8))


def test_resize_rejects_bad_width():
    for new_h, new_w in ((4, 0), (0, 4)):
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros((1, 4, 4)), new_h, new_w)


def test_resize_longest_side_orientation():
    assert resize_longest_side(np.zeros((1, 4, 8)), 16).shape == (1, 8, 16)
    assert resize_longest_side(np.zeros((1, 8, 4)), 16).shape == (1, 16, 8)


def test_resize_longest_side_is_the_embedded_extent():
    # the audits draw positions for embedded_extent, so the resize must land
    # on it exactly, portrait images included (a 2x1 image at size 1 is 1x1)
    for h in range(1, 40):
        for w in range(1, 40):
            img = np.zeros((1, h, w))
            for size in range(1, 40):
                extent = embedded_extent(h, w, size)
                assert max(extent) == size
                assert resize_longest_side(img, size).shape[1:] == extent, (h, w, size)


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


def _mask(rect, h, w):
    known = np.zeros((h, w), dtype=bool)
    known[rect.top:rect.top + rect.height, rect.left:rect.left + rect.width] = True
    return known


def _fill_alone(canvas, rect):
    """`inpaint_fill` of one (c, h, w) canvas, as a stack of one."""
    return inpaint_fill(canvas[None], [rect])[0]


def _general_gram_fill(canvas, known):
    """Oracle: the capacitance-matrix fill for any known mask, with the ring's
    block of pinv(L) formed as the Gram S^T S, S = sqrt(pinv(Lambda)) C[:, R]."""
    c, h, w = canvas.shape
    cy, cx, lam_pinv, _ = transforms._grid_operator(h, w)
    unknown = ~known
    ys, xs = np.nonzero(known & (transforms._neighbour_sum(unknown.astype(float)) > 0))
    r = len(ys)
    s = (np.sqrt(lam_pinv)[:, :, None] * cy[:, None, ys] * cx[None, :, xs]).reshape(-1, r)
    bordered = np.zeros((r + 1, r + 1))
    bordered[:r, :r] = s.T @ s
    bordered[:r, r] = bordered[r, :r] = 1.0
    rhs = np.zeros((r + 1, c))
    rhs[:r] = canvas[:, ys, xs].T
    sol = np.linalg.solve(bordered, rhs)
    load = np.zeros((c, h, w))
    load[:, ys, xs] = sol[:r].T
    filled = cy.T @ (lam_pinv * (cy @ load @ cx.T)) @ cx + sol[r][:, None, None]
    return np.where(known, canvas, filled)


def test_inpaint_constant_boundary():
    canvas = np.zeros((1, 9, 7))
    rect = Rect(2, 1, 4, 3)
    known = _mask(rect, 9, 7)
    canvas[0, known] = 3.0
    out = _fill_alone(canvas, rect)
    assert np.allclose(out, 3.0, atol=1e-12)
    assert np.array_equal(out[0, known], canvas[0, known])


def test_inpaint_matches_dense_solve():
    rng = np.random.default_rng(1)
    canvas = rng.random((1, 8, 8))
    rect = Rect(3, 2, 3, 4)
    got = _fill_alone(canvas, rect)
    want = _dense_harmonic_solve(canvas, _mask(rect, 8, 8))
    assert np.max(np.abs(got - want)) < 1e-10


def test_inpaint_respects_maximum_principle():
    rng = np.random.default_rng(2)
    canvas = rng.random((1, 10, 10))
    rect = Rect(4, 3, 4, 5)
    known = _mask(rect, 10, 10)
    out = _fill_alone(canvas, rect)
    lo, hi = canvas[0, known].min(), canvas[0, known].max()
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


def test_inpaint_edge_cases():
    canvas = np.random.default_rng(3).random((1, 4, 4))
    assert np.array_equal(_fill_alone(canvas, Rect(0, 0, 4, 4)), canvas)
    for rect in (Rect(0, 0, 0, 4), Rect(1, 1, 4, 0)):
        with pytest.raises(ValueError, match="known pixel"):
            _fill_alone(canvas, rect)
    for rect in (Rect(-1, 0, 2, 2), Rect(3, 0, 2, 2), Rect(0, 2, 1, 3)):
        with pytest.raises(ValueError, match="outside"):
            _fill_alone(canvas, rect)
    with pytest.raises(ValueError, match="1 rectangles for 2 canvases"):
        inpaint_fill(np.stack([canvas, canvas]), [Rect(0, 0, 2, 2)])


def _layout(rect, h, w):
    """The ring layout of a rectangle: the length of each `_ring_sides` entry."""
    return tuple(map(len, transforms._ring_sides(rect, h, w)))


# edge-touching and interior rectangles of four layouts on 9x10 canvases,
# the interior layout on a single canvas
MIXED = [Rect(0, 0, 4, 5), Rect(3, 2, 4, 5), Rect(0, 3, 4, 5), Rect(2, 0, 4, 5),
         Rect(5, 5, 4, 5), Rect(5, 3, 4, 5), Rect(3, 5, 4, 5)]


def test_a_stack_of_mixed_ring_layouts_is_filled_as_each_canvas_alone():
    layouts = [_layout(rect, 9, 10) for rect in MIXED]
    assert len(set(layouts)) == 4 and layouts.count(_layout(Rect(3, 2, 4, 5), 9, 10)) == 1
    stack = np.random.default_rng(12).normal(size=(len(MIXED), 2, 9, 10))
    filled = inpaint_fill(stack, MIXED)
    for one, canvas, rect in zip(filled, stack, MIXED, strict=True):
        assert np.array_equal(one, _fill_alone(canvas, rect)), rect


def test_a_stack_is_solved_once_per_ring_layout(monkeypatch):
    calls = []
    fill = transforms._fill_layout
    monkeypatch.setattr(transforms, "_fill_layout",
                        lambda canvases, rects, sides: calls.append(rects)
                        or fill(canvases, rects, sides))
    inpaint_fill(np.random.default_rng(13).random((len(MIXED), 1, 9, 10)), MIXED)
    layouts = [{_layout(r, 9, 10) for r in rects} for rects in calls]
    assert all(len(layout) == 1 for layout in layouts)  # each solve holds one layout
    assert len(set().union(*layouts)) == len(calls) == 4  # and no layout takes two
    assert sorted(map(len, calls)) == [1, 2, 2, 2]



@pytest.mark.parametrize("rect", [Rect(1, 2, 3, 3), Rect(0, 0, 6, 5)],
                         ids=["fill", "full coverage"])
def test_inpaint_returns_a_new_array(rect):
    canvas = np.random.default_rng(4).random((2, 6, 5))
    before = canvas.copy()
    out = _fill_alone(canvas, rect)
    out[:] = -1.0
    assert np.array_equal(canvas, before)


@pytest.mark.parametrize("rect", [Rect(0, 2, 7, 3), Rect(0, 0, 7, 1), Rect(2, 0, 3, 6),
                                  Rect(6, 0, 1, 6)],
                         ids=["full height", "full height left", "full width",
                              "full width bottom"])
def test_inpaint_fills_a_rectangle_spanning_one_axis(monkeypatch, rect):
    # one side of the rectangle spans the canvas, the other does not: the
    # fill runs, it is not the full-coverage early return
    calls = []
    ring_sides = transforms._ring_sides
    monkeypatch.setattr(transforms, "_ring_sides",
                        lambda *args: calls.append(args) or ring_sides(*args))
    canvas = np.random.default_rng(6).normal(size=(2, 7, 6))
    got = _fill_alone(canvas, rect)
    known = _mask(rect, 7, 6)
    assert len(calls) == 1
    assert np.max(np.abs(got - _dense_harmonic_solve(canvas, known))) < 1e-10
    assert np.array_equal(got[:, known], canvas[:, known])

def _rects(h, w):
    """Known rectangles: any, flush with a chosen canvas edge, a 1-pixel-wide
    strip, or a single pixel."""
    def box(top, height, left, width):
        height, width = min(height, h - top), min(width, w - left)
        return Rect(top, left, height, width)

    any_rect = st.builds(box, st.integers(0, h - 1), st.integers(1, h),
                         st.integers(0, w - 1), st.integers(1, w))
    flush = st.builds(
        lambda rect, edge: {"top": Rect(0, rect.left, rect.top + rect.height, rect.width),
                            "bottom": Rect(rect.top, rect.left, h - rect.top, rect.width),
                            "left": Rect(rect.top, 0, rect.height, rect.left + rect.width),
                            "right": Rect(rect.top, rect.left, rect.height, w - rect.left)}[edge],
        any_rect, st.sampled_from(["top", "bottom", "left", "right"]))
    row_strip = st.builds(lambda y, left, width: box(y, 1, left, width),
                          st.integers(0, h - 1), st.integers(0, w - 1), st.integers(1, w))
    col_strip = st.builds(lambda x, top, height: box(top, height, x, 1),
                          st.integers(0, w - 1), st.integers(0, h - 1), st.integers(1, h))
    single = st.builds(lambda y, x: Rect(y, x, 1, 1), st.integers(0, h - 1), st.integers(0, w - 1))
    return st.one_of(any_rect, flush, row_strip, col_strip, single)


SIDES = st.one_of(st.just(1), st.integers(1, 12))


@settings(deadline=None, max_examples=200)
@given(h=SIDES, w=SIDES, channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_inpaint_is_the_exact_harmonic_fill(h, w, channels, seed, data):
    rect = data.draw(_rects(h, w))
    known = _mask(rect, h, w)
    assume(not known.all())
    rng = np.random.default_rng(seed)
    canvas = rng.normal(size=(channels, h, w))
    got = _fill_alone(canvas, rect)
    assert np.max(np.abs(got - _dense_harmonic_solve(canvas, known))) < 1e-10
    assert np.array_equal(got[:, known], canvas[:, known])
    # up to 5 rectangles of the same size, of any ring layouts, filled as
    # one stack: each canvas gets the bits it gets alone
    moved = [Rect(top, left, rect.height, rect.width)
             for top in range(h - rect.height + 1) for left in range(w - rect.width + 1)]
    spread = moved[::(len(moved) + 4) // 5]
    stack = rng.normal(size=(len(spread), channels, h, w))
    filled = inpaint_fill(stack, spread)
    for one, moved, canvas_alone in zip(filled, spread, stack, strict=True):
        assert np.array_equal(one, _fill_alone(canvas_alone, moved)), moved


def test_ring_sides_are_the_known_pixels_next_to_unknown_ones():
    # every rectangle on canvases up to 6x6: each ring pixel once, corners included
    for h in range(1, 7):
        for w in range(1, 7):
            for top, left, height, width in itertools.product(range(h), range(w), range(1, h + 1),
                                                              range(1, w + 1)):
                if top + height > h or left + width > w:
                    continue
                rect = Rect(top, left, height, width)
                known = _mask(rect, h, w)
                rows, xs, cols, ys = transforms._ring_sides(rect, h, w)
                ring = [(y, x) for y in rows for x in xs] + [(y, x) for x in cols for y in ys]
                unknown_nbrs = transforms._neighbour_sum((~known).astype(float))
                want = {tuple(p) for p in np.argwhere(known & (unknown_nbrs > 0))}
                assert len(ring) == len(set(ring)) and set(ring) == want, rect


def test_inpaint_matches_the_general_gram_at_96():
    # a 60 px embed on a 96x96 canvas: 206 ring pixels and 5856 unknown
    # ones, past the dense oracle's reach, so the general-mask Gram is the
    # reference
    rng = np.random.default_rng(8)
    rect = Rect(17, 29, 60, 45)
    canvas = rng.random((2, 96, 96))
    got = _fill_alone(canvas, rect)
    known = _mask(rect, 96, 96)
    assert np.max(np.abs(got - _general_gram_fill(canvas, known))) < 1e-10
    assert np.array_equal(got[:, known], canvas[:, known])


def test_embed_inpaint_is_exact_at_every_position():
    img = np.random.default_rng(5).random((2, 5, 7))
    for top in range(14 - 5 + 1):
        for left in range(14 - 7 + 1):
            proto = EmbeddingProtocol(14, 14, 7, (top, left), FillMode.INPAINT)
            canvas, mask = embed(img, proto)
            want = _dense_harmonic_solve(np.where(mask, canvas, 0.0), mask)
            assert np.max(np.abs(canvas - want)) < 1e-10, (top, left)


def test_inpaint_refuses_a_fill_outside_its_error_bound(monkeypatch):
    canvas = np.random.default_rng(7).random((1, 8, 8))
    rect = Rect(2, 3, 3, 3)
    known = _mask(rect, 8, 8)
    with pytest.raises(RuntimeError, match="residual"):
        _fill_alone(np.where(known, np.nan, canvas), rect)
    cy, cx, lam_pinv, deg = transforms._grid_operator(8, 8)
    wrong = lam_pinv * np.linspace(1.0, 1.2, 8)[:, None]  # not the grid's spectrum
    monkeypatch.setattr(transforms, "_grid_operator", lambda h, w: (cy, cx, wrong, deg))
    with pytest.raises(RuntimeError, match="residual"):
        _fill_alone(canvas, rect)


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
    assert np.allclose(canvas[0, ~mask], 5.0, atol=1e-12)  # harmonic fill of constant


def test_paste_at_a_moved_position_translates_content():
    img = np.full((1, 3, 3), 1.0)
    base, _ = embed(img, PROTO)
    resized = resize_longest_side(img, PROTO.embed_size)
    shifted = np.zeros_like(base)
    assert paste(resized, (3, 3), shifted) is None  # writes in place
    assert np.array_equal(shifted, np.roll(base, 1, axis=1))
    shifted = np.zeros_like(base)
    paste(resized, (2, 2), shifted)
    assert np.array_equal(shifted, np.roll(base, -1, axis=2))


@pytest.mark.parametrize("fill", FillMode)
def test_embed_is_resize_then_paste(fill):
    img = np.random.default_rng(3).random((2, 5, 7))
    proto = EmbeddingProtocol(12, 14, 9, (1, 4), fill)
    canvas, mask = embed(img, proto)
    pasted = np.zeros((2, 12, 14))
    paste(resize_longest_side(img, 9), proto.position, pasted)
    if fill is FillMode.INPAINT:  # paste leaves the background to its caller
        pasted = _fill_alone(pasted, Rect(1, 4, 6, 9))
    assert np.array_equal(canvas, pasted)
    assert np.array_equal(np.argwhere(mask), [(r, c) for r in range(1, 7) for c in range(4, 13)])


# ---------------------------------------------------------------------------
# crop pairs with shared noise
# ---------------------------------------------------------------------------

def test_crop_pair_one_pixel_apart(monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 40)
    rng = np.random.default_rng(4)
    img = rng.random((1, 30, 40))
    a, b = crop_pair_with_noise(img, crop_size=10, noise_scale=0.0, seed=5)
    assert a.shape == b.shape == (1, 10, 10)
    # identical content shifted one horizontal pixel
    assert np.array_equal(a[:, :, 1:], b[:, :, :-1])


def test_crop_pair_noise_is_shared(monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 40)
    img = np.full((1, 30, 40), 0.4)
    a, b = crop_pair_with_noise(img, 10, noise_scale=0.94, seed=6)
    # same noise field sampled one pixel apart: overlap columns agree exactly
    assert np.array_equal(a[:, :, 1:], b[:, :, :-1])
    assert not np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0  # pixels stay in [0, 1]
    assert a.max() == 1.0  # clipping engaged for this scale


def test_crop_pair_seed_deterministic(monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 40)
    img = np.random.default_rng(7).random((1, 30, 40))
    a1, b1 = crop_pair_with_noise(img, 10, 0.2, seed=8)
    a2, b2 = crop_pair_with_noise(img, 10, 0.2, seed=8)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    a3, _ = crop_pair_with_noise(img, 10, 0.2, seed=9)
    assert not np.array_equal(a1, a3)


def test_crop_pair_resizes_long_side(monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 16)
    img = np.random.default_rng(10).random((1, 10, 20))
    a, b = crop_pair_with_noise(img, 8, 0.0, seed=0)
    assert a.shape == (1, 8, 8)


def test_crop_pair_rejects_oversized_crop(monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 20)
    img = np.zeros((1, 20, 20))
    with pytest.raises(ValueError, match="too large"):
        crop_pair_with_noise(img, 20, 0.0, seed=0)


@pytest.mark.parametrize("crop_size", [0, -3])
def test_crop_pair_rejects_empty_crop(crop_size, monkeypatch):
    monkeypatch.setattr(transforms, "CROP_LONG_SIDE", 20)
    with pytest.raises(ValueError, match="crop size must be >= 1"):
        crop_pair_with_noise(np.zeros((1, 20, 20)), crop_size, 0.0, seed=0)


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
