"""Image-plane manipulations behind the audit protocols: embedding into a
canvas, harmonic background inpainting, 1-pixel translations and rescalings,
shifted crop pairs with shared noise, and piecewise region shifts.

The inpainted background is the exact discrete harmonic fill around the
embedded rectangle, solved directly (a capacitance-matrix solve on the
DCT-diagonalised grid Laplacian, built side by side from the rectangle's
ring in O(h*w*(n_x + n_y)) for sides of n_x and n_y pixels, see
`inpaint_fill`) and checked against a stated residual bound for every
canvas, so it does not depend on where in the canvas the image sits.
`inpaint_fill` fills a stack of canvases in one pass per ring layout, each
canvas getting the bits it gets alone.

The resize convention (half-pixel centers, clamped) is pinned explicitly:
1-pixel-rescaling audits are exquisitely sensitive to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class FillMode(Enum):
    BLACK = "black"
    INPAINT = "inpaint"


@dataclass(frozen=True)
class EmbeddingProtocol:
    canvas_h: int
    canvas_w: int
    embed_size: int  # longest side of the embedded image, in pixels
    position: tuple[int, int]  # (row, col) of the top-left corner
    fill: FillMode = FillMode.BLACK


@dataclass(frozen=True)
class Rect:
    top: int
    left: int
    height: int
    width: int


@dataclass(frozen=True)
class PiecewiseTransform:
    """Disjoint rectangular subareas, each with its own integer shift."""

    pieces: tuple[tuple[Rect, tuple[int, int]], ...]


@lru_cache(maxsize=32)
def _resize_taps(n_dst: int, n_src: int) -> tuple[np.ndarray, ...]:
    """(lo, hi, 1 - f, f): the two source pixels of each destination pixel x
    and their weights, for the source coordinate lo + f = (x + 0.5) * src /
    dst - 0.5, clamped. Read-only arrays: every caller shares them."""
    x = np.clip((np.arange(n_dst) + 0.5) * n_src / n_dst - 0.5, 0.0, n_src - 1.0)
    lo = np.floor(x).astype(int)
    hi = np.minimum(lo + 1, n_src - 1)
    taps = (lo, hi, 1 - (x - lo), x - lo)
    for a in taps:
        a.setflags(write=False)
    return taps


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Resize (..., h, w) to (..., new_h, new_w) with bilinear weights
    (`_resize_taps`). Each image of a stack is resized alone, so it gets the
    bits it gets on its own."""
    if new_h < 1 or new_w < 1:
        raise ValueError("new size must be >= 1")
    h, w = img.shape[-2:]
    if new_w == w and new_h == h:
        return img.copy()
    ry0, ry1, gy, fy = _resize_taps(new_h, h)
    cx0, cx1, gx, fx = _resize_taps(new_w, w)
    # each row's column pass is the same whichever destination row reads it
    cols = img[..., cx0] * gx + img[..., cx1] * fx
    return cols[..., ry0, :] * gy[:, None] + cols[..., ry1, :] * fy[:, None]


def embedded_extent(h: int, w: int, size: int) -> tuple[int, int]:
    """(h, w) of an h x w image resized so its longest side is `size`; the
    other side keeps the aspect ratio, rounded, and is at least 1."""
    if w >= h:
        return max(1, round(h * size / w)), size
    return size, max(1, round(w * size / h))


def resize_longest_side(img: np.ndarray, size: int) -> np.ndarray:
    """Resize (..., h, w) so the longest side is `size`: to exactly
    `embedded_extent`, the extent the audits draw positions for."""
    return bilinear_resize(img, *embedded_extent(*img.shape[-2:], size))


@lru_cache(maxsize=8)
def _grid_operator(h: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C_y, C_x, pinv(Lambda), deg) of the h x w grid Laplacian.

    The 4-neighbour grid graph's Laplacian, with in-grid neighbours only, is
    L = C^T Lambda C for the orthonormal 2-D DCT-II C = C_y (x) C_x (rows are
    frequencies) and lambda_pq = (2 - 2cos(pi p/h)) + (2 - 2cos(pi q/w)).
    Only lambda_00 is 0, and pinv(Lambda) holds 0 there. deg is the (h, w)
    count of in-grid neighbours. The arrays are read-only: every caller
    shares them.
    """
    def dct(n):
        k = np.arange(n)[:, None]
        c = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
        c[0] = np.sqrt(1.0 / n)
        return c, 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)

    cy, ly = dct(h)
    cx, lx = dct(w)
    lam = ly[:, None] + lx[None, :]
    lam[0, 0] = np.inf  # the constant mode: pinv sends it to 0
    lam_pinv = 1.0 / lam
    deg = _neighbour_sum(np.ones((h, w)))
    for a in (cy, cx, lam_pinv, deg):
        a.setflags(write=False)
    return cy, cx, lam_pinv, deg


def _neighbour_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each pixel's in-grid 4-neighbours over the last two axes."""
    out = np.zeros_like(x)
    out[..., 1:, :] += x[..., :-1, :]
    out[..., :-1, :] += x[..., 1:, :]
    out[..., :, 1:] += x[..., :, :-1]
    out[..., :, :-1] += x[..., :, 1:]
    return out


def _ring_sides(rect: Rect, h: int, w: int) -> tuple[list[int], range, list[int], range]:
    """(rows, X, cols, Y): the ring of a known rectangle in an h x w canvas.

    The ring is every row in `rows` over the columns X (the top and bottom
    sides) and every column in `cols` over the rows Y (the left and right
    sides). A side on the canvas edge has no unknown neighbour and is absent;
    a corner is counted once, on its row, so Y is the rectangle's rows less
    `rows`.
    """
    bottom, right = rect.top + rect.height - 1, rect.left + rect.width - 1
    rows = sorted({y for y, inner in ((rect.top, rect.top > 0), (bottom, bottom < h - 1)) if inner})
    cols = sorted({x for x, inner in ((rect.left, rect.left > 0), (right, right < w - 1)) if inner})
    ys = range(rect.top + (rect.top in rows), bottom + 1 - (bottom in rows))
    return rows, range(rect.left, right + 1), cols, ys


def _capacitance(rows, xs, cols, ys, cy, cx, lam_pinv) -> np.ndarray:
    """pinv(L)[R, R] for each canvas's ring R = rows x X, then cols x Y,
    side by side: a (g, r, r) stack for (g, n) arrays of each canvas's ring
    rows, X, ring columns and Y, all of one layout.

    With C = C_y (x) C_x, pinv(L)[(y, x), (y', x')] is
    sum_pq C_y[p, y] C_y[p, y'] lam_pinv[p, q] C_x[q, x] C_x[q, x'], and each
    pair of sides sums one axis in closed form (* is elementwise):
      row y_a x row y_b: C_x[:, X]^T diag(d) C_x[:, X],
                         d = (C_y[:, y_a] * C_y[:, y_b]) @ lam_pinv, O(h*w + w*n_x^2);
      col x_a x col x_b: C_y[:, Y]^T diag(e) C_y[:, Y],
                         e = lam_pinv @ (C_x[:, x_a] * C_x[:, x_b]), O(h*w + h*n_y^2);
      row y_a x col x_b: C_x[:, X]^T (lam_pinv * C_y[:, y_a] C_x[:, x_b]^T)^T C_y[:, Y],
                         O(h*w*n_y).
    Every product is one BLAS call per canvas, as when the canvas is alone,
    so each canvas of a stack gets the bits it gets alone; d as one 2-D
    product (g, h) @ (h, w) would not.
    """
    g, n_rows, n_cols = len(rows), rows.shape[1], cols.shape[1]
    # (g, w, n_x) and (g, h, n_y): C_x[:, X] and C_y[:, Y] of each canvas, in
    # the column-major layout that indexing C_x[:, X] alone gives
    bx, by = cx.T[xs].transpose(0, 2, 1), cy.T[ys].transpose(0, 2, 1)
    row_cy, col_cx = cy.T[rows], cx.T[cols]  # (g, n_rows, h), (g, n_cols, w)
    lengths = [xs.shape[1]] * n_rows + [ys.shape[1]] * n_cols
    sides = [slice(end - n, end) for n, end in zip(lengths, np.cumsum(lengths))]
    gram = np.empty((g, sum(lengths), sum(lengths)))

    def put(a, b, block):
        gram[:, sides[a], sides[b]] = block
        gram[:, sides[b], sides[a]] = block.transpose(0, 2, 1)

    for a in range(n_rows):
        for b in range(a, n_rows):
            d = (row_cy[:, a] * row_cy[:, b])[:, None, :] @ lam_pinv  # (g, 1, w)
            put(a, b, bx.transpose(0, 2, 1) @ (d.transpose(0, 2, 1) * bx))
        weighted = lam_pinv.T @ (row_cy[:, a, :, None] * by)  # (g, w, n_y): the sum over p
        for b in range(n_cols):
            put(a, n_rows + b, bx.transpose(0, 2, 1) @ (col_cx[:, b, :, None] * weighted))
    for a in range(n_cols):
        for b in range(a, n_cols):
            e = lam_pinv @ (col_cx[:, a] * col_cx[:, b])[:, :, None]  # (g, h, 1)
            put(n_rows + a, n_rows + b, by.transpose(0, 2, 1) @ (e * by))
    return gram


def inpaint_fill(canvases: np.ndarray, rects) -> np.ndarray:
    """Fill the pixels of each (c, h, w) canvas of a (g, c, h, w) stack
    outside its rectangle with the discrete harmonic (Laplace) solution.
    Returns a new stack.

    Each unknown pixel equals the mean of its in-grid 4-neighbours (a pixel
    on the image border averages only the neighbours it has); the pixels of
    the rectangle are Dirichlet data and are returned bitwise unchanged.

    Solved directly, with no iteration, by the capacitance-matrix method
    (Buzbee, Dorr, George & Golub 1971) on the grid Laplacian L = C^T Lambda C,
    which the 2-D DCT-II C diagonalises (Strang 1999). Only the ring R of r
    known pixels with an unknown neighbour couples to the unknowns: at most
    two row sides of n_x pixels and two column sides of n_y (`_ring_sides`).
    The fill is u = pinv(L) E_R f + c with sum(f) = 0 and u_R = the known
    values: one solve of the (r+1) x (r+1) bordered system
    [[pinv(L)[R, R], 1], [1^T, 0]] for all channels, then u by two DCTs of
    the load f on the ring. Time per canvas: O(h*w*(n_x + n_y)) for
    pinv(L)[R, R] (`_capacitance`), O(r^3) for the solve, O(c*h*w*(h + w))
    for the DCTs; memory O(g*(c*h*w + r^2) + h^2 + w^2). The rectangles may
    have any ring layouts: the number and length of their row and column
    sides (`_ring_sides`). A layout fixes r and the shape of every product,
    so the canvases of each layout take one capacitance pass, one stacked
    solve, one DCT pair and one residual pass (`_fill_layout`), and each
    product is one BLAS call per canvas (per channel for the DCTs): a canvas
    gets the bits it gets alone, as a stack of one. The rectangles are read
    and written through slices, with no pixel mask. On a 64x64 canvas with a
    28x28 rectangle (r = 108; 2-core Xeon VM, 1 BLAS thread, best of 500
    interleaved runs) a stack of one takes 0.50 ms, of two 0.95 ms and of
    four 1.81 ms (0.45 ms a canvas): the stack pays numpy's per-call cost
    once, not once per canvas.

    Error bound, checked for every canvas: the residual |deg*u - sum of
    neighbours| at each unknown pixel is at most 1e-9 * max(1, max|known
    value|), else RuntimeError.
    """
    g, c, h, w = canvases.shape
    if len(rects) != g:
        raise ValueError(f"{len(rects)} rectangles for {g} canvases")
    for rect in rects:
        if rect.height < 1 or rect.width < 1:
            raise ValueError("inpainting needs at least one known pixel")
        if (rect.top < 0 or rect.left < 0 or rect.top + rect.height > h
                or rect.left + rect.width > w):
            raise ValueError(f"known rectangle {rect} outside the {h}x{w} canvas")
    sides = [_ring_sides(rect, h, w) for rect in rects]
    layouts = {}  # ring layout -> the canvases whose rectangle has it
    for i, ring in enumerate(sides):
        layouts.setdefault(tuple(map(len, ring)), []).append(i)
    if len(layouts) == 1:
        return _fill_layout(canvases, rects, sides)
    out = np.empty_like(canvases)
    for each in layouts.values():
        out[each] = _fill_layout(canvases[each], [rects[i] for i in each],
                                 [sides[i] for i in each])
    return out


def _fill_layout(canvases: np.ndarray, rects, sides) -> np.ndarray:
    """`inpaint_fill` of a (g, c, h, w) stack whose rectangles, with rings
    `sides` (`_ring_sides`), share one ring layout."""
    g, c, h, w = canvases.shape
    n_rows, n_x, n_cols, n_y = map(len, sides[0])
    if n_rows == n_cols == 0:  # only full coverage has no ring
        return canvases.copy()
    cy, cx, lam_pinv, deg = _grid_operator(h, w)
    # (g, n) arrays of each canvas's ring rows, X, ring columns and Y
    rows = np.array([ring[0] for ring in sides], dtype=int).reshape(g, n_rows)
    cols = np.array([ring[2] for ring in sides], dtype=int).reshape(g, n_cols)
    xs = np.array([ring[1].start for ring in sides])[:, None] + np.arange(n_x)
    ys = np.array([ring[3].start for ring in sides])[:, None] + np.arange(n_y)
    # each ring pixel's row and column: the row sides, then the column sides
    ring_y = np.concatenate([rows.repeat(n_x, axis=1),
                             ys[:, None].repeat(n_cols, axis=1).reshape(g, -1)], axis=1)
    ring_x = np.concatenate([xs[:, None].repeat(n_rows, axis=1).reshape(g, -1),
                             cols.repeat(n_y, axis=1)], axis=1)
    each = np.arange(g)[:, None]
    r = ring_y.shape[1]
    bordered = np.zeros((g, r + 1, r + 1))
    bordered[:, :r, :r] = _capacitance(rows, xs, cols, ys, cy, cx, lam_pinv)
    bordered[:, :r, r] = bordered[:, r, :r] = 1.0
    rhs = np.zeros((g, r + 1, c))
    rhs[:, :r] = canvases[each, :, ring_y, ring_x]
    sol = np.linalg.solve(bordered, rhs)
    load = np.zeros((g, c, h, w))  # f on the ring: u = pinv(L) load + const
    load[each, :, ring_y, ring_x] = sol[:, :r]
    out = cy.T @ (lam_pinv * (cy @ load @ cx.T)) @ cx + sol[:, r, :, None, None]
    insides = [np.s_[i, :, rect.top:rect.top + rect.height, rect.left:rect.left + rect.width]
               for i, rect in enumerate(rects)]
    for inside in insides:
        out[inside] = canvases[inside]
    residual = np.abs(deg * out - _neighbour_sum(out))
    for inside in insides:
        residual[inside] = 0.0
    for worst, inside in zip(residual.max(axis=(1, 2, 3)).tolist(), insides):
        bound = 1e-9 * max(1.0, float(np.abs(canvases[inside]).max()))
        if not worst <= bound:  # also refuses NaN
            raise RuntimeError(f"harmonic fill residual {worst:.3g} exceeds its bound {bound:.3g}")
    return out


def embed(img: np.ndarray, proto: EmbeddingProtocol) -> tuple[np.ndarray, np.ndarray]:
    """(canvas, mask): the image resized to proto's embed size, pasted on a
    new canvas (`paste`) and, with an inpaint fill, filled around as a stack
    of one (`inpaint_fill`); and the mask of its pixels."""
    resized = resize_longest_side(img, proto.embed_size)
    canvas = np.zeros((img.shape[0], proto.canvas_h, proto.canvas_w))
    paste(resized, proto.position, canvas)
    (r, col), (eh, ew) = proto.position, resized.shape[1:]
    if proto.fill is FillMode.INPAINT:
        canvas = inpaint_fill(canvas[None], [Rect(r, col, eh, ew)])[0]
    mask = np.zeros((proto.canvas_h, proto.canvas_w), dtype=bool)
    mask[r:r + eh, col:col + ew] = True
    return canvas, mask


def check_fits(eh: int, ew: int, position: tuple[int, int], h: int, w: int) -> None:
    """Raise ValueError unless an eh x ew image at `position` fits an h x w canvas."""
    r, col = position
    if r < 0 or col < 0 or r + eh > h or col + ew > w:
        raise ValueError(f"embedded image {eh}x{ew} at {position} overflows {h}x{w} canvas")


def paste(resized: np.ndarray, position: tuple[int, int], out: np.ndarray) -> None:
    """Write a resized (c, eh, ew) image into `out`, a zeroed (c, h, w)
    canvas, with its top-left corner at `position`. The background is left
    as it is: the caller fills it (`embed` alone, the audits' canvas builder
    a chunk at a time, by `inpaint_fill`)."""
    c, eh, ew = resized.shape
    check_fits(eh, ew, position, *out.shape[1:])
    r, col = position
    out[:, r:r + eh, col:col + ew] = resized


CROP_LONG_SIDE = 400  # pixels on the long side of an image before its crops are cut


def check_crop(shape, crop_size: int) -> None:
    """Raise ValueError unless `crop_pair_with_noise` can cut crops from a (c, h, w) image."""
    if crop_size < 1:
        raise ValueError(f"crop size must be >= 1, got {crop_size}")
    h, w = embedded_extent(*shape[-2:], CROP_LONG_SIDE)
    if crop_size > h or crop_size + 1 > w:
        raise ValueError(f"crop {crop_size} too large for resized image {h}x{w}")


def crop_pair_with_noise(img: np.ndarray, crop_size: int, noise_scale: float,
                         seed: int) -> np.ndarray:
    """Two crops one horizontal pixel apart, sharing one pre-crop noise field,
    as one (2, c, crop_size, crop_size) array.

    The image ([0, 1] pixels) is first resized so its long side is
    `CROP_LONG_SIDE` pixels; one Uniform[0,1]*noise_scale field is added to
    the whole image before cropping (so the noise is identical in the two
    crops up to the 1-pixel translation) and values are clipped to [0, 1].
    """
    check_crop(img.shape, crop_size)
    resized = resize_longest_side(img, CROP_LONG_SIDE)
    c, h, w = resized.shape
    rng = np.random.default_rng(seed)
    noisy = resized
    if noise_scale != 0:
        noisy = resized + rng.uniform(0.0, 1.0, resized.shape) * noise_scale
    noisy = np.clip(noisy, 0.0, 1.0)
    top = int(rng.integers(0, h - crop_size + 1))
    left = int(rng.integers(0, w - crop_size))  # leave room for the +1 shift
    return np.stack([noisy[:, top:top + crop_size, left + dx:left + dx + crop_size]
                     for dx in (0, 1)])


def piecewise_shift(canvas: np.ndarray, t: PiecewiseTransform) -> np.ndarray:
    """Shift each subarea's content by its own displacement.

    Vacated pixels are zero-filled. Errors if subareas overlap or if nonzero
    content would leave its subarea.
    """
    c, h, w = canvas.shape
    occupied = np.zeros((h, w), dtype=bool)
    out = canvas.copy()
    for rect, (dy, dx) in t.pieces:
        if (rect.top < 0 or rect.left < 0 or rect.height < 1 or rect.width < 1
                or rect.top + rect.height > h or rect.left + rect.width > w):
            raise ValueError(f"subarea {rect} outside canvas")
        region = (slice(rect.top, rect.top + rect.height),
                  slice(rect.left, rect.left + rect.width))
        if occupied[region].any():
            raise ValueError("subareas overlap")
        occupied[region] = True
        sub = canvas[:, region[0], region[1]]
        if abs(dy) >= rect.height or abs(dx) >= rect.width:
            raise ValueError("shift larger than subarea")
        shifted = np.zeros_like(sub)
        src_y = slice(max(0, -dy), rect.height - max(0, dy))
        src_x = slice(max(0, -dx), rect.width - max(0, dx))
        dst_y = slice(max(0, dy), rect.height - max(0, -dy))
        dst_x = slice(max(0, dx), rect.width - max(0, -dx))
        shifted[:, dst_y, dst_x] = sub[:, src_y, src_x]
        lost = sub.copy()
        lost[:, src_y, src_x] = 0.0
        if np.any(lost != 0.0):
            raise ValueError("nonzero content shifted out of its subarea")
        out[:, region[0], region[1]] = shifted
    return out
