"""Image-plane manipulations behind the audit protocols: embedding into a
canvas, harmonic background inpainting, 1-pixel translations and rescalings,
shifted crop pairs with shared noise, and piecewise region shifts.

The resize convention (half-pixel centers, clamped) is pinned explicitly:
1-pixel-rescaling audits are exquisitely sensitive to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

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
class ShiftSpec:
    dy: int
    dx: int


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


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Resize (c, h, w) to (c, new_h, new_w).

    Source coordinate of destination pixel x: (x + 0.5) * src / dst - 0.5,
    clamped to the valid range; bilinear weights.
    """
    if new_h < 1 or new_w < 1:
        raise ValueError("new size must be >= 1")
    c, h, w = img.shape
    if new_w == w and new_h == h:
        return img.copy()

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


def embedded_extent(h: int, w: int, size: int) -> tuple[int, int]:
    """(h, w) of an h x w image resized so its longest side is `size`; the
    other side keeps the aspect ratio, rounded, and is at least 1."""
    if w >= h:
        return max(1, round(h * size / w)), size
    return size, max(1, round(w * size / h))


def resize_longest_side(img: np.ndarray, size: int) -> np.ndarray:
    """Resize so the longest side is `size`: to exactly `embedded_extent`,
    the extent the audits draw positions for."""
    return bilinear_resize(img, *embedded_extent(img.shape[1], img.shape[2], size))


def inpaint_fill(canvas: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Fill unknown pixels with the discrete harmonic (Laplace) solution.

    Known pixels are Dirichlet boundary data and are never modified. Jacobi
    iteration runs until the max per-pixel change drops below 1e-3 or 500
    iterations, whichever comes first.
    """
    known = np.asarray(known, dtype=bool)
    if not known.any():
        raise ValueError("inpainting needs at least one known pixel")
    if known.all():
        return canvas.copy()
    c, h, w = canvas.shape
    out = canvas.copy()
    # seed the unknowns with the mean known value for faster convergence
    mean = canvas[:, known].mean(axis=1)
    out[:, ~known] = mean[:, None]
    # neighbor counts: image-border pixels average only their in-grid neighbors
    ones = np.ones((h, w))
    padded1 = np.pad(ones, 1)
    deg = (padded1[:-2, 1:-1] + padded1[2:, 1:-1]
           + padded1[1:-1, :-2] + padded1[1:-1, 2:])
    for _ in range(500):
        padded = np.pad(out, ((0, 0), (1, 1), (1, 1)))
        nbr = (padded[:, :-2, 1:-1] + padded[:, 2:, 1:-1]
               + padded[:, 1:-1, :-2] + padded[:, 1:-1, 2:])
        new = nbr / deg[None]
        new[:, known] = canvas[:, known]
        change = float(np.max(np.abs(new - out)))
        out = new
        if change < 1e-3:
            break
    return out


def embed(img: np.ndarray, proto: EmbeddingProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Resize to the protocol's embed size and paste into the canvas.

    Returns (canvas, mask) where mask flags embedded pixels. Background is
    black or harmonically inpainted per proto.fill.
    """
    resized = resize_longest_side(img, proto.embed_size)
    c, eh, ew = resized.shape
    r, col = proto.position
    if r < 0 or col < 0 or r + eh > proto.canvas_h or col + ew > proto.canvas_w:
        raise ValueError(f"embedded image {eh}x{ew} at {proto.position} overflows "
                         f"{proto.canvas_h}x{proto.canvas_w} canvas")
    canvas = np.zeros((c, proto.canvas_h, proto.canvas_w))
    canvas[:, r:r + eh, col:col + ew] = resized
    mask = np.zeros((proto.canvas_h, proto.canvas_w), dtype=bool)
    mask[r:r + eh, col:col + ew] = True
    if proto.fill is FillMode.INPAINT:
        canvas = inpaint_fill(canvas, mask)
    return canvas, mask


def shift_embedded(img: np.ndarray, proto: EmbeddingProtocol, delta: ShiftSpec) -> np.ndarray:
    """Embed at position + delta, rerunning the fill at the new placement."""
    moved = replace(proto, position=(proto.position[0] + delta.dy,
                                     proto.position[1] + delta.dx))
    canvas, _ = embed(img, moved)
    return canvas


def scale_pair(img: np.ndarray, proto: EmbeddingProtocol, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Two embeddings at the same top-left with embed sizes w and w + 1."""
    a, _ = embed(img, replace(proto, embed_size=w))
    b, _ = embed(img, replace(proto, embed_size=w + 1))
    return a, b


def crop_pair_with_noise(img: np.ndarray, crop_size: int, noise_scale: float,
                         seed: int, long_side: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """Two crops one horizontal pixel apart, sharing one pre-crop noise field.

    The image ([0, 1] pixels) is first resized so its long side is
    `long_side` pixels; one Uniform[0,1]*noise_scale field is added to the
    whole image before cropping (so the noise is identical in the two crops
    up to the 1-pixel translation) and values are clipped to [0, 1].
    """
    resized = resize_longest_side(img, long_side)
    c, h, w = resized.shape
    if crop_size > h or crop_size + 1 > w:
        raise ValueError(f"crop {crop_size} too large for resized image {h}x{w}")
    rng = np.random.default_rng(seed)
    noisy = resized
    if noise_scale != 0:
        noisy = resized + rng.uniform(0.0, 1.0, resized.shape) * noise_scale
    noisy = np.clip(noisy, 0.0, 1.0)
    top = int(rng.integers(0, h - crop_size + 1))
    left = int(rng.integers(0, w - crop_size))  # leave room for the +1 shift
    a = noisy[:, top:top + crop_size, left:left + crop_size].copy()
    b = noisy[:, top:top + crop_size, left + 1:left + 1 + crop_size].copy()
    return a, b


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
