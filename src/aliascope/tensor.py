"""The array conventions and the few array primitives every module shares.

All images and feature maps are numpy float64 arrays in (n, c, h, w) order
(row-major). 64-bit storage is deliberate: the invariance checks assert
tolerances down to 1e-9, which float32 would blur.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class PadMode(Enum):
    ZERO = "zero"
    CIRCULAR = "circular"


def argmax_flat(t: np.ndarray) -> int:
    """Index of the maximum in flat row-major order; smallest index wins ties."""
    arr = np.asarray(t)
    if arr.size == 0:
        raise ValueError("argmax of empty tensor")
    return int(np.argmax(arr))


def spatial_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the spatial (h, w) dims, one total per leading index.

    For an (n, c, h, w) tensor the result has shape (n, c).
    """
    if t.ndim < 3:
        raise ValueError("spatial_sum requires spatial dims")
    return np.asarray(t, dtype=np.float64).sum(axis=(-2, -1))
