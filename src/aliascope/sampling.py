"""Shiftability mathematics: basis kernels, the shiftability error of a
dense response (its worst reconstruction from each subsampling grid), Nyquist
energy checks, and the pooling invariance gap behind the claim that global
pooling of a shiftable response is translation invariant.

The continuous theory is discretized to integer positions x with sub-stride
phases, which is exactly the resolution at which pixel-shift experiments can
probe it. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class KernelKind(Enum):  # the values are the names `shiftability --kernel` takes
    LINEAR_TENT = "tent"
    CUBIC_BSPLINE = "cubic"
    WINDOWED_SINC = "sinc"


@dataclass(frozen=True)
class BasisKernel:
    """Even-symmetric reconstruction kernel for subsampling factor s.

    The windowed sinc uses a raised-cosine window of half-width W (default
    8s); pure sinc is not summable, so bounded support keeps every sum
    finite. Tolerance-critical callers pass a larger W. The tent and the
    cubic B-spline have no window, and refuse a W above 0.
    """

    kind: KernelKind
    factor: int
    window_halfwidth: int = field(default=0)

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("factor must be a positive integer")
        if self.window_halfwidth < 0:
            raise ValueError(f"window half-width must be >= 0, got {self.window_halfwidth}")
        if self.kind is not KernelKind.WINDOWED_SINC and self.window_halfwidth > 0:
            raise ValueError(f"the {self.kind.value} kernel has no window, got a half-width "
                             f"of {self.window_halfwidth}")
        if self.kind is KernelKind.WINDOWED_SINC and self.window_halfwidth == 0:
            object.__setattr__(self, "window_halfwidth", 8 * self.factor)

    @property
    def support(self) -> int:
        """Half-width beyond which the kernel is identically zero."""
        if self.kind is KernelKind.LINEAR_TENT:
            return self.factor
        if self.kind is KernelKind.CUBIC_BSPLINE:
            return 2 * self.factor
        return self.window_halfwidth


def basis_kernel_eval(b: BasisKernel, x) -> np.ndarray:
    """Evaluate B_s at real offsets x (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    s = float(b.factor)
    if b.kind is KernelKind.LINEAR_TENT:
        out = np.maximum(0.0, 1.0 - np.abs(x) / s)
    elif b.kind is KernelKind.CUBIC_BSPLINE:
        t = np.abs(x) / s
        out = np.where(
            t < 1.0,
            (4.0 - 6.0 * t**2 + 3.0 * t**3) / 6.0,
            np.where(t < 2.0, (2.0 - t) ** 3 / 6.0, 0.0),
        )
    else:
        w = float(b.window_halfwidth)
        window = np.where(np.abs(x) <= w, 0.5 * (1.0 + np.cos(np.pi * x / w)), 0.0)
        out = np.sinc(x / s) * window
    return out if out.ndim else float(out)


def shiftability_error(r_dense: np.ndarray, s: int, b: BasisKernel) -> float:
    """Worst interior reconstruction error over all grid phases.

    For each phase the dense response is subsampled with step s and
    reconstructed at every interior integer position; the return value is
    max |r(x) - sum_i B_s(x - x_i) r(x_i)| over all x and phases.
    """
    r_dense = np.asarray(r_dense, dtype=np.float64)
    n = r_dense.shape[0]
    if n < 4 * s + 2 * b.support:
        raise ValueError("dense response too short for the kernel support")
    worst = 0.0
    for phase in range(s):
        pts = np.arange(phase, n, s)
        samples = r_dense[pts]
        lo = int(pts[0] + b.support)
        hi = int(pts[-1] - b.support)
        if hi < lo:
            raise ValueError("dense response too short for the kernel support")
        xq = np.arange(lo, hi + 1)
        weights = basis_kernel_eval(b, xq[:, None] - pts[None, :])
        recon = weights @ samples
        worst = max(worst, float(np.max(np.abs(recon - r_dense[xq]))))
    return worst


NYQUIST_ENERGY_TOL = 0.01  # the spectral energy share above Nyquist that still passes


@dataclass(frozen=True)
class BandlimitResult:
    shiftable: bool
    high_freq_fraction: float


def bandlimit_check(r_dense: np.ndarray, s: int) -> BandlimitResult:
    """Fraction of spectral energy above the subsampled Nyquist limit 1/(2s).

    The response is declared shiftable-per-Nyquist when that fraction is at
    most NYQUIST_ENERGY_TOL.
    """
    r_dense = np.asarray(r_dense, dtype=np.float64)
    n = r_dense.shape[0]
    if n < 2 * s:
        raise ValueError("dense response shorter than 2s")
    spectrum = np.abs(np.fft.rfft(r_dense)) ** 2
    freqs = np.fft.rfftfreq(n)
    total = float(spectrum.sum())
    if total == 0.0:
        return BandlimitResult(True, 0.0)
    high = float(spectrum[freqs > 1.0 / (2.0 * s)].sum())
    frac = high / total
    return BandlimitResult(frac <= NYQUIST_ENERGY_TOL, frac)


def pooling_invariance_gap(r_dense: np.ndarray, s: int, shifts, margin: int) -> float:
    """Worst |pooled(shifted) - pooled(unshifted)| over shifts and phases.

    Requires the dense response to have zero support within `margin` of each
    boundary, standing in for the responses being far from the image edge;
    shifting is then a plain index translation.
    """
    r_dense = np.asarray(r_dense, dtype=np.float64)
    n = r_dense.shape[0]
    shifts = [int(d) for d in shifts]
    if margin >= n // 2:
        raise ValueError("response too short for the required margin")
    if np.any(r_dense[:margin] != 0.0) or np.any(r_dense[-margin:] != 0.0):
        raise ValueError("dense response support touches the boundary margin")
    worst = 0.0
    for phase in range(s):
        pts = np.arange(phase, n, s)
        base = float(r_dense[pts].sum())  # global pooling on the grid: the plain sum
        for delta in shifts:
            shifted = np.roll(r_dense, delta)
            worst = max(worst, abs(float(shifted[pts].sum()) - base))
    return worst
