"""Numeric verification of the three invariance results: the observation
(stride-1 + global pooling is exactly invariant), the claim (shiftable
responses pool invariantly on the grid), and the corollary (piecewise
constant transforms preserve the pooled response).

Each check returns the measured worst-case gaps so callers can assert
against their own tolerances; `verify_all` applies the standard ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, sampling
from .tensor import PadMode, spatial_sum
from .transforms import PiecewiseTransform, Rect, piecewise_shift


def _stride1_spec(h: int, w: int) -> nn.NetworkSpec:
    """Two stride-1 circular convs and a gap head: exactly shift invariant."""
    return nn.parse_spec(f"input 1 {h} {w}\n"
                         "conv 6 3 stride=1 pad=circular act=relu\n"
                         "conv 6 3 stride=1 pad=circular act=relu\n"
                         "gap\ndense 4\nsoftmax\n")


def _test_input(rng, shape=(1, 16, 16)) -> np.ndarray:
    """Random blob with interior support (two pixels clear of every edge)."""
    x = np.zeros(shape)
    x[:, 4:-4, 4:-4] = rng.random((shape[0], shape[1] - 8, shape[2] - 8))
    return x


def observation_check(seed: int = 0) -> float:
    """Max logit gap of a random stride-1 circular-pad gap-head net over
    every integer 2D translation of a synthetic input."""
    spec = _stride1_spec(16, 16)
    model = nn.init_model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    x = _test_input(rng)
    h, w = spec.input_shape[1:]
    # one batch of every translation; row 0 is the identity, and the forward
    # pass is batch-invariant, so it is bitwise the unshifted score
    shifted = np.stack([np.roll(x, (dy, dx), axis=(1, 2)) for dy in range(h) for dx in range(w)])
    scores = nn.forward(model, shifted)
    return float(np.max(np.abs(scores - scores[0])))


@dataclass(frozen=True)
class ClaimResult:
    shiftability: float       # of the band-limited response
    bandlimited_gap: float    # pooling gap of that response
    impulse_gap: float        # pooling gap of the center-detector response
    impulse_mass: float       # its pooled mass (the gap should equal it)


def claim_check(s: int = 2, length: int = 512) -> ClaimResult:
    """Pooling invariance for a shiftable response vs. the center detector."""
    kernel = sampling.BasisKernel(sampling.KernelKind.WINDOWED_SINC, s,
                                  window_halfwidth=96 * s)
    x = np.arange(length, dtype=np.float64)
    sigma = 2.0 * s
    bump = np.exp(-0.5 * ((x - length / 2) / sigma) ** 2)
    margin = 4 * s + 8
    bump[:kernel.support] = 0.0
    bump[-kernel.support:] = 0.0
    err = sampling.shiftability_error(bump, s, kernel)
    gap = sampling.pooling_invariance_gap(bump, s, shifts=[1, 2, 3], margin=margin)

    impulse = np.zeros(length)
    impulse[margin:length - margin:s] = 1.0  # fires only on exact grid positions
    mass = float(impulse.sum())
    impulse_gap = sampling.pooling_invariance_gap(impulse, s, shifts=[1], margin=margin)
    return ClaimResult(err, gap, impulse_gap, mass)


@dataclass(frozen=True)
class CorollaryResult:
    stride1_gap: float
    detector_gap: float


def _two_halves_transform(h: int, w: int, d1=(2, 0), d2=(-1, 1)) -> PiecewiseTransform:
    return PiecewiseTransform((
        (Rect(0, 0, h, w // 2), d1),
        (Rect(0, w // 2, h, w - w // 2), d2),
    ))


def corollary_check(seed: int = 0) -> CorollaryResult:
    """Piecewise two-region shifts: invariant for a stride-1 circular net,
    non-invariant for the stride-2 exact-center detector."""
    rng = np.random.default_rng(seed)
    h, w = 16, 32
    canvas = np.zeros((1, h, w))
    # two small blobs well inside their halves (margins cover the receptive field)
    canvas[0, 6:10, 6:10] = rng.random((4, 4))
    canvas[0, 6:10, 22:26] = rng.random((4, 4))
    t = _two_halves_transform(h, w)

    model = nn.init_model(_stride1_spec(h, w), seed=seed)
    before = spatial_sum(nn.layer_activations(model, canvas[None], 1))
    after = spatial_sum(nn.layer_activations(model, piecewise_shift(canvas, t)[None], 1))
    stride1_gap = float(np.max(np.abs(after - before)))

    # exact-center detector: 1x1 identity conv with stride 2 on isolated dots
    dots = np.zeros((1, h, w))
    dots[0, 6:10:2, 6:10:2] = 1.0
    dots[0, 6:10:2, 22:26:2] = 1.0
    det_spec = nn.make_spec((1, h, w), (nn.ConvSpec(1, 1, stride=2, pad=PadMode.ZERO),
                                        nn.GapSpec(), nn.DenseSpec(2), nn.SoftmaxSpec()))
    det = nn.init_model(det_spec, seed=0)
    det.params[0]["w"][:] = 1.0
    det.params[0]["b"][:] = 0.0
    t_odd = _two_halves_transform(h, w, d1=(1, 0), d2=(0, 0))
    b = spatial_sum(nn.layer_activations(det, dots[None], 0))
    a = spatial_sum(nn.layer_activations(det, piecewise_shift(dots, t_odd)[None], 0))
    detector_gap = float(np.max(np.abs(a - b)))
    return CorollaryResult(stride1_gap, detector_gap)


def verify_all(seed: int = 0) -> dict[str, bool]:
    """The standard pass/fail gates over all three checks."""
    obs = observation_check(seed)
    claim = claim_check()
    cor = corollary_check(seed)
    return {
        "observation": obs < 1e-9,
        "claim": (claim.shiftability < 1e-6
                  and claim.bandlimited_gap < 1e-5
                  and abs(claim.impulse_gap - claim.impulse_mass) < 1e-9),
        "corollary": cor.stride1_gap < 1e-6 and cor.detector_gap > 1e-3,
    }
