"""Numeric verification of the invariance results: the observation
(stride-1 + global pooling is exactly invariant), its strided form (a
circular net of cumulative stride s is exactly invariant to the shifts on
its stride lattice, and only to those, so to exactly 1/s^2 of all
translations), the claim (shiftable responses pool invariantly on the grid,
and a response is shiftable below Nyquist and not above it), and the
corollary (piecewise constant transforms preserve the pooled response).

Each check returns the measured worst-case gaps so callers can assert
against their own tolerances; `verify_all` applies the standard ones.
"Exactly invariant" means a gap below EXACT_TOL: a shift on the stride
lattice gives feature maps that are bitwise rolled copies of the unshifted
ones, but the global mean sums a rolled map in another order, so the scores
may differ by a few ulp (up to 5.6e-17 measured).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import nn, sampling
from .transforms import PiecewiseTransform, Rect, piecewise_shift


EXACT_TOL = 1e-9  # the largest gap that counts as exact invariance


def exact_invariance_fraction(factor: int) -> Fraction:
    """Fraction of 2D translations for which exact invariance is guaranteed."""
    return Fraction(1, factor * factor)


def _stride1_spec(h: int, w: int) -> nn.NetworkSpec:
    """Two stride-1 circular convs and a gap head: exactly shift invariant."""
    return nn.parse_spec(f"input 1 {h} {w}\n"
                         "conv 6 3 stride=1 pad=circular act=relu\n"
                         "conv 6 3 stride=1 pad=circular act=relu\n"
                         "gap\ndense 4\nsoftmax\n")


def _test_input(rng) -> np.ndarray:
    """Random 16x16 blob with interior support (two pixels clear of every edge)."""
    x = np.zeros((1, 16, 16))
    x[:, 4:-4, 4:-4] = rng.random((1, 8, 8))
    return x


def _strided_spec() -> nn.NetworkSpec:
    """Two circular convs, each followed by a 2x2 stride-2 max pool, and a gap
    head on 16x16 inputs: cumulative stride 4, so exactly invariant on that
    lattice only."""
    return nn.parse_spec("input 1 16 16\n"
                         "conv 6 3 stride=1 pad=circular act=relu\nmaxpool 2 stride=2\n"
                         "conv 6 3 stride=1 pad=circular act=relu\nmaxpool 2 stride=2\n"
                         "gap\ndense 4\nsoftmax\n")


def _translation_gaps(model: nn.Model, x: np.ndarray) -> np.ndarray:
    """Max score gap between x and each integer 2D circular translation of
    it, as an (h, w) array indexed by the shift."""
    _, h, w = x.shape
    # every translation, batched by the chunker; row 0 is the identity, and
    # the forward pass is batch-invariant, so it is bitwise the unshifted score
    scores = nn._stacked(partial(nn.forward, model),
                         (np.roll(x, (dy, dx), axis=(1, 2)) for dy in range(h) for dx in range(w)))
    return np.max(np.abs(scores - scores[0]), axis=1).reshape(h, w)


def observation_check(seed: int = 0) -> float:
    """Max logit gap of a random stride-1 circular-pad gap-head net over
    every integer 2D translation of a synthetic input."""
    model = nn.init_model(_stride1_spec(16, 16), seed=seed)
    return float(_translation_gaps(model, _test_input(np.random.default_rng(seed))).max())


@dataclass(frozen=True)
class LatticeResult:
    on_lattice_gap: float   # worst gap over shifts that are multiples of the cumulative stride
    off_lattice_gap: float  # smallest gap over every other shift
    factor: int             # the cumulative stride
    exact_fraction: Fraction  # of all shifts, those whose gap is below EXACT_TOL


def lattice_check(seed: int = 0) -> LatticeResult:
    """Logit gaps of a random circular strided gap-head net over every
    integer 2D translation, split by whether both shift components are
    multiples of its cumulative stride."""
    spec = _strided_spec()
    model = nn.init_model(spec, seed=seed)
    gaps = _translation_gaps(model, _test_input(np.random.default_rng(seed)))
    factor = spec.cumulative_factors[-1]
    on = np.zeros(gaps.shape, dtype=bool)
    on[::factor, ::factor] = True
    return LatticeResult(float(gaps[on].max()), float(gaps[~on].min()), factor,
                         Fraction(int(np.count_nonzero(gaps < EXACT_TOL)), gaps.size))


@dataclass(frozen=True)
class ClaimResult:
    shiftability: float       # of the band-limited response
    bandlimited_gap: float    # pooling gap of that response
    impulse_gap: float        # pooling gap of the center-detector response
    impulse_mass: float       # its pooled mass (the gap should equal it)
    bandlimited_nyquist: sampling.BandlimitResult  # Nyquist check of the bump
    impulse_nyquist: sampling.BandlimitResult      # and of the impulse train


def claim_check() -> ClaimResult:
    """Pooling invariance and the Nyquist check for a shiftable response vs.
    the center detector, at stride 2 on 512 samples."""
    s, length = 2, 512
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
    return ClaimResult(err, gap, impulse_gap, mass,
                       sampling.bandlimit_check(bump, s),
                       sampling.bandlimit_check(impulse, s))


@dataclass(frozen=True)
class CorollaryResult:
    stride1_gap: float
    detector_gap: float


def _two_halves_transform(h: int, w: int, d1=(2, 0), d2=(-1, 1)) -> PiecewiseTransform:
    return PiecewiseTransform((
        (Rect(0, 0, h, w // 2), d1),
        (Rect(0, w // 2, h, w - w // 2), d2),
    ))


def piecewise_gap(model: nn.Model, x: np.ndarray, t: PiecewiseTransform,
                  layer_index: int) -> float:
    """Max gap between the spatial sums of a spatial layer's features for the
    (c, h, w) image x and for its piecewise shift by t.

    The caller keeps feature support and receptive fields inside the pieces
    through the margins of t.
    """
    before, after = nn._stacked(partial(nn.pooled_features, model, layers=[layer_index],
                                        reduce=np.sum), (x, piecewise_shift(x, t)))
    return float(np.max(np.abs(after - before)))


def corollary_check(seed: int = 0) -> CorollaryResult:
    """Piecewise two-region shifts: invariant for a stride-1 circular net,
    non-invariant for the stride-2 exact-center detector."""
    rng = np.random.default_rng(seed)
    h, w = 16, 32
    canvas = np.zeros((1, h, w))
    # two small blobs well inside their halves (margins cover the receptive field)
    canvas[0, 6:10, 6:10] = rng.random((4, 4))
    canvas[0, 6:10, 22:26] = rng.random((4, 4))
    model = nn.init_model(_stride1_spec(h, w), seed=seed)
    stride1_gap = piecewise_gap(model, canvas, _two_halves_transform(h, w), 1)

    # exact-center detector: 1x1 identity conv with stride 2 on isolated dots
    dots = np.zeros((1, h, w))
    dots[0, 6:10:2, 6:10:2] = 1.0
    dots[0, 6:10:2, 22:26:2] = 1.0
    det_spec = nn.make_spec((1, h, w), (nn.ConvSpec(1, 1, stride=2, pad=nn.PadMode.ZERO),
                                        nn.GapSpec(), nn.DenseSpec(2), nn.SoftmaxSpec()))
    det = nn.init_model(det_spec, seed=0)
    det.params[0]["w"][:] = 1.0
    det.params[0]["b"][:] = 0.0
    t_odd = _two_halves_transform(h, w, d1=(1, 0), d2=(0, 0))
    return CorollaryResult(stride1_gap, piecewise_gap(det, dots, t_odd, 0))


def verify_all(seed: int = 0) -> dict[str, bool]:
    """The standard pass/fail gates over all four checks."""
    obs = observation_check(seed)
    claim = claim_check()
    cor = corollary_check(seed)
    lattice = lattice_check(seed)
    return {
        "observation": obs < EXACT_TOL,
        "claim": (claim.shiftability < 1e-6
                  and claim.bandlimited_gap < 1e-5
                  and abs(claim.impulse_gap - claim.impulse_mass) < 1e-9
                  and claim.bandlimited_nyquist.shiftable
                  and not claim.impulse_nyquist.shiftable),
        "corollary": cor.stride1_gap < 1e-6 and cor.detector_gap > 1e-3,
        "lattice": (lattice.on_lattice_gap < EXACT_TOL and lattice.off_lattice_gap > 1e-6
                    and lattice.exact_fraction == exact_invariance_fraction(lattice.factor)),
    }
