import math

import numpy as np
import pytest

from aliascope.sampling import (
    BandlimitResult,
    BasisKernel,
    KernelKind,
    bandlimit_check,
    basis_kernel_eval,
    pooling_invariance_gap,
    shiftability_error,
)

TENT2 = BasisKernel(KernelKind.LINEAR_TENT, 2)
CUBIC2 = BasisKernel(KernelKind.CUBIC_BSPLINE, 2)
SINC2 = BasisKernel(KernelKind.WINDOWED_SINC, 2)  # default W = 16
SINC2_WIDE = BasisKernel(KernelKind.WINDOWED_SINC, 2, window_halfwidth=192)

ALL_KERNELS = [TENT2, CUBIC2, SINC2]


def test_tent_values():
    assert basis_kernel_eval(TENT2, 0.0) == 1.0
    assert basis_kernel_eval(TENT2, 2.0) == 0.0
    assert basis_kernel_eval(TENT2, 1.0) == 0.5


def test_sinc_matches_direct_formula():
    x = 1.0
    w = SINC2.window_halfwidth
    expected = (math.sin(math.pi * x / 2) / (math.pi * x / 2)) * 0.5 * (1 + math.cos(math.pi * x / w))
    assert basis_kernel_eval(SINC2, x) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind.value)
def test_kernel_symmetry(kernel):
    xs = np.linspace(-kernel.support - 1, kernel.support + 1, 1001)
    left = basis_kernel_eval(kernel, xs)
    right = basis_kernel_eval(kernel, -xs)
    assert np.max(np.abs(left - right)) < 1e-12


def test_shiftability_bandlimited_cosine():
    x = np.arange(512)
    r = np.cos(2 * np.pi * x / 8)  # sampling rate 1/2 > 2 * (1/8)
    assert shiftability_error(r, 2, SINC2_WIDE) < 1e-6


def test_shiftability_impulse_train():
    # detector that fires only on exact grid positions is not shiftable
    r = np.zeros(64)
    r[::2] = 1.0
    assert shiftability_error(r, 2, TENT2) >= 1.0
    # on the unit grid every position is a grid point, where the tent interpolates
    assert shiftability_error(r, 1, BasisKernel(KernelKind.LINEAR_TENT, 1)) == 0.0


def test_shiftability_constant_response():
    r = np.full(64, 2.0)
    assert shiftability_error(r, 2, TENT2) < 1e-12
    assert shiftability_error(r, 2, CUBIC2) < 1e-12  # the cubic B-spline reproduces it too
    assert shiftability_error(r, 4, BasisKernel(KernelKind.LINEAR_TENT, 4)) < 1e-12


@pytest.mark.parametrize("kind", list(KernelKind))
def test_basis_kernel_rejects_negative_window(kind):
    with pytest.raises(ValueError, match="window half-width must be >= 0"):
        BasisKernel(kind, 2, window_halfwidth=-2)


def test_shiftability_rejects_short_input():
    with pytest.raises(ValueError):
        shiftability_error(np.zeros(8), 2, TENT2)


def _direct_dft_high_fraction(r, s):
    n = len(r)
    energy_high = 0.0
    total = 0.0
    for k in range(n):
        coeff = sum(r[t] * np.exp(-2j * np.pi * k * t / n) for t in range(n))
        e = abs(coeff) ** 2
        total += e
        freq = k / n if k <= n // 2 else (n - k) / n
        if freq > 1 / (2 * s):
            energy_high += e
    return energy_high / total


@pytest.mark.parametrize("period,passes", [(8, True), (3, False)])
def test_bandlimit_cosine_pair(period, passes):
    n = 48  # multiple of both periods
    r = np.cos(2 * np.pi * np.arange(n) / period)
    res = bandlimit_check(r, 2, energy_tol=0.01)
    assert res.shiftable is passes
    oracle = _direct_dft_high_fraction(list(r), 2)
    assert res.high_freq_fraction == pytest.approx(oracle, abs=1e-9)
    assert res.high_freq_fraction == pytest.approx(0.0 if passes else 1.0, abs=1e-9)


def test_bandlimit_constant():
    res = bandlimit_check(np.full(32, 5.0), 4, energy_tol=0.0)
    assert res == BandlimitResult(True, 0.0)


def test_pooling_gap_shiftable_bump():
    n, s = 256, 2
    x = np.arange(n, dtype=float)
    bump = np.exp(-0.5 * ((x - n / 2) / (2 * s)) ** 2)
    margin = 16
    bump[:margin] = 0.0
    bump[-margin:] = 0.0
    assert pooling_invariance_gap(bump, s, [1, 2, 3], margin=margin) < 1e-6


def test_pooling_gap_impulse_train_equals_mass():
    n, s, margin = 128, 2, 8
    r = np.zeros(n)
    r[margin:n - margin:s] = 1.0
    gap = pooling_invariance_gap(r, s, [1], margin=margin)
    assert gap == pytest.approx(r.sum(), abs=1e-12)


def test_pooling_gap_zero_for_full_factor_shift():
    rng = np.random.default_rng(4)
    n, s = 128, 3
    r = np.zeros(n)
    r[20:100] = rng.random(80)  # arbitrary, even badly aliased, response
    assert pooling_invariance_gap(r, s, [s], margin=10) < 1e-12


def test_pooling_gap_rejects_boundary_support():
    r = np.ones(64)
    with pytest.raises(ValueError):
        pooling_invariance_gap(r, 2, [1])


def test_claim_bound_for_eps_shiftable_signals():
    # gap <= C * eps * length for nearly-shiftable responses
    rng = np.random.default_rng(5)
    n, s = 512, 2
    x = np.arange(n, dtype=float)
    for trial in range(5):
        freq = rng.uniform(0.01, 0.2)  # below Nyquist 0.25
        r = np.sin(2 * np.pi * freq * x + rng.uniform(0, 2 * np.pi))
        window = np.exp(-0.5 * ((x - n / 2) / 40.0) ** 2)  # localize support
        r = r * window
        margin = 16
        r[:margin] = 0.0
        r[-margin:] = 0.0
        eps = shiftability_error(r, s, SINC2_WIDE)
        gap = pooling_invariance_gap(r, s, [1, 2, 3], margin=margin)
        assert gap <= max(10.0 * eps * n, 1e-9)


def test_lowpass_never_increases_shiftability_error():
    rng = np.random.default_rng(6)
    n, s = 256, 2
    x = np.arange(n, dtype=float)
    for trial in range(5):
        band = np.cos(2 * np.pi * x / rng.integers(6, 20))
        noise = rng.normal(0, 0.5, n)
        r = band + noise
        kernel = np.ones(s) / s  # moving average of width s
        smoothed = np.convolve(r, kernel, mode="same")
        assert (shiftability_error(smoothed, s, TENT2)
                <= shiftability_error(r, s, TENT2) + 1e-12)
