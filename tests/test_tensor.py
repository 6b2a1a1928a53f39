import numpy as np
import pytest
from hypothesis import given, strategies as st

from aliascope.nn import _pad_spatial
from aliascope.tensor import PadMode, argmax_flat, spatial_sum


# The padding modes are applied by conv layers through nn._pad_spatial.

def test_pad_margin_zero_identity():
    t = np.arange(12.0).reshape(1, 1, 3, 4)
    assert np.array_equal(_pad_spatial(t, 0, 0, PadMode.ZERO, {}), t)
    assert np.array_equal(_pad_spatial(t, 0, 0, PadMode.CIRCULAR, {}), t)


def test_pad_circular_wraps():
    t = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = _pad_spatial(t, 1, 1, PadMode.CIRCULAR, {})
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out[0, 0, 1:3, 1:3], t[0, 0])
    # every border row/column equals the wrapped opposite one
    assert np.array_equal(out[0, 0, 0, 1:3], t[0, 0, 1])
    assert np.array_equal(out[0, 0, 3, 1:3], t[0, 0, 0])
    assert np.array_equal(out[0, 0, 1:3, 0], t[0, 0, :, 1])
    assert np.array_equal(out[0, 0, 1:3, 3], t[0, 0, :, 0])


def test_pad_zero_preserves_sum():
    rng = np.random.default_rng(7)
    t = rng.random((1, 1, 3, 3))
    out = _pad_spatial(t, 2, 2, PadMode.ZERO, {})
    # brute-force oracle: sum every element of the padded tensor
    total = 0.0
    for v in out.flatten():
        total += v
    assert total == pytest.approx(t.sum(), abs=1e-12)


def test_argmax_flat_basic():
    assert argmax_flat(np.array([0.1, 0.7, 0.2])) == 1
    assert argmax_flat(np.array([0.5, 0.5])) == 0  # smallest-index tie-break


def test_argmax_flat_matches_linear_scan():
    rng = np.random.default_rng(0)
    v = rng.random(1000)
    best, best_i = -np.inf, -1
    for i, x in enumerate(v):
        if x > best:
            best, best_i = x, i
    assert argmax_flat(v) == best_i


def test_argmax_flat_empty():
    with pytest.raises(ValueError):
        argmax_flat(np.array([]))


def test_spatial_sum_constant():
    t = np.full((2, 3, 7, 7), 1.5)
    out = spatial_sum(t)
    assert out.shape == (2, 3)
    assert np.allclose(out, 49 * 1.5)
    assert np.all(spatial_sum(np.zeros((1, 1, 4, 4))) == 0.0)


def test_spatial_sum_matches_double_loop():
    rng = np.random.default_rng(1)
    t = rng.random((2, 2, 5, 6))
    out = spatial_sum(t)
    for n in range(2):
        for c in range(2):
            total = 0.0
            for i in range(5):
                for j in range(6):
                    total += t[n, c, i, j]
            assert out[n, c] == pytest.approx(total, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_circular_pad_preserves_value_multiset(seed, margin):
    rng = np.random.default_rng(seed)
    t = rng.random((1, 1, 3, 4))
    out = _pad_spatial(t, margin, margin, PadMode.CIRCULAR, {})
    assert set(np.unique(out)) == set(np.unique(t))


@given(st.integers(0, 2**32 - 1), st.integers(-5, 5), st.integers(-5, 5))
def test_spatial_sum_invariant_under_circular_roll(seed, dy, dx):
    rng = np.random.default_rng(seed)
    t = rng.random((1, 2, 4, 5))
    rolled = np.roll(np.roll(t, dy, axis=2), dx, axis=3)
    assert np.allclose(spatial_sum(rolled), spatial_sum(t), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(-100, 100))
def test_argmax_invariant_under_constant_shift(seed, c):
    rng = np.random.default_rng(seed)
    v = rng.random(20)
    assert argmax_flat(v + c) == argmax_flat(v)


@given(st.integers(0, 2**32 - 1), st.sampled_from(PadMode), st.integers(0, 9), st.integers(0, 9),
       st.integers(1, 4), st.integers(1, 4))
def test_pad_into_a_reused_buffer_is_np_pad(seed, mode, left, right, h, w):
    """Slice-copy padding, margins wider than the image included, equals
    np.pad bitwise, also when the buffer held other data before."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(2, 2, h, w))
    want = np.pad(t, [(0, 0), (0, 0), (left, right), (left, right)],
                  mode="constant" if mode is PadMode.ZERO else "wrap")
    buf = {"xp": np.full(want.size + 5, np.nan)}
    assert np.array_equal(_pad_spatial(t, left, right, mode, buf), want)
