from fractions import Fraction

import numpy as np
import pytest

from aliascope import theory
from aliascope.nn import init_model, parse_spec
from aliascope.transforms import PiecewiseTransform, Rect


def test_observation_exact_invariance():
    assert theory.observation_check(seed=0) < 1e-9
    assert theory.observation_check(seed=1) < 1e-9


def test_exact_invariance_fraction():
    assert theory.exact_invariance_fraction(1) == Fraction(1)
    assert theory.exact_invariance_fraction(60) == Fraction(1, 3600)


def test_strided_net_is_invariant_exactly_on_its_stride_lattice():
    for seed in (0, 1, 4242):
        res = theory.lattice_check(seed=seed)
        assert res.on_lattice_gap < 1e-9
        assert res.off_lattice_gap > 1e-6
        # exactly the 1/s^2 of all shifts that the stride lattice guarantees
        assert res.factor == 4
        assert res.exact_fraction == theory.exact_invariance_fraction(4) == Fraction(1, 16)


def test_claim_shiftable_vs_center_detector():
    res = theory.claim_check()
    assert res.shiftability < 1e-6
    assert res.bandlimited_gap < 1e-5
    # the exact-position detector's pooling gap equals its whole pooled mass
    assert res.impulse_gap == pytest.approx(res.impulse_mass, abs=1e-9)
    assert res.impulse_mass > 100
    # Nyquist: the bump's energy lies below 1/(2s); an impulse train of period
    # s puts half of its energy at DC and half at the frequency 1/s
    assert res.bandlimited_nyquist.shiftable
    assert res.bandlimited_nyquist.high_freq_fraction < 1e-12
    assert not res.impulse_nyquist.shiftable
    assert res.impulse_nyquist.high_freq_fraction == pytest.approx(0.5, abs=1e-9)


def test_corollary_piecewise_shifts():
    res = theory.corollary_check(seed=0)
    assert res.stride1_gap < 1e-6
    assert res.detector_gap > 1e-3


def test_piecewise_gap_stride1_exact():
    spec = parse_spec("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
                      "gap\ndense 3\nsoftmax\n")
    model = init_model(spec, seed=11)
    canvas = np.zeros((1, 16, 16))
    canvas[0, 3:6, 3:6] = 1.0
    canvas[0, 10:13, 10:13] = 2.0
    t = PiecewiseTransform(((Rect(0, 0, 8, 8), (1, 0)), (Rect(8, 8, 8, 8), (0, -1))))
    assert theory.piecewise_gap(model, canvas, t, 0) < 1e-9


def test_piecewise_gap_detects_exact_position_detector():
    # 1x1 conv then stride-2 pooling: content on even rows only; shifting one
    # half by an odd offset changes the pooled response
    spec = parse_spec("input 1 16 16\nconv 1 1\nmaxpool 1 stride=2\n"
                      "gap\ndense 2\nsoftmax\n")
    model = init_model(spec, seed=12)
    model.params[0]["w"][:] = 1.0
    canvas = np.zeros((1, 16, 16))
    canvas[0, 2:6:2, 2:6:2] = 1.0
    canvas[0, 10:14:2, 2:6:2] = 1.0
    t = PiecewiseTransform(((Rect(8, 0, 8, 8), (1, 0)),))
    assert theory.piecewise_gap(model, canvas, t, 1) > 0.5


def test_verify_all_gates():
    assert theory.verify_all(seed=0) == {"observation": True, "claim": True,
                                         "corollary": True, "lattice": True}


def test_verify_all_passes_on_every_seed():
    # on seeds such as 8, 12 and 13 the on-lattice gaps are a few ulp, not 0:
    # the global mean sums a rolled feature map in another order
    failed = {seed: gates for seed in range(100)
              if not all((gates := theory.verify_all(seed)).values())}
    assert failed == {}
