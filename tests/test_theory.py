import pytest

from aliascope import theory


def test_observation_exact_invariance():
    assert theory.observation_check(seed=0) < 1e-9
    assert theory.observation_check(seed=1) < 1e-9


def test_strided_net_is_invariant_exactly_on_its_stride_lattice():
    for seed in (0, 1):
        res = theory.lattice_check(seed=seed)
        assert res.on_lattice_gap < 1e-9
        assert res.off_lattice_gap > 1e-6


def test_claim_shiftable_vs_center_detector():
    res = theory.claim_check()
    assert res.shiftability < 1e-6
    assert res.bandlimited_gap < 1e-5
    # the exact-position detector's pooling gap equals its whole pooled mass
    assert res.impulse_gap == pytest.approx(res.impulse_mass, abs=1e-9)
    assert res.impulse_mass > 100


def test_corollary_piecewise_shifts():
    res = theory.corollary_check(seed=0)
    assert res.stride1_gap < 1e-6
    assert res.detector_gap > 1e-3


def test_verify_all_gates():
    assert theory.verify_all(seed=0) == {"observation": True, "claim": True,
                                         "corollary": True, "lattice": True}
