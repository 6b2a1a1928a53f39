"""Tests of the benchmark's own reference solver and tracer.

    python3 -m pytest bench/test_bench.py
"""

import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harmonic import harmonic_fill  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_linear_ramp_inside_a_known_frame_is_reproduced():
    """A linear function is discrete-harmonic at every pixel with four
    in-grid neighbours, so a known frame of ramp values fixes the ramp."""
    h, w = 24, 31
    y, x = np.mgrid[0:h, 0:w]
    ramp = (0.3 * y - 0.7 * x + 2.0)[None]
    known = np.zeros((h, w), dtype=bool)
    known[[0, -1], :] = known[:, [0, -1]] = True
    known[10, 12] = True  # an interior known pixel changes nothing
    filled = harmonic_fill(np.where(known, ramp, 0.0), known)
    assert np.max(np.abs(filled - ramp)) < 1e-10


def test_border_pixels_average_only_in_grid_neighbours():
    """Known left and right columns: with the image border counted as
    having fewer neighbours, the fill is the ramp between them."""
    h, w = 9, 17
    ramp = np.broadcast_to(np.linspace(0.0, 1.0, w), (h, w))[None].copy()
    known = np.zeros((h, w), dtype=bool)
    known[:, [0, -1]] = True
    filled = harmonic_fill(np.where(known, ramp, 0.0), known)
    assert np.max(np.abs(filled - ramp)) < 1e-10


def test_known_pixels_are_kept_and_channels_solved_apart():
    rng = np.random.default_rng(0)
    canvas = rng.random((2, 12, 12))
    known = rng.random((12, 12)) < 0.3
    filled = harmonic_fill(canvas, known)
    assert np.array_equal(filled[:, known], canvas[:, known])
    single = harmonic_fill(canvas[1:], known)
    assert np.array_equal(filled[1:], single)


def test_no_known_pixel_is_rejected():
    with pytest.raises(ValueError):
        harmonic_fill(np.zeros((1, 4, 4)), np.zeros((4, 4), dtype=bool))


def _fake_modules():
    lib = types.ModuleType("fakelib")
    exec("import time\n"
         "def inner(xs):\n    time.sleep(0.02)\n    return xs\n"
         "def outer(xs):\n    time.sleep(0.01)\n    return inner(xs)\n"
         "def _private():\n    return 1\n", lib.__dict__)
    cli = types.ModuleType("fakecli")
    cli.__dict__["lib"] = lib
    exec("def main():\n    return lib.outer([1, 2, 3])\n", cli.__dict__)
    return lib, cli


def test_tracer_records_self_time_counts_and_restores():
    lib, cli = _fake_modules()
    originals = (lib.inner, lib.outer, lib._private, cli.main)
    tracer = Tracer({"lib": lib, "cli": cli},
                    counters={"lib.inner": lambda a, k, r: {"items": len(r)}})
    tracer.install()
    assert lib._private is originals[2]  # private names stay unwrapped
    t0 = time.perf_counter()
    cli.main()
    wall = time.perf_counter() - t0
    tracer.restore()
    assert (lib.inner, lib.outer, lib._private, cli.main) == originals
    stats, covered = tracer.take()
    assert stats["lib.outer"].calls == stats["lib.inner"].calls == stats["cli.main"].calls == 1
    assert stats["lib.inner"].counts["items"] == 3
    outer = stats["lib.outer"]
    assert outer.incl_s == pytest.approx(outer.self_s + stats["lib.inner"].incl_s)
    assert 0.009 < outer.self_s < stats["lib.inner"].self_s
    # the entry module is traced but does not count as covered time
    assert covered == pytest.approx(outer.incl_s)
    assert covered < stats["cli.main"].incl_s <= wall
    assert tracer.take()[0] == {}
