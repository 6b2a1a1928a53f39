"""Reference kernel that gauges how fast the CPU is right now.

On a shared machine the CPU speed seen by one process drifts by +-25% over
seconds to minutes. The benchmark times this fixed kernel next to the work
it measures and divides the two, so a drift that slows both cancels out. A
change to the program does not touch the kernel, so its effect is kept.

`cpu_ref_s` runs numpy work of the kinds aliascope does: a small-array
stencil loop like the inpaint solver and a patch einsum like the conv layer.
CPU_NOMINAL_S is its typical duration on the machine the benchmark's bounds
were set on (2-core VM, numpy 2.4.6, one BLAS thread); a normalised time is
`raw * CPU_NOMINAL_S / reference`, in seconds at that machine's nominal speed.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CPU_NOMINAL_S = 0.035

_rng = np.random.default_rng(12345)
_GRID = _rng.random((1, 66, 66))
_MAPS = _rng.random((4, 16, 34, 34))
_KERNEL = _rng.random((16, 16, 3, 3))


def cpu_ref_s() -> float:
    t0 = time.perf_counter()
    x = _GRID
    for _ in range(300):
        p = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        x = (p[:, :-2, 1:-1] + p[:, 2:, 1:-1] + p[:, 1:-1, :-2] + p[:, 1:-1, 2:]) * 0.25
    patches = sliding_window_view(_MAPS, (3, 3), axis=(2, 3))
    for _ in range(10):
        np.einsum("nchwij,ocij->nohw", patches, _KERNEL, optimize=True)
    return time.perf_counter() - t0

