"""Per-layer-kind kernel table (`nn.probe.*`), timed through the public API.

Each probe net is one layer of the kind under test on a 16x40x40 input,
followed by a gap / dense 16 / softmax head. `fwd_ms` times
`nn.layer_activations(model, x, 0)`, so only the probed layer runs;
`step_ms` times one `nn.backward_sgd_step`, i.e. the whole net forward and
backward plus the weight update. Each figure is the median over repeats
after one warm-up call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHAPE = (16, 40, 40)
BATCHES = (1, 16, 200)
PROBES = {
    "conv_circular": "conv 16 3 stride=1 pad=circular act=relu",
    "conv_zero": "conv 16 3 stride=1 pad=zero act=relu",
    "maxpool": "maxpool 2 stride=2",
    "avgpool": "avgpool 6 stride=2",
}
MIN_REPEATS = 3
MIN_SECONDS = 0.2


def _median_ms(fn) -> float:
    fn()  # warm-up: first-call allocations are not the kernel's steady cost
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def conv_flops(batch: int) -> int:
    """Multiply-adds x 2 of a 16->16 3x3 same-size conv on 40x40 maps."""
    c, h, w = SHAPE
    return 2 * batch * h * w * c * 16 * 3 * 3


def probe_table(nn, seed: int) -> dict[str, float]:
    """Metric name -> value for every probe net, batch and measurement."""
    rng = np.random.default_rng(seed)
    out = {}
    c, h, w = SHAPE
    for name, layer in PROBES.items():
        spec = nn.parse_spec(f"input {c} {h} {w}\n{layer}\ngap\ndense 16\nsoftmax\n")
        model = nn.init_model(spec, seed=seed)
        for b in BATCHES:
            x = rng.standard_normal((b, c, h, w))
            y = rng.integers(0, 16, b)
            fwd = _median_ms(lambda: nn.layer_activations(model, x, 0))
            out[f"nn.probe.{name}.fwd_ms.b{b}"] = fwd
            out[f"nn.probe.{name}.step_ms.b{b}"] = _median_ms(
                lambda: nn.backward_sgd_step(model, x, y, 1e-3))
            if name == "conv_circular":
                out[f"nn.probe.{name}.fwd_gflop_s.b{b}"] = conv_flops(b) / (fwd * 1e6)
    return out
