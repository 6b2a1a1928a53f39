"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) and covers one gate:
exact invariance of stride-1 circular gap networks, pooling invariance of
shiftable responses, piecewise-shift behavior, the trained stride-1 vs
strided flip-rate contrast, depth and embedding-size trends, the
max-to-blurred-average pooling swap, subsampling arithmetic, the chi-squared
bias audit, and numerical hygiene of gradients and the Nyquist check.

The trained-model experiments share module-scoped fixtures; the whole file
runs in a few minutes on one core. The last test, the gradient form of the
invariance results on the two reference nets, is no numbered criterion and
prints no line.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest

from aliascope import audit, biasstat, data, nn, sampling, theory
from aliascope.audit import AuditMode
from aliascope.nn import PoolSpec, TrainConfig
from aliascope.transforms import EmbeddingProtocol, FillMode
from reference_nets import STRIDE1_SPEC, STRIDED_SPEC

TRAIN_CFG = TrainConfig(learning_rate=0.5, epochs=30, batch_size=16, seed=0)
READOUT_CFG = lambda seed: TrainConfig(0.5, 5, 32, seed)  # noqa: E731

AUDIT_PROTO = EmbeddingProtocol(40, 40, 32, (0, 0), FillMode.BLACK)
OFFSCALE_PROTO = EmbeddingProtocol(40, 40, 28, (0, 0), FillMode.BLACK)
SEEDS = (0, 1, 2)


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def dataset():
    return data.generate_synthetic(
        data.SyntheticConfig(num_classes=16, samples_per_class=50, canvas=32,
                             pattern_size=9, jitter=10, seed=0))


@pytest.fixture(scope="module")
def audit_images(dataset):
    return [(f"{int(lbl)}/{i:05d}", img)
            for i, (img, lbl) in enumerate(zip(dataset.images, dataset.labels))]


@pytest.fixture(scope="module")
def audit_labels(dataset, audit_images):
    return [(image_id, int(lbl)) for (image_id, _), lbl in zip(audit_images, dataset.labels)]


@pytest.fixture(scope="module")
def strided_model(dataset):
    return nn.train(nn.parse_spec(STRIDED_SPEC), dataset.images, dataset.labels, TRAIN_CFG)


@pytest.fixture(scope="module")
def stride1_model(dataset):
    return nn.train(nn.parse_spec(STRIDE1_SPEC), dataset.images, dataset.labels, TRAIN_CFG)


def test_criterion_1_exact_invariance(audit_images, audit_labels, capsys):
    """Random stride-1 circular net: exactly invariant under every translation."""
    worst = theory.observation_check(seed=0)
    model = nn.init_model(nn.parse_spec(STRIDE1_SPEC), seed=0)
    report = audit.top1_change_probability(model, audit_images[:200], audit_labels,
                                           AUDIT_PROTO, AuditMode.TRANSLATE, seed=0)
    ok = worst < 1e-9 and report.p_hat == 0.0 and report.n == 200
    _report(capsys, 1, "exact invariance", ok,
            f"max logit gap {worst:.2e}, audit p_hat {report.p_hat}")


def test_criterion_2_shiftable_pooling(capsys):
    """Shiftable responses pool invariantly; the center detector does not."""
    res = theory.claim_check()
    ok = (res.shiftability < 1e-6 and res.bandlimited_gap < 1e-5
          and abs(res.impulse_gap - res.impulse_mass) < 1e-9)
    _report(capsys, 2, "shiftability claim", ok,
            f"shiftability {res.shiftability:.2e}, gap {res.bandlimited_gap:.2e}, "
            f"impulse gap {res.impulse_gap:.1f} vs mass {res.impulse_mass:.1f}")


def test_criterion_3_piecewise_shifts(capsys):
    """Piecewise two-region shifts: stride-1 invariant, detector not."""
    res = theory.corollary_check(seed=0)
    ok = res.stride1_gap < 1e-6 and res.detector_gap > 1e-3
    _report(capsys, 3, "piecewise corollary", ok,
            f"stride-1 gap {res.stride1_gap:.2e}, detector gap {res.detector_gap:.2e}")


def test_criterion_4_flip_rate_contrast(dataset, audit_images, audit_labels, strided_model,
                                        stride1_model, capsys):
    """Trained stride-1 net never flips under 1-pixel shifts; strided one does."""
    acc1 = nn._accuracy(stride1_model, dataset.images, dataset.labels)
    acc2 = nn._accuracy(strided_model, dataset.images, dataset.labels)
    rep1 = audit.top1_change_probability(stride1_model, audit_images[:500], audit_labels,
                                         AUDIT_PROTO, AuditMode.TRANSLATE, seed=0)
    rep2 = audit.top1_change_probability(strided_model, audit_images[:500], audit_labels,
                                         AUDIT_PROTO, AuditMode.TRANSLATE, seed=0)
    ok = (abs(acc1 - acc2) <= 0.05 and rep1.n >= 500 and rep2.n >= 500
          and rep1.p_hat == 0.0 and rep2.p_hat > 0.05)
    _report(capsys, 4, "stride-1 vs strided flips", ok,
            f"acc {acc1:.3f}/{acc2:.3f}, flip {rep1.p_hat:.4f}/{rep2.p_hat:.4f}")


def test_criterion_5_depth_trend(dataset, audit_images, strided_model, capsys):
    """Flip rate grows with depth: deepest probed layer >= 2x the shallowest."""
    shallow, deep = [], []
    for seed in SEEDS:
        entries = audit.depth_invariance_profile(
            strided_model, dataset.images, dataset.labels, [0, 3], READOUT_CFG(seed),
            OFFSCALE_PROTO, audit_images[:300], seed=seed)
        shallow.append(entries[0].flip_rate)
        deep.append(entries[1].flip_rate)
    s, d = float(np.mean(shallow)), float(np.mean(deep))
    ok = d > 0.0 and d >= 2.0 * s
    _report(capsys, 5, "depth trend", ok,
            f"mean flip shallow {s:.4f}, deep {d:.4f} over {len(SEEDS)} seeds")


def test_criterion_6_pool_swap(dataset, audit_images, strided_model, capsys):
    """Blurred average pooling: smoother features, fewer flips, lower accuracy."""
    swapped = nn.replace_pooling(strided_model, PoolSpec("max", 2, 2), PoolSpec("avg", 6, 2))

    flips, accs = {}, {}
    for name, model in (("max", strided_model), ("avg", swapped)):
        f, a = [], []
        for seed in SEEDS:
            (entry,) = audit.depth_invariance_profile(
                model, dataset.images, dataset.labels, [3], READOUT_CFG(seed),
                OFFSCALE_PROTO, audit_images[:300], seed=seed)
            a.append(entry.readout_accuracy)
            f.append(entry.flip_rate)
        flips[name], accs[name] = float(np.mean(f)), float(np.mean(a))

    trace_proto = EmbeddingProtocol(40, 40, 32, (2, 2), FillMode.BLACK)
    probe = dataset.images[0]
    var_max = float(audit.feature_shift_trace(strided_model, 3, probe, trace_proto,
                                              range(5)).var(axis=0).mean())
    var_avg = float(audit.feature_shift_trace(swapped, 3, probe, trace_proto,
                                              range(5)).var(axis=0).mean())
    ok = (var_max >= 2.0 * var_avg and flips["max"] >= 2.0 * flips["avg"]
          and accs["avg"] < accs["max"])
    _report(capsys, 6, "pool swap", ok,
            f"trace var {var_max:.2f}->{var_avg:.2f}, "
            f"flip {flips['max']:.4f}->{flips['avg']:.4f}, "
            f"acc {accs['max']:.3f}->{accs['avg']:.3f}")


def test_criterion_7_embedding_size_trend(audit_images, audit_labels, strided_model, capsys):
    """Smaller embedded images flip more: smallest >= 1.5x the largest size."""
    sizes = [32, 36, 40]
    small, large = [], []
    for seed in SEEDS:
        by_size = {size: audit.top1_change_probability(
            strided_model, audit_images[:300], audit_labels,
            EmbeddingProtocol(44, 44, size, (0, 0)), AuditMode.TRANSLATE, seed=seed).p_hat
            for size in sizes}
        small.append(by_size[sizes[0]])
        large.append(by_size[sizes[-1]])
    s, l = float(np.mean(small)), float(np.mean(large))
    ok = s >= 1.5 * l and s > 0.0
    _report(capsys, 7, "embedding size trend", ok,
            f"mean flip at {sizes[0]}px {s:.4f} vs {sizes[-1]}px {l:.4f}")


def test_criterion_8_subsampling_arithmetic(capsys):
    """Stride products and the exact-invariance fraction, exact integers."""
    spec = nn.parse_spec("input 1 60 60\n"
                         "conv 4 3 stride=2 pad=zero act=relu\n"
                         "conv 4 3 stride=2 pad=zero act=relu\n"
                         "conv 4 3 stride=3 pad=zero act=relu\n"
                         "conv 4 3 stride=5 pad=zero act=relu\n"
                         "gap\ndense 4\nsoftmax\n")
    factor = spec.cumulative_factors[-1]
    fraction = theory.exact_invariance_fraction(factor)
    ok = factor == 60 and fraction == Fraction(1, 3600)
    _report(capsys, 8, "subsampling arithmetic", ok,
            f"factor {factor}, fraction {fraction}")


def test_criterion_9_chi_squared_audit(capsys):
    """Concentrated category flagged, uniform one not; exact stat; oracle p."""
    special = pytest.importorskip("scipy.special")
    stat, df = biasstat.chi2_statistic((10, 0, 10, 0))
    exact = stat == 20.0 and df == 3

    def box(category, cx, cy, rel_h):
        bh, bw = rel_h * 100, 5.0
        return (category, cx * 100 - bw / 2, cy * 100 - bh / 2, bw, bh, 100.0, 100.0)

    anns = [box("concentrated", 0.5, 0.5, 0.31) for _ in range(10000)]
    # jointly bin-balanced uniform sample: edge grid rows host the deciles
    # their geometry admits, the middle row hosts the largest two
    row_deciles = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7), 2: (8, 9),
                   3: (4, 5, 6, 7), 4: (0, 1, 2, 3)}
    row_cy = {(0, 0): 0.05, (0, 1): 0.09, (0, 2): 0.15, (0, 3): 0.19,
              (1, 4): 0.24, (1, 5): 0.29, (1, 6): 0.34, (1, 7): 0.39,
              (2, 8): 0.5, (2, 9): 0.5,
              (3, 4): 0.76, (3, 5): 0.71, (3, 6): 0.66, (3, 7): 0.61,
              (4, 0): 0.95, (4, 1): 0.91, (4, 2): 0.85, (4, 3): 0.81}
    for row in range(5):
        deciles = row_deciles[row]
        per_pair = (10000 // 25) // len(deciles)
        for col in range(5):
            for d in deciles:
                anns.extend(box("uniform", (col + 0.5) / 5, row_cy[(row, d)],
                                (d + 0.5) / 10) for _ in range(per_pair))
    by_cat = {r.category: r for r in biasstat.category_bias_report(
        biasstat.Annotations.of(*zip(*anns)))}
    flags = by_cat["concentrated"].flagged and not by_cat["uniform"].flagged

    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(200):
        dof = int(rng.integers(1, 101))
        chi2 = float(rng.uniform(0.0, 200.0))
        want = float(special.gammaincc(dof / 2, chi2 / 2))
        got = biasstat.chi2_pvalue(chi2, dof)
        if want > 1e-290:
            worst_rel = max(worst_rel, abs(got - want) / want)
    ok = exact and flags and worst_rel < 1e-9
    _report(capsys, 9, "chi-squared audit", ok,
            f"chi2 {stat} df {df}, flagged {by_cat['concentrated'].flagged}/"
            f"{by_cat['uniform'].flagged}, gamma rel err {worst_rel:.2e}")


def test_criterion_10_numerical_hygiene(capsys):
    """Gradients vs central differences; Nyquist check on the cosine pair."""
    texts = [
        "input 1 6 6\nconv 3 3 pad=circular act=relu\nmaxpool 2 stride=2\n"
        "gap\ndense 3\nsoftmax\n",
        "input 2 6 6\nconv 3 3 stride=2 pad=zero act=relu\navgpool 2 stride=1\n"
        "gap\ndense 2\nsoftmax\n",
        "input 1 6 6\nconv 2 3 pad=zero act=none\ndense 4\nsoftmax\n",
    ]
    eps, worst = 1e-6, 0.0
    for ti, text in enumerate(texts):
        spec = nn.parse_spec(text)
        model = nn.init_model(spec, seed=ti)
        rng = np.random.default_rng(ti)
        x = rng.normal(size=(3, *spec.input_shape))
        y = rng.integers(0, spec.shapes[-1][0], size=3)
        stepped = copy.deepcopy(model)
        nn.backward_sgd_step(stepped, x, y, lr=1.0)
        for li, p in enumerate(model.params):
            for key, w in p.items():
                analytic = w - stepped.params[li][key]
                flat = w.reshape(-1)
                for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp = nn.cross_entropy(nn.forward(model, x), y)
                    flat[idx] = orig - eps
                    lm = nn.cross_entropy(nn.forward(model, x), y)
                    flat[idx] = orig
                    numeric = (lp - lm) / (2 * eps)
                    denom = max(abs(numeric), abs(float(analytic.reshape(-1)[idx])), 1e-8)
                    worst = max(worst, abs(analytic.reshape(-1)[idx] - numeric) / denom)

    n = 48
    lowband = np.cos(2 * np.pi * np.arange(n) / 8)
    highband = np.cos(2 * np.pi * np.arange(n) / 3)
    res_low = sampling.bandlimit_check(lowband, 2)
    res_high = sampling.bandlimit_check(highband, 2)
    ok = worst < 1e-4 and res_low.shiftable and not res_high.shiftable
    _report(capsys, 10, "numerical hygiene", ok,
            f"grad rel err {worst:.2e}, Nyquist pass/fail "
            f"{res_low.shiftable}/{res_high.shiftable}")


def _update_gaps(text, seed=0):
    """Relative change of one SGD step's weight update when the whole batch
    is circularly shifted, as an (h, w) array indexed by the shift."""
    model = nn.init_model(nn.parse_spec(text), seed=seed)
    x = np.random.default_rng(seed).random((2, *model.spec.input_shape))
    y = np.array([3, 7])

    def update(batch):
        stepped = copy.deepcopy(model)
        nn.backward_sgd_step(stepped, batch, y, lr=1.0)
        return [p[key] - q[key] for p, q in zip(model.params, stepped.params) for key in p]

    base = update(x)
    scale = max(np.max(np.abs(u)) for u in base)
    gaps = np.empty(model.spec.input_shape[1:])
    for shift in np.ndindex(gaps.shape):
        moved = update(np.roll(x, shift, axis=(2, 3)))
        gaps[shift] = max(np.max(np.abs(u - v)) for u, v in zip(base, moved)) / scale
    return gaps


def test_sgd_update_is_shift_invariant_where_the_net_is():
    """Gradient form of criterion 1 and of the stride lattice: the weight
    update of a seed-initialised reference net does not change when the
    batch shifts by any amount (stride-1 net) or by a multiple of the
    cumulative stride (strided net), and does change off that lattice."""
    assert _update_gaps(STRIDE1_SPEC).max() < 1e-12
    gaps = _update_gaps(STRIDED_SPEC)
    factor = nn.parse_spec(STRIDED_SPEC).cumulative_factors[-1]
    on = np.zeros(gaps.shape, dtype=bool)
    on[::factor, ::factor] = True
    assert gaps[on].max() < 1e-12
    assert gaps[~on].min() > 1e-4
