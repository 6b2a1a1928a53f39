import csv
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aliascope import biasstat, cli
from aliascope.biasstat import (
    Annotations,
    category_bias_report,
    chi2_pvalue,
    chi2_statistic,
    read_annotations_csv,
)


def _ann(category="cat", cx=0.5, cy=0.5, rel_h=0.3, rel_w=0.3, img=100.0):
    """One box as a row: category, box_x, box_y, box_w, box_h, img_w, img_h."""
    bw, bh = rel_w * img, rel_h * img
    return (category, cx * img - bw / 2, cy * img - bh / 2, bw, bh, img, img)


def _columns(rows):
    return Annotations.of(*zip(*rows)) if rows else Annotations.of(*[()] * 7)


def _box_bins(rows, position_grid=5, size_bins=10):
    """(valid, pos, size) of `_bins` as lists: one flag per box, one bin per valid box."""
    valid, pos, size = biasstat._bins(_columns(rows), position_grid, size_bins)
    return valid.tolist(), pos.tolist(), size.tolist()


# ---------------------------------------------------------------------------
# annotations and binning
# ---------------------------------------------------------------------------

def test_annotation_validity():
    rows = [_ann(),
            ("c", -1, 0, 10, 10, 100, 100),
            ("c", 95, 0, 10, 10, 100, 100),  # overflows right
            ("c", 0, 0, 0, 10, 100, 100),  # zero width
            ("c", 0, 0, 10, 10, 0, 100)]  # zero image
    assert _columns(rows).valid().tolist() == [True, False, False, False, False]


def test_bin_annotations_center_and_edges():
    anns = [_ann(cx=0.05, cy=0.05, rel_h=0.05, rel_w=0.05),  # top-left cell
            _ann(cx=0.95, cy=0.95, rel_h=0.05, rel_w=0.05),  # bottom-right cell
            _ann(cx=0.5, cy=0.5, rel_h=0.999, rel_w=0.05),   # center, last decile
            _ann(cx=0.5, cy=0.5, rel_h=0.55, rel_w=0.05)]    # center, decile 5
    valid, pos, size = _box_bins(anns)
    assert valid == [True] * 4
    assert pos == [0, 24, 2 * 5 + 2, 2 * 5 + 2]
    assert size == [0, 0, 9, 5]


def test_bin_annotations_boundary_value_goes_left_open_right():
    # center exactly on a bin edge belongs to the right bin; 1.0 to the last
    _, pos, size = _box_bins([_ann(cx=0.2, cy=0.5, rel_h=1.0, rel_w=0.4)])
    assert size == [9]
    assert pos == [2 * 5 + 1]  # cx = 0.2 falls in bin 1 of 5


def test_bin_annotations_counts_rejects():
    anns = [_ann("c"), ("c", -5, 0, 10, 10, 100, 100)]
    valid, pos, size = _box_bins(anns)
    assert valid == [True, False]
    assert len(pos) == len(size) == 1  # the rejected box gets no bin
    (r,) = category_bias_report(_columns(anns))
    assert r.n == 1  # valid boxes only


# ---------------------------------------------------------------------------
# chi-squared statistic and p-values
# ---------------------------------------------------------------------------

def test_chi2_statistic_hand_computed():
    stat, df = chi2_statistic((10, 0, 10, 0))
    assert stat == pytest.approx(20.0, abs=1e-12)  # E = 5: 4 * 25 / 5
    assert df == 3
    stat, df = chi2_statistic([7, 7, 7])
    assert stat == 0.0
    assert df == 2


def test_chi2_statistic_rejects_degenerate():
    with pytest.raises(ValueError):
        chi2_statistic((5,))
    with pytest.raises(ValueError):
        chi2_statistic((0, 0))


def test_upper_gamma_known_values():
    # Q(1, x) = exp(-x) at df 2; Q(1/2, x) = erfc(sqrt(x)) at df 1
    for x in (0.1, 1.0, 5.0, 20.0):
        assert chi2_pvalue(2 * x, 2) == pytest.approx(math.exp(-x), rel=1e-12)
        assert chi2_pvalue(2 * x, 1) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-10)
    assert chi2_pvalue(0.0, 6) == 1.0


def test_upper_gamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(0)
    for df in range(1, 121):
        for stat in rng.uniform(0.0, 240.0, size=4).tolist():
            want = float(special.gammaincc(df / 2, stat / 2))
            assert chi2_pvalue(stat, df) == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_chi2_pvalue_at_large_df():
    # bias-audit --pos-grid reaches df in the tens of thousands, where the
    # sum has df // 2 terms; scipy.special.gammaincc(25000, 24950)
    assert abs(chi2_pvalue(49900.0, 50000) - 0.623364903241486) < 1e-9


def test_upper_gamma_matches_scipy_at_large_a():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(1)
    for _ in range(200):
        df = int(np.exp(rng.uniform(np.log(120.0), np.log(2e5))))
        a = df / 2
        x = max(0.0, a + float(rng.normal()) * 3.0 * math.sqrt(a))
        want = float(special.gammaincc(a, x))
        assert chi2_pvalue(2 * x, df) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_upper_gamma_rejects_bad_args():
    for stat, df in ((1.0, 0), (-1.0, 2), (math.inf, 2), (1.0, 2.0), (1.0, 2.5)):
        with pytest.raises(ValueError):
            chi2_pvalue(stat, df)


def test_chi2_pvalue_known_values():
    # df=2: p = exp(-stat / 2)
    for stat in (0.5, 2.0, 10.0):
        assert chi2_pvalue(stat, 2) == pytest.approx(math.exp(-stat / 2), rel=1e-12)
    assert chi2_pvalue(0.0, 5) == 1.0
    # df=1: p = erfc(sqrt(stat / 2))
    assert chi2_pvalue(3.84, 1) == pytest.approx(0.05, abs=1e-3)


def test_chi2_pvalue_monotone_in_stat():
    ps = [chi2_pvalue(s, 9) for s in np.linspace(0, 120, 60)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_chi2_pvalue_rejects_bad_args():
    with pytest.raises(ValueError):
        chi2_pvalue(-1.0, 2)
    with pytest.raises(ValueError):
        chi2_pvalue(1.0, 0)
    with pytest.raises(ValueError):
        chi2_pvalue(math.nan, 2)


@pytest.mark.parametrize("df", [1, 2, 7])
def test_chi2_pvalue_of_a_statistic_whose_half_underflows_is_1(df):
    assert chi2_pvalue(5e-324, df) == 1.0
    assert chi2_pvalue(0.0, df) == 1.0


@given(st.floats(0.0, 160.0), st.integers(1, 80))
def test_upper_gamma_in_unit_interval(stat, df):
    assert 0.0 <= chi2_pvalue(stat, df) <= 1.0


# ---------------------------------------------------------------------------
# per-category report
# ---------------------------------------------------------------------------

# Deciles a box of each grid row can host: edge rows only fit boxes under
# 0.4 of the image height, so a jointly bin-balanced sample assigns small
# deciles to edge rows and the largest ones to the middle row.
_ROW_DECILES = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7), 2: (8, 9), 3: (4, 5, 6, 7),
                4: (0, 1, 2, 3)}
_ROW_CY = {
    (0, 0): 0.05, (0, 1): 0.09, (0, 2): 0.15, (0, 3): 0.19,
    (1, 4): 0.24, (1, 5): 0.29, (1, 6): 0.34, (1, 7): 0.39,
    (2, 8): 0.5, (2, 9): 0.5,
    (3, 4): 0.76, (3, 5): 0.71, (3, 6): 0.66, (3, 7): 0.61,
    (4, 0): 0.95, (4, 1): 0.91, (4, 2): 0.85, (4, 3): 0.81,
}


def _balanced_annotations(category, n):
    """Exactly uniform over both position cells and size deciles."""
    assert n % 100 == 0
    out = []
    for row in range(5):
        deciles = _ROW_DECILES[row]
        per_pair = (n // 25) // len(deciles)
        for col in range(5):
            cx = (col + 0.5) / 5
            for d in deciles:
                cy = _ROW_CY[(row, d)]
                rel_h = (d + 0.5) / 10
                out.extend(_ann(category, cx=cx, cy=cy, rel_h=rel_h, rel_w=0.05)
                           for _ in range(per_pair))
    return out


def test_balanced_annotations_are_exactly_uniform():
    valid, pos, size = _box_bins(_balanced_annotations("x", 500))
    assert all(valid)
    assert set(np.bincount(pos, minlength=25).tolist()) == {20}
    assert set(np.bincount(size, minlength=10).tolist()) == {50}


def test_report_flags_concentrated_not_uniform():
    concentrated = [_ann("biased", cx=0.5, cy=0.5, rel_h=0.31) for _ in range(2000)]
    fair = _balanced_annotations("fair", 2000)
    report = category_bias_report(_columns(concentrated + fair))
    by_cat = {r.category: r for r in report}
    assert by_cat["biased"].flagged
    assert by_cat["biased"].p_pos < 1e-10
    assert by_cat["biased"].p_size < 1e-10
    assert not by_cat["fair"].insufficient
    assert not by_cat["fair"].flagged
    assert by_cat["fair"].p_pos > 1e-10
    assert by_cat["fair"].p_size > 1e-10


def test_report_insufficient_category():
    report = category_bias_report(_columns([_ann("tiny") for _ in range(10)]))
    assert len(report) == 1
    assert report[0].insufficient
    assert math.isnan(report[0].chi2_pos)
    assert not report[0].flagged


def test_report_sorted_by_category():
    anns = [_ann("zeta"), _ann("alpha")]
    report = category_bias_report(_columns(anns))
    assert [r.category for r in report] == ["alpha", "zeta"]


def test_report_threshold_boundary():
    # mild imbalance stays unflagged at the extreme 1e-10 threshold
    anns = _balanced_annotations("ok", 1000)
    anns.extend(_ann("ok", cx=0.5, cy=0.5, rel_h=0.55, rel_w=0.05) for _ in range(40))
    (r,) = category_bias_report(_columns(anns))
    assert not r.insufficient
    assert r.chi2_pos > 0 and r.chi2_size > 0
    assert not r.flagged



@pytest.mark.parametrize("grid, size_bins", [(1, 10), (0, 10), (-3, 10), (5, 1), (5, 0)])
def test_report_rejects_grid_or_bins_below_2(grid, size_bins):
    # the box has no finite bin, so a check made after binning would name that instead
    anns = Annotations.of(["dog"], [np.inf], [0.0], [1.0], [1.0], [np.inf], [10.0])
    with pytest.raises(ValueError, match=f"position grid {grid} or size bins {size_bins} below 2"):
        category_bias_report(anns, grid, size_bins)


@pytest.mark.parametrize("rows", [[], [_ann(cx=0.0)] * 3], ids=["no-box", "no-valid-box"])
def test_report_with_no_valid_box_raises(rows):
    with pytest.raises(ValueError, match=f"no valid box among {len(rows)} annotations"):
        category_bias_report(_columns(rows))

# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_read_annotations_csv(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                    "dog,640,480,10,20,100,50\n"
                    "\n"
                    "cat,320,240,0,0,320,240\n")
    anns = read_annotations_csv(path)
    assert len(anns.codes) == 2
    assert anns.categories == ("cat", "dog")
    assert anns.codes.tolist() == [1, 0]
    assert [anns.box_x[0], anns.box_y[0], anns.box_w[0], anns.box_h[0], anns.img_w[0],
            anns.img_h[0]] == [10.0, 20.0, 100.0, 50.0, 640.0, 480.0]


def _read_row_by_row(path):
    """The reader's oracle: csv rows after the header, blank lines skipped,
    each number parsed by float()."""
    with open(path, newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if row]
    return [(cat, float(bx), float(by), float(bw), float(bh), float(iw), float(ih))
            for cat, iw, ih, bx, by, bw, bh in rows]


def test_read_annotations_csv_matches_row_by_row_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    lines = ["category,img_w,img_h,box_x,box_y,box_w,box_h"]
    for i in range(300):
        cat = ['"dog, small"', "cat", '"say ""hi"""', "zebra"][i % 4]
        numbers = [rng.integers(1, 500), rng.uniform(1, 500), repr(float(rng.normal(50, 80))),
                   "1e2", " 7 ", rng.integers(0, 90)]
        lines.append(",".join([cat, *map(str, numbers)]))
        if i % 50 == 0:
            lines.append("")
    path = tmp_path / "ann.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    anns = read_annotations_csv(path)
    oracle = _read_row_by_row(path)
    assert anns.categories == ('cat', 'dog, small', 'say "hi"', 'zebra')
    assert [anns.categories[c] for c in anns.codes] == [row[0] for row in oracle]
    for i, name in enumerate(("box_x", "box_y", "box_w", "box_h", "img_w", "img_h")):
        assert getattr(anns, name).tolist() == [row[i + 1] for row in oracle], name
    monkeypatch.setattr(biasstat, "MIN_PER_BIN", 1)
    assert category_bias_report(anns, 2, 3) == category_bias_report(_columns(oracle), 2, 3)


@pytest.mark.parametrize("row", ["dog,640,480,10,20,100", "dog,640,480,10,20,100,50,7",
                                 "dog,640,480,ten,20,100,50", "dog,640,480,10,20,100,"])
def test_read_annotations_csv_rejects_a_malformed_row(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                    "cat,320,240,0,0,320,240\n" + row + "\n")
    with pytest.raises(ValueError):
        read_annotations_csv(path)


def test_valid_box_with_an_infinite_center_raises(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                    "dog,inf,480,inf,20,100,50\n")
    anns = read_annotations_csv(path)
    assert anns.valid().tolist() == [True]
    with pytest.raises(ValueError, match="not finite"):
        category_bias_report(anns)


def _bin_row_by_row(rows, grid, size_bins):
    """The binning oracle: each category's position and size counts, with
    each valid box's bins from Python floats."""
    counts = {}
    for category, bx, by, bw, bh, iw, ih in rows:
        pos, size = counts.setdefault(category, ([0] * grid * grid, [0] * size_bins))
        if bw > 0 and bh > 0 and iw > 0 and ih > 0 and bx >= 0 and by >= 0 and \
                bx + bw <= iw and by + bh <= ih:
            cx, cy = (bx + bw / 2) / iw, (by + bh / 2) / ih
            pos[min(int(cy * grid), grid - 1) * grid + min(int(cx * grid), grid - 1)] += 1
            size[min(int(bh / ih * size_bins), size_bins - 1)] += 1
    return counts


def test_bin_annotations_matches_row_by_row_oracle(monkeypatch):
    rng = np.random.default_rng(8)
    rows = [(str(rng.choice(["a", "b", "c"])), float(rng.integers(-5, 90)),
             float(rng.integers(0, 90)), float(rng.integers(0, 40)),
             float(rng.integers(1, 50)), 100.0, 100.0)
            for _ in range(2000)]
    rows += [("c", 0.0, 0.0, 20.0, 100.0, 100.0, 100.0), ("c", 40.0, 0.0, 20.0, 50.0, 100.0, 100.0)]
    rows += [("void", -1.0, 0.0, 10.0, 10.0, 100.0, 100.0)] * 30  # no valid box
    monkeypatch.setattr(biasstat, "MIN_PER_BIN", 1)
    for grid, size_bins in ((5, 10), (3, 4), (2, 3), (7, 2)):
        oracle = _bin_row_by_row(rows, grid, size_bins)
        # the bins of all boxes, whose counts the chi2 values below cannot tell apart
        # from a permutation of them
        _, pos, size = _box_bins(rows, grid, size_bins)
        assert np.bincount(pos, minlength=grid * grid).tolist() == np.sum(
            [p for p, _ in oracle.values()], axis=0).tolist()
        assert np.bincount(size, minlength=size_bins).tolist() == np.sum(
            [s for _, s in oracle.values()], axis=0).tolist()
        report = category_bias_report(_columns(rows), grid, size_bins)
        assert [r.category for r in report] == ["a", "b", "c", "void"]
        for r in report:
            pos, size = oracle[r.category]
            assert r.n == sum(pos) == sum(size)
            assert r.insufficient == (r.category == "void")
            if not r.insufficient:  # bitwise: the oracle's counts give the same statistics
                assert (r.chi2_pos, r.chi2_size) == (chi2_statistic(pos)[0],
                                                     chi2_statistic(size)[0])


@pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n", "\n\n\n"])
def test_read_annotations_csv_of_blank_lines_holds_no_box_and_warns_nothing(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"category,img_w,img_h,box_x,box_y,box_w,box_h\n" + body.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        anns = read_annotations_csv(path)
    assert anns.categories == () and len(anns.codes) == 0
    with pytest.raises(ValueError, match="no valid box among 0 annotations"):
        category_bias_report(anns)


def test_read_annotations_csv_parses_from_the_open_file(tmp_path):
    """loadtxt reads the rows from the file, not from one string of its body
    and a StringIO of it: on 50 000 rows of 1.5 MB the traced peak fell
    from 9.06 to 6.50 times the file's size."""
    rng = np.random.default_rng(0)
    cols = [rng.integers(200, 801, 50_000) for _ in range(6)]
    path = tmp_path / "boxes.csv"
    path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n" + "".join(
        f"cat{i % 20:02d},{','.join(map(str, row))}\n" for i, row in enumerate(zip(*cols))))
    read_annotations_csv(path)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    anns = read_annotations_csv(path)
    peak = tracemalloc.get_traced_memory()[1] - base
    if not tracing:
        tracemalloc.stop()
    assert len(anns.codes) == 50_000
    assert peak < 7.5 * path.stat().st_size


def test_read_annotations_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_annotations_csv(path)


def test_write_bias_report_csv():
    anns = [_ann("biased", cx=0.5, cy=0.5, rel_h=0.31) for _ in range(200)]
    anns += [_ann("tiny")]
    text = cli.cmd_bias_audit(SimpleNamespace(pos_grid=5, size_bins=10), _columns(anns))
    lines = text.splitlines()
    assert lines[0] == "#bins,position=5x5,size=10"
    assert lines[1].startswith("category,")
    rows = {line.split(",")[0]: line for line in lines[2:]}
    assert "true" in rows["biased"]
    assert "insufficient data" in rows["tiny"]
