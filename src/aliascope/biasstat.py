"""Dataset-bias audit: bin bounding-box positions and sizes per category and
chi-squared-test them against the uniform distribution. The p-values are
the finite sums that the chi-squared survival function is at integer df.

The binning defaults (5x5 position grid, 10 size deciles) are artifact
choices, configurable and recorded in the CSV's `#bins` line. Sizes are box
height normalized by image height so differently-sized images compare.

Boxes are held as columns (`Annotations`): one float64 array per coordinate
and each box's category as an integer code. Validity is one boolean mask,
every valid box's bins come from one array expression, and all categories'
counts from one `np.bincount` per histogram over `code * k + bin`, so no
Python object is made per box.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FLAG_THRESHOLD = 1e-10  # categories below this p are "highly non uniform"


@dataclass(frozen=True, eq=False)
class Annotations:
    """Bounding boxes as columns: `codes` indexes each box's category in the
    sorted `categories`, and each coordinate is a float64 array."""
    categories: tuple[str, ...]
    codes: np.ndarray
    box_x: np.ndarray
    box_y: np.ndarray
    box_w: np.ndarray
    box_h: np.ndarray
    img_w: np.ndarray
    img_h: np.ndarray

    @classmethod
    def of(cls, category, box_x, box_y, box_w, box_h, img_w, img_h) -> Annotations:
        """Columns from one sequence per field."""
        categories, codes = np.unique(np.asarray(category, dtype=str), return_inverse=True)
        return cls(tuple(categories.tolist()), codes.reshape(-1),
                   *(np.asarray(col, dtype=np.float64)
                     for col in (box_x, box_y, box_w, box_h, img_w, img_h)))

    def valid(self) -> np.ndarray:
        """Mask of the boxes of positive size that lie inside an image of
        positive size."""
        return ((self.box_w > 0) & (self.box_h > 0) & (self.img_w > 0) & (self.img_h > 0)
                & (self.box_x >= 0) & (self.box_y >= 0)
                & (self.box_x + self.box_w <= self.img_w)
                & (self.box_y + self.box_h <= self.img_h))


def _bins(ann: Annotations, position_grid: int, size_bins: int):
    """(valid, pos, size): the mask of valid boxes and, for each valid box,
    the position-grid cell of its center (normalized to [0,1]^2, row-major)
    and the size bin of its relative height. Bins are right-open over [0, 1]
    and the last one is closed."""
    valid = ann.valid()
    bx, by, bw, bh, iw, ih = (col[valid] for col in (ann.box_x, ann.box_y, ann.box_w,
                                                     ann.box_h, ann.img_w, ann.img_h))
    if not np.isfinite(bx + by + bw + bh).all():  # inside an infinite image, but no bin
        raise ValueError("a valid box has a coordinate or size that is not finite")

    def bins(v, k):
        return np.minimum((v * k).astype(np.intp), k - 1)

    cx = (bx + bw / 2) / iw
    cy = (by + bh / 2) / ih
    return (valid, bins(cy, position_grid) * position_grid + bins(cx, position_grid),
            bins(bh / ih, size_bins))


def chi2_statistic(observed) -> tuple[float, int]:
    """Chi-squared of the counts `observed` against the uniform expectation
    E_i = N / k."""
    k = len(observed)
    if k < 2:
        raise ValueError("need at least 2 bins")
    n = sum(observed)
    if n == 0:
        raise ValueError("empty counts")
    e = n / k
    stat = sum((o - e) ** 2 / e for o in observed)
    return stat, k - 1


def chi2_pvalue(stat: float, df: int) -> float:
    """Upper-tail p-value Q(df/2, stat/2) of the chi-squared distribution.

    For integer df, Q is a finite sum (Abramowitz & Stegun 26.4.4-26.4.5):
    with x = stat/2 and a0 = (df % 2)/2, Q = [erfc(sqrt(x)) if df is odd] +
    sum_{j < df//2} exp((a0+j) ln x - x - lgamma(a0+j+1)), added by
    `math.fsum` and clamped at 1: no iteration to cap or fail, and a term
    taken in log space underflows only when the term itself does.

    Error bound: fsum rounds once, so each term's own rounding dominates,
    about (x + (a0+j)|ln x|) * 2^-52 relative, from its exponent. Measured
    against scipy.special.gammaincc: at most 1.7e-13 relative for df < 200
    and 3.6e-11 for df up to 1e5. Where p >= 1 - 1.2e-14 it can rise by up
    to 1e-14 relative as stat grows (df 1-199, 400 stats each); below
    that it decreases monotonically in stat.
    """
    if not math.isfinite(stat) or stat < 0:
        raise ValueError("chi-squared statistic must be finite and >= 0")
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be an int >= 1, got {df!r}")
    x, a0 = stat / 2.0, (df % 2) / 2.0
    if x == 0:  # stat is 0, or so small that stat / 2 underflows
        return 1.0
    log_x = math.log(x)
    terms = [math.exp((a0 + j) * log_x - x - math.lgamma(a0 + j + 1)) for j in range(df // 2)]
    return min(1.0, math.fsum([math.erfc(math.sqrt(x)) if df % 2 else 0.0, *terms]))


class CategoryBias(NamedTuple):
    category: str
    n: int
    chi2_pos: float
    p_pos: float
    chi2_size: float
    p_size: float
    flagged: bool
    insufficient: bool


def category_bias_report(annotations: Annotations, position_grid: int = 5,
                         size_bins: int = 10, min_per_bin: int = 5) -> list[CategoryBias]:
    """Per-category uniformity test of positions and sizes.

    Categories with fewer than min_per_bin * max(bins) valid boxes are
    marked insufficient rather than tested. A category is flagged when
    either p-value falls below 1e-10. A grid or bin count below 2, and
    annotations with no valid box, raise ValueError: they test nothing.
    """
    if position_grid < 2 or size_bins < 2:
        raise ValueError(f"position grid {position_grid} or size bins {size_bins} below 2")
    valid, pos, size = _bins(annotations, position_grid, size_bins)
    if not valid.any():
        raise ValueError(f"no valid box among {len(valid)} annotations")
    codes = annotations.codes[valid]
    n_cat, n_pos = len(annotations.categories), position_grid * position_grid

    def histograms(bins, k):  # (categories, k) counts from one bincount
        return np.bincount(codes * k + bins, minlength=n_cat * k).reshape(n_cat, k)

    pos_counts, size_counts = histograms(pos, n_pos), histograms(size, size_bins)
    out = []
    for category, pos_row, size_row in zip(annotations.categories, pos_counts, size_counts):
        n = int(size_row.sum())
        if n < min_per_bin * max(n_pos, size_bins):
            out.append(CategoryBias(category, n, math.nan, math.nan,
                                    math.nan, math.nan, False, True))
            continue
        # Python sums over Python ints, so the statistics' bits do not depend on numpy
        cp, dfp = chi2_statistic(pos_row.tolist())
        cs, dfs = chi2_statistic(size_row.tolist())
        pp, ps = chi2_pvalue(cp, dfp), chi2_pvalue(cs, dfs)
        out.append(CategoryBias(category, n, cp, pp, cs, ps,
                                pp < FLAG_THRESHOLD or ps < FLAG_THRESHOLD, False))
    return out


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

ANNOTATION_HEADER = ["category", "img_w", "img_h", "box_x", "box_y", "box_w", "box_h"]


def read_annotations_csv(path) -> Annotations:
    """The annotations of a CSV file whose first line is ANNOTATION_HEADER.

    The rows are parsed by one `np.loadtxt` with CSV quoting, straight from
    the open file, into a record of a string category and six floats. Blank
    lines are skipped, and a body of none but blank lines holds no box; a
    row with another number of fields, or a number that does not parse,
    raises ValueError.
    """
    fields = [(ANNOTATION_HEADER[0], object)] + [(name, np.float64)
                                                 for name in ANNOTATION_HEADER[1:]]
    with open(path, newline="") as fh:
        if next(csv.reader([fh.readline()]), None) != ANNOTATION_HEADER:
            raise ValueError(f"expected header {','.join(ANNOTATION_HEADER)}")
        with warnings.catch_warnings():  # an empty body is no boxes, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype=fields, ndmin=1, delimiter=",", quotechar='"',
                              comments=None)
    category, iw, ih, bx, by, bw, bh = (rows[name] for name in ANNOTATION_HEADER)
    return Annotations.of(category, bx, by, bw, bh, iw, ih)
