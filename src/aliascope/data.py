"""Synthetic translatable datasets and binary PGM/PPM image I/O.

Pixels are in [0, 1] everywhere in the library. Only the netpbm readers and
writers (`read_pgm`, `write_pgm`, ...) work in the files' 0..255 units;
`read_image`, `save_dataset` and `load_dataset` convert at that boundary.

The synthetic generator is the desk-scale stand-in for a natural-image
training set: each class is a distinct procedural pattern placed at
seeded-random positions, so position invariance is exactly the quantity the
audits can probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_CLASSES = 16


@dataclass(frozen=True)
class SyntheticConfig:
    num_classes: int
    samples_per_class: int
    canvas: int
    pattern_size: int
    jitter: int  # max displacement from the centered position, per axis
    seed: int = 0

    def __post_init__(self):
        if self.num_classes > MAX_CLASSES:
            raise ValueError(f"pattern family supports at most {MAX_CLASSES} classes")
        if self.num_classes < 1 or self.samples_per_class < 1:
            raise ValueError("need at least one class and one sample")
        margin = (self.canvas - self.pattern_size) // 2
        if self.pattern_size > self.canvas or self.jitter > margin or self.jitter < 0:
            raise ValueError("pattern plus jitter must fit inside the canvas")


@dataclass
class LabeledDataset:
    images: np.ndarray  # (n, c, h, w)
    labels: np.ndarray  # (n,)
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels length mismatch")
        if len(self.labels) and int(self.labels.max()) >= self.num_classes:
            raise ValueError("label out of class range")


def class_pattern(class_idx: int, size: int) -> np.ndarray:
    """Fixed binary pattern for a class; patterns are pairwise distinct masks."""
    if not 0 <= class_idx < MAX_CLASSES:
        raise ValueError("class index outside the pattern family")
    y, x = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    r = np.hypot(y - c, x - c)
    masks = [
        y % 2 == 0,                                   # horizontal stripes
        x % 2 == 0,                                   # vertical stripes
        (x + y) % 2 == 0,                             # fine checker
        np.abs(y - c) <= size // 6,                   # horizontal bar
        np.abs(x - c) <= size // 6,                   # vertical bar
        (np.abs(y - c) <= size // 6) | (np.abs(x - c) <= size // 6),  # cross
        np.abs(np.abs(y - c) - np.abs(x - c)) <= 0.5,  # X
        np.abs(r - size / 3) <= 0.8,                  # ring
        r <= size / 3,                                # disk
        (y + x) % 3 == 0,                             # diagonal stripes
        (y < size // 2) ^ (x < size // 2),            # two-quadrant checker
        (y % 3 == 0) & (x % 3 == 0),                  # dot lattice
        (y == 0) | (y == size - 1) | (x == 0) | (x == size - 1),  # frame
        (y >= x),                                     # lower triangle
        (y % 4 < 2) ^ (x % 4 < 2),                    # coarse checker
        ((y - c) * (x - c) >= 0),                     # opposite quadrants
    ]
    return masks[class_idx].astype(np.float64)


def generate_synthetic(cfg: SyntheticConfig) -> LabeledDataset:
    """Each sample is its class pattern at a seeded-random jittered position."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.num_classes * cfg.samples_per_class
    images = np.zeros((n, 1, cfg.canvas, cfg.canvas))
    labels = np.zeros(n, dtype=np.int64)
    base = (cfg.canvas - cfg.pattern_size) // 2
    i = 0
    for cls in range(cfg.num_classes):
        pattern = class_pattern(cls, cfg.pattern_size)
        for _ in range(cfg.samples_per_class):
            dy = int(rng.integers(-cfg.jitter, cfg.jitter + 1)) if cfg.jitter else 0
            dx = int(rng.integers(-cfg.jitter, cfg.jitter + 1)) if cfg.jitter else 0
            top, left = base + dy, base + dx
            images[i, 0, top:top + cfg.pattern_size, left:left + cfg.pattern_size] = pattern
            labels[i] = cls
            i += 1
    return LabeledDataset(images, labels, cfg.num_classes)


# ---------------------------------------------------------------------------
# Binary netpbm I/O (P5 grayscale / P6 color, maxval 255)
# ---------------------------------------------------------------------------

class ImageFormatError(ValueError):
    pass


def _read_header(fh, magic: bytes):
    got = fh.read(2)
    if got != magic:
        raise ImageFormatError(f"unsupported format: expected {magic.decode()}, got {got!r}")
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ImageFormatError("truncated header")
        line = line.split(b"#", 1)[0]
        fields.extend(line.split())
    w, h, maxval = (int(f) for f in fields[:3])
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 supported, got {maxval}")
    return w, h


def _read_payload(fh, count: int) -> np.ndarray:
    payload = fh.read(count)
    if len(payload) != count:
        raise ImageFormatError("truncated pixel payload")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.float64)


def read_pgm(path) -> np.ndarray:
    """Binary P5 -> (1, h, w) float tensor with values in [0, 255]."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P5")
        return _read_payload(fh, w * h).reshape(1, h, w)


def read_ppm(path) -> np.ndarray:
    """Binary P6 -> (3, h, w) float tensor with values in [0, 255]."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P6")
        return _read_payload(fh, 3 * w * h).reshape(h, w, 3).transpose(2, 0, 1)


def _check_range(t: np.ndarray):
    if t.min() < 0 or t.max() > 255:
        raise ValueError("pixel values must lie in [0, 255]")


def write_pgm(t: np.ndarray, path) -> None:
    if t.ndim != 3 or t.shape[0] != 1:
        raise ValueError("write_pgm expects a (1, h, w) tensor")
    _check_range(t)
    _, h, w = t.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.rint(t[0]).astype(np.uint8).tobytes())


def write_ppm(t: np.ndarray, path) -> None:
    if t.ndim != 3 or t.shape[0] != 3:
        raise ValueError("write_ppm expects a (3, h, w) tensor")
    _check_range(t)
    _, h, w = t.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.rint(t.transpose(1, 2, 0)).astype(np.uint8).tobytes())


def read_image(path) -> np.ndarray:
    """A PGM, or a PPM by its suffix, as a tensor in the library's [0, 1] range."""
    path = Path(path)
    img = read_ppm(path) if path.suffix == ".ppm" else read_pgm(path)
    return img / 255.0


def save_dataset(ds: LabeledDataset, root) -> None:
    """Write `<class_id>/<sample_id>.pgm`; [0, 1] values map to 0..255."""
    root = Path(root)
    counters = [0] * ds.num_classes
    for img, label in zip(ds.images, ds.labels):
        cls_dir = root / str(int(label))
        cls_dir.mkdir(parents=True, exist_ok=True)
        write_pgm(np.clip(img * 255.0, 0, 255), cls_dir / f"{counters[int(label)]:05d}.pgm")
        counters[int(label)] += 1


def load_dataset(root) -> LabeledDataset:
    """Read the `<class_id>/<sample_id>.pgm` layout back, in [0, 1]."""
    root = Path(root)
    class_dirs = sorted((d for d in root.iterdir() if d.is_dir()), key=lambda d: int(d.name))
    if not class_dirs:
        raise ValueError(f"no class directories under {root}")
    images, labels = [], []
    for d in class_dirs:
        for f in sorted(d.glob("*.p?m")):
            images.append(read_image(f))
            labels.append(int(d.name))
    return LabeledDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                          int(class_dirs[-1].name) + 1)
