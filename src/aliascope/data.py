"""Synthetic translatable datasets and binary PGM/PPM image I/O.

Pixels are in [0, 1] everywhere in the library. Only `write_pgm` works in
the files' 0..255 units; `read_image` and `save_dataset` convert at that
boundary. Each fact about an image file is decided in one place: its format
by its magic number, when `read_image` reads it in one `read()`; its name by
`image_ids`, which `save_dataset` writes it under and the audits report it
by; its class directory once per class, by `save_dataset`.

The synthetic generator is the desk-scale stand-in for a natural-image
training set: each class is a distinct procedural pattern placed at
seeded-random positions, so position invariance is exactly the quantity the
audits can probe.
"""

from __future__ import annotations

import collections
import fnmatch
import itertools
import os
import re
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
        if min(self.num_classes, self.samples_per_class, self.pattern_size) < 1:
            raise ValueError("need at least one class, one sample and a 1-pixel pattern")
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
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
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


def read_image(path) -> np.ndarray:
    """A binary netpbm file as a (channels, h, w) tensor in [0, 1], read
    once: the magic number, which alone sets the channels (P5: 1, P6: 3)
    whatever the file's suffix, the header lines (each cut at '#') up to
    maxval 255, then the payload."""
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    channels = {b"P5": 1, b"P6": 3}.get(raw[:2])
    if channels is None:
        raise ImageFormatError(f"unsupported format: expected P5 or P6, got {raw[:2]!r}")
    fields, pos = [], 2
    while len(fields) < 3:
        if pos >= len(raw):
            raise ImageFormatError("truncated header")
        end = raw.find(b"\n", pos) + 1 or len(raw)
        fields.extend(raw[pos:end].split(b"#", 1)[0].split())
        pos = end
    w, h, maxval = (int(f) for f in fields[:3])
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 supported, got {maxval}")
    count = h * w * channels
    if not 0 <= count <= len(raw) - pos:
        raise ImageFormatError("truncated pixel payload")
    pixels = np.frombuffer(raw, np.uint8, count, pos) / 255.0
    return pixels.reshape(h, w, channels).transpose(2, 0, 1)


def write_pgm(t: np.ndarray, path) -> None:
    if t.ndim != 3 or t.shape[0] != 1:
        raise ValueError("write_pgm expects a (1, h, w) tensor")
    if t.min() < 0 or t.max() > 255:
        raise ValueError("pixel values must lie in [0, 255]")
    _, h, w = t.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.rint(t[0]).astype(np.uint8).tobytes())


def image_ids(labels) -> list[str]:
    """The id of each image of a dataset with these labels, in order:
    `<class>/<rank of the image within its class, 5 digits>`, the path under
    the dataset's root, less the suffix, that `save_dataset` writes it to."""
    ranks = collections.defaultdict(itertools.count)
    return [f"{label}/{next(ranks[label]):05d}" for label in map(int, labels)]


def save_dataset(ds: LabeledDataset, root) -> None:
    """Write each image to `<root>/<image id>.pgm`, making each class
    directory once; [0, 1] values map to 0..255."""
    for label in np.unique(ds.labels):
        Path(root, str(label)).mkdir(parents=True, exist_ok=True)
    for img, image_id in zip(ds.images, image_ids(ds.labels)):
        write_pgm(np.clip(img * 255.0, 0, 255), os.path.join(root, f"{image_id}.pgm"))


def load_dataset(root, limit: int | None = None) -> LabeledDataset:
    """Read the layout `save_dataset` writes back, in [0, 1]: classes in
    numeric order, the `*.p?m` files of each in name order, the first
    `limit` files of those. Every directory under `root` is a class, named
    by its id as `save_dataset` writes it: a non-negative integer in ASCII
    digits with no leading zero, so no two directories share an id. A root
    with no image, and an image whose shape is not the first image's, raise
    ValueError."""
    root = Path(root)
    class_dirs = [e.name for e in os.scandir(root) if e.is_dir()]
    for name in class_dirs:
        if not re.fullmatch("0|[1-9][0-9]*", name):
            raise ValueError(f"class directory {os.path.join(root, name)} is not named by "
                             "a non-negative integer without leading zeros")
    class_dirs.sort(key=int)
    if not class_dirs:
        raise ValueError(f"no class directories under {root}")
    files = ((int(d), os.path.join(root, d, name)) for d in class_dirs
             for name in sorted(fnmatch.filter(os.listdir(os.path.join(root, d)), "*.p?m")))
    images, labels = [], []
    for label, path in itertools.islice(files, limit):
        images.append(read_image(path))
        labels.append(label)
        if images[-1].shape != images[0].shape:
            raise ValueError(f"image {path} has shape {images[-1].shape}, unlike the "
                             f"{images[0].shape} of the images before it")
    if not images:
        raise ValueError(f"no *.p?m image in the class directories under {root}")
    return LabeledDataset(np.stack(images), np.asarray(labels, dtype=np.int64),
                          int(class_dirs[-1]) + 1)
