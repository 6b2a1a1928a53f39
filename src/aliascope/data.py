"""Synthetic translatable datasets and binary PGM/PPM image I/O.

Pixels are in [0, 1] everywhere in the library, `write_pgm`'s input too;
only `read_image` and `write_pgm` see the files' 0..255 units. Each fact
about an image is decided in one place:

- its format, by its magic number, when `read_image` reads it in one
  `read()`;
- that a file of a class directory is an image, by its suffix, in
  `load_dataset`;
- its id, which the dataset carries in `LabeledDataset.ids` and the audits
  report it by: `generate_synthetic` names each image
  `<class>/<rank within its class, 5 digits>`, `load_dataset` by the file's
  path under the root less its suffix, and `save_dataset` writes it to
  `<root>/<id>.pgm`, making each id's directory once.

Every error about a file names it. A load holds one copy of its images:
`load_dataset` lists the files first, then reads each straight into its row
of the array it returns.

The synthetic generator is the desk-scale stand-in for a natural-image
training set: each class is a distinct procedural pattern placed at
seeded-random positions, so position invariance is exactly the quantity the
audits can probe.
"""

from __future__ import annotations

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
    ids: tuple[str, ...]  # each image's name, e.g. "0/b" for <root>/0/b.pgm

    def __post_init__(self):
        if not len(self.images) == len(self.labels) == len(self.ids):
            raise ValueError("images, labels and ids length mismatch")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("two images share an id")
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
    """Each sample is its class pattern at a seeded-random jittered position,
    named `<class>/<rank of the sample within its class, 5 digits>`."""
    rng = np.random.default_rng(cfg.seed)
    images = np.zeros((cfg.num_classes * cfg.samples_per_class, 1, cfg.canvas, cfg.canvas))
    base = (cfg.canvas - cfg.pattern_size) // 2
    ids = []
    for cls in range(cfg.num_classes):
        pattern = class_pattern(cls, cfg.pattern_size)
        for rank in range(cfg.samples_per_class):
            dy = int(rng.integers(-cfg.jitter, cfg.jitter + 1)) if cfg.jitter else 0
            dx = int(rng.integers(-cfg.jitter, cfg.jitter + 1)) if cfg.jitter else 0
            top, left = base + dy, base + dx
            images[len(ids), 0, top:top + cfg.pattern_size, left:left + cfg.pattern_size] = pattern
            ids.append(f"{cls}/{rank:05d}")
    labels = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), cfg.samples_per_class)
    return LabeledDataset(images, labels, cfg.num_classes, tuple(ids))


# ---------------------------------------------------------------------------
# Binary netpbm I/O (P5 grayscale / P6 color, maxval 255)
# ---------------------------------------------------------------------------

class ImageFormatError(ValueError):
    pass


def read_image(path) -> np.ndarray:
    """A binary netpbm file as a (channels, h, w) tensor in [0, 1], read
    once: the magic number, which alone sets the channels (P5: 1, P6: 3)
    whatever the file's suffix, the header lines (each cut at '#') up to
    maxval 255, then the payload. A file that is no such image, or one
    with no pixel, raises ImageFormatError, whose message starts with the
    path."""
    with open(path, "rb", buffering=0) as fh:
        raw = fh.read()
    try:
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
        if min(w, h) < 1:
            raise ImageFormatError(f"width and height must be at least 1, got {w} x {h}")
        count = h * w * channels
        if count > len(raw) - pos:
            raise ImageFormatError("truncated pixel payload")
    except ValueError as exc:  # ImageFormatError, or int() of a header field
        raise ImageFormatError(f"{path}: {exc}") from None
    pixels = np.frombuffer(raw, np.uint8, count, pos) / 255.0
    return pixels.reshape(h, w, channels).transpose(2, 0, 1)


def _check_pgm(t: np.ndarray) -> None:
    """Raise ValueError unless `t` is a (1, h, w) tensor in [0, 1]."""
    if t.ndim != 3 or t.shape[0] != 1:
        raise ValueError(f"write_pgm expects a (1, h, w) tensor, got shape {t.shape}")
    if not (t.min() >= 0 and t.max() <= 1):  # a nan fails both
        raise ValueError("pixel values must lie in [0, 1]")


def _write_p5(t: np.ndarray, path) -> None:
    _, h, w = t.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.rint(t[0] * 255.0).astype(np.uint8).tobytes())


def write_pgm(t: np.ndarray, path) -> None:
    """Write a (1, h, w) tensor in [0, 1] as a binary P5 file, each pixel
    the byte rint(255 * value)."""
    _check_pgm(t)
    _write_p5(t, path)


def save_dataset(ds: LabeledDataset, root) -> None:
    """Write each image to `<root>/<id>.pgm`, making each id's directory
    once. Every image is checked before anything is written, so that
    `load_dataset` reads the dataset back whole: one that `write_pgm`
    refuses, such as a 3-channel image, and an id whose directory is not its
    label's decimal name, raise ValueError naming the id."""
    for img, label, image_id in zip(ds.images, ds.labels, ds.ids):
        if os.path.dirname(image_id) != str(label):
            raise ValueError(f"image {image_id} is not in the directory {label} of its label")
        try:
            _check_pgm(img)
        except ValueError as exc:
            raise ValueError(f"image {image_id}: {exc}") from None
    for folder in {os.path.dirname(image_id) for image_id in ds.ids}:
        Path(root, folder).mkdir(parents=True, exist_ok=True)
    for img, image_id in zip(ds.images, ds.ids):
        _write_p5(img, os.path.join(root, f"{image_id}.pgm"))


def _class_images(root, name: str) -> list[tuple[str, str]]:
    """(id, path) of each file of the class directory `name`, in id order;
    a file's id is `<name>/<file name less its suffix>`. An entry whose name
    does not end in .pgm or .ppm, in any case, and a second file with one
    id, raise ValueError naming them."""
    found = {}
    for n in sorted(os.listdir(os.path.join(root, name))):
        path, image_id = os.path.join(root, name, n), f"{name}/{n[:-4]}"
        if not n.lower().endswith((".pgm", ".ppm")):
            raise ValueError(f"{path} is not a .pgm or .ppm file; a class directory holds "
                             "nothing else")
        if image_id in found:
            raise ValueError(f"{found[image_id]} and {path} are both image {image_id}")
        found[image_id] = path
    return sorted(found.items())


def load_dataset(root, limit: int | None = None) -> LabeledDataset:
    """Read the layout `save_dataset` writes back, in [0, 1]: classes in
    numeric order, the files of each in id order, the first `limit` files of
    those, each with its id, the file's path under `root` less its suffix.
    Every directory under `root` is a class, named by its label: a
    non-negative integer in ASCII digits with no leading zero, so no two
    directories share a label. A class directory holds images alone, no two
    of one id (`_class_images`); those past the one that holds the
    `limit`-th file are not listed. The files are listed first; each is then
    read into its row of one preallocated array, after its shape is checked
    against the first image's. A root with no image, and an image of another
    shape, raise ValueError."""
    root = Path(root)
    class_dirs = [e.name for e in os.scandir(root) if e.is_dir()]
    for name in class_dirs:
        if not re.fullmatch("0|[1-9][0-9]*", name):
            raise ValueError(f"class directory {os.path.join(root, name)} is not named by "
                             "a non-negative integer without leading zeros")
    class_dirs.sort(key=int)
    if not class_dirs:
        raise ValueError(f"no class directories under {root}")
    files = list(itertools.islice(
        ((int(d), item) for d in class_dirs for item in _class_images(root, d)), limit))
    if not files:
        raise ValueError(f"no .pgm or .ppm image in the class directories under {root}")
    images = None
    for row, (_, (_, path)) in enumerate(files):
        image = read_image(path)
        if images is None:
            images = np.empty((len(files), *image.shape))
        elif image.shape != images.shape[1:]:  # or numpy would broadcast a 1x1 image
            raise ValueError(f"image {path} has shape {image.shape}, unlike the "
                             f"{images.shape[1:]} of the images before it")
        images[row] = image
    labels = np.array([label for label, _ in files], dtype=np.int64)
    ids = tuple(image_id for _, (image_id, _) in files)
    return LabeledDataset(images, labels, int(class_dirs[-1]) + 1, ids)
