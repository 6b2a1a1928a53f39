import os

import numpy as np
import pytest

from aliascope import data
from aliascope.data import (
    ImageFormatError,
    LabeledDataset,
    MAX_CLASSES,
    SyntheticConfig,
    class_pattern,
    generate_synthetic,
    image_ids,
    load_dataset,
    read_image,
    save_dataset,
    write_pgm,
)


# ---------------------------------------------------------------------------
# synthetic patterns and datasets
# ---------------------------------------------------------------------------

def test_class_patterns_are_binary_and_distinct():
    patterns = [class_pattern(i, 9) for i in range(MAX_CLASSES)]
    for p in patterns:
        assert p.shape == (9, 9)
        assert set(np.unique(p)) <= {0.0, 1.0}
        assert 0 < p.sum() < 81  # neither empty nor full
    for i in range(MAX_CLASSES):
        for j in range(i + 1, MAX_CLASSES):
            assert not np.array_equal(patterns[i], patterns[j])


def test_class_pattern_index_range():
    with pytest.raises(ValueError):
        class_pattern(-1, 9)
    with pytest.raises(ValueError):
        class_pattern(MAX_CLASSES, 9)


def test_generate_synthetic_shapes_and_labels():
    cfg = SyntheticConfig(4, 5, canvas=20, pattern_size=9, jitter=3, seed=0)
    ds = generate_synthetic(cfg)
    assert ds.images.shape == (20, 1, 20, 20)
    assert np.array_equal(np.bincount(ds.labels), [5, 5, 5, 5])
    assert ds.num_classes == 4


def test_generate_synthetic_patterns_are_translates():
    cfg = SyntheticConfig(2, 10, canvas=20, pattern_size=9, jitter=3, seed=1)
    ds = generate_synthetic(cfg)
    for img, label in zip(ds.images, ds.labels):
        pattern = class_pattern(int(label), 9)
        ys, xs = np.nonzero(img[0])
        top, left = ys.min(), xs.min()
        # the nonzero support is exactly the pattern at some offset
        window = img[0, top:top + 9, left:left + 9]
        assert np.array_equal(window, pattern)
        assert img[0].sum() == pattern.sum()


def test_generate_synthetic_jitter_moves_patterns():
    cfg = SyntheticConfig(1, 30, canvas=20, pattern_size=9, jitter=3, seed=2)
    ds = generate_synthetic(cfg)
    tops = {int(np.nonzero(img[0])[0].min()) for img in ds.images}
    assert len(tops) > 1


def test_generate_synthetic_seed_deterministic():
    cfg = SyntheticConfig(3, 4, canvas=20, pattern_size=9, jitter=3, seed=5)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.images, b.images)
    c = generate_synthetic(SyntheticConfig(3, 4, 20, 9, 3, seed=6))
    assert not np.array_equal(a.images, c.images)


def test_synthetic_config_validation():
    with pytest.raises(ValueError, match="at most"):
        SyntheticConfig(17, 1, 32, 9, 0)
    with pytest.raises(ValueError, match="fit"):
        SyntheticConfig(2, 1, canvas=10, pattern_size=9, jitter=3)
    with pytest.raises(ValueError, match="fit"):
        SyntheticConfig(2, 1, canvas=8, pattern_size=9, jitter=0)
    with pytest.raises(ValueError):
        SyntheticConfig(0, 1, 32, 9, 0)
    for pattern_size in (0, -3):
        with pytest.raises(ValueError, match="1-pixel pattern"):
            SyntheticConfig(2, 1, canvas=8, pattern_size=pattern_size, jitter=0)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError, match="mismatch"):
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=int), 2)
    with pytest.raises(ValueError, match="range"):
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match="range"):  # as an index it would read the last class
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([-1, 1]), 2)


# ---------------------------------------------------------------------------
# PGM / PPM I/O
# ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.rint(rng.uniform(0, 255, (1, 7, 5)))
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_image(path)
    assert np.array_equal(back, img / 255.0)
    assert back.dtype == np.float64


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (3, 4, 6))
    path = tmp_path / "img.ppm"
    # P6 stores each pixel's red, green and blue bytes in turn, row by row
    path.write_bytes(b"P6\n6 4\n255\n" + img.transpose(1, 2, 0).astype(np.uint8).tobytes())
    assert np.array_equal(read_image(path), img / 255.0)


def test_pgm_header_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(np.zeros((1, 2, 3)), path)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)


def test_read_header_with_comment(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2 # trailing\n255\n" + bytes([1, 2, 3, 4]))
    img = read_image(path)
    assert np.array_equal(img[0], np.array([[1, 2], [3, 4]]) / 255.0)


def test_read_header_on_one_line(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 3 2 255\n" + bytes([1, 2, 3, 4, 5, 6]))
    img = read_image(path)
    assert img.shape == (1, 2, 3)
    assert np.array_equal(img[0], np.array([[1, 2, 3], [4, 5, 6]]) / 255.0)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "img.pgm"
    for magic in (b"P2", b"P3", b"P4", b"P7", b"\x89P"):
        path.write_bytes(magic + b"\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(ImageFormatError) as err:
            read_image(path)
        assert str(err.value) == f"unsupported format: expected P5 or P6, got {magic!r}"


def test_read_rejects_bad_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_image(path)


def test_read_rejects_truncated(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image(path)
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))  # 4 bytes would be a whole P5 payload
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image(path)
    path.write_bytes(b"P5\n4 4\n")
    with pytest.raises(ImageFormatError, match="truncated"):
        read_image(path)


def test_write_rejects_bad_shape_and_range(tmp_path):
    with pytest.raises(ValueError, match="expects"):
        write_pgm(np.zeros((3, 4, 4)), tmp_path / "x.pgm")
    with pytest.raises(ValueError, match="range|\\[0, 255\\]"):
        write_pgm(np.full((1, 2, 2), 300.0), tmp_path / "x.pgm")


def test_read_image_takes_the_channels_from_the_magic_number(tmp_path):
    for name, magic, channels in (("a.pgm", b"P5", 1), ("b.ppm", b"P6", 3), ("c.PPM", b"P6", 3),
                                  ("d.pgm", b"P6", 3), ("e.ppm", b"P5", 1), ("f", b"P6", 3)):
        pixels = np.arange(2 * 3 * channels, dtype=np.uint8)
        (tmp_path / name).write_bytes(magic + b"\n3 2\n255\n" + pixels.tobytes())
        img = read_image(tmp_path / name)
        assert img.shape == (channels, 2, 3), name
        assert np.array_equal(img, pixels.reshape(2, 3, channels).transpose(2, 0, 1) / 255.0)


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------

def test_save_load_dataset_roundtrip(tmp_path):
    cfg = SyntheticConfig(3, 4, canvas=16, pattern_size=9, jitter=2, seed=3)
    ds = generate_synthetic(cfg)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.num_classes == 3
    assert np.array_equal(back.labels, ds.labels)
    # binary patterns survive the 8-bit quantization exactly
    assert np.array_equal(back.images, ds.images)
    files = sorted(p.name for p in (tmp_path / "ds" / "0").iterdir())
    assert files == ["00000.pgm", "00001.pgm", "00002.pgm", "00003.pgm"]


def test_image_ids_rank_each_image_within_its_class():
    labels = np.array([0, 0, 1, 2, 1, 0, 11])
    assert image_ids(labels) == ["0/00000", "0/00001", "1/00000", "2/00000", "1/00001",
                                 "0/00002", "11/00000"]
    assert image_ids(labels.tolist()) == image_ids(labels)
    assert image_ids([]) == []


def test_save_dataset_writes_each_image_under_its_id(tmp_path):
    ds = generate_synthetic(SyntheticConfig(3, 4, canvas=8, pattern_size=4, jitter=1, seed=4))
    save_dataset(ds, tmp_path)
    for image_id, img in zip(image_ids(ds.labels), ds.images):
        assert np.array_equal(read_image(tmp_path / f"{image_id}.pgm"), img)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.pgm")) == sorted(
        f"{image_id}.pgm" for image_id in image_ids(ds.labels))


def test_save_dataset_makes_each_class_directory_once(tmp_path, monkeypatch):
    ds = generate_synthetic(SyntheticConfig(3, 5, canvas=8, pattern_size=4, jitter=1, seed=4))
    tried, mkdir = [], os.mkdir  # every attempt, those that find the directory made too
    monkeypatch.setattr(os, "mkdir", lambda path, *a: tried.append(str(path)) or mkdir(path, *a))
    save_dataset(ds, tmp_path)
    assert sorted(tried) == [str(tmp_path / c) for c in "012"]


def test_load_dataset_empty_root(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError, match="no class directories"):
        load_dataset(tmp_path / "empty")


def test_load_dataset_names_a_root_with_no_image(tmp_path):
    for cls in "01":
        (tmp_path / cls).mkdir()
    (tmp_path / "0" / "notes.txt").write_text("not an image")
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == f"no *.p?m image in the class directories under {tmp_path}"


def test_load_dataset_names_the_first_image_of_another_shape(tmp_path):
    for cls, size in (("0", 4), ("1", 4), ("1", 3), ("2", 5)):
        (tmp_path / cls).mkdir(exist_ok=True)
        n = len(list((tmp_path / cls).iterdir()))
        write_pgm(np.zeros((1, size, size)), tmp_path / cls / f"{n:05d}.pgm")
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == (f"image {tmp_path / '1' / '00001.pgm'} has shape (1, 3, 3), "
                              "unlike the (1, 4, 4) of the images before it")
    assert load_dataset(tmp_path, limit=2).images.shape == (2, 1, 4, 4)


def test_load_dataset_orders_classes_numerically(tmp_path):
    for cls in range(11):
        (tmp_path / str(cls)).mkdir()
        write_pgm(np.full((1, 2, 2), float(cls)), tmp_path / str(cls) / "00000.pgm")
    ds = load_dataset(tmp_path)
    assert ds.num_classes == 11
    assert ds.labels.tolist() == list(range(11))  # 10 after 9, not after 1
    assert np.array_equal(ds.images[:, 0, 0, 0] * 255.0, np.arange(11.0))


# "01" would share class 1 with the directory "1"; the last is an Arabic-Indic 3
@pytest.mark.parametrize("name", ["-1", "notes", "+1", "01", "00", "\u0663"])
def test_load_dataset_names_a_directory_that_is_no_class_id(tmp_path, name):
    save_dataset(generate_synthetic(SyntheticConfig(2, 2, canvas=8, pattern_size=4, jitter=0)),
                 tmp_path)
    (tmp_path / name).mkdir()
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == (f"class directory {tmp_path / name} is not named by a "
                              "non-negative integer without leading zeros")


def test_load_dataset_ignores_other_files(tmp_path):
    cfg = SyntheticConfig(2, 3, canvas=8, pattern_size=4, jitter=1, seed=5)
    ds = generate_synthetic(cfg)
    save_dataset(ds, tmp_path)
    (tmp_path / "dataset.manifest.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("not an image")
    for cls in ("0", "1"):
        (tmp_path / cls / "notes.txt").write_text("not an image")
        (tmp_path / cls / "0.pgm.tmp").write_bytes(b"P5\n1 1\n255\n\xff")
        (tmp_path / cls / "dataset.manifest.json").write_text("{}")
    back = load_dataset(tmp_path)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.images, ds.images)


def test_load_dataset_reads_only_the_first_limit_files(tmp_path, monkeypatch):
    ds = generate_synthetic(SyntheticConfig(3, 4, canvas=8, pattern_size=4, jitter=1, seed=2))
    save_dataset(ds, tmp_path)
    reads = []
    monkeypatch.setattr(data, "read_image", lambda path: reads.append(path) or read_image(path))
    for limit in (1, 5, 12, 50):
        reads.clear()
        part = load_dataset(tmp_path, limit)
        assert len(reads) == min(limit, 12)
        assert np.array_equal(part.labels, ds.labels[:limit])
        assert np.array_equal(part.images, ds.images[:limit])
        assert part.num_classes == 3  # from every class directory, read or not
