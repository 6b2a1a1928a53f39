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
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=int), 2, ("0/a", "0/b"))
    with pytest.raises(ValueError, match="range"):
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 2, ("0/a", "0/b"))
    with pytest.raises(ValueError, match="range"):  # as an index it would read the last class
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([-1, 1]), 2, ("0/a", "0/b"))


@pytest.mark.parametrize("ids, message", [(("0/a",), "images, labels and ids length mismatch"),
                                          (("0/a", "0/a"), "two images share an id")])
def test_labeled_dataset_refuses_ids_that_do_not_name_each_image_once(ids, message):
    with pytest.raises(ValueError) as err:
        LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([0, 0]), 1, ids)
    assert str(err.value) == message


def test_generate_synthetic_names_each_image_by_its_class_and_rank():
    ds = generate_synthetic(SyntheticConfig(3, 2, canvas=8, pattern_size=4, jitter=1))
    assert ds.ids == ("0/00000", "0/00001", "1/00000", "1/00001", "2/00000", "2/00001")
    assert generate_synthetic(SyntheticConfig(12, 1, canvas=8, pattern_size=4,
                                              jitter=0)).ids[10:] == ("10/00000", "11/00000")


# ---------------------------------------------------------------------------
# PGM / PPM I/O
# ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.rint(rng.uniform(0, 255, (1, 7, 5)))
    path = tmp_path / "img.pgm"
    write_pgm(img / 255.0, path)
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
        assert str(err.value) == f"{path}: unsupported format: expected P5 or P6, got {magic!r}"


@pytest.mark.parametrize("blob", [b"P5\n2 2\n65535\n" + bytes(8), b"P5\n4 4\n255\n" + bytes(5),
                                  b"P5\n4 4\n", b"P5\nab 2\n255\n" + bytes(4)],
                         ids=["maxval", "payload", "header", "not-a-number"])
def test_every_read_error_names_the_file(tmp_path, blob):
    path = tmp_path / "img.pgm"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError) as err:
        read_image(path)
    assert str(err.value).startswith(f"{path}: ")


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
    for value in (300.0, 1.0 + 1e-9, -1e-9, np.nan):  # [0, 1], the range read_image returns
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            write_pgm(np.full((1, 2, 2), value), tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()


def test_write_pgm_writes_rint_of_255_times_each_value(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(np.array([[[0.0, 0.5 / 255, 0.51 / 255, 0.5, 254.6 / 255, 1.0]]]), path)
    assert path.read_bytes() == b"P5\n6 1\n255\n" + bytes([0, 0, 1, 128, 255, 255])


@pytest.mark.parametrize("header", [b"P5\n0 16\n255\n", b"P5\n16 0\n255\n", b"P6\n0 0\n255\n",
                                    b"P5\n-2 -2\n255\n" + bytes(4)])
def test_read_refuses_an_image_with_no_pixel(tmp_path, header):
    path = tmp_path / "img.pgm"
    path.write_bytes(header)
    with pytest.raises(ImageFormatError) as err:
        read_image(path)
    w, h = header.split()[1:3]
    assert str(err.value) == (f"{path}: width and height must be at least 1, "
                              f"got {int(w)} x {int(h)}")


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
    assert back.ids == ds.ids
    files = sorted(p.name for p in (tmp_path / "ds" / "0").iterdir())
    assert files == ["00000.pgm", "00001.pgm", "00002.pgm", "00003.pgm"]


def test_save_dataset_writes_each_image_under_its_id(tmp_path):
    synthetic = generate_synthetic(SyntheticConfig(3, 4, canvas=8, pattern_size=4, jitter=1,
                                                   seed=4))
    # ids in any order, none of gen-data's form but two
    ds = LabeledDataset(synthetic.images, synthetic.labels, 3,
                        ("0/b", "0/a", "0/c.d", "0/00000", "1/z", "1/00000", "1/y", "1/x",
                         "2/0", "2/1", "2/2", "2/3"))
    save_dataset(ds, tmp_path)
    for image_id, img in zip(ds.ids, ds.images):
        assert np.array_equal(read_image(tmp_path / f"{image_id}.pgm"), img)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.pgm")) == sorted(
        f"{image_id}.pgm" for image_id in ds.ids)


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
    (tmp_path / "notes.txt").write_text("not an image")
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == f"no .pgm or .ppm image in the class directories under {tmp_path}"


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
        write_pgm(np.full((1, 2, 2), cls / 255.0), tmp_path / str(cls) / "00000.pgm")
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
    """Only the class directories' entries are the dataset's: a file beside
    them, in the root, is not read."""
    cfg = SyntheticConfig(2, 3, canvas=8, pattern_size=4, jitter=1, seed=5)
    ds = generate_synthetic(cfg)
    save_dataset(ds, tmp_path)
    (tmp_path / "dataset.manifest.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("not an image")
    (tmp_path / "0.pgm").write_bytes(b"P5\n1 1\n255\n\xff")
    back = load_dataset(tmp_path)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.images, ds.images)


def test_load_dataset_reads_pgm_and_ppm_files_in_any_case(tmp_path):
    save_dataset(generate_synthetic(SyntheticConfig(2, 2, canvas=8, pattern_size=4, jitter=0)),
                 tmp_path)
    for name in ("EXTRA.PGM", "x.Ppm"):
        write_pgm(np.full((1, 8, 8), 1.0), tmp_path / "1" / name)
    back = load_dataset(tmp_path)
    assert back.labels.tolist() == [0, 0, 1, 1, 1, 1]
    assert back.ids == ("0/00000", "0/00001", "1/00000", "1/00001", "1/EXTRA", "1/x")
    # in name order: 00000.pgm, 00001.pgm, EXTRA.PGM, x.Ppm; only the last two are all white
    assert [img.min() for img in back.images[2:]] == [0.0, 0.0, 1.0, 1.0]


# a mask.pbm holds a P4 bitmap; the last is a directory
@pytest.mark.parametrize("name", ["mask.pbm", "x.pnm", "notes.txt", "0.pgm.tmp",
                                  "dataset.manifest.json", ".hidden", "sub"])
def test_load_dataset_refuses_any_other_file_of_a_class_directory_by_name(tmp_path, name,
                                                                         monkeypatch):
    save_dataset(generate_synthetic(SyntheticConfig(2, 2, canvas=8, pattern_size=4, jitter=0)),
                 tmp_path)
    if name == "sub":
        (tmp_path / "1" / name).mkdir()
    else:
        (tmp_path / "1" / name).write_bytes(b"P4\n8 8\n" + bytes(8))
    reads = []
    monkeypatch.setattr(data, "read_image", lambda path: reads.append(path) or read_image(path))
    for limit in (None, 3):  # the 3rd file is class 1's first: all of class 1 is listed
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path, limit)
        assert str(err.value) == (f"{tmp_path / '1' / name} is not a .pgm or .ppm file; a class "
                                  "directory holds nothing else")
    assert str(tmp_path / "1" / name) not in reads  # refused, not read


def test_load_dataset_names_an_image_it_cannot_read(tmp_path):
    save_dataset(generate_synthetic(SyntheticConfig(2, 2, canvas=8, pattern_size=4, jitter=0)),
                 tmp_path)
    bad = tmp_path / "1" / "mask.pgm"
    bad.write_bytes(b"P4\n8 8\n" + bytes(8))
    with pytest.raises(ImageFormatError) as err:
        load_dataset(tmp_path)
    assert str(err.value) == f"{bad}: unsupported format: expected P5 or P6, got b'P4'"


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
        assert part.ids == ds.ids[:limit]
        assert part.num_classes == 3  # from every class directory, read or not


def _hand_named(root):
    """A P5 dataset whose files are not named as gen-data names them; its
    images, by load order."""
    rng = np.random.default_rng(6)
    names = ["0/b.pgm", "0/a.PGM", "0/a-1.pgm", "0/a.b.pgm", "1/z.pgm", "1/Y.ppm", "3/00007.pgm"]
    images = {}
    for name in names:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        images[name] = np.rint(rng.uniform(0, 255, (1, 4, 4))) / 255.0
        write_pgm(images[name], root / name)
    order = ["0/a.PGM", "0/a-1.pgm", "0/a.b.pgm", "0/b.pgm", "1/Y.ppm", "1/z.pgm", "3/00007.pgm"]
    return order, np.stack([images[name] for name in order])


def test_load_dataset_names_each_image_by_its_path_less_its_suffix(tmp_path):
    """Ids in id order, which is not always name order: "a-1.pgm" sorts
    before "a.PGM", but its id "0/a-1" after "0/a"."""
    order, images = _hand_named(tmp_path)
    ds = load_dataset(tmp_path)
    assert ds.ids == ("0/a", "0/a-1", "0/a.b", "0/b", "1/Y", "1/z", "3/00007")
    assert ds.labels.tolist() == [0, 0, 0, 0, 1, 1, 3]
    assert np.array_equal(ds.images, images)
    assert load_dataset(tmp_path, limit=3).ids == ds.ids[:3]


def test_save_and_load_keep_every_id_and_its_order(tmp_path):
    _hand_named(tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    save_dataset(ds, tmp_path / "other")
    back = load_dataset(tmp_path / "other")
    assert back.ids == ds.ids
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.images, ds.images)
    assert sorted(p.relative_to(tmp_path / "other").as_posix()
                  for p in (tmp_path / "other").rglob("*")) == [
        "0", "0/a-1.pgm", "0/a.b.pgm", "0/a.pgm", "0/b.pgm", "1", "1/Y.pgm", "1/z.pgm", "3",
        "3/00007.pgm"]


@pytest.mark.parametrize("first, second", [("a.PGM", "a.pgm"), ("a.pgm", "a.ppm"),
                                           ("a.PPM", "a.pgm")])
def test_load_dataset_refuses_two_files_with_one_id(tmp_path, first, second):
    save_dataset(generate_synthetic(SyntheticConfig(2, 2, canvas=8, pattern_size=4, jitter=0)),
                 tmp_path)
    for name in (second, first):
        write_pgm(np.zeros((1, 8, 8)), tmp_path / "1" / name)
    for limit in (None, 3):  # the 3rd file is class 1's first: all of class 1 is listed
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path, limit)
        assert str(err.value) == (f"{tmp_path / '1' / first} and {tmp_path / '1' / second} "
                                  "are both image 1/a")
    assert load_dataset(tmp_path, limit=2).ids == ("0/00000", "0/00001")
