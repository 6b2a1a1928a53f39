import contextlib
import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from aliascope import audit, cli, data, nn, theory
from aliascope.cli import _csv, main, pool_descriptor

SPEC_TEXT = """\
input 1 16 16
conv 4 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
gap
dense 4
softmax
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset, spec file, and a (briefly) trained model shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--out", str(root / "ds"), "--classes", "4",
                 "--per-class", "6", "--canvas", "16", "--pattern", "9",
                 "--jitter", "2", "--seed", "0"]) == 0
    spec_path = root / "net.spec"
    spec_path.write_text(SPEC_TEXT)
    assert main(["train", "--spec", str(spec_path), "--data", str(root / "ds"),
                 "--out", str(root / "model.shnn"), "--epochs", "2",
                 "--lr", "0.2", "--batch", "8", "--seed", "0"]) == 0
    (root / "boxes.csv").write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                                    + "dog,100,100,40,40,20,20\n" * 60)
    return root


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


def _assert_output_hashed(path):
    assert _manifest(path)["output_hashes"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_gen_data_layout_and_manifest(workspace):
    ds = data.load_dataset(workspace / "ds")
    assert len(ds.images) == 24
    assert ds.num_classes == 4
    manifest = json.loads((workspace / "ds" / "dataset.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "gen-data" in manifest["command"]
    assert manifest["wall_time_s"] >= 0
    assert manifest["output_hashes"] == {}  # a directory output is not hashed


def test_train_writes_model_and_manifest(workspace):
    model = nn.load_model(workspace / "model.shnn")
    assert model.spec.input_shape == (1, 16, 16)
    manifest = _manifest(workspace / "model.shnn")
    assert str(workspace / "model.shnn") in manifest["outputs"]
    assert len(manifest["input_hashes"]) == 1  # the spec file, sha256-hashed
    (digest,) = manifest["input_hashes"].values()
    assert len(digest) == 64
    _assert_output_hashed(workspace / "model.shnn")


def test_train_that_diverges_exits_1_and_writes_nothing(workspace, tmp_path, capsys):
    # finite and in range, but the dense product overflows: every weight would end NaN
    assert main(["train", "--spec", str(workspace / "net.spec"), "--data", str(workspace / "ds"),
                 "--out", str(tmp_path / "nan.shnn"), "--epochs", "2",
                 "--init-scale", "1e300"]) == 1
    assert capsys.readouterr() == (
        "", "error: training diverged in epoch 1: overflow encountered in matmul\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rename", [True, False])
def test_a_class_directory_that_is_no_class_id_exits_1(workspace, tmp_path, capsys, rename):
    """A class directory named -1 would label its images -1, which indexes
    the last class; a stray directory is no class either."""
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    bad = ds / ("-1" if rename else "notes")
    if rename:
        (ds / "0").rename(bad)
    else:
        bad.mkdir()
    message = (f"error: class directory {bad} is not named by a non-negative integer without "
               "leading zeros\n")
    assert main(["train", "--spec", str(workspace / "net.spec"), "--data", str(ds),
                 "--out", str(tmp_path / "model.shnn"), "--epochs", "1"]) == 1
    assert capsys.readouterr() == ("", message)
    assert main(["eval", "--model", str(workspace / "model.shnn"), "--data", str(ds)]) == 1
    assert capsys.readouterr() == ("", message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("empty", [True, False])
def test_a_dataset_with_no_image_or_two_shapes_exits_1_and_writes_nothing(
        workspace, tmp_path, capsys, command, empty):
    ds = tmp_path / "ds"
    if empty:
        (ds / "0").mkdir(parents=True)
        (ds / "0" / "notes.txt").write_text("not an image")
        message = f"no *.p?m image in the class directories under {ds}"
    else:
        shutil.copytree(workspace / "ds", ds)
        odd = ds / "1" / "00002.pgm"
        data.write_pgm(np.zeros((1, 8, 8)), odd)
        message = f"image {odd} has shape (1, 8, 8), unlike the (1, 16, 16) of the images before it"
    before = sorted(tmp_path.rglob("*"))
    argv = (["train", "--spec", str(workspace / "net.spec"), "--out", str(tmp_path / "m.shnn")]
            if command == "train" else ["eval", "--model", str(workspace / "model.shnn")])
    assert main([*argv, "--data", str(ds)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_manifest_wall_time_does_not_follow_a_clock_step(workspace, tmp_path, monkeypatch):
    """The system clock steps back an hour (an NTP correction) while a
    command runs: the manifest's wall time is still the time the run took."""
    readings = itertools.chain([time.time()], itertools.repeat(time.time() - 3600.0))
    monkeypatch.setattr(time, "time", lambda: next(readings))
    out = tmp_path / "model.shnn"
    assert main(["train", "--spec", str(workspace / "net.spec"), "--data", str(workspace / "ds"),
                 "--out", str(out), "--epochs", "1"]) == 0
    assert 0 <= _manifest(out)["wall_time_s"] < 600


def test_eval_prints_accuracy(workspace, capsys):
    assert main(["eval", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds")]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out and "n=24" in out


def test_audit_shift_writes_report(workspace, capsys, monkeypatch):
    reports = []
    measure = audit.top1_change_probability
    monkeypatch.setattr(audit, "top1_change_probability",
                        lambda *a, **k: reports.append(measure(*a, **k)) or reports[-1])
    out_csv = workspace / "shift.csv"
    assert main(["audit-shift", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--canvas", "20", "--embed", "16", "--limit", "8",
                 "--seed", "1"]) == 0
    (report,) = reports
    text = out_csv.read_text()
    lines = text.splitlines()
    assert lines[0] == ("image_id,protocol,mode,param_before,param_after,top1_before,"
                        "top1_after,changed,score_before,score_after")
    assert lines[-1].startswith("#summary,")
    rows = [row for row in csv.reader(io.StringIO(text)) if not row[0].startswith("#")]
    assert len(rows) == 1 + report.n
    for row, rec in zip(rows[1:], report.records):
        assert row[0] == rec.image_id
        assert row[7] == str(rec.changed).lower()
        assert float(row[8]) == rec.score_before  # repr round-trips exactly
    summary = dict(kv.split("=") for kv in lines[-1][len("#summary,"):].split(","))
    assert float(summary["p_hat"]) == report.p_hat
    assert int(summary["n"]) == report.n
    assert "p_hat=" in capsys.readouterr().out
    assert _manifest(out_csv)["seed"] == 1
    _assert_output_hashed(out_csv)


@pytest.mark.parametrize("command", ["audit-shift", "audit-scale", "audit-crop"])
def test_each_audited_image_id_names_the_file_audited(tmp_path, monkeypatch, command):
    """A row's image_id is the image's path under the dataset root, less its
    suffix, as gen-data writes it: classes 1 and 2 number their files from 0."""
    ds = tmp_path / "ds"
    assert main(["gen-data", "--out", str(ds), "--classes", "3", "--per-class", "4",
                 "--canvas", "16", "--pattern", "7", "--jitter", "2"]) == 0
    model = nn.init_model(nn.parse_spec(SPEC_TEXT.replace("dense 4", "dense 3")), seed=0)
    (tmp_path / "model.shnn").write_bytes(nn.model_bytes(model))
    audited = {}
    measure = audit.top1_change_probability
    monkeypatch.setattr(audit, "top1_change_probability", lambda model, images, *a, **k: (
        audited.update(images) or measure(model, images, *a, **k)))
    out = tmp_path / "audit.csv"
    assert main([command, "--model", str(tmp_path / "model.shnn"), "--data", str(ds),
                 "--out", str(out), *(["--crop-size", "12"] if command == "audit-crop" else
                                      ["--canvas", "20", "--embed", "16"])]) == 0
    ids = [row[0] for row in csv.reader(io.StringIO(out.read_text()))
           if not row[0].startswith("#")][1:]
    assert sorted(ids) == sorted(audited) == sorted(
        p.relative_to(ds).with_suffix("").as_posix() for p in ds.rglob("*.pgm"))
    for image_id in ids:
        assert np.array_equal(data.read_image(ds / f"{image_id}.pgm"), audited[image_id])


def test_audit_scale_runs(workspace, capsys):
    out_csv = workspace / "scale.csv"
    assert main(["audit-scale", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--canvas", "20", "--embed", "14", "--limit", "6"]) == 0
    assert "n=" in capsys.readouterr().out
    assert out_csv.exists()


def test_audit_crop_runs(workspace, capsys):
    out_csv = workspace / "crop.csv"
    assert main(["audit-crop", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--crop-size", "12", "--noise-scale", "0.15", "--limit", "6"]) == 0
    assert out_csv.exists()
    assert "p_hat=" in capsys.readouterr().out


def test_sweep_embed_curve(workspace, capsys):
    out_csv = workspace / "sweep.csv"
    assert main(["sweep-embed", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--sizes", "12,16", "--canvas", "20", "--limit", "6"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "embed_size,p_hat,n"
    assert [line.split(",")[::2] for line in lines[1:]] == [["12", "6"], ["16", "6"]]
    printed = capsys.readouterr().out
    assert "embed=12" in printed and "embed=16" in printed


@pytest.mark.parametrize("command, reads", [("audit-shift", 4), ("audit-scale", 4),
                                             ("audit-crop", 4), ("sweep-embed", 4),
                                             ("depth-profile", 24)])
def test_an_audit_reads_only_the_images_it_scores(workspace, tmp_path, monkeypatch,
                                                 command, reads):
    """Each command runs with --limit 4 of the 24 images. The depth profile
    scores 4 too, but trains its heads on all of them."""
    calls = []
    read_image = data.read_image
    monkeypatch.setattr(data, "read_image", lambda path: calls.append(path) or read_image(path))
    argv = [a.replace("$WORK", str(workspace)) for a in CSV_COMMANDS[command]]
    assert main([command, "--model", str(workspace / "model.shnn"), *argv,
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == reads


def test_audit_shift_delta_zero_is_a_usage_error(workspace, tmp_path, capsys):
    argv = ["audit-shift", "--model", str(workspace / "model.shnn"),
            "--data", str(workspace / "ds"), "--canvas", "20", "--embed", "16",
            "--limit", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "zero.csv"), "--delta", "0"])
    assert exc.value.code == 2
    assert "nonzero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--out", str(tmp_path / "minus.csv"), "--delta", "-1"]) == 0
    assert "n=4 skipped=0" in capsys.readouterr().out  # a margin at the top, too
    _assert_output_hashed(tmp_path / "minus.csv")


AUDIT_INPUTS = ["--data", "$WORK/ds", "--limit", "5"]
NO_IMAGE = "scored no image (5 skipped; first: 0/00000: "
JAGGEDNESS_INPUTS = ["--image", "$WORK/ds/0/00000.pgm", "--label", "0"]


@pytest.mark.parametrize("argv, err", [
    (["audit-shift", "--canvas", "10", "--embed", "32", *AUDIT_INPUTS], NO_IMAGE),
    (["audit-scale", "--canvas", "10", "--embed", "32", *AUDIT_INPUTS], NO_IMAGE),
    (["audit-crop", "--crop-size", "500", *AUDIT_INPUTS], NO_IMAGE),
    (["sweep-embed", "--sizes", "12,40", "--canvas", "20", *AUDIT_INPUTS], NO_IMAGE),
    (["depth-profile", "--layers", "0,1", "--epochs", "1", "--canvas", "10", "--embed", "16",
      *AUDIT_INPUTS], NO_IMAGE),
    (["jaggedness", "--canvas", "20", "--embed", "12", "--sweep-start", "30",
      "--sweep-end", "40", *JAGGEDNESS_INPUTS],
     "scored no position (11 in the sweep; first: position 30: "),
    (["jaggedness", "--sweep-start", "5", "--sweep-end", "4", *JAGGEDNESS_INPUTS],
     "scored no position (0 in the sweep)"),
], ids=["audit-shift", "audit-scale", "audit-crop", "sweep-embed", "depth-profile",
        "jaggedness-no-position-fits", "jaggedness-empty-sweep"])
def test_audit_that_scores_nothing_exits_1_and_writes_nothing(workspace, tmp_path, capsys,
                                                              argv, err):
    out = tmp_path / "out.csv"
    assert main([a.replace("$WORK", str(workspace)) for a in argv]
                + ["--model", str(workspace / "model.shnn"), "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and err in stderr
    if err == NO_IMAGE:
        assert "do not fit" in stderr or "too large" in stderr


@pytest.mark.parametrize("limit", ["0", "-10"])
@pytest.mark.parametrize("command", [["audit-shift"], ["depth-profile", "--layers", "0"]])
def test_limit_below_1_is_a_usage_error(workspace, tmp_path, capsys, command, limit):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--model", str(workspace / "model.shnn"), "--data",
                        str(workspace / "ds"), "--out", str(tmp_path / "out.csv"),
                        "--limit", limit])
    assert exc.value.code == 2
    assert "--limit: must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


OUT_OF_RANGE = [
    (["audit-crop"], "--crop-size", "0", "must be positive"),
    (["audit-crop"], "--crop-size", "-4", "must be positive"),
    (["feature-trace", "--layer", "1"], "--shifts", "-1", "must be at least 0"),
    (["shiftability", "--layer", "1", "--kernel", "sinc"], "--window", "-2",
     "must be at least 0"),
    (["bias-audit"], "--pos-grid", "1", "must be at least 2"),
    (["bias-audit"], "--pos-grid", "-1", "must be at least 2"),
    (["bias-audit"], "--size-bins", "1", "must be at least 2"),
    (["bias-audit"], "--size-bins", "0", "must be at least 2"),
    (["bias-audit"], "--size-bins", "ten", "invalid integer value: 'ten'"),
    (["train"], "--epochs", "-1", "must be at least 0"),
    (["train"], "--batch", "0", "must be positive"),
    (["depth-profile", "--layers", "0"], "--epochs", "-2", "must be at least 0"),
    (["depth-profile", "--layers", "0"], "--batch", "-1", "must be positive"),
    (["gen-data"], "--classes", "0", "must be positive"),
    (["gen-data"], "--per-class", "0", "must be positive"),
    (["gen-data"], "--jitter", "-1", "must be at least 0"),
    (["gen-data"], "--pattern", "0", "must be positive"),
    (["gen-data"], "--pattern", "-3", "must be positive"),
    (["gen-data"], "--canvas", "0", "must be positive"),
    (["audit-shift"], "--embed", "0", "must be positive"),
    (["audit-shift"], "--embed", "-3", "must be positive"),
    (["audit-shift"], "--canvas", "-5", "must be positive"),
    (["sweep-embed"], "--sizes", "0,8", "must be positive"),
    (["sweep-embed"], "--sizes", "8,x", "invalid integer list value: '8,x'"),
    (["depth-profile"], "--layers", "0,,1", "invalid integer list value: '0,,1'"),
    (["jaggedness", "--label", "0"], "--canvas", "0", "must be positive"),
    (["feature-trace", "--layer", "1"], "--embed", "0", "must be positive"),
    (["train"], "--lr", "nan", "must be a finite number"),
    (["train"], "--init-scale", "inf", "must be a finite number"),
    (["audit-crop"], "--noise-scale", "-1", "must be at least 0"),
    (["eval"], "--seed", "-1", "must be at least 0"),
]


def _case_ids(cases):
    """`--flag=value`, led by the subcommand when an earlier case has that id."""
    ids = []
    for command, flag, value, _ in cases:
        name = f"{flag}={value}"
        ids.append(f"{command[0]}/{name}" if name in ids else name)
    return ids


@pytest.mark.parametrize("command, flag, value, err", OUT_OF_RANGE, ids=_case_ids(OUT_OF_RANGE))
def test_out_of_range_count_is_a_usage_error(workspace, tmp_path, capsys, command, flag,
                                             value, err):
    model = ["--model", str(workspace / "model.shnn")]
    image = [*model, "--image", str(workspace / "ds" / "0" / "00000.pgm")]
    dataset = ["--data", str(workspace / "ds")]
    inputs = {"audit-crop": [*model, *dataset], "depth-profile": [*model, *dataset],
              "audit-shift": [*model, *dataset], "eval": [*model, *dataset],
              "sweep-embed": [*model, *dataset], "jaggedness": image,
              "train": ["--spec", str(workspace / "net.spec"), *dataset], "gen-data": [],
              "feature-trace": image, "shiftability": image,
              "bias-audit": ["--annotations", str(workspace / "boxes.csv")]}[command[0]]
    with pytest.raises(SystemExit) as exc:
        main(command + inputs
             + ([] if command[0] in ("shiftability", "eval")
                else ["--out", str(tmp_path / "out.csv")])
             + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {err}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_feature_trace_of_no_shift_is_one_row(workspace, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["feature-trace", "--model", str(workspace / "model.shnn"),
                 "--image", str(workspace / "ds" / "0" / "00000.pgm"), "--layer", "1",
                 "--out", str(out), "--canvas", "20", "--embed", "16", "--shifts", "0"]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_jaggedness_label_that_is_no_class_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "jag.csv"
    assert main(["jaggedness", "--model", str(workspace / "model.shnn"),
                 "--image", str(workspace / "ds" / "0" / "00000.pgm"), "--label", "-1",
                 "--out", str(out), "--canvas", "20", "--embed", "12"]) == 1
    assert capsys.readouterr().err == "error: label -1 out of range for 4 classes\n"
    assert list(tmp_path.iterdir()) == []


def test_jaggedness_curve_csv(workspace):
    img_path = workspace / "probe.pgm"
    data.write_pgm(np.clip(data.generate_synthetic(
        data.SyntheticConfig(1, 1, 16, 9, 0, seed=3)).images[0] * 255, 0, 255), img_path)
    out_csv = workspace / "jag.csv"
    assert main(["jaggedness", "--model", str(workspace / "model.shnn"),
                 "--image", str(img_path), "--label", "0", "--out", str(out_csv),
                 "--canvas", "20", "--embed", "16", "--sweep-start", "0",
                 "--sweep-end", "4"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "position,score"
    assert len(lines) == 6


def test_depth_profile_csv(workspace, capsys):
    out_csv = workspace / "depth.csv"
    assert main(["depth-profile", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--layers", "0,1", "--epochs", "1", "--limit", "6",
                 "--canvas", "20", "--embed", "16"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "layer,depth_fraction,readout_accuracy,flip_rate"
    assert len(lines) == 3
    assert "layer=0" in capsys.readouterr().out


@pytest.mark.parametrize("layer, err", [("-1", "layer index -1 out of range"),
                                        ("-4", "layer index -4 out of range"),
                                        ("5", "layer index 5 out of range"),
                                        ("2", "layer 2 is not spatial")])
def test_shiftability_of_a_missing_or_flat_layer_exits_1(tmp_path, capsys, layer, err):
    # stride 1 throughout, so no layer's factor alone would fail
    spec = nn.parse_spec("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
                         "conv 4 3 pad=circular act=relu\ngap\ndense 3\nsoftmax\n")
    nn.save_model(nn.init_model(spec, seed=0), tmp_path / "stride1.shnn")
    data.write_pgm(np.zeros((1, 16, 16)), tmp_path / "x.pgm")
    assert main(["shiftability", "--model", str(tmp_path / "stride1.shnn"),
                 "--image", str(tmp_path / "x.pgm"), "--layer", layer]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("window", ["0", "50"])
def test_shiftability_that_measures_nothing_exits_1(workspace, capsys, window):
    # layer 1 is 8x8 at stride 2, so its dense profiles have 16 samples
    assert main(["shiftability", "--model", str(workspace / "model.shnn"),
                 "--image", str(workspace / "ds" / "0" / "00000.pgm"), "--layer", "1",
                 "--kernel", "sinc", "--window", window]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "the longest is 16" in err


def test_shiftability_command(workspace, capsys):
    img_path = workspace / "probe2.pgm"
    data.write_pgm(np.clip(data.generate_synthetic(
        data.SyntheticConfig(1, 1, 16, 9, 0, seed=4)).images[0] * 255, 0, 255), img_path)
    assert main(["shiftability", "--model", str(workspace / "model.shnn"),
                 "--image", str(img_path), "--layer", "1"]) == 0
    out = capsys.readouterr().out
    assert "stride=2" in out and "shiftability_error=" in out


def test_feature_trace_csv(workspace, capsys):
    img_path = workspace / "probe3.pgm"
    data.write_pgm(np.clip(data.generate_synthetic(
        data.SyntheticConfig(1, 1, 16, 9, 0, seed=5)).images[0] * 255, 0, 255), img_path)
    out_csv = workspace / "trace.csv"
    assert main(["feature-trace", "--model", str(workspace / "model.shnn"),
                 "--image", str(img_path), "--layer", "1", "--out", str(out_csv),
                 "--canvas", "24", "--embed", "16", "--shifts", "3"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "shift,ch0,ch1,ch2,ch3"
    assert len(lines) == 5
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)  # plain numbers, not numpy reprs
    assert "variance" in capsys.readouterr().out


def test_pool_swap_preserves_weights(workspace):
    out_model = workspace / "swapped.shnn"
    assert main(["pool-swap", "--model", str(workspace / "model.shnn"),
                 "--out", str(out_model), "--old", "max 2 2", "--new", "avg 2 0"]) == 0
    original = nn.load_model(workspace / "model.shnn")
    swapped = nn.load_model(out_model)
    assert swapped.spec.layers[1] == nn.PoolSpec("avg", 2, 2)
    for p1, p2 in zip(original.params, swapped.params):
        for key in p1:
            assert np.array_equal(p1[key], p2[key])


def test_pool_swap_bad_descriptor(workspace, tmp_path, capsys):
    # a usage error: refused while parsing, before the model is read
    with pytest.raises(SystemExit) as exc:
        main(["pool-swap", "--model", str(tmp_path / "missing.shnn"),
              "--out", str(tmp_path / "x.shnn"), "--old", "max2", "--new", "avg 2 2"])
    assert exc.value.code == 2
    assert "argument --old: invalid pool_descriptor value: 'max2'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("new, status", [("avg 4 0", 1), ("avg 0 0", 2)],
                         ids=["avg 4 0", "avg 0 0"])
def test_pool_swap_refuses_model_that_would_not_load(tmp_path, capsys, new, status):
    # dense straight after the pool: a new pool size changes the dense weight
    # shape (exit 1); a kernel of 0 is refused while parsing (exit 2)
    spec = nn.parse_spec("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
                         "maxpool 2 stride=2\ndense 4\nsoftmax\n")
    nn.save_model(nn.init_model(spec, seed=0), tmp_path / "flat.shnn")
    out_model = tmp_path / "swapped.shnn"
    try:
        code = main(["pool-swap", "--model", str(tmp_path / "flat.shnn"), "--out", str(out_model),
                     "--old", "max 2 2", "--new", new])
    except SystemExit as exc:
        code = exc.code
    assert code == status
    assert "error:" in capsys.readouterr().err
    assert not out_model.exists()


def test_parse_pool():
    assert pool_descriptor("avg 6 2") == nn.PoolSpec("avg", 6, 2)
    assert pool_descriptor(" max  2 0 ") == nn.PoolSpec("max", 2, 0)  # stride 0 keeps the old
    for text in ("median 2 2", "max2", "max 2", "max 2 2 2", "avg 0 2", "avg 2 -1", "avg x 2",
                 ""):
        with pytest.raises(ValueError):  # which argparse reports as an invalid value
            pool_descriptor(text)


def test_bias_audit_command(workspace, capsys):
    ann_path = workspace / "ann.csv"
    rows = ["category,img_w,img_h,box_x,box_y,box_w,box_h"]
    rows += ["centered,100,100,45,45,10,10"] * 300 + ["tiny,100,100,45,45,10,10"]
    ann_path.write_text("\n".join(rows) + "\n")
    out_csv = workspace / "bias.csv"
    assert main(["bias-audit", "--annotations", str(ann_path),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "#bins,position=5x5,size=10"
    assert lines[1] == "category,n,chi2_pos,p_pos,chi2_size,p_size,flagged"
    rows = {line.split(",")[0]: line for line in lines[2:]}
    assert rows["centered"].endswith(",true")
    assert rows["tiny"] == "tiny,1,,,,,insufficient data"
    assert "categories=2 flagged=1" in capsys.readouterr().out


@pytest.mark.parametrize("rows", [[], ["dog,100,100,95,0,10,10"] * 3],
                         ids=["header-only", "no-valid-box"])
def test_bias_audit_with_no_valid_box_exits_1_and_writes_nothing(tmp_path, capsys, rows):
    ann_path = tmp_path / "ann.csv"
    ann_path.write_text("\n".join(["category,img_w,img_h,box_x,box_y,box_w,box_h", *rows]) + "\n")
    out = tmp_path / "out" / "bias.csv"
    out.parent.mkdir()
    assert main(["bias-audit", "--annotations", str(ann_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: no valid box among {len(rows)} "
                                       "annotations\n")
    assert list(out.parent.iterdir()) == []


def test_running_out_of_memory_is_a_domain_error(tmp_path, capsys):
    # 2 categories x (10^7)^2 position bins: numpy refuses the 1.42 PiB
    # histogram before it allocates anything
    ann_path = tmp_path / "ann.csv"
    ann_path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                        "cat,100,100,10,10,10,10\ndog,100,100,50,50,10,10\n")
    out = tmp_path / "out" / "bias.csv"
    out.parent.mkdir()
    assert main(["bias-audit", "--annotations", str(ann_path), "--out", str(out),
                 "--pos-grid", "10000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert list(out.parent.iterdir()) == []


def test_verify_theory_command(capsys):
    assert main(["verify-theory", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_theory_failed_gate_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(theory, "verify_all",
                        lambda seed: {"observation": True, "lattice": False})
    assert main(["verify-theory"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "observation: PASS\nlattice: FAIL\n"
    assert captured.err == "error: theory gates failed: lattice\n"  # no traceback


def test_missing_model_is_domain_error(workspace, capsys):
    assert main(["eval", "--model", str(workspace / "nope.shnn"),
                 "--data", str(workspace / "ds")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_csv_writer():
    assert _csv(("shift", "score"), [(0, 0.5), (1, 0.25)]) == "shift,score\n0,0.5\n1,0.25\n"
    assert _csv(("embed_size", "p_hat", "n"), [(12, 0.25, 6)]).splitlines() == [
        "embed_size,p_hat,n", "12,0.25,6"]
    assert _csv(["a", "b", "c"], [[np.float64(0.1), True, "x,y"], [float("nan"), False, ""]],
                before="#top\n", after="#end\n") == (
        '#top\na,b,c\n0.1,true,"x,y"\nnan,false,\n#end\n')


CSV_COMMANDS = {
    "audit-shift": ["--data", "$WORK/ds", "--limit", "4", "--canvas", "20", "--embed", "16"],
    "audit-scale": ["--data", "$WORK/ds", "--limit", "4", "--canvas", "20", "--embed", "14"],
    "audit-crop": ["--data", "$WORK/ds", "--limit", "4", "--crop-size", "12"],
    "sweep-embed": ["--data", "$WORK/ds", "--limit", "4", "--canvas", "20", "--sizes", "12,16"],
    "jaggedness": ["--image", "$WORK/ds/0/00000.pgm", "--label", "0", "--canvas", "20",
                   "--embed", "12"],
    "depth-profile": ["--data", "$WORK/ds", "--limit", "4", "--layers", "0,1", "--epochs", "1",
                      "--canvas", "20", "--embed", "16"],
    "feature-trace": ["--image", "$WORK/ds/0/00000.pgm", "--layer", "1", "--canvas", "20",
                      "--embed", "16", "--shifts", "2"],
}


@pytest.mark.parametrize("command", [*CSV_COMMANDS, "bias-audit"])
def test_every_csv_has_lf_line_ends_and_parses(workspace, tmp_path, command):
    if command == "bias-audit":
        ann_path = tmp_path / "ann.csv"
        ann_path.write_text("category,img_w,img_h,box_x,box_y,box_w,box_h\n"
                            + "dog,100,100,40,40,20,20\n" * 200 + '"a, b",9,9,0,0,9,9\n')
        argv = ["--annotations", str(ann_path)]
    else:
        argv = ["--model", str(workspace / "model.shnn"),
                *(a.replace("$WORK", str(workspace)) for a in CSV_COMMANDS[command])]
    out = tmp_path / "out.csv"
    assert main([command, *argv, "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert b"\r" not in blob and blob.endswith(b"\n")
    with open(out, newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert rows and all(len(row) == len(header) for row in rows)


def _check_artifact(command: str, out: Path) -> None:
    """The CSV `out` parses and measured something: n > 0, or a finite score."""
    text = out.read_text()
    header, *rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    if command in ("audit-shift", "audit-scale"):
        summary_n = int(text.rsplit("n=", 1)[1])
        assert header[0] == "image_id" and len(rows) == summary_n > 0
    elif command == "sweep-embed":
        assert header == ["embed_size", "p_hat", "n"] and rows
        assert all(0.0 <= float(p) <= 1.0 and int(n) > 0 for _, p, n in rows)
    elif command == "depth-profile":
        assert header[0] == "layer" and len(rows) == 1
        assert 0.0 <= float(rows[0][3]) <= 1.0
    else:
        assert header == ["position", "score"]
        assert any(math.isfinite(float(score)) for _, score in rows)


@settings(deadline=None, max_examples=15)
@given(command=st.sampled_from(["audit-shift", "audit-scale", "sweep-embed", "depth-profile",
                                "jaggedness"]),
       canvas=st.integers(8, 24), embed=st.integers(4, 24), start=st.integers(0, 16),
       length=st.integers(-1, 4))
def test_exit_0_leaves_a_valid_hashed_artifact_and_failure_leaves_nothing(
        workspace, command, canvas, embed, start, length):
    out_dir = Path(tempfile.mkdtemp(dir=workspace))
    out = out_dir / "out.csv"
    argv = [command, "--model", str(workspace / "model.shnn"), "--out", str(out),
            "--canvas", str(canvas)]
    if command == "jaggedness":
        argv += ["--embed", str(embed), "--image", str(workspace / "ds" / "0" / "00000.pgm"),
                 "--label", "0", "--sweep-start", str(start),
                 "--sweep-end", str(start + length)]
    else:
        argv += ["--data", str(workspace / "ds"), "--limit", "4"]
        if command == "sweep-embed":
            argv += ["--sizes", f"{embed},{embed + length}"]
        else:
            argv += ["--embed", str(embed)]
        if command == "depth-profile":
            argv += ["--layers", "1", "--epochs", "1"]
    if main(argv) != 0:
        assert list(out_dir.iterdir()) == []
        return
    assert sorted(p.name for p in out_dir.iterdir()) == ["out.csv", "out.csv.manifest.json"]
    _assert_output_hashed(out)
    _check_artifact(command, out)


# Required flags of each subcommand that have no bound: fixed valid values.
UNBOUNDED = {"sweep-embed": ["--sizes", "12,16"], "depth-profile": ["--layers", "1"],
             "jaggedness": ["--label", "0"], "shiftability": ["--layer", "1"],
             "feature-trace": ["--layer", "1"],
             "pool-swap": ["--old", "max 2 2", "--new", "avg 2 0"]}


def _bounded_flags(command: str):
    """(flag, parse type) of each flag of `command` in the CLI's table that
    has a bound, in the order the parser declares them."""
    _, flags = cli.COMMANDS[command]
    return [(flag, kind) for flag, _, kind, *_ in (cli.SEED, *flags)
            if isinstance(kind, cli.Num) and (kind.lo is not None or kind.nonzero)]


def _edges(kind: cli.Num):
    """(value text, refused) at the bound of `kind`, just below it and just
    above it, and for a float also nan and +-inf."""
    if kind.nonzero:
        return [("-1", False), ("0", True), ("1", False)]
    if kind.kind is int:
        return [(str(kind.lo - 1), True), (str(kind.lo), False), (str(kind.lo + 1), False)]
    return [(repr(math.nextafter(kind.lo, -math.inf)), True), (repr(float(kind.lo)), kind.above),
            (repr(math.nextafter(kind.lo, math.inf)), False),
            ("nan", True), ("inf", True), ("-inf", True)]


def _assert_valid_artifact(command: str, out: Path) -> None:
    """`out` loads as what `command` writes and its manifest hashes it."""
    if command == "gen-data":
        assert len(data.load_dataset(out).images) > 0
        assert json.loads((out / "dataset.manifest.json").read_text())["output_hashes"] == {}
        return
    _assert_output_hashed(out)
    if out.suffix == ".shnn":
        model = nn.load_model(out)
        assert all(np.isfinite(v).all() for p in model.params for v in p.values())
        return
    header, *rows = csv.reader(line for line in out.read_text().splitlines()
                               if not line.startswith("#"))
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(deadline=None, max_examples=40)
@given(draw=st.data())
def test_every_subcommand_at_its_bounds_exits_cleanly(workspace, command, draw):
    """Each bounded flag at its bound, just below it and just above it (and
    nan/inf for floats), or left at its default; only one flag, the target,
    may fall outside its bound. A refused value exits 2 and names its flag, a
    domain error exits 1 with one `error:` line, and exit 0 leaves a valid
    artifact whose sha256 the manifest holds. Nothing but exit 0 writes a
    file."""
    out_dir = Path(tempfile.mkdtemp(dir=workspace))
    paths = {"model": workspace / "model.shnn", "data": workspace / "ds",
             "spec": workspace / "net.spec", "image": workspace / "ds" / "0" / "00000.pgm",
             "annotations": workspace / "boxes.csv"}
    params = list(inspect.signature(getattr(cli, "cmd_" + command.replace("-", "_"))).parameters)
    argv = [command, *UNBOUNDED.get(command, [])]
    for name in params[1:]:
        argv += [f"--{name}", str(paths[name])]
    writes = any(flag == "--out" for flag, *_ in cli.COMMANDS[command][1])
    out = out_dir / ("ds" if command == "gen-data" else
                     "model.shnn" if command in ("train", "pool-swap") else "out.csv")
    if writes:
        argv += ["--out", str(out)]
    bounded = _bounded_flags(command)
    target = draw.draw(st.sampled_from([flag for flag, _ in bounded]), label="target")
    refused = []
    for flag, kind in bounded:
        if flag == target:
            edge = draw.draw(st.sampled_from(_edges(kind)), label=flag)
        else:
            edge = draw.draw(st.none() | st.sampled_from([e for e in _edges(kind) if not e[1]]),
                             label=flag)
        if edge is not None:
            argv.append(f"{flag}={edge[0]}")  # "=": argparse reads "-5e-324" as a flag
            if edge[1]:
                refused.append(flag)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    event(f"exit {status}")
    if refused:
        assert status == 2 and f"argument {refused[0]}: " in err.getvalue()
    elif status == 1:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
    else:
        assert status == 0, err.getvalue()
    if status != 0 or not writes:
        assert list(out_dir.iterdir()) == []
        return
    assert {p.name for p in out_dir.iterdir()} == (
        {out.name} if command == "gen-data" else {out.name, out.name + ".manifest.json"})
    _assert_valid_artifact(command, out)


def _refused_when(kind: cli.Num) -> str:
    if kind.nonzero:
        return "0"
    if kind.kind is float:
        return (f"{kind.lo} or below" if kind.above else f"below {kind.lo}") + ", or not finite"
    return f"{'an element ' if isinstance(kind, cli.IntList) else ''}below {kind.lo}"


def test_readme_lists_every_bounded_flag_with_its_bound():
    rows = {}
    for command in cli.COMMANDS:
        for flag, kind in _bounded_flags(command):
            rows.setdefault((flag, _refused_when(kind)), []).append(command)
    table = ["| flag | subcommands | usage error when |", "|---|---|---|"]
    for (flag, bound), commands in rows.items():
        names = ("every subcommand" if len(commands) == len(cli.COMMANDS)
                 else ", ".join(f"`{c}`" for c in commands))
        table.append(f"| `{flag}` | {names} | {bound} |")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = "\n".join(table)
    assert table in readme, "README's usage-error table should read:\n" + table
