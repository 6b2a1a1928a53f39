import json

import numpy as np
import pytest

from aliascope import data, nn
from aliascope.cli import _parse_pool, main

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
    return root


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


def test_gen_data_layout_and_manifest(workspace):
    ds = data.load_dataset(workspace / "ds")
    assert len(ds.images) == 24
    assert ds.num_classes == 4
    manifest = json.loads((workspace / "ds" / "dataset.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "gen-data" in manifest["command"]
    assert manifest["wall_time_s"] >= 0


def test_train_writes_model_and_manifest(workspace):
    model = nn.load_model(workspace / "model.shnn")
    assert model.spec.input_shape == (1, 16, 16)
    manifest = _manifest(workspace / "model.shnn")
    assert str(workspace / "model.shnn") in manifest["outputs"]
    assert len(manifest["input_hashes"]) == 1  # the spec file, sha256-hashed
    (digest,) = manifest["input_hashes"].values()
    assert len(digest) == 64


def test_eval_prints_accuracy(workspace, capsys):
    assert main(["eval", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds")]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out and "n=24" in out


def test_audit_shift_writes_report(workspace, capsys):
    out_csv = workspace / "shift.csv"
    assert main(["audit-shift", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--canvas", "20", "--embed", "16", "--limit", "8",
                 "--seed", "1"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("image_id,")
    assert lines[-1].startswith("#summary,")
    assert "p_hat=" in capsys.readouterr().out
    assert _manifest(out_csv)["seed"] == 1


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
    assert lines[0] == "embed_size,p_hat"
    assert len(lines) == 3
    printed = capsys.readouterr().out
    assert "embed=12" in printed and "embed=16" in printed


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


def test_pool_swap_bad_descriptor(workspace, capsys):
    assert main(["pool-swap", "--model", str(workspace / "model.shnn"),
                 "--out", str(workspace / "x.shnn"), "--old", "max2", "--new", "avg 2 2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("new", ["avg 4 0", "avg 0 0"])
def test_pool_swap_refuses_model_that_would_not_load(tmp_path, capsys, new):
    # dense straight after the pool: a new pool size changes the dense weight shape
    spec = nn.parse_spec("input 1 16 16\nconv 4 3 pad=circular act=relu\n"
                         "maxpool 2 stride=2\ndense 4\nsoftmax\n")
    nn.save_model(nn.init_model(spec, seed=0), tmp_path / "flat.shnn")
    out_model = tmp_path / "swapped.shnn"
    assert main(["pool-swap", "--model", str(tmp_path / "flat.shnn"), "--out", str(out_model),
                 "--old", "max 2 2", "--new", new]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out_model.exists()


def test_parse_pool():
    assert _parse_pool("avg 6 2") == nn.PoolSpec("avg", 6, 2)
    with pytest.raises(ValueError):
        _parse_pool("median 2 2")


def test_bias_audit_command(workspace, capsys):
    ann_path = workspace / "ann.csv"
    rows = ["category,img_w,img_h,box_x,box_y,box_w,box_h"]
    rows += ["centered,100,100,45,45,10,10"] * 300
    ann_path.write_text("\n".join(rows) + "\n")
    out_csv = workspace / "bias.csv"
    assert main(["bias-audit", "--annotations", str(ann_path),
                 "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    assert text.startswith("#bins,position=5x5,size=10")
    assert "true" in text
    assert "flagged=1" in capsys.readouterr().out


def test_verify_theory_command(capsys):
    assert main(["verify-theory", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


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


def test_seed_env_default(workspace, monkeypatch, capsys):
    monkeypatch.setenv("ALIASCOPE_SEED", "7")
    out_csv = workspace / "shift_env.csv"
    assert main(["audit-shift", "--model", str(workspace / "model.shnn"),
                 "--data", str(workspace / "ds"), "--out", str(out_csv),
                 "--canvas", "20", "--embed", "16", "--limit", "4"]) == 0
    capsys.readouterr()
    assert _manifest(out_csv)["seed"] == 7
