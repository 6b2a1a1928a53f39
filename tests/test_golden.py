import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)
REFUSED = ("nothing-scored", "nothing-measured", "out-of-range", "diverged",
           "wrong-channels")  # runs that exit 1


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """The working tree's golden record, its runs on one BLAS thread."""
    out = tmp_path_factory.mktemp("golden") / "golden.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out)],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_golden_run_of_the_working_tree(record):
    commands = record["commands"]
    assert list(commands) == sorted(name for name, _ in golden.COMMANDS)
    for name, rec in commands.items():
        refused = name.endswith(REFUSED)
        assert rec["status"] == (1 if refused else 0), name
        assert "golden_" not in rec["stdout"] + rec["stderr"], name  # temp dir spelled $WORK
        argv = rec["argv"]
        if rec["status"] == 0 and "--out" in argv and argv[0] != "gen-data":
            artifact = Path(argv[argv.index("--out") + 1]).name
            assert {artifact, artifact + ".manifest.json"} <= set(rec["files"]), name
    for name in commands:
        if name.endswith(REFUSED):
            assert commands[name]["files"] == {}, name
    assert sum(p.endswith(".pgm") for p in commands["gen-data"]["files"]) == 24
    assert commands["verify-theory"]["stdout"] == ("observation: PASS\nclaim: PASS\n"
                                                  "corollary: PASS\nlattice: PASS\n")
    assert golden.diff(record, copy.deepcopy(record)) == []
    changed = copy.deepcopy(record)
    changed["commands"]["train"]["files"]["model.shnn"] = "0" * 64
    changed["commands"]["eval"]["stdout"] = "accuracy=0.0000 n=24\n"
    assert sorted(line.split(":")[0] for line in golden.diff(record, changed)) == ["eval", "train"]


def test_golden_record_is_the_same_on_2_blas_threads(record, monkeypatch):
    """Every golden run prints and writes the same bytes with OpenBLAS on 2
    threads as on 1. The golden shapes are small, so OpenBLAS may not split
    their products across threads at all: this pins the program's outputs at
    these sizes, not the bits of a product that OpenBLAS does split."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert golden.diff(record, golden.run_revision(SCRIPT.parent.parent / "src")) == []
