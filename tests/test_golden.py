import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)
REFUSED = ("nothing-scored", "nothing-measured", "out-of-range")  # runs that exit 1


def test_golden_run_of_the_working_tree(tmp_path):
    out = tmp_path / "golden.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    commands = record["commands"]
    assert list(commands) == sorted(name for name, _ in golden.COMMANDS)
    for name, rec in commands.items():
        refused = name.endswith(REFUSED)
        assert rec["status"] == (1 if refused else 0), name
        assert "golden_" not in rec["stdout"] + rec["stderr"], name  # temp dir spelled $WORK
        argv = rec["argv"]
        if rec["status"] == 0 and "--out" in argv and name != "gen-data":
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
