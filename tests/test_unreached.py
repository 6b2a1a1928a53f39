import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # unreached imports golden from its own directory
_SPEC = importlib.util.spec_from_file_location("unreached", SCRIPTS / "unreached.py")
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    global y
    if x:
        return 1
    elif x is None:
        raise ValueError
    try:
        y = 2
    except KeyError:
        y = 3
    return (y,
            x)


@staticmethod
def g():
    return 0
'''


def test_only_the_outermost_statements_that_did_not_run_are_listed():
    # the return on lines 16-17 ran on its second line, and g's def on its decorator
    ran = {2, 5, 8, 10, 12, 13, 17, 20}
    # not the docstrings, the global, the raise, nor the except clause's body
    assert unreached.unreached(SOURCE, ran) == [9, 14, 22]
    assert unreached.unreached(SOURCE, {2}) == [5, 21]


def test_a_run_of_named_golden_runs_lists_what_they_do_not_reach():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "unreached.py"), "gen-data",
                           "verify-theory"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.split()[1] != "raise" for line in lines)
    # cmd_train's first statement runs in no run asked for; cmd_gen_data's does
    assert any(line.startswith("cli.py:") and line.endswith(": cfg = nn.TrainConfig(args.lr, "
                                                            "args.epochs, args.batch, args.seed, "
                                                            "args.init_scale)")
               for line in lines)
    assert not any("data.generate_synthetic(cfg)" in line for line in lines)


def test_an_unknown_run_name_is_a_usage_error():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "unreached.py"), "no-such-run"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "no golden run named no-such-run" in proc.stderr
