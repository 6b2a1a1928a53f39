"""Print each statement of `src/aliascope` that no golden run reaches.

    python3 scripts/unreached.py [--src SRC] [NAME ...]

Runs the golden runs of `golden.COMMANDS` (those named, or all of them) in
this process under `sys.settrace`, installed before aliascope is imported,
and prints `<module>:<line>: <statement's first line>` for each statement
that never ran, other than a `raise`. Only the outermost such statement is
printed: a branch that never runs is one line, whatever its body holds. A
statement ran when a line event fell on it: on one of its lines for a simple
statement, on its header (decorators and all lines before its body) for a
compound one or an `except` clause. A docstring and a `global` or `nonlocal`
line run no code, and are never listed. SRC defaults to this repository's
`src`.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import golden

NO_CODE = (ast.Global, ast.Nonlocal, ast.Raise)


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first lines of the outermost statements of the module text
    `source` that no line of `ran` marks as run, in order, raises left out."""
    out = []

    def visit(stmts):
        for node in stmts:
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            if docstring or isinstance(node, NO_CODE):
                continue
            bodies = [getattr(node, key) for key in ("body", "orelse", "finalbody")
                      if isinstance(getattr(node, key, None), list)] + getattr(node, "handlers", [])
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = max(node.lineno, node.body[0].lineno - 1) if bodies else node.end_lineno
            if ran.isdisjoint(range(start, end + 1)):
                out.append(node.lineno)
            else:
                for body in bodies:
                    visit([body] if isinstance(body, ast.ExceptHandler) else body)

    visit(ast.parse(source).body)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=golden.REPO / "src",
                   help="directory holding the aliascope package (default: src)")
    p.add_argument("names", nargs="*", help="golden runs to make (default: all)")
    args = p.parse_args(argv)
    unknown = set(args.names) - {name for name, _ in golden.COMMANDS}
    if unknown:
        p.error(f"no golden run named {', '.join(sorted(unknown))}")
    if args.names:
        golden.COMMANDS = [(name, argv) for name, argv in golden.COMMANDS if name in args.names]
    package = args.src.resolve() / "aliascope"
    ran = defaultdict(set)  # file name -> lines with a line event

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(args.src.resolve()))
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code.co_filename.startswith(str(package)) else None)
    try:
        with tempfile.TemporaryDirectory(prefix="unreached_") as tmp:
            golden.collect(Path(tmp), args.src)
    finally:
        sys.settrace(None)
    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in unreached("\n".join(lines), ran[str(path)]):
            print(f"{path.name}:{line}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
