import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "codelines", Path(__file__).resolve().parent.parent / "scripts" / "codelines.py")
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)


def test_a_module_of_docstrings_comments_and_blank_lines_has_no_code_line():
    assert codelines.code_lines('"""A module.\n\nIts docstring alone."""\n') == 0
    assert codelines.code_lines("# a comment\n\n   \n") == 0


def test_code_lines_count_each_line_that_holds_code_once():
    source = '''"""Module docstring."""

import os  # a trailing comment counts as code


class A:
    """Class docstring,
    on two lines."""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        text = """a string that is no docstring
        spans its lines"""
        return (text,
                os.sep)
'''
    # import, class, def, the 2-line string, the 2-line return
    assert codelines.code_lines(source) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("y = 2\nz = 3\n")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1  a.py\n     2  b.py\n     3  total\n"
