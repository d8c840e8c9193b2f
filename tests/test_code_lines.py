"""The code-line count of tools/code_lines.py, pinned on a snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 7 code lines: the import, the class and def lines, both lines of the
# string that is no docstring and both lines of the return; the docstrings,
# the comments and the blank lines are not counted
SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """a string
that is no docstring"""

    def f(self):
        "a one-line docstring"
        # a comment line
        return (1,
                2)
'''


def test_definition_pinned():
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["7", str(tmp_path / "pkg" / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["9", "total"],
    ]
