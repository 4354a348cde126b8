"""Tests for tools/src_lines.py, the code-line count of src/tsakit.

The count leaves out blank lines, comment lines and docstrings (the
string that opens a module, class or function body) and keeps every
line a statement spans.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_docstrings_comments_and_blank_lines_are_left_out():
    source = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    def side(self):
        """Function docstring."""
        return 1


async def later():
    """Async function docstring,
    over two lines.
    """
    return math.pi
'''
    # import, class, def, return, async def, return
    assert src_lines.code_lines(source) == 6


def test_a_string_after_the_first_statement_is_code():
    source = 'def f():\n    x = 1\n    """Not a docstring."""\n    return x\n'
    assert src_lines.code_lines(source) == 4


def test_every_line_a_statement_spans_counts():
    source = 'TEXT = """one\ntwo\nthree"""\nTOTAL = (\n    1\n    + 2\n)\n'
    assert src_lines.code_lines(source) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text('"""Doc."""\nx = 1\ny = 2\n', encoding="utf-8")
    (tmp_path / "a.py").write_text("# only a comment\n\nz = 3\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    src_lines.main(["src_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"{'a.py':16} {1:5}",
        f"{'b.py':16} {2:5}",
        f"{'total':16} {3:5}",
    ]
