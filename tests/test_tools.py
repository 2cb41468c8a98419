"""tools/code_lines.py: the code-line count that size reports quote."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def area(r):
    """Function docstring."""
    return (math.pi
            * r * r)


class Box:
    """Class docstring."""

    SIDE = """a string that is
    not a docstring"""

    def size(self):
        return self.SIDE
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, def, the two lines of the return, class, the two lines of
    # SIDE, def and return.
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("") == 0


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "pkg")], capture_output=True, text=True, check=True).stdout
    lines = [line.split(maxsplit=1) for line in out.splitlines()]
    assert lines == [["9", str(tmp_path / "pkg" / "a.py")], ["1", str(tmp_path / "pkg" / "b.py")], ["10", "total"]]
