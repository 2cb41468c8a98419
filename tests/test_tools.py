"""The tools under tools/: code_lines.py, uncovered.py and side_by_side.py."""

import importlib.util
import re
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


def test_help_prints_the_usage_and_exits_0():
    for flag in ("-h", "--help"):
        proc = subprocess.run([sys.executable, str(SCRIPT), flag], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, code_lines.__doc__, "")


def test_a_missing_path_is_one_line_and_status_2(tmp_path):
    missing = tmp_path / "absent.py"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(missing)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"code_lines.py: no such file or directory: {missing}\n"


UNCOVERED = ROOT / "tools" / "uncovered.py"

MODULE = '''"""A module with branches."""


def sign(x):
    """The sign of x."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def unused(x):
    total = (x
             + 1)
    return total
'''

TEST = '''from fixture_pkg.branches import sign


def test_positive_and_zero():
    assert sign(2) == 1
    assert sign(0) == 0
'''


def test_uncovered_lists_exactly_the_lines_the_test_leaves_unrun(tmp_path):
    # No test calls sign with x < 0, so line 9 never runs, and unused is
    # defined but never called: its body is lines 14 to 16, the
    # continuation line 15 included, since it holds code of its own.
    (tmp_path / "fixture_pkg").mkdir()
    (tmp_path / "fixture_pkg" / "__init__.py").write_text("")
    (tmp_path / "fixture_pkg" / "branches.py").write_text(MODULE)
    (tmp_path / "test_fixture.py").write_text(TEST)
    argv = [sys.executable, str(UNCOVERED), "--source", "fixture_pkg", "-q", "-p", "no:cacheprovider", "test_fixture.py"]
    done = subprocess.run(argv, cwd=tmp_path, env={"PYTHONPATH": str(tmp_path)}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout.splitlines()[-5:]
    path = str(Path("fixture_pkg") / "branches.py")
    assert report == [f"{path}:9: return -1", f"{path}:14: total = (x", f"{path}:15: + 1)", f"{path}:16: return total", "4 executable lines never ran"]


def test_executable_lines_leave_out_blanks_comments_and_function_docstrings():
    spec = importlib.util.spec_from_file_location("uncovered", UNCOVERED)
    uncovered = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(uncovered)
    lines = uncovered.executable_lines(MODULE, "branches.py")
    # line 1 is the module docstring, which import stores as __doc__
    assert lines == {1, 4, 6, 7, 8, 9, 10, 13, 14, 15, 16}


SIDE_BY_SIDE = ROOT / "tools" / "side_by_side.py"


def test_side_by_side_times_a_tree_against_itself():
    # Both sides are this tree, so every answer has the same bits; the report
    # gives each side's median per solve, the change's wins and the answers.
    argv = [sys.executable, str(SIDE_BY_SIDE), str(ROOT), str(ROOT), "--workload", "small_files", "--rounds", "2"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()
    assert out[0] == "workload small_files, seed 1: 240 instances, 2 rounds"
    assert [line.split()[0] for line in out[1:3]] == ["base", "change"]
    assert all(re.fullmatch(r"\w+ +\d+\.\d us per solve \[\d+\.\d, \d+\.\d\]", line) for line in out[1:3]), out
    assert re.fullmatch(r"change faster in [0-2] of 2 rounds, median [+-]\d+\.\d%", out[3]), out
    assert out[4:] == ["answers with the same bits: 240 of 240"]


def test_side_by_side_runs_the_cli_of_each_tree():
    # --call cli runs `tropiloc solve FILE` in process on each side, and
    # compares the exit codes and stdout bytes; a tree against itself gives
    # the same bytes on every file.
    argv = [sys.executable, str(SIDE_BY_SIDE), str(ROOT), str(ROOT), "--workload", "small_files", "--rounds", "2", "--call", "cli"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()
    assert out[0] == "workload small_files, seed 1: 240 instances, 2 rounds"
    assert all(re.fullmatch(r"\w+ +\d+\.\d us per call \[\d+\.\d, \d+\.\d\]", line) for line in out[1:3]), out
    assert re.fullmatch(r"change faster in [0-2] of 2 rounds, median [+-]\d+\.\d%", out[3]), out
    assert out[4:] == ["stdout with the same bytes: 240 of 240"]


def test_side_by_side_binds_each_cli_to_its_own_tree():
    spec = importlib.util.spec_from_file_location("side_by_side", SIDE_BY_SIDE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = sys.modules.get("tropiloc")
    package = tool.load_package(ROOT, "tropiloc_side")
    try:
        cli = tool.load_cli(package)
        assert cli.tropiloc is package and sys.modules.get("tropiloc") is before
        code, payload = tool.run_cli(cli.main, str(ROOT / "demos" / "missing.json"))
        assert (code, payload) == (1, b"")
    finally:
        for name in [name for name in sys.modules if name == "tropiloc_side" or name.startswith("tropiloc_side.")]:
            del sys.modules[name]
