"""List the lines of a package that a pytest run never executes.

    python tools/uncovered.py [--source DIR] [PYTEST_ARG ...]

Runs pytest in this process (by default the tier-1 run: tests/ with
--continue-on-collection-errors) under a sys.settrace tracer that records
every line executed in a module under DIR (default src/tropiloc), keyed by
the module's resolved file path.  Then prints, per module, each executable
line that never ran as "path:line: source", and the total count of them.
The exit status is pytest's.

An executable line is one where an instruction of a code object compiled
from the module starts, so blank lines, comments, function docstrings and
continuation lines with no code of their own are not listed.  Run this
script from the repository root with the package importable (PYTHONPATH=src).
Code that runs only in a child process (a subprocess test) is not seen, and
a module imported before the tracer starts reports its module-level lines as
unrun.

The stdlib trace module is not used: its ignoredirs decision is cached by
bare module name, so it would drop tropiloc/io.py as the standard library's
io.  Coverage.py is not required.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path


def executable_lines(source: str, path: str) -> set[int]:
    """The lines where an instruction of a code object compiled from source starts."""
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class LineRecorder:
    """A sys.settrace tracer that records the lines run in the given files, by path."""

    def __init__(self, paths):
        self.hits = {path: set() for path in paths}
        self._traced = {}

    def _global(self, frame, event, arg):
        # One decision per code object's file name; frames of other files get no local tracer.
        name = frame.f_code.co_filename
        hits = self._traced.get(name)
        if hits is None:
            hits = self._traced[name] = self.hits.get(str(Path(name).resolve()), False)
        if hits is False:
            return None
        hits.add(frame.f_lineno)  # a call starts on its code object's first line with no "line" event

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(None)
        threading.settrace(None)


def uncovered(recorder: LineRecorder) -> dict[str, list[tuple[int, str]]]:
    """Per file, the executable lines the recorder never saw, with their source text."""
    report = {}
    for path, hits in recorder.hits.items():
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        missed = sorted(executable_lines(source, path) - hits)
        report[path] = [(line, text[line - 1].strip()) for line in missed]
    return report


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    source = "src/tropiloc"
    if args[:1] == ["--source"]:
        source, args = args[1], args[2:]
    import pytest

    paths = sorted(str(path.resolve()) for path in Path(source).rglob("*.py"))
    with LineRecorder(paths) as recorder:
        status = pytest.main(args or ["-q", "--continue-on-collection-errors", "tests"])
    total = 0
    for path, lines in uncovered(recorder).items():
        for line, text in lines:
            print(f"{os.path.relpath(path)}:{line}: {text}")
        total += len(lines)
    print(f"{total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
