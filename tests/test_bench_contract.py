"""The benchmark's hooks into the package: every binding it wraps must exist,
and a short traced run must complete.

benchmarks/spans.py wraps functions by (module, attribute) to time the
solver's layers; a refactor that drops or renames one of those bindings
would break ``benchmarks/run.py --trace 1`` without any other test noticing.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import harness  # noqa: F401  (its imports from tropiloc must resolve too)
    import spans

    yield spans
    for name in ("harness", "spans", "check", "workloads"):
        sys.modules.pop(name, None)


def test_span_targets_resolve(spans):
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is missing"


def test_span_only_bindings_are_span_targets(spans):
    # An import that the library keeps only for the benchmark's spans must
    # name a binding that spans.TARGETS wraps in that module, so a target
    # cannot be dropped and leave a stale binding behind.
    marker = "(bound here only for benchmarks/spans.py)"
    targets = {(module.__name__, attr) for module, attr, _, _ in spans.TARGETS}
    stale, marked, markers = [], 0, 0
    for path in sorted((ROOT / "src" / "tropiloc").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        markers += source.count(marker)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and marker in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                marked += 1
                names = (alias.asname or alias.name for alias in node.names)
                stale += [f"{path.stem}.{name}" for name in names if (f"tropiloc.{path.stem}", name) not in targets]
    assert marked == markers, "the marker must sit on an import"
    assert not stale, stale


def test_traced_small_files_run_completes():
    # One short traced run end to end.  The magnitude-rescaled files solve and
    # sample too: rounding never leaves a feasible box crossed.
    argv = ["--workload", "small_files", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (240, 0)


def test_many_clients_run_completes():
    # One short untraced run of the workload whose solves the client-row
    # layout of theta and the envelopes serves; the benchmark checks every
    # answer against the generator's ground truth.
    argv = ["--workload", "many_clients", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (12, 0)


def test_wide_bounds_run_completes():
    # One short untraced run of the workload with n up to 300 and m = 20,
    # where the O(n^3) closure B* takes about 90% of the solve time; the
    # benchmark checks every answer against the generator's ground truth.
    argv = ["--workload", "wide_bounds", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (18, 0)
