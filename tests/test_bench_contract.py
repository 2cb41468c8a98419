"""The benchmark's hooks into the package: every binding it wraps must exist.

benchmarks/spans.py wraps functions by (module, attribute) to time the
solver's layers; a refactor that drops or renames one of those bindings
would break ``benchmarks/run.py --trace 1`` without any other test noticing.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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

