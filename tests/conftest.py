import numpy as np
import pytest

_acceptance_lines = []


@pytest.fixture(autouse=True)
def _numpy_buffer_size_is_restored():
    # trace_and_closure shrinks numpy's ufunc buffer for its pivots; no test
    # may leave the process with a size other than the one it started with.
    # The size is put back first, so one offender does not mask the next.
    before = np.getbufsize()
    yield
    after = np.setbufsize(before)
    assert after == before, f"np.getbufsize() went from {before} to {after}"


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
