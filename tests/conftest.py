"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them in the terminal summary so they survive output capture, and
holds the Python-float complex number that bit-exact references multiply
with."""

import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def record_verdict():
    """Recorder for one [PASS]/[FAIL] line per acceptance criterion."""

    def record(line):
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


class _Complex(tuple):
    # A complex number as two Python floats.  Each Python operation rounds on
    # its own, so no compiler can fuse a multiply and an add here, as it may
    # in numpy's or CPython's complex multiply.
    def __add__(self, other):
        return _Complex((self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other):
        return _Complex((self[0] - other[0], self[1] - other[1]))

    def __mul__(self, other):
        return _Complex((self[0] * other[0] - self[1] * other[1],
                         self[0] * other[1] + self[1] * other[0]))
