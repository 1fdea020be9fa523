"""Shared fixtures and the acceptance-criterion result banner."""

import numpy as np
import pytest

import digitseq as dq

ACCEPTANCE_RESULTS = []


def record_criterion(number, name, ok, detail=""):
    ACCEPTANCE_RESULTS.append((number, name, bool(ok), detail))
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


def _criterion_key(item):
    number = str(item[0])
    head = "".join(c for c in number if c.isdigit())
    return (int(head) if head else 0, number)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok, detail in sorted(ACCEPTANCE_RESULTS, key=_criterion_key):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number:>3}  {status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# Unit tables scaled by w for the accumulator-limit tests: q = 2, m = 1
# counts ones, so b(2^D - 1) = D w meets the D-digit scan's bound; the
# m = 3 table normalizes to w [0, 1, 0, -1, 0, 1, 0, 0].
LIMIT_TABLES = {"ones": [0, 1], "negative": [0, 0, 1, 0, 0, 0, 0, 0]}
LIMITS = [(2 ** 15 - 1, np.int16, np.int32), (2 ** 31 - 1, np.int32, np.int64)]


def limit_function(unit, limit, above, digits, wide=False):
    """unit scaled so that `digits` times the largest |weight| of the
    table the scan reads, the normalized one when `wide`, is at most
    `limit`, or just past it when `above`."""
    w = limit // digits + above
    f = dq.make_digital_function(2, len(unit).bit_length() - 1,
                                 [w * v for v in unit], 7)
    scanned = dq.normalize(f) if wide else f
    assert (digits * max(map(abs, scanned.F)) > limit) == above
    return f, scanned


@pytest.fixture(scope="session")
def thue_morse():
    return dq.preset("thue-morse")


@pytest.fixture(scope="session")
def rudin_shapiro():
    return dq.preset("rudin-shapiro")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
