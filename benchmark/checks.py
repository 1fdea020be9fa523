"""Output checks for the benchmark's operations.

A failed check is counted, never raised: one wrong result shows up as
``failed > 0`` (and ``failed_ops_frac > 0``) in the run's result line
instead of ending the run.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import contextmanager

import numpy as np

import digitseq as dq

# Exact identities and Parseval are checked at the suite's tolerance.
RESIDUAL_TOL = 1e-9
_KEEP = 16  # failures described in the output (all are counted)


class _Op:
    def __init__(self):
        self.ok = True
        self.why = []

    def expect(self, condition, what: str) -> None:
        if not condition:
            self.ok = False
            self.why.append(what)


class Checker:
    """Counts checked operations and the ones whose checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextmanager
    def op(self, label: str):
        """One checked operation; an exception inside counts as a failure."""
        state = _Op()
        self.attempted += 1
        try:
            yield state
        except Exception:  # an operation boundary: record it and keep running
            state.ok = False
            state.why.append("raised")
            if len(self.failures) < _KEEP:
                traceback.print_exc(file=sys.stderr)
        if not state.ok:
            self.failed += 1
            if len(self.failures) < _KEEP:
                self.failures.append(f"{label}: {', '.join(state.why)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def stream_mismatches(f, start: int, values, positions) -> int:
    """Positions p where values[p] != b((start + p)^2) mod m' by scalar eval_b."""
    return sum(int(values[p]) != dq.eval_b(f, (start + int(p)) ** 2) % f.m_prime
               for p in positions)


def residual_ok(residual: float) -> bool:
    """A residual passes when it is at most RESIDUAL_TOL (NaN fails)."""
    return residual <= RESIDUAL_TOL


def format_raw(values) -> bytes:
    """The bytes ``digitseq generate --format raw`` writes for these symbols."""
    digits = (np.asarray(values) + ord("0")).astype(np.uint8)
    if digits.size == 0:
        return b""
    rows = (digits[i:i + 64].tobytes() for i in range(0, digits.size, 64))
    return b"\n".join(rows) + b"\n"
