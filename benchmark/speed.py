"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared with other machines' work: its effective
speed moves by 20-40% over seconds to minutes, and every timing taken
meanwhile moves with it.  Runs therefore sample this reference between
sections and report each pass's times scaled to the reference's nominal
speed: ``seconds * NOMINAL_S / median reference seconds of the pass``.

The reference mixes the kinds of work the package does (Python integer
loops, int64 table gathers, small complex matrix products, first-touch
writes to a fresh large array) and touches no digitseq code, so a
change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on the 2-vCPU Xeon (2.1 GHz) box the baseline
# in README.md was taken on.
NOMINAL_S = 0.0143

_ARRAY = np.arange(1 << 17, dtype=np.int64)
_TABLE = np.arange(1 << 12, dtype=np.int16)
_MATRIX = (np.arange(64 * 64).reshape(64, 64) % 7 - 3) * (1 + 1j) / 64


def _python_ints() -> int:
    total = 0
    for n in range(1 << 40, (1 << 40) + 1000):
        x = n * n
        while x:
            total += x & 3
            x >>= 2
    return total


def _int_arrays() -> int:
    cur = _ARRAY * _ARRAY
    out = np.zeros_like(cur)
    for _ in range(6):
        out += _TABLE[cur & 4095]
        cur >>= 12
    return int(out[-1])


def _matrices() -> complex:
    total = 0j
    for _ in range(100):
        total += (_MATRIX @ _MATRIX)[0, 0]
    return total


def _fresh_memory() -> int:
    block = np.empty(1 << 20, dtype=np.int64)
    block.fill(3)
    return int(block[-1])


def sample() -> float:
    """Seconds the reference takes once."""
    start = time.perf_counter()
    _python_ints()
    _int_arrays()
    _matrices()
    _fresh_memory()
    return time.perf_counter() - start


def scale(seconds: float, samples) -> float:
    """Seconds scaled to the nominal host speed, given reference samples
    taken while they were measured."""
    return seconds * NOMINAL_S / statistics.median(samples)
