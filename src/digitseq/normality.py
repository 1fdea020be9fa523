"""Block statistics, subword complexity and the square-correlation sum.

Whether a sequence over {0, ..., m'-1} looks normal is measured two ways:
directly, by sliding-window block frequencies against the uniform target
(m')^-k, and through the exponential sum

    S0(N) = sum_{n < N} e( sum_l alpha_l b((n+l)^2) ),

whose growth exponent separates structured from pseudo-random behaviour.
All S0 phases are accumulated as exact integers modulo m' and only turned
into complex numbers once, so repeated runs and partitioned runs agree
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .budget import check as budget_check
from .digital import DigitalFunction, _int64_array, _rem
from .phases import roots_of_unity
from .seqgen import SQUARE, _chunks, _windows, parse_ints


@dataclass(frozen=True)
class AlphaVector:
    """Phase coefficients alpha_l = numerators[l] / m_prime."""

    numerators: tuple
    m_prime: int

    def __post_init__(self):
        object.__setattr__(self, "numerators",
                           tuple(int(v) for v in self.numerators))
        if self.m_prime < 1:
            raise ValueError("m_prime must be >= 1")
        if len(self.numerators) < 1:
            raise ValueError("need at least one coefficient")
        if any(not 0 <= v < self.m_prime for v in self.numerators):
            raise ValueError("numerators must lie in [0, m_prime)")

    @property
    def k(self) -> int:
        return len(self.numerators)

    @property
    def K_num(self) -> int:
        """Numerator of K = sum alpha_l modulo m'; K is integral iff 0."""
        return sum(self.numerators) % self.m_prime

    @property
    def is_integer_K(self) -> bool:
        return self.K_num == 0

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.numerators)

    @classmethod
    def parse(cls, text: str, m_prime: int) -> "AlphaVector":
        return cls(tuple(parse_ints(text, "alpha")), m_prime)


@dataclass(eq=False)
class BlockHistogram:
    """Sliding-window counts of length-k blocks: the ascending codes of the
    blocks seen, each its block's base-`base` number, and their tallies."""

    k: int
    total: int
    base: int
    codes: np.ndarray
    tallies: np.ndarray

    def blocks(self, lo=0, hi=None) -> np.ndarray:
        """Symbols of the lo-th to the hi-th block seen, one row each."""
        return self.codes[lo:hi, None] // self.base ** np.arange(self.k - 1, -1, -1) % self.base

    @cached_property
    def counts(self) -> dict:
        """{block tuple: count} in ascending order, built on first read."""
        return dict(zip(map(tuple, self.blocks().tolist()), self.tallies.tolist()))


def _window_codes(codes, symbols, base: int, k: int):
    """Yield, in place, the codes of the windows of length 1 to k of symbols
    in [0, base), from a copy of them: each length is one multiply-add, and
    a code is its window's base-`base` number, so codes are equal, and sort,
    as their windows do."""
    yield codes
    for n in range(1, k):
        codes = codes[:-1]
        codes *= base
        codes += symbols[n:]
        yield codes


def _count_windows(chunks, base: int, k: int, windows: int):
    """Ascending distinct codes of the length-k windows of the chunks' symbols
    in [0, base) (base^k <= 2^62), their counts, and for n < k the codes of
    the last k - n length-n windows, which start no length-k window.

    Codes are built in place beside `_windows`' narrow buffer.  The bins add
    up where there are no more of them than windows, over buffers of at
    least 2^16 and base^k symbols; else each buffer, of at least 2^16 and
    the first chunk's symbols, is sorted, and its distinct codes merge into
    the table once they outnumber it.  Memory: O(base^k or distinct + chunk).
    """
    bound = base ** k
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32)
                  if bound <= 1 << np.iinfo(t).bits), np.int64)
    bins = np.zeros(bound if bound <= windows else 0, dtype=np.int64)
    parts = [(np.zeros(0, dtype), bins)]  # sparse: the table, then new parts
    chunks = iter(chunks)
    first = next(chunks)  # sorted: a whole array in memory is one sort
    size = max(1 << 16, bins.size or first.size)
    for view in _windows(itertools.chain([first], chunks), size, k, dtype):
        *_, codes = _window_codes(view.copy(), view, base, k)
        if bins.size:
            np.add(bins, np.bincount(codes, minlength=bound), out=bins)
        else:
            parts.append(np.unique(codes, return_counts=True))
            if sum(p[0].size for p in parts[1:]) >= parts[0][0].size:
                parts[:] = [_merge(parts)]
    last = view[view.size - k + 1:]  # the carry rewrote only the buffer's start
    tails = [t.copy() for t in _window_codes(last.copy(), last, base, k)]
    if bins.size:
        table = np.flatnonzero(bins)
        return table, bins[table], tails[:-1]
    return *_merge(parts), tails[:-1]


def _merge(parts):
    """One ascending table of distinct codes, counts summed, from several."""
    codes, counts = map(np.concatenate, zip(*parts))
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return codes[first], np.add.reduceat(counts, first)


def _prefix_counts(table, tails, base: int) -> list:
    """p(e - len(tails)), ..., p(e) from the ascending distinct length-e codes
    and, for each shorter n, the codes of the last e - n length-n windows.
    The other length-n windows have the codes (length-e code) // base^(e-n),
    which ascend, so their steps count them."""
    comp = []
    for d, tail in zip(range(len(tails), 0, -1), tails):
        prefix = table // base ** d
        seen = prefix[np.searchsorted(prefix, tail).clip(max=prefix.size - 1)] == tail
        comp.append(1 + int(np.count_nonzero(np.diff(prefix)))
                    + len(set(tail[~seen].tolist())))
    return comp + [table.size]


def _window_statistics(chunks, base, k: int, N: int, n_max: int):
    """Histogram of the length-k windows of the N symbols in [0, base) that
    chunks() yields, and p(1), ..., p(n_max) for n_max <= k, from one count of
    those windows; a base of None, or one whose k-th power passes 2^62, is
    taken from the symbols seen."""
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    if N < k:
        raise ValueError(f"sequence of length {N} has no window of length {k}")
    if base is None or base ** k >= 1 << 62:
        lo, hi = zip(*((int(x.min()), int(x.max())) for x in chunks()))
        if min(lo) < 0:
            raise ValueError("symbols must be >= 0")
        base = max(hi) + 1
    if base ** k >= 1 << 62:
        raise ValueError("alphabet^k too large to encode windows")
    table, cnt, tails = _count_windows(chunks(), base, k, N - k + 1)
    return (BlockHistogram(k, N - k + 1, base, table, cnt),
            _prefix_counts(table, tails, base)[:n_max] if n_max else [])


def block_histogram(values, k: int) -> BlockHistogram:
    """Count all length-k windows of the sequence."""
    values = _int64_array(values)
    return _window_statistics(lambda: [values], None, k, values.size, 0)[0]


@dataclass(frozen=True)
class NormalityReport:
    k: int
    m_prime: int
    total: int
    max_deviation: float      # max over all m'^k blocks of |freq - (m')^-k|
    chi_square: float         # against the uniform model
    missing_blocks: int       # blocks with count 0 (lower bound claim only)
    expected_frequency: float

    def to_dict(self):
        return asdict(self)


def normality_deviation(hist: BlockHistogram, m_prime: int) -> NormalityReport:
    """Compare a block histogram against the uniform target (m')^-k.

    A missing block means "not seen in this prefix"; only the deviation it
    induces is reported, no structural claim is made.
    """
    if hist.base > m_prime:  # the largest symbol seen, + 1, or m' itself
        raise ValueError("histogram contains symbols outside [0, m_prime)")
    p = float(m_prime) ** (-hist.k)
    expected = hist.total * p
    missing = m_prime ** hist.k - hist.codes.size
    max_dev = max(p if missing > 0 else 0.0,
                  float(np.abs(hist.tallies / hist.total - p).max()))
    terms = (hist.tallies - expected) ** 2 / expected  # added in order, as a loop would
    chi = float(np.cumsum(np.r_[missing * expected, terms])[-1])
    return NormalityReport(k=hist.k, m_prime=m_prime, total=hist.total, max_deviation=max_dev,
                           chi_square=chi, missing_blocks=missing, expected_frequency=p)


def subword_complexity(values, n_max: int) -> list:
    """Distinct-window counts p(1), ..., p(n_max) of a finite prefix.

    These are lower bounds for the complexity of the infinite sequence.
    Symbols are shifted by their minimum, or ranked if their span exceeds
    the prefix length N, so base <= N.  The longest windows are counted
    once and each shorter p(n) read off their codes (`_prefix_counts`).
    Past 2^62 the ranks of the length-e windows become the symbols, whose
    windows of length n are the old ones of length n + e - 1.
    """
    values = _int64_array(values)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max >= values.size:
        raise ValueError(f"need a prefix longer than n_max={n_max}")
    lo, hi = int(values.min()), int(values.max())
    if hi - lo + 1 > values.size:
        uniq, symbols = np.unique(values, return_inverse=True)
        base = uniq.size
    else:
        symbols, base = values - lo if lo else values, hi - lo + 1
    comp, offset = [], 0
    while True:
        e = 1  # at most 62, so that a constant prefix keeps its tails short
        while offset + e < n_max and max(base, 2) ** (e + 1) <= 1 << 62:
            e += 1
        table, _, tails = _count_windows([symbols], base, e, symbols.size - e + 1)
        comp[offset:] = _prefix_counts(table, tails, base)
        if offset + e == n_max:
            return comp
        *_, codes = _window_codes(symbols.copy(), symbols, base, e)
        base, symbols, offset = table.size, np.searchsorted(table, codes), offset + e - 1


# Below this m' a chunk's phases are counted one nonzero residue at a time with
# np.count_nonzero: np.bincount first copies the int16 chunk to intp, and on 2^16
# phases the m' - 1 scans cost as much as that at m' = 12 (docs/DECISIONS.md, 28).
_SCAN_BINS = 12


def _phase_counts(f: DigitalFunction, alpha: AlphaVector, grid) -> np.ndarray:
    """Counts of each phase sum_l num_l * b((n+l)^2) mod m' between grid points.

    Row i counts n in [grid[i-1], grid[i]), and row 0 counts n < grid[0].
    Each row reads its own squares, k - 1 past its end, from `_chunks`
    through `_windows`, exact for squares up to 2^126; phases stay in
    int16 where k (m' - 1)^2 fits, so memory stays O(chunk) for any N.
    """
    if alpha.m_prime != f.m_prime:
        raise ValueError("alpha and function moduli differ")
    k, mp = alpha.k, f.m_prime
    counts = np.zeros((len(grid), mp), dtype=np.int64)
    dtype = np.int16 if k * (mp - 1) ** 2 < 1 << 15 else np.int64
    for row, lo, hi in zip(counts, [0, *grid], grid):
        for bsq in _windows(_chunks(f, SQUARE, lo, hi - lo + k - 1), 1 << 16, k, dtype):
            c = bsq.size - k + 1
            phases = np.zeros(c, bsq.dtype)
            for ell, num in enumerate(alpha.numerators):
                if num:
                    phases += num * bsq[ell:ell + c]
            _rem(phases, mp, out=phases)
            if mp < _SCAN_BINS:
                hits = [np.count_nonzero(phases == v) for v in range(1, mp)]
                row[1:] += hits
                row[0] += c - sum(hits)
            else:
                row += np.bincount(phases, minlength=mp)
    return counts


def exp_sum_S0(f: DigitalFunction, alpha: AlphaVector, N: int) -> complex:
    """S0 = sum_{n<N} e(sum_l alpha_l b((n+l)^2)), phases exact mod m'."""
    if N < 1:
        raise ValueError("N must be >= 1")
    budget_check("sum", N, "exponential sum")
    counts = _phase_counts(f, alpha, [N])[0]
    return complex(counts @ roots_of_unity(f.m_prime))


@dataclass(frozen=True)
class DecayRow:
    N: int
    value: complex
    magnitude: float
    log_ratio: float   # log|S0| / log N with |S0| floored at 1

    def to_dict(self):
        return {
            "N": self.N,
            "re": self.value.real,
            "im": self.value.imag,
            "abs": self.magnitude,
            "log_ratio": self.log_ratio,
        }


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    rows: tuple = field(repr=False)

    def to_dict(self):
        return {"slope": self.slope, "intercept": self.intercept,
                "rows": [r.to_dict() for r in self.rows]}


def decay_exponent(f: DigitalFunction, alpha: AlphaVector, N_grid) -> DecayFit:
    """Least-squares slope of log|S0| against log N over a grid.

    |S0| is floored at 1 before taking logs.  The slope is an empirical
    growth exponent for this grid only, not an estimate of any provable
    exponent.
    """
    grid = [int(N) for N in N_grid]
    if len(grid) < 2:
        raise ValueError("need at least two grid points")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 1:
        raise ValueError("grid entries must be >= 1")
    budget_check("sum", grid[-1], "exponential sum grid")
    roots = roots_of_unity(f.m_prime)
    rows = []
    # each phase is counted once, in its segment between grid points
    for N, counts in zip(grid, np.cumsum(_phase_counts(f, alpha, grid), axis=0)):
        val = complex(counts @ roots)
        mag = abs(val)
        rows.append(DecayRow(N=N, value=val, magnitude=mag,
                             log_ratio=math.log(max(mag, 1.0)) / math.log(N)
                             if N > 1 else 0.0))
    xs = np.log([r.N for r in rows])
    ys = np.log([max(r.magnitude, 1.0) for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    rows=tuple(rows))
