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

import bisect
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .budget import check as budget_check
from .digital import DigitalFunction, _rem
from .phases import roots_of_unity
from .seqgen import SQUARE, stream


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
        return cls(tuple(int(tok) for tok in text.split(",")), m_prime)


@dataclass
class BlockHistogram:
    """Sliding-window counts of length-k blocks."""

    k: int
    counts: dict
    total: int


def _window_codes(symbols: np.ndarray, base: int, n_max: int):
    """Yield (codes, bound) for the length-n windows of symbols in [0, base).

    n runs from 1 to n_max.  Codes are equal, and sort, as their windows
    do, and lie below bound.  They are held in the narrowest unsigned
    dtype that holds base^n_max (int64 past 32 bits), and each length is
    one in-place multiply-add on the last, so a yielded array is
    overwritten by the next length.  Ranks replace int64 codes before
    they pass 2^62.
    """
    top = base ** min(n_max, 33)   # base^n_max, up to where 32 bits end
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32)
                  if top <= 1 << np.iinfo(t).bits), np.int64)
    sym = symbols.astype(dtype, copy=False)
    codes, bound = sym.copy(), base
    yield codes, bound
    for n in range(2, n_max + 1):
        if bound * base > 1 << 62:
            uniq, codes = np.unique(codes, return_inverse=True)
            bound = uniq.size
        codes = codes[:-1]
        codes *= base
        codes += sym[n - 1:]
        bound *= base
        yield codes, bound


def _count(codes: np.ndarray, bound: int):
    """Distinct codes in [0, bound), ascending, and their counts.

    Bins are counted directly when there are no more of them than codes,
    so the table never outgrows the input; sparse codes are sorted.
    """
    if bound <= codes.size:
        cnt = np.bincount(codes, minlength=bound)
        uniq = np.flatnonzero(cnt)
        return uniq, cnt[uniq]
    return np.unique(codes, return_counts=True)


def _block_statistics(values, k: int, n_max: int = 0):
    """Histogram of the length-k windows, and p(1), ..., p(n_max) for n_max <= k.

    One pass of the window codes serves both.  Distinct-window counts do
    not depend on the encoding, so they equal `subword_complexity`'s.
    """
    values = np.asarray(values, dtype=np.int64)
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    if values.size < k:
        raise ValueError(f"sequence of length {values.size} has no window of length {k}")
    if values.min() < 0:
        raise ValueError("symbols must be >= 0")
    base = int(values.max()) + 1
    if base ** k >= 1 << 62:
        raise ValueError("alphabet^k too large to encode windows")
    complexity = []
    for n, (codes, bound) in enumerate(_window_codes(values, base, k), 1):
        if n <= n_max or n == k:
            uniq, cnt = _count(codes, bound)
            complexity.append(uniq.size)
    blocks = uniq[:, None] // base ** np.arange(k - 1, -1, -1) % base
    counts = dict(zip(map(tuple, blocks.tolist()), cnt.tolist()))
    hist = BlockHistogram(k=k, counts=counts, total=values.size - k + 1)
    return hist, complexity[:n_max]


def block_histogram(values, k: int) -> BlockHistogram:
    """Count all length-k windows of the sequence."""
    return _block_statistics(values, k)[0]


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
    if any(max(b) >= m_prime for b in hist.counts if b):
        raise ValueError("histogram contains symbols outside [0, m_prime)")
    p = float(m_prime) ** (-hist.k)
    expected = hist.total * p
    possible = m_prime ** hist.k
    missing = possible - len(hist.counts)
    max_dev = p if missing > 0 else 0.0
    chi = missing * expected
    for c in hist.counts.values():
        max_dev = max(max_dev, abs(c / hist.total - p))
        chi += (c - expected) ** 2 / expected
    return NormalityReport(
        k=hist.k,
        m_prime=m_prime,
        total=hist.total,
        max_deviation=max_dev,
        chi_square=chi,
        missing_blocks=missing,
        expected_frequency=p,
    )


def subword_complexity(values, n_max: int) -> list:
    """Distinct-window counts p(1), ..., p(n_max) of a finite prefix.

    These are lower bounds for the complexity of the infinite sequence.
    Symbols are shifted by their minimum, or ranked if their span exceeds
    the prefix length N, so window codes stay below N * base.
    """
    values = np.asarray(values, dtype=np.int64)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max >= values.size:
        raise ValueError(f"need a prefix longer than n_max={n_max}")
    lo, hi = int(values.min()), int(values.max())
    if hi - lo + 1 > values.size:
        uniq, symbols = np.unique(values, return_inverse=True)
        base = uniq.size
    else:
        symbols, base = values - lo, hi - lo + 1
    return [_count(codes, bound)[0].size
            for codes, bound in _window_codes(symbols, base, n_max)]


def _phase_counts(f: DigitalFunction, alpha: AlphaVector, grid) -> np.ndarray:
    """Counts of each phase sum_l num_l * b((n+l)^2) mod m' between grid points.

    Row i counts n in [grid[i-1], grid[i]), and row 0 counts n < grid[0].
    b(n^2) mod m' comes from `stream`, exact for squares up to
    2^126, in chunks of 2^16 phases that each read k - 1 squares past
    their end, so memory stays O(chunk) for any N.
    """
    if alpha.m_prime != f.m_prime:
        raise ValueError("alpha and function moduli differ")
    chunk, top = 1 << 16, grid[-1]
    counts = np.zeros((len(grid), f.m_prime), dtype=np.int64)
    for s in range(0, top, chunk):
        c = min(chunk, top - s)
        bsq = stream(f, SQUARE, s, c + alpha.k - 1)
        phases = np.zeros(c, dtype=np.int64)
        for ell, num in enumerate(alpha.numerators):
            if num:
                phases += num * bsq[ell:ell + c]
        _rem(phases, f.m_prime, out=phases)
        i, lo = bisect.bisect_right(grid, s), s   # grid[i] is the next cut
        while lo < s + c:
            hi = min(grid[i], s + c)
            counts[i] += np.bincount(phases[lo - s:hi - s], minlength=f.m_prime)
            i, lo = i + 1, hi
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
