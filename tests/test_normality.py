"""Block statistics, subword complexity and the correlation sum S0."""

import bisect
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import digitseq as dq
from digitseq import seqgen
from digitseq.normality import (
    AlphaVector,
    NormalityReport,
    _phase_counts,
    _window_statistics,
)
from digitseq.phases import roots_of_unity


def brute_S0(f, numerators, N):
    """Direct evaluation from scalar b values and cmath phases."""
    import cmath
    mp = f.m_prime
    total = 0j
    for n in range(N):
        phase = sum(num * dq.eval_b(f, (n + ell) ** 2)
                    for ell, num in enumerate(numerators)) % mp
        total += cmath.exp(2j * cmath.pi * phase / mp)
    return total


def reference_block_histogram(values, k):
    """Block counts from k fresh passes over the prefix, one per symbol."""
    values = np.asarray(values, dtype=np.int64)
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    if values.size < k:
        raise ValueError(f"sequence of length {values.size} has no window of length {k}")
    if values.size and values.min() < 0:
        raise ValueError("symbols must be >= 0")
    base = int(values.max()) + 1 if values.size else 1
    if base ** k >= 1 << 62:
        raise ValueError("alphabet^k too large to encode windows")
    n = values.size - k + 1
    codes = np.zeros(n, dtype=np.int64)
    for j in range(k):
        codes = codes * base + values[j:j + n]
    uniq, cnt = np.unique(codes, return_counts=True)
    counts = {}
    for code, c in zip(uniq.tolist(), cnt.tolist()):
        block = []
        for _ in range(k):
            code, r = divmod(code, base)
            block.append(r)
        counts[tuple(reversed(block))] = c
    return SimpleNamespace(k=k, counts=counts, total=values.size - k + 1)


def reference_normality_deviation(hist, m_prime):
    """The per-block loop over the count dict that the array form replaced."""
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
    return NormalityReport(k=hist.k, m_prime=m_prime, total=hist.total,
                           max_deviation=max_dev, chi_square=chi,
                           missing_blocks=missing, expected_frequency=p)


def reference_subword_complexity(values, n_max):
    """Distinct-window counts with the windows re-ranked at every length.

    The multiplier is the symbol count.  Taking the count of the previous
    length instead merges distinct windows when some symbol occurs only
    near the end of the prefix: [4, 3, 2, 5] then gives p(3) = 1.
    """
    values = np.asarray(values, dtype=np.int64)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max >= values.size:
        raise ValueError(f"need a prefix longer than n_max={n_max}")
    ranks = np.unique(values, return_inverse=True)[1]
    nsym = int(ranks.max()) + 1
    out = [nsym]
    prev = ranks
    for n in range(2, n_max + 1):
        L = values.size - n + 1
        codes = prev[:L] * nsym + ranks[n - 1:n - 1 + L]
        uniq, prev = np.unique(codes, return_inverse=True)
        out.append(int(uniq.size))
    return out


def per_length_complexity(values, n_max):
    """p(1), ..., p(n_max) with every length's codes counted on their own:
    the kernel that one count of the longest windows replaced.  Codes are
    built in place, one multiply-add a length, and ranked before they pass
    2^62; bins are counted where they are no more than the codes."""
    values = np.asarray(values, dtype=np.int64)
    lo, hi = int(values.min()), int(values.max())
    if hi - lo + 1 > values.size:
        uniq, symbols = np.unique(values, return_inverse=True)
        base = uniq.size
    else:
        symbols, base = values - lo, hi - lo + 1
    top = base ** min(n_max, 33)
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32)
                  if top <= 1 << np.iinfo(t).bits), np.int64)
    sym = symbols.astype(dtype)
    codes, bound, out = sym.copy(), base, []
    for n in range(1, n_max + 1):
        if n > 1:
            if bound * base > 1 << 62:
                uniq, codes = np.unique(codes, return_inverse=True)
                bound = uniq.size
            codes = codes[:-1]
            codes *= base
            codes += sym[n - 1:]
            bound *= base
        out.append(int(np.count_nonzero(np.bincount(codes, minlength=bound)))
                   if bound <= codes.size else np.unique(codes).size)
    return out


def assert_same_histogram(got, want):
    assert (got.k, got.total) == (want.k, want.total)
    assert list(got.counts.items()) == list(want.counts.items())


def test_alpha_vector_basics():
    a = AlphaVector((1, 0), 2)
    assert a.k == 2 and a.K_num == 1 and not a.is_integer_K
    assert AlphaVector((1, 1), 2).is_integer_K
    assert AlphaVector((0, 0), 2).is_zero
    with pytest.raises(ValueError):
        AlphaVector((2,), 2)
    with pytest.raises(ValueError):
        AlphaVector((), 2)
    assert AlphaVector.parse("1,0,1", 2).numerators == (1, 0, 1)


def test_block_histogram_examples():
    h = dq.block_histogram([0, 1, 1, 0], 1)
    assert h.counts == {(0,): 2, (1,): 2} and h.total == 4
    h2 = dq.block_histogram([0, 1, 1, 0], 2)
    assert h2.counts == {(0, 1): 1, (1, 1): 1, (1, 0): 1}
    h3 = dq.block_histogram([5] * 10, 3)
    assert h3.counts == {(5, 5, 5): 8} and h3.total == 8


def test_block_histogram_validation():
    with pytest.raises(ValueError):
        dq.block_histogram([0, 1], 3)
    with pytest.raises(ValueError):
        dq.block_histogram([0, 1], 0)


def test_histogram_total_conserved(rng):
    for _ in range(20):
        n = int(rng.integers(10, 500))
        k = int(rng.integers(1, 6))
        vals = rng.integers(0, 3, n)
        h = dq.block_histogram(vals, k)
        assert sum(h.counts.values()) == h.total == n - k + 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alphabet=st.integers(1, 10), k=st.integers(1, 12),
       extra=st.integers(1, 3000), period=st.integers(0, 40),
       offset=st.integers(-12, 0), seed=st.integers(0, 2 ** 32 - 1))
def test_window_statistics_match_reference(alphabet, k, extra, period, offset, seed):
    # period > 0 repeats a random word, so long windows collide as well
    rng = np.random.default_rng(seed)
    n = k + extra
    if period:
        vals = np.resize(rng.integers(0, alphabet, period), n)
    else:
        vals = rng.integers(0, alphabet, n)
    assert_same_histogram(dq.block_histogram(vals, k),
                          reference_block_histogram(vals, k))
    shifted = vals + offset
    assert (dq.subword_complexity(shifted, k)
            == reference_subword_complexity(shifted, k))


# (base, n) with base^n at each dtype edge of the window codes (2^8, 2^16,
# 2^32) and just past it
DTYPE_EDGES = [(2, 8), (16, 2), (256, 1), (257, 1), (2, 9),
               (2, 16), (256, 2), (65536, 1), (65537, 1), (257, 2),
               (2, 32), (16, 8), (65536, 2), (2 ** 32 + 1, 1), (2, 33)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edge=st.sampled_from(DTYPE_EDGES), slack=st.integers(-2, 2),
       n_max=st.integers(0, 33), seed=st.integers(0, 2 ** 32 - 1))
def test_window_kernels_at_dtype_edges(edge, slack, n_max, seed):
    # windows = base^n + slack, so bincount and the sorted count both run
    # near their switch, unless the reference would decode too many digits
    base, k = edge
    bound = base ** k
    windows = (bound if bound * k <= 1 << 18 else 1 << 12) + slack
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, base, windows + k - 1)
    vals[[0, -1]] = 0, base - 1          # the alphabet is exactly [0, base)
    want = reference_block_histogram(vals, k)
    assert_same_histogram(dq.block_histogram(vals, k), want)
    assert (dq.subword_complexity(vals, k)
            == reference_subword_complexity(vals, k))
    n_max = min(n_max, k)
    hist, comp = _window_statistics(lambda: [vals], None, k, vals.size, n_max)
    assert_same_histogram(hist, want)
    assert comp == (reference_subword_complexity(vals, n_max) if n_max else [])


def test_complexity_short_prefix_matches_brute_force(rng):
    # 5 occurs only at the end, so there are fewer 2-windows than symbols
    assert dq.subword_complexity([4, 3, 2, 5], 3) == [4, 3, 2]
    for _ in range(200):
        vals = rng.integers(0, 10, int(rng.integers(2, 16))).tolist()
        n_max = len(vals) - 1
        want = [len({tuple(vals[i:i + n]) for i in range(len(vals) - n + 1)})
                for n in range(1, n_max + 1)]
        assert dq.subword_complexity(vals, n_max) == want


def test_complexity_crosses_the_rerank(thue_morse, rng):
    # binary codes pass 2^62 at length 63, so lengths up to 70 re-rank
    for vals in (dq.stream(thue_morse, dq.IDENTITY, 0, 5000),
                 np.resize(rng.integers(0, 2, 97), 3000),
                 rng.integers(0, 2, 3000)):
        assert (dq.subword_complexity(vals, 70)
                == reference_subword_complexity(vals, 70))


def test_complexity_handles_wide_symbols(rng):
    # a span beyond the prefix length is ranked; a narrow span far from 0
    # is shifted to start at 0
    big = np.array([0, 7, 2 ** 40 - 1, 2 ** 40, -(2 ** 40)], dtype=np.int64)
    for vals in (big[rng.integers(0, big.size, 2000)],
                 np.resize(big[rng.integers(0, big.size, 13)], 600),
                 np.array([-(2 ** 63), 2 ** 63 - 1, 0, 2 ** 63 - 1] * 5),
                 2 ** 50 + rng.integers(0, 3, 2000),
                 -(2 ** 50) + rng.integers(0, 3, 2000)):
        assert (dq.subword_complexity(vals, 12)
                == reference_subword_complexity(vals, 12))


def test_complexity_past_2_62_matches_brute_force(rng):
    # binary codes pass 2^62 at length 63, so n_max = N - 1 ranks the
    # length-62 windows once or twice, and each run ends at its own length
    for N in (63, 64, 70, 124, 125, 130):
        for vals in (rng.integers(0, 2, N).tolist(), [0] * (N - 1) + [1], [1] * N):
            want = [len({tuple(vals[i:i + n]) for i in range(N - n + 1)})
                    for n in range(1, N)]
            assert dq.subword_complexity(vals, N - 1) == want
            assert per_length_complexity(vals, N - 1) == want


def _edge_values(kind, size):
    if kind == "squares":
        return dq.stream(dq.preset("rudin-shapiro"), dq.SQUARE, 12345, size)
    rng = np.random.default_rng(size)
    if kind == "wide":  # 7^k bins outnumber the windows from k = 6 or 7 on
        return np.resize(rng.integers(0, 7, 4999), size)
    # a span far beyond the prefix length: the symbols are ranked first
    return rng.choice(np.array([-(2 ** 62), -5, 0, 2 ** 40, 2 ** 63 - 1]), size)


def _edge_lengths(k):
    """Prefix lengths on both sides of the 2^16-symbol chunks, and of the
    first buffer of 2^16 + k - 1 symbols."""
    return sorted({n + d for n in (2 ** 16, 2 * 2 ** 16, 2 ** 16 + k - 1)
                   for d in (-1, 0, 1)})


@pytest.mark.parametrize("kind", ["squares", "wide", "ranked"])
def test_one_count_at_chunk_edges(kind):
    full = _edge_values(kind, 2 * 2 ** 16 + 1)
    want = {}
    for k in range(1, 9):
        for N in _edge_lengths(k):
            vals = full[:N]
            if N not in want:
                want[N] = per_length_complexity(vals, 8)
            assert dq.subword_complexity(vals, k) == want[N][:k]
            if kind != "ranked":
                hist, comp = _window_statistics(lambda: [vals], None, k, N, k)
                assert comp == want[N][:k]
                assert_same_histogram(hist, reference_block_histogram(vals, k))


@pytest.mark.parametrize("chunk", [777, 2 ** 16])
def test_streamed_windows_match_in_memory(chunk):
    # the counts of `stats`: windows across stream chunks and buffers
    f = dq.preset("rudin-shapiro")
    for k in (1, 2, 5, 8):
        for N in _edge_lengths(k):
            hist, comp = _window_statistics(
                lambda: seqgen._chunks(f, dq.SQUARE, 12345, N, chunk), 2, k, N, k)
            vals = dq.stream(f, dq.SQUARE, 12345, N)
            want_hist, want_comp = _window_statistics(lambda: [vals], None, k, N, k)
            assert_same_histogram(hist, want_hist)
            assert comp == want_comp


@pytest.mark.parametrize("chunk", [777, 2 ** 16, 3 * 2 ** 16])
def test_sorted_counts_merge_across_buffers(rng, chunk):
    # about 2^17 distinct windows in 2^16-symbol buffers: the table takes
    # several merges; one whole chunk is one sort
    vals = rng.integers(0, 7, 2 * 2 ** 16 + 1)
    hist, comp = _window_statistics(
        lambda: (vals[s:s + chunk] for s in range(0, vals.size, chunk)),
        7, 8, vals.size, 8)
    assert_same_histogram(hist, reference_block_histogram(vals, 8))
    assert comp == per_length_complexity(vals, 8)


def test_sorted_counts_stay_bounded_by_the_distinct_windows(rng):
    # 2^24 symbols of period 4999, in 2^16-symbol buffers, k = 9: 7^9 bins
    # would outnumber the windows, so each buffer sorts about 4999 distinct
    # codes, and merges keep the table near 4999 codes, where one part per
    # buffer would hold 256 x 4999 codes and counts (15 MB)
    import tracemalloc
    period = rng.integers(0, 7, 4999)
    chunk = np.tile(period, 13)
    reps = (1 << 24) // chunk.size
    tracemalloc.start()
    try:
        hist, comp = _window_statistics(lambda: itertools.repeat(chunk, reps), 7, 9,
                                        reps * chunk.size, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cycle = np.concatenate([period, period[:8]]).tolist()
    assert sum(hist.counts.values()) == reps * chunk.size - 8
    assert comp[-1] == len(hist.counts) == len({tuple(cycle[i:i + 9])
                                                 for i in range(4999)})
    assert peak < 8 * 2 ** 20


def test_complexity_across_chunks_matches_brute_force():
    vals = dq.stream(dq.preset("digit-sum", q=3), dq.SQUARE, 0, 2 ** 16 + 3)
    lst = vals.tolist()
    want = [len({tuple(lst[i:i + n]) for i in range(len(lst) - n + 1)})
            for n in range(1, 9)]
    assert dq.subword_complexity(vals, 8) == want
    assert _window_statistics(lambda: [vals], None, 8, vals.size, 8)[1] == want


def test_rerank_at_chunk_edges(rng):
    for vals in (rng.integers(0, 2, 2 ** 16 + 1),
                 np.resize(rng.integers(0, 2, 97), 2 ** 16 - 1)):
        assert dq.subword_complexity(vals, 70) == per_length_complexity(vals, 70)


def test_digit_sum_histogram_large_alphabet():
    # 10^8 possible blocks, far more than windows
    vals = dq.stream(dq.parse_preset("digit-sum:10"), dq.SQUARE, 0, 20000)
    assert_same_histogram(dq.block_histogram(vals, 8),
                          reference_block_histogram(vals, 8))
    assert (dq.subword_complexity(vals, 8)
            == reference_subword_complexity(vals, 8))


def test_normality_deviation_uniform_case():
    # one full cycle of every 1-block over {0,1}: deviation from 1/2 is 0
    rep = dq.normality_deviation(dq.block_histogram([0, 1, 0, 1], 1), 2)
    assert rep.max_deviation == 0.0
    assert rep.missing_blocks == 0


def test_normality_deviation_missing_blocks():
    rep = dq.normality_deviation(dq.block_histogram([0, 0, 0, 0], 2), 2)
    assert rep.missing_blocks == 3
    assert rep.max_deviation == pytest.approx(1 - 0.25)


def test_normality_deviation_range(rng):
    for _ in range(30):
        mp = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        vals = rng.integers(0, mp, int(rng.integers(k, 200)))
        rep = dq.normality_deviation(dq.block_histogram(vals, k), mp)
        assert 0.0 <= rep.max_deviation <= 1.0 - float(mp) ** (-k) + 1e-15
        assert rep.chi_square >= 0.0


def test_normality_deviation_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        dq.normality_deviation(dq.block_histogram([0, 3], 1), 2)


@pytest.mark.parametrize("m_prime", [2, 3, 10, 12])
def test_normality_deviation_matches_the_per_block_loop(m_prime):
    # every report field bit for bit, from streams (base m') and from random
    # arrays (base inferred), with blocks missing and with none missing
    rng = np.random.default_rng(m_prime)
    f = dq.preset("digit-sum", q=max(m_prime, 3), m_prime=m_prime)
    missing = set()
    for k in range(1, 7):
        for n in (300, min(20 * m_prime ** k, 10 ** 5)):
            vals = dq.stream(f, dq.SQUARE, 0, n)
            streamed = _window_statistics(lambda: [vals], m_prime, k, n, 0)[0]
            drawn = dq.block_histogram(rng.integers(0, m_prime, n), k)
            for hist in (streamed, drawn):
                got = dq.normality_deviation(hist, m_prime)
                assert got == reference_normality_deviation(hist, m_prime)
                missing.add(got.missing_blocks > 0)
    assert missing == {False, True}


def test_chi_square_squares_are_correctly_rounded():
    # the loop squared by Python's `** 2`, which is libm pow (within 0.52 ulp);
    # the arrays square exactly rounded, so here the sum moves by one ulp
    hist = dq.block_histogram(np.repeat([0, 1, 2], [676696, 174263, 826861]), 1)
    expected = hist.total * 3.0 ** -1
    chi = 0.0
    for c in hist.counts.values():
        chi += (c - expected) * (c - expected) / expected
    got = dq.normality_deviation(hist, 3).chi_square
    assert got == chi
    assert abs(got - reference_normality_deviation(hist, 3).chi_square) <= math.ulp(chi)


@pytest.mark.parametrize("call", [
    lambda values: dq.block_histogram(values, 1),
    lambda values: dq.subword_complexity(values, 2),
], ids=["block_histogram", "subword_complexity"])
def test_float_symbols_are_rejected_not_truncated(call):
    with pytest.raises(ValueError, match="arguments must be integers, got dtype float64"):
        call([0.5, 1.7, 1.2, 0.1])


def test_subword_complexity_thue_morse(thue_morse):
    vals = dq.stream(thue_morse, dq.IDENTITY, 0, 2 ** 12)
    assert dq.subword_complexity(vals, 3) == [2, 4, 6]


def test_subword_complexity_constant():
    assert dq.subword_complexity([7] * 50, 5) == [1, 1, 1, 1, 1]


def test_subword_complexity_monotone(rng):
    vals = rng.integers(0, 3, 4000)
    p = dq.subword_complexity(vals, 10)
    assert all(a <= b for a, b in zip(p, p[1:]))
    assert all(p[i + 1] <= 3 * p[i] for i in range(len(p) - 1))


def test_subword_complexity_validation():
    with pytest.raises(ValueError):
        dq.subword_complexity([0, 1, 0], 3)


def test_thue_morse_squares_full_complexity(thue_morse):
    vals = dq.stream(thue_morse, dq.SQUARE, 0, 10 ** 6)
    assert dq.subword_complexity(vals, 8)[7] == 256


def test_identity_sequence_misses_long_blocks(rudin_shapiro):
    # along the identity the factor count grows linearly, so length-12
    # blocks cannot all appear in any prefix
    vals = dq.stream(rudin_shapiro, dq.IDENTITY, 0, 10 ** 6)
    rep = dq.normality_deviation(dq.block_histogram(vals, 12), 2)
    assert rep.missing_blocks > 0


def test_S0_zero_alpha_is_N(thue_morse):
    assert dq.exp_sum_S0(thue_morse, AlphaVector((0,), 2), 100) == 100 + 0j


def test_S0_thue_morse_example(thue_morse):
    val = dq.exp_sum_S0(thue_morse, AlphaVector((1,), 2), 8)
    assert val == pytest.approx(-2 + 0j)


def test_S0_matches_bruteforce(rng, thue_morse, rudin_shapiro):
    cases = [(thue_morse, (1,)), (rudin_shapiro, (1, 1)), (rudin_shapiro, (1, 0)),
             (dq.preset("digit-sum", q=3, m_prime=3), (1, 2))]
    for f, nums in cases:
        N = int(rng.integers(5, 60))
        got = dq.exp_sum_S0(f, AlphaVector(nums, f.m_prime), N)
        assert got == pytest.approx(brute_S0(f, nums, N), abs=1e-9)


def reference_phase_table(f, alpha, N):
    """Integer phases for n < N from one N-length stream of b(n^2)."""
    bsq = dq.stream(f, dq.SQUARE, 0, N + alpha.k - 1)
    phases = np.zeros(N, dtype=np.int64)
    for ell, num in enumerate(alpha.numerators):
        if num:
            phases += num * bsq[ell:ell + N]
    return phases % f.m_prime


CHUNK_GRIDS = [[2 ** 16 - 1, 2 ** 16 + 1, 3 * 2 ** 16 + 5],
               [1, 2, 2 ** 16, 2 * 2 ** 16, 2 * 2 ** 16 + 1]]


@pytest.mark.parametrize("grid", CHUNK_GRIDS)
@pytest.mark.parametrize("name,nums,m_prime", [
    ("rudin-shapiro", (1, 0, 1), 2), ("thue-morse", (1,), 2),
    ("digit-sum", (1, 2, 0), 3), ("digit-sum", (0, 2, 2), 3)])
def test_chunked_phases_match_phase_table(name, nums, m_prime, grid):
    # grid points on both sides of the 2^16-phase chunks
    f = (dq.preset(name, q=3, m_prime=3) if name == "digit-sum"
         else dq.preset(name))
    alpha = AlphaVector(nums, m_prime)
    phases = reference_phase_table(f, alpha, grid[-1])
    roots = roots_of_unity(m_prime)
    want = [complex(np.bincount(phases[:N], minlength=m_prime) @ roots)
            for N in grid]
    fit = dq.decay_exponent(f, alpha, grid)
    assert [r.value for r in fit.rows] == want
    assert [dq.exp_sum_S0(f, alpha, N) for N in grid] == want


def reference_phase_counts(f, alpha, grid):
    """The phase counts before the chunk iterator: each 2^16 int64 phases
    from their own `stream` call, which reads k - 1 squares past them."""
    chunk, top = 1 << 16, grid[-1]
    counts = np.zeros((len(grid), f.m_prime), dtype=np.int64)
    for s in range(0, top, chunk):
        c = min(chunk, top - s)
        bsq = dq.stream(f, dq.SQUARE, s, c + alpha.k - 1)
        phases = np.zeros(c, dtype=np.int64)
        for ell, num in enumerate(alpha.numerators):
            if num:
                phases += num * bsq[ell:ell + c]
        phases %= f.m_prime
        i, lo = bisect.bisect_right(grid, s), s
        while lo < s + c:
            hi = min(grid[i], s + c)
            counts[i] += np.bincount(phases[lo - s:hi - s], minlength=f.m_prime)
            i, lo = i + 1, hi
    return counts


@pytest.mark.parametrize("name", ["rudin-shapiro", "digit-sum:3,3", "digit-sum:10,7",
                                  "digit-sum:10,11", "digit-sum:10,12"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_phase_counts_match_stream_chunks(name, k):
    # cuts at the chunk edges of one iterator from 0 (its chunks hold 2^16
    # squares, so the first holds 2^16 - k + 1 phases) and of the old 2^16
    # phases; then segments long enough that their own iterators carry
    # k - 1 squares across chunk edges, ending on either side of one.  m' = 11
    # counts by scans, m' = 12 by bincount
    f = dq.parse_preset(name)
    alpha = AlphaVector([1, f.m_prime - 1, 0][:k][::-1] if k > 1 else [1], f.m_prime)
    edges = (2 ** 16 - k + 1, 2 ** 16, 2 * 2 ** 16 - k + 1, 2 * 2 ** 16)
    grid = sorted({1, 2 * 2 ** 16 + 5} | {e + d for e in edges for d in (-1, 0, 1)})
    for grid in (grid, [5, 2 ** 17 + 5, 2 ** 17 + 7, 3 * 2 ** 16 + 6, 3 * 2 ** 16 + 9]):
        assert np.array_equal(_phase_counts(f, alpha, grid),
                              reference_phase_counts(f, alpha, grid))


def test_decay_exponent_memory_is_bounded(rudin_shapiro):
    # an N-length phase table alone would take 32 MB at N = 2^22
    import tracemalloc
    alpha = AlphaVector((1, 1), 2)
    tracemalloc.start()
    try:
        dq.decay_exponent(rudin_shapiro, alpha, [2 ** 10, 2 ** 22])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_S0_triangle_inequality(rng, rudin_shapiro):
    for _ in range(10):
        N = int(rng.integers(1, 3000))
        val = dq.exp_sum_S0(rudin_shapiro, AlphaVector((1, 1), 2), N)
        assert abs(val) <= N + 1e-9


def test_S0_squares_past_int64_range():
    # (N - 1)^2 q^(m-1) passes 2^62 at N = 2^22 for block-ones L = 19
    f = dq.preset("block-ones", L=19)
    N = 2 ** 22
    got = dq.exp_sum_S0(f, AlphaVector((1,), 2), N)
    vals = dq.stream(f, dq.SQUARE, 0, N)
    want = complex(np.bincount(vals, minlength=2) @ roots_of_unity(2))
    assert got == want
    for n in range(N - 4, N):
        assert vals[n] == dq.eval_b(f, n * n) % 2


def test_S0_bit_identical_reruns(rudin_shapiro):
    a = dq.exp_sum_S0(rudin_shapiro, AlphaVector((1, 0), 2), 4096)
    b = dq.exp_sum_S0(rudin_shapiro, AlphaVector((1, 0), 2), 4096)
    assert a == b


def test_rs_moderate_cancellation(rudin_shapiro):
    val = dq.exp_sum_S0(rudin_shapiro, AlphaVector((1, 1), 2), 2 ** 16)
    assert abs(val) < (2 ** 16) ** 0.95


def test_decay_slope_zero_alpha(thue_morse):
    fit = dq.decay_exponent(thue_morse, AlphaVector((0,), 2),
                            [2 ** e for e in range(10, 16)])
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert all(r.magnitude == pytest.approx(r.N) for r in fit.rows)


def test_decay_slope_thue_morse(thue_morse):
    fit = dq.decay_exponent(thue_morse, AlphaVector((1,), 2),
                            [2 ** e for e in range(10, 17)])
    assert fit.slope < 1.0


def test_decay_integer_K_branch(rudin_shapiro):
    alpha = AlphaVector((1, 1, 0), 2)
    assert alpha.is_integer_K
    fit = dq.decay_exponent(rudin_shapiro, alpha, [2 ** e for e in range(10, 17)])
    assert fit.slope < 1.0


def test_block_counts_recovered_from_exp_sums(thue_morse):
    # Fourier inversion over the coefficient grid turns the correlation
    # sums back into exact block counts, tying the two measurements of
    # normality to each other:
    # #occurrences(c) = m'^-k sum_alpha e(-<alpha, c>/m') S0(alpha, N)
    from digitseq.phases import e_frac
    N, k, mp = 512, 2, 2
    vals = dq.stream(thue_morse, dq.SQUARE, 0, N + k - 1)
    for c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        direct = sum(1 for n in range(N) if tuple(vals[n:n + k]) == c)
        total = 0j
        for a0 in range(mp):
            for a1 in range(mp):
                S = dq.exp_sum_S0(thue_morse, AlphaVector((a0, a1), mp), N)
                total += e_frac(-(a0 * c[0] + a1 * c[1]), mp) * S
        total /= mp ** k
        assert total.real == pytest.approx(direct, abs=1e-9)
        assert abs(total.imag) < 1e-9


def test_decay_validation(thue_morse):
    with pytest.raises(ValueError):
        dq.decay_exponent(thue_morse, AlphaVector((1,), 2), [1024])
    with pytest.raises(ValueError):
        dq.decay_exponent(thue_morse, AlphaVector((1,), 2), [1024, 512])


@pytest.mark.parametrize("call,message", [
    (lambda: dq.block_histogram([-1, 0, 1], 1), "symbols must be >= 0"),
    (lambda: dq.block_histogram(np.arange(10) * 10 ** 6, 4),
     r"alphabet\^k too large to encode windows"),
    (lambda: dq.subword_complexity([0, 1, 1, 0], 0), "n_max must be >= 1"),
    (lambda: dq.exp_sum_S0(dq.preset("thue-morse"), AlphaVector((1,), 2), 0),
     "N must be >= 1"),
    (lambda: dq.decay_exponent(dq.preset("thue-morse"), AlphaVector((1,), 2), [0, 4]),
     "grid entries must be >= 1"),
    (lambda: AlphaVector((0,), 0), "m_prime must be >= 1"),
], ids=["negative-symbol", "wide-alphabet", "n_max-0", "S0-N-0", "grid-0", "m_prime-0"])
def test_input_validation_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
