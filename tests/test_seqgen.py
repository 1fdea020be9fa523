"""Streams, presets, index maps: pointwise agreement and determinism."""

import itertools
import math
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import digitseq as dq
from conftest import LIMIT_TABLES, LIMITS, limit_function
from digitseq import seqgen
from digitseq.budget import BudgetExceededError
from digitseq.digital import _acc_dtype, _normalized
from digitseq.seqgen import parse_index_map, parse_preset


def test_digits_examples():
    assert dq.digits(13, 2) == [1, 0, 1, 1]
    assert dq.digits(0, 7) == [0]
    assert dq.digits(123, 10) == [3, 2, 1]
    with pytest.raises(ValueError):
        dq.digits(5, 1)


def test_digits_roundtrip(rng):
    for _ in range(200):
        q = int(rng.integers(2, 12))
        n = int(rng.integers(0, 2 ** 50))
        ds = dq.digits(n, q)
        assert sum(d * q ** j for j, d in enumerate(ds)) == n
        assert all(0 <= d < q for d in ds)
        if n:
            assert ds[-1] != 0


def test_thue_morse_first_values(thue_morse):
    assert dq.stream(thue_morse, dq.IDENTITY, 0, 8).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


def test_rudin_shapiro_value(rudin_shapiro):
    assert int(dq.stream(rudin_shapiro, dq.IDENTITY, 3, 1)[0]) == 1


def test_block_ones_matches_rudin_shapiro(rudin_shapiro):
    b2 = dq.preset("block-ones", L=2)
    ns = np.arange(2 ** 16, dtype=np.int64)
    assert np.array_equal(dq.eval_b_many(b2, ns), dq.eval_b_many(rudin_shapiro, ns))


def test_block_ones_1_is_thue_morse(thue_morse):
    assert dq.preset("block-ones", L=1) == thue_morse


def test_preset_parsing():
    assert parse_preset("digit-sum:10").m_prime == 10
    assert parse_preset("digit-sum:10,7").m_prime == 7
    assert parse_preset("block-ones:3").m == 3
    with pytest.raises(ValueError, match=r"^unknown preset 'no-such-preset'$"):
        parse_preset("no-such-preset")
    with pytest.raises(ValueError, match=r"^unknown preset 'no-such-preset'$"):
        dq.preset("no-such-preset", x=1)
    with pytest.raises(ValueError, match=r"^preset 'thue-morse' takes no parameters$"):
        parse_preset("thue-morse:3")
    with pytest.raises(ValueError, match=r"^digit-sum takes at most two parameters, "
                                         r"got 'digit-sum:10,7,2'$"):
        parse_preset("digit-sum:10,7,2")
    with pytest.raises(ValueError, match=r"^block-ones takes one parameter, "
                                         r"got 'block-ones:3,2'$"):
        parse_preset("block-ones:3,2")
    for name in ("thue-morse", "rudin-shapiro", "digit-sum", "block-ones"):
        with pytest.raises(ValueError, match=rf"^preset '{name}' got unexpected "
                                             r"parameters \['x', 'z'\]$"):
            dq.preset(name, z=1, x=2)
    with pytest.raises(ValueError, match=r"^block length must be >= 1, got 0$"):
        dq.preset("block-ones", L=0)
    # the parameter check comes before the block length check
    with pytest.raises(ValueError, match=r"^preset 'block-ones' got unexpected "
                                         r"parameters \['x'\]$"):
        dq.preset("block-ones", L=0, x=1)


def test_square_map_thue_morse(thue_morse):
    got = dq.stream(thue_morse, dq.SQUARE, 0, 8).tolist()
    assert got == [0, 1, 1, 0, 1, 1, 0, 1]


def test_affine_map(rudin_shapiro):
    got = dq.stream(rudin_shapiro, dq.affine(2, 1), 0, 4).tolist()
    assert got == [0, 1, 0, 0]


def test_index_map_parsing():
    assert parse_index_map("id").kind == "identity"
    assert parse_index_map("square").kind == "square"
    m = parse_index_map("affine:3,4")
    assert (m.a, m.b) == (3, 4) and m(5) == 19
    with pytest.raises(ValueError):
        parse_index_map("cubic")
    with pytest.raises(ValueError):
        dq.affine(0, 1)


def test_stream_empty(thue_morse):
    assert dq.stream(thue_morse, dq.SQUARE, 0, 0).size == 0


def test_stream_pointwise_agreement(rng):
    # 10^5 stream values checked against the scalar big-int evaluator,
    # which shares no code with the block-table vector path
    functions = [
        dq.preset("thue-morse"),
        dq.preset("rudin-shapiro"),
        dq.preset("digit-sum", q=3, m_prime=3),
        dq.preset("digit-sum", q=10),
        dq.preset("block-ones", L=3),
    ]
    maps = [dq.IDENTITY, dq.SQUARE, dq.affine(3, 7)]
    total = 0
    for _ in range(100):
        f = functions[int(rng.integers(0, len(functions)))]
        index_map = maps[int(rng.integers(0, len(maps)))]
        start = int(rng.integers(0, 2 ** 24))
        count = 1000
        got = dq.stream(f, index_map, start, count)
        want = [dq.eval_b(f, index_map(t)) % f.m_prime
                for t in range(start, start + count)]
        assert got.tolist() == want
        total += count
    assert total == 10 ** 5


def test_stream_chunking_invariance(rudin_shapiro):
    one_shot = dq.stream(rudin_shapiro, dq.SQUARE, 0, 10_000)
    chunked = dq.stream(rudin_shapiro, dq.SQUARE, 0, 10_000, chunk=777)
    threaded = dq.stream(rudin_shapiro, dq.SQUARE, 0, 10_000, chunk=999, threads=4)
    assert np.array_equal(one_shot, chunked)
    assert np.array_equal(one_shot, threaded)


@pytest.fixture
def pools(monkeypatch):
    """Inline stand-in for the thread pool; returns the pools made."""
    made = []

    class RecordingPool:
        """Runs the chunks inline; records the pool size and the spans."""

        def __init__(self, max_workers):
            self.max_workers, self.spans = max_workers, []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, span):
            self.spans.append(span)
            future = Future()
            future.set_result(fn(span))
            return future

    monkeypatch.setattr(seqgen, "ThreadPoolExecutor", RecordingPool)
    return made


def test_stream_threads_clamped_to_cores(rudin_shapiro, monkeypatch, pools):
    monkeypatch.setattr(seqgen.os, "cpu_count", lambda: 3)
    want = dq.stream(rudin_shapiro, dq.SQUARE, 0, 5000)
    for threads, workers in ((2, 2), (3, 3), (4, 3), (10 ** 6, 3)):
        got = dq.stream(rudin_shapiro, dq.SQUARE, 0, 5000, chunk=999, threads=threads)
        assert np.array_equal(got, want) and pools.pop().max_workers == workers
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            dq.stream(rudin_shapiro, dq.SQUARE, 0, 10, threads=threads)
    assert pools == []


def test_stream_wide_range_fans_out(rudin_shapiro, monkeypatch, pools):
    # squares past 2^62 are chunked and fanned out like narrow ones
    monkeypatch.setattr(seqgen.os, "cpu_count", lambda: 2)
    start = 2 ** 40
    want = dq.stream(rudin_shapiro, dq.SQUARE, start, 5000)
    got = dq.stream(rudin_shapiro, dq.SQUARE, start, 5000, chunk=999, threads=2)
    assert np.array_equal(got, want)
    (pool,) = pools
    assert pool.max_workers == 2
    assert pool.spans == [(s, min(999, start + 5000 - s))
                          for s in range(start, start + 5000, 999)]
    assert all(int(want[p]) == dq.eval_b(rudin_shapiro, (start + p) ** 2) % 2
               for p in range(0, 5000, 97))


@pytest.mark.parametrize("chunk", [777, 1 << 16])
def test_threads_give_identical_chunks(rudin_shapiro, monkeypatch, chunk):
    monkeypatch.setattr(seqgen.os, "cpu_count", lambda: 2)
    count = 3 * (1 << 16) + 5
    one = list(seqgen._chunks(rudin_shapiro, dq.SQUARE, 10 ** 6, count, chunk))
    two = list(seqgen._chunks(rudin_shapiro, dq.SQUARE, 10 ** 6, count, chunk,
                              threads=2))
    assert [(a.dtype, a.tobytes()) for a in one] == [(a.dtype, a.tobytes()) for a in two]
    assert (dq.stream(rudin_shapiro, dq.SQUARE, 10 ** 6, count, chunk, threads=2).tobytes()
            == dq.stream(rudin_shapiro, dq.SQUARE, 10 ** 6, count, chunk).tobytes())


def test_threads_keep_few_chunks_in_flight(rudin_shapiro, monkeypatch):
    # a chunk is evaluated when its result is read, so the submits ahead of
    # the reads are the chunks held in flight
    monkeypatch.setattr(seqgen.os, "cpu_count", lambda: 4)
    events = []

    class LazyPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, span):
            events.append(1)

            class Lazy:
                def result(self):
                    events.append(-1)
                    return fn(span)

            return Lazy()

    monkeypatch.setattr(seqgen, "ThreadPoolExecutor", LazyPool)
    chunks = seqgen._chunks(rudin_shapiro, dq.SQUARE, 0, 100 * 777, 777, threads=3)
    first = next(chunks)
    assert sum(e > 0 for e in events) == 2 * 3 + 1   # not all 100 chunks
    got = np.concatenate([first, *chunks])
    assert max(itertools.accumulate(events)) <= 2 * 3 + 1
    assert got.tobytes() == dq.stream(rudin_shapiro, dq.SQUARE, 0, 100 * 777,
                                      777).astype(got.dtype).tobytes()


def _batched_reads(f, start, sizes):
    # a value depends on t alone, not on how the reads are batched
    reads, t = [], start
    for size in sizes:
        reads.append(dq.stream(f, dq.SQUARE, t, size))
        t += size
    return np.concatenate(reads).tolist(), dq.stream(f, dq.SQUARE, start, t - start).tolist()


def test_sequence_stream_reads(thue_morse):
    got, want = _batched_reads(thue_morse, 0, (5, 3))
    assert got == want


def test_sequence_stream_iterates_across_reads(rudin_shapiro):
    # reads that cross the 2^14 and 2^16 symbol boundaries
    got, want = _batched_reads(rudin_shapiro, 5, (1 << 14, 100, 1 << 16, 7))
    assert got == want


def test_block_ones_table_is_budget_checked(monkeypatch):
    monkeypatch.setenv("DIGITSEQ_BUDGET", "512")
    assert parse_preset("block-ones:9").table_size == 512
    with pytest.raises(BudgetExceededError, match="block-ones:10 weight table needs 1024"):
        parse_preset("block-ones:10")


def test_stream_big_int_fallback():
    # map values beyond the int64 vector range use exact arithmetic
    f = dq.preset("thue-morse")
    start = 2 ** 35
    got = dq.stream(f, dq.SQUARE, start, 3)
    want = [bin(t * t).count("1") % 2 for t in range(start, start + 3)]
    assert got.tolist() == want


def test_stream_range_overflow(thue_morse):
    with pytest.raises(OverflowError):
        dq.stream(thue_morse, dq.SQUARE, 2 ** 64, 1)


# ----------------------------------------------------------------------
# map values past 2^62: int64 limbs, pinned to the scalar evaluator

WIDE_IDS = ("thue-morse", "rudin-shapiro", "digit-sum:3,3", "digit-sum:10,7",
            "block-ones:3", "unnormalized")
WIDE_FUNCTIONS = tuple(parse_preset(name) for name in WIDE_IDS[:-1]) + (
    dq.make_digital_function(2, 2, [0, 3, 1, 0], 5),)
WIDE_MAPS = (dq.IDENTITY, dq.SQUARE, dq.affine(3, 7))
TOP = 2 ** seqgen.MAX_ARG_BITS  # first map value out of range


def _last_index(index_map):
    """Largest t whose map value is below 2^126."""
    if index_map.kind == "identity":
        return TOP - 1
    if index_map.kind == "square":
        return math.isqrt(TOP - 1)
    return (TOP - 1 - index_map.b) // index_map.a


def _first_index(index_map, value):
    """Smallest t whose map value is at least value."""
    if index_map.kind == "identity":
        return value
    if index_map.kind == "square":
        return math.isqrt(value - 1) + 1
    return -(-(value - index_map.b) // index_map.a)


def _scalar(f, index_map, ts):
    return [dq.eval_b(f, index_map(t)) % f.m_prime for t in ts]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(WIDE_FUNCTIONS), st.sampled_from(WIDE_MAPS),
       st.integers(2 ** 40, TOP - 1), st.integers(1, 300),
       st.sampled_from([1 << 16, 777, 64]))
def test_stream_wide_matches_scalar(f, index_map, value, count, chunk):
    start = min(_first_index(index_map, value),
                _last_index(index_map) - count + 1)
    got = dq.stream(f, index_map, start, count, chunk=chunk)
    assert got.tolist() == _scalar(f, index_map, range(start, start + count))


@pytest.mark.parametrize("f", WIDE_FUNCTIONS, ids=WIDE_IDS)
def test_stream_last_square_in_range(f):
    last = math.isqrt(TOP - 1)
    got = dq.stream(f, dq.SQUARE, last - 2999, 3000)
    assert got.tolist() == _scalar(f, dq.SQUARE, range(last - 2999, last + 1))
    with pytest.raises(OverflowError):
        dq.stream(f, dq.SQUARE, last, 2)


@pytest.mark.parametrize("f", WIDE_FUNCTIONS, ids=WIDE_IDS)
def test_stream_straddles_vector_limit(f):
    # the first t whose map value leaves the int64 path, chunked at 777
    switch = _first_index(dq.SQUARE, (1 << 62) // f.q ** (f.m - 1))
    start = switch - 2000
    got = dq.stream(f, dq.SQUARE, start, 5000, chunk=777)
    assert got.tolist() == _scalar(f, dq.SQUARE, range(start, start + 5000))


def test_stream_wide_large_chunk_no_limb_overflow():
    # one 2^20-symbol chunk of squares near 2^126: the limb sums grow
    # with the position inside the chunk, so check both ends of every
    # 2^15-symbol stretch and a stride through the rest
    count = (1 << 20) + 123
    checked = sorted({p for s in range(0, count, 1 << 15)
                      for p in (s, s + 1, min(s + (1 << 15), count) - 1)}
                     | set(range(0, count, 509)))
    for f in WIDE_FUNCTIONS[:2] + WIDE_FUNCTIONS[3:4]:
        start = math.isqrt(TOP - 1) - count + 1
        got = dq.stream(f, dq.SQUARE, start, count, chunk=1 << 20)
        assert [int(got[p]) for p in checked] == \
            _scalar(f, dq.SQUARE, (start + p for p in checked))


@pytest.mark.parametrize("name", ["thue-morse", "rudin-shapiro", "digit-sum:10,7"])
def test_wide_limbs_hold_the_overflow_bound(name):
    # the bound must hold for any limb digits below B, not only for the
    # small second differences of the index maps: n(t) = c t^2 with
    # 2c = B^2 - 1 or B^2 - 2 puts the digit B - 1 (or B - 2) on every
    # coefficient of the i(i-1)/2 term
    f = parse_preset(name)
    limb = seqgen._limb_digits(f)
    c = (f.q ** (2 * limb) - 1) // 2

    def steep(t):
        return c * t * t

    start = math.isqrt((TOP - 1) // c) - (1 << 16) + 1
    got = seqgen._emit_wide(dq.normalize(f), limb, steep, start, 1 << 16)
    checked = [p for s in range(0, 1 << 16, 1 << 15)
               for p in (s, s + 1, s + (1 << 14), s + (1 << 15) - 1)]
    assert [int(got[p]) for p in checked] == \
        [dq.eval_b(f, steep(start + p)) for p in checked]


# the varying-limb path: limbs 0..V-1 are built, n // B^V = H0 + j is read
# from a table of b(H0 + j), j <= J, and the top limb keeps H0 mod q^(m-1)
VARYING = {name: parse_preset(name) for name in
           ("rudin-shapiro", "block-ones:19", "digit-sum:3,3")}
VARYING["base-3-pairs"] = dq.make_digital_function(3, 2, [0, 1, 0, 2, 0, 1, 1, 0, 2], 5)


def _limb_base(f):
    return f.q ** seqgen._limb_digits(dq.normalize(f))


def _varying_limbs(index_map, start, count, base):
    """(V, H0, J) of a one-span call: the fewest limbs whose carry is <= count."""
    n0, off = index_map(start), index_map(start + count - 1) - index_map(start)
    V = 1
    while (n0 % base ** V + off) // base ** V > count:
        V += 1
    return V, n0 // base ** V, (n0 % base ** V + off) // base ** V


def _check_varying(f, index_map, start, count=2000):
    want = _scalar(f, index_map, range(start, start + count))
    for chunk, threads in ((1 << 16, 1), (777, 2)):
        got = dq.stream(f, index_map, start, count, chunk=chunk, threads=threads)
        assert got.tolist() == want, (chunk, threads)


@pytest.mark.parametrize("name", VARYING)
def test_wide_carry_crosses_a_digit_boundary_of_the_high_part(name):
    # H0 ends in m - 1 digits q - 1, so H0 + 1 changes every digit the top
    # limb's windows read; base 3 carries by division
    f = VARYING[name]
    base, low = _limb_base(f), f.q ** (f.m - 1)
    high = (2 ** 70 // low) * low + low - 1
    start = high * base + base - 1000
    assert _varying_limbs(dq.IDENTITY, start, 2000, base) == (1, high, 1)
    assert (high + 1) % low == 0
    _check_varying(f, dq.IDENTITY, start)


@pytest.mark.parametrize("name", VARYING)
@pytest.mark.parametrize("case", ["no-carry", "high-past-2^62", "several-limbs"])
def test_wide_varying_limbs_match_scalar(name, case):
    f = VARYING[name]
    base = _limb_base(f)
    index_map, start = {"no-carry": (dq.IDENTITY, (2 ** 80 // base) * base + 5),
                        "high-past-2^62": (dq.IDENTITY, TOP - 2000),
                        "several-limbs": (dq.SQUARE, 2 ** 63 - 2000)}[case]
    V, high, J = _varying_limbs(index_map, start, 2000, base)
    assert {"no-carry": J == 0 and V == 1,
            # b(H0 + j) then takes the wide path itself
            "high-past-2^62": high * f.q ** (f.m - 1) >= 1 << 62,
            # V = 2; 3 for the 20-digit limbs of base-3-pairs
            "several-limbs": V == 2 + (base < 2 ** 32)}[case], (V, high, J)
    _check_varying(f, index_map, start)


def test_wide_spans_of_one_and_two_symbols():
    # a one-symbol span drops d1 = 2t + 1, here past 2^63, and a two-symbol
    # span drops d2: terms that vanish on the span never reach int64
    f = VARYING["rudin-shapiro"]
    start = 2 ** 63 - 5
    want = _scalar(f, dq.SQUARE, range(start, start + 5))
    for chunk in (1, 2):
        assert dq.stream(f, dq.SQUARE, start, 5, chunk=chunk).tolist() == want


def test_wide_steep_map_takes_short_spans():
    # d2 = B^2 - 1 has the base-B digits B - 1, so only 256-symbol spans keep
    # (B - 1) c + (B - 1) c(c - 1)/2 <= 2^62; check every value across them
    f = parse_preset("rudin-shapiro")
    limb = seqgen._limb_digits(f)
    base, c = f.q ** limb, (f.q ** (2 * limb) - 1) // 2
    span = max(s for s in (2 ** e for e in range(16))
               if (base - 1) * s + (base - 1) * s * (s - 1) // 2 <= 1 << 62)
    assert span == 256

    def steep(t):
        return c * t * t

    start = math.isqrt((TOP - 1) // c) - 3 * span - 100
    got = seqgen._emit_wide(dq.normalize(f), limb, steep, start, 3 * span + 100)
    assert got.tolist() == [dq.eval_b(f, steep(t)) for t in range(start, start + 3 * span + 100)]


@pytest.mark.parametrize("name", ["ones", "negative"])
@pytest.mark.parametrize("limit,narrow,wider", LIMITS)
@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_stream_at_accumulator_limits(name, limit, narrow, wider, above, wide):
    unit = LIMIT_TABLES[name]
    m = len(unit).bit_length() - 1
    # narrow: map values up to 2^62 / q^(m-1), scanned over 62 digits;
    # wide: past 2^62, scanned limb by limb with the normalized table
    digits = seqgen._limb_digits(dq.make_digital_function(2, m, unit, 7)) \
        if wide else 62
    f, scanned = limit_function(unit, limit, above, digits, wide)
    assert _acc_dtype(scanned, digits) == (wider if above else narrow)
    # wide: the top values cross two limb boundaries and stay in range
    bits = min(3 * digits, seqgen.MAX_ARG_BITS) if wide else 62 - (m - 1)
    for end in (1 << bits, (1 << bits) // 3 + 40):  # ones, then 0101...
        got = dq.stream(f, dq.IDENTITY, end - 40, 40)
        assert got.dtype == np.int64
        assert got.tolist() == _scalar(f, dq.IDENTITY, range(end - 40, end))


@pytest.mark.parametrize("m_prime", [2 ** 15 - 1, 2 ** 15, 2 ** 16, 10 ** 5 + 3])
def test_stream_modulus_past_the_weight_bound(m_prime):
    # digit sums stay far below 2^15, so the accumulator must widen for m'
    f = parse_preset(f"digit-sum:10,{m_prime}")
    for start in (10 ** 6, 2 ** 40):
        got = dq.stream(f, dq.SQUARE, start, 500)
        assert got.tolist() == _scalar(f, dq.SQUARE, range(start, start + 500))


@pytest.mark.parametrize("name,start", [("block-ones:19", 0),
                                        ("block-ones:12", 2 ** 40)])
def test_stream_per_call_work_is_independent_of_table_size(name, start):
    # block-ones:L has 2^L weights; after warm-up a call finds its
    # accumulator dtype, and past 2^62 its normalized table, in a cache
    # instead of scanning F again
    f = parse_preset(name)
    dq.stream(f, dq.SQUARE, start, 1024)
    helpers = (_acc_dtype, _normalized)
    before = [h.cache_info() for h in helpers]
    for _ in range(2):
        dq.stream(f, dq.SQUARE, start, 1024)
    for h, was in zip(helpers, before):
        assert h.cache_info().misses == was.misses, h
    assert _acc_dtype.cache_info().hits > before[0].hits


def test_unknown_preset_is_named_before_its_parameters():
    # the name is the fault, whatever its parameters say
    for text in ("rudin-shapirox:1", "rudin-shapirox:x", "digitsum:10,7,2"):
        with pytest.raises(ValueError, match=rf"^unknown preset '{text.partition(':')[0]}'$"):
            parse_preset(text)


def test_chunks_open_in_constant_memory(thue_morse):
    # 10^11 symbols are 1.5M chunks; none is sized before it is read
    tracemalloc.start()
    try:
        first = next(seqgen._chunks(thue_morse, dq.IDENTITY, 0, 10 ** 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.size == 1 << 16 and peak < 2 << 20


def test_stream_rejects_empty_chunks(thue_morse):
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            dq.stream(thue_morse, dq.SQUARE, 0, 10, chunk=chunk)


def test_stream_numpy_integer_start(rudin_shapiro):
    for start in (5, 2 ** 31, 2 ** 40):
        want = dq.stream(rudin_shapiro, dq.SQUARE, start, 4)
        assert want.tolist() == _scalar(rudin_shapiro, dq.SQUARE,
                                         range(start, start + 4))
        got = dq.stream(rudin_shapiro, dq.SQUARE, np.int64(start), np.int64(4))
        assert np.array_equal(got, want)


def test_stream_throughput_flat_past_vector_limit(rudin_shapiro):
    # ns/symbol for 2^16 squares from t = 2^40 (map values near 2^80)
    # stays within 20x of the narrow path from t = 0
    def best(start):
        dq.stream(rudin_shapiro, dq.SQUARE, start, 1 << 16)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            dq.stream(rudin_shapiro, dq.SQUARE, start, 1 << 16)
            times.append(time.perf_counter() - t0)
        return min(times)

    narrow, wide = best(0), best(2 ** 40)
    assert wide <= 20 * narrow, (wide, narrow)
