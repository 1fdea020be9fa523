"""Streams, presets, index maps: pointwise agreement and determinism."""

import numpy as np
import pytest

import digitseq as dq
from digitseq import seqgen
from digitseq.seqgen import SequenceStream, parse_index_map, parse_preset


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
    with pytest.raises(ValueError):
        parse_preset("no-such-preset")
    with pytest.raises(ValueError):
        parse_preset("thue-morse:3")
    with pytest.raises(ValueError):
        dq.preset("block-ones", L=0)


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


def test_stream_threads_clamped_to_cores(rudin_shapiro, monkeypatch):
    seen = []

    class RecordingPool:
        """Runs the chunks inline; records the pool size asked for."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(seqgen.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(seqgen, "ThreadPoolExecutor", RecordingPool)
    want = dq.stream(rudin_shapiro, dq.SQUARE, 0, 5000)
    for threads, workers in ((2, 2), (3, 3), (4, 3), (10 ** 6, 3)):
        got = dq.stream(rudin_shapiro, dq.SQUARE, 0, 5000, chunk=999, threads=threads)
        assert np.array_equal(got, want) and seen.pop() == workers
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            dq.stream(rudin_shapiro, dq.SQUARE, 0, 10, threads=threads)
    assert seen == []


def test_sequence_stream_reads(thue_morse):
    s = SequenceStream(thue_morse, dq.SQUARE)
    a = s.read(5)
    b = s.read(3)
    assert np.concatenate([a, b]).tolist() == dq.stream(thue_morse, dq.SQUARE, 0, 8).tolist()


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
