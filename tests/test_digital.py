"""Core digital-function behaviour against independent window oracles."""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import digitseq as dq
from conftest import LIMIT_TABLES, LIMITS, limit_function
from digitseq.budget import BudgetExceededError
from digitseq.digital import (
    DigitalFunction,
    FunctionSpecError,
    GcdConditionReport,
    WitnessNotFoundError,
    _acc_dtype,
    _block_width,
    _ilog_floor,
    _prime_factors,
    _rem,
    boundary_difference,
    eval_b_band_many,
)


def window_scan_oracle(f, n):
    """Slide a length-m window over the padded digit string of n.

    Collects every window that overlaps the expansion, including the m-1
    positions hanging below digit 0; independent of the table-convention
    shortcuts in eval_b.
    """
    ds = dq.digits(n, f.q) if n else [0]
    padded = [0] * (f.m - 1) + ds + [0] * (f.m - 1)
    total = 0
    for j in range(len(padded) - f.m + 1):
        window = padded[j:j + f.m]  # least-significant digit first
        idx = 0
        for d in reversed(window):
            idx = idx * f.q + d
        total += f.F[idx]
    return total


def rs_oracle(n):
    """Number of adjacent '11' pairs in the binary expansion."""
    return bin(n & (n >> 1)).count("1")


def popcount(n):
    return bin(n).count("1")


# ----------------------------------------------------------------------
# construction and validation


def test_make_rejects_bad_tables():
    with pytest.raises(ValueError):
        dq.make_digital_function(2, 2, [0, 0, 1], 2)  # wrong length
    with pytest.raises(ValueError):
        dq.make_digital_function(2, 1, [1, 0], 2)     # F[0] != 0
    with pytest.raises(ValueError):
        dq.make_digital_function(1, 1, [0], 2)        # base too small
    with pytest.raises(ValueError):
        dq.make_digital_function(2, 1, [0, -1], 2)    # negative entry


def test_equal_functions_are_one_object():
    # constructors intern by (q, m, F, m'), so a freshly parsed function
    # finds the caches an equal one filled by identity, not by comparing F
    a, b = dq.parse_preset("block-ones:19"), dq.parse_preset("block-ones:19")
    assert a is b
    plain = DigitalFunction(a.q, a.m, a.F, a.m_prime)  # built without interning
    assert plain is not a and plain == a and hash(plain) == hash(a)
    rs = dq.parse_preset("rudin-shapiro")
    assert dq.normalize(rs) is rs
    # a normalized table with a negative weight is still no user table
    g = dq.normalize(dq.make_digital_function(2, 3, [0, 0, 1, 0, 0, 0, 0, 0], 7))
    with pytest.raises(ValueError, match=">= 0"):
        dq.make_digital_function(2, 3, g.F, 7)

    def seconds(f):
        t0 = time.perf_counter()
        dq.stream(f, dq.SQUARE, 0, 1 << 20)
        return time.perf_counter() - t0

    seconds(a)
    # alternating repeats put load from other processes on both sides
    first, again = zip(*((seconds(a), seconds(dq.parse_preset("block-ones:19")))
                         for _ in range(3)))
    assert min(again) <= 1.5 * min(first), (again, first)


def test_presets_match_expected_tables(thue_morse, rudin_shapiro):
    assert (thue_morse.q, thue_morse.m, thue_morse.F) == (2, 1, (0, 1))
    assert (rudin_shapiro.q, rudin_shapiro.m, rudin_shapiro.F) == (2, 2, (0, 0, 0, 1))
    assert thue_morse.is_normalized and rudin_shapiro.is_normalized


def test_eval_b_examples(thue_morse, rudin_shapiro):
    assert dq.eval_b(rudin_shapiro, 3) == 1
    assert dq.eval_b(rudin_shapiro, 7) == 2
    assert dq.eval_b(rudin_shapiro, 0) == 0
    digit_sum = dq.preset("digit-sum", q=10)
    assert dq.eval_b(digit_sum, 123) == 6
    assert dq.eval_b(thue_morse, 13) == popcount(13)


def test_eval_b_matches_window_oracle(rng):
    for q, m in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        size = q ** m
        table = [0] + [int(v) for v in rng.integers(0, 7, size - 1)]
        f = dq.make_digital_function(q, m, table, 2)
        for n in list(range(64)) + [int(v) for v in rng.integers(0, 10 ** 9, 16)]:
            assert dq.eval_b(f, n) == window_scan_oracle(f, n), (q, m, n)


def test_eval_b_oracle_exhaustive_small_range(rudin_shapiro):
    f = dq.normalize(rudin_shapiro)
    got = dq.eval_b_many(f, np.arange(2 ** 12, dtype=np.int64))
    assert all(int(got[n]) == window_scan_oracle(f, n) for n in range(2 ** 12))


def test_eval_b_many_bit_identical(rng, rudin_shapiro):
    ns = rng.integers(0, 10 ** 12, 2000)
    vec = dq.eval_b_many(rudin_shapiro, ns)
    assert all(int(v) == dq.eval_b(rudin_shapiro, int(n)) for v, n in zip(vec, ns))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (10, 1), (10, 2)]),
       st.integers(0, 2 ** 32),
       st.lists(st.integers(0, 2 ** 62 - 1), min_size=1, max_size=50))
def test_eval_b_many_matches_scalar_random_tables(qm, seed, raw):
    q, m = qm
    weights = np.random.default_rng(seed).integers(0, 10, q ** m - 1)
    f = dq.make_digital_function(q, m, [0] + weights.tolist(), 7)
    ns = [n // q ** (m - 1) for n in raw]
    vec = dq.eval_b_many(f, np.array(ns, dtype=np.int64))
    assert vec.tolist() == [dq.eval_b(f, n) for n in ns]


def test_eval_b_many_rejects_floats(rudin_shapiro):
    for bad in ([2.7, 3.2], np.array([2.0, 3.0]), [1 + 2j]):
        with pytest.raises(ValueError, match="integers"):
            dq.eval_b_many(rudin_shapiro, bad)
        with pytest.raises(ValueError, match="integers"):
            eval_b_band_many(rudin_shapiro, bad, 0, 4)
    assert dq.eval_b_many(rudin_shapiro, []).size == 0
    small = np.array([3, 7], dtype=np.uint8)
    assert dq.eval_b_many(rudin_shapiro, small).tolist() == [1, 2]


def test_width_contract(rudin_shapiro):
    n = (1 << 125) + 12345
    assert dq.eval_b(rudin_shapiro, n) == rs_oracle(n)
    with pytest.raises(OverflowError):
        dq.eval_b(rudin_shapiro, 1 << 127)
    with pytest.raises(ValueError):
        dq.eval_b(rudin_shapiro, -1)


# ----------------------------------------------------------------------
# normalization


def test_normalize_rudin_shapiro_fixed_point(rudin_shapiro):
    assert dq.normalize(rudin_shapiro).F == rudin_shapiro.F


def test_normalize_m1_identity(thue_morse):
    assert dq.normalize(thue_morse) is thue_morse


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)])
def test_normalize_preserves_b_and_gains_property(rng, q, m):
    size = q ** m
    table = [0] + [int(v) for v in rng.integers(0, 5, size - 1)]
    f = dq.make_digital_function(q, m, table, 2)
    g = dq.normalize(f)
    assert g.is_normalized
    assert dq.normalize(g).F == g.F
    top = 2 ** 12 if q == 2 else 3 ** 8
    ns = np.arange(top, dtype=np.int64)
    assert np.array_equal(dq.eval_b_many(f, ns), dq.eval_b_many(g, ns))
    # normalized tables satisfy the sub-zero window cancellation
    for n in range(size):
        assert sum(g.F[(n * q ** j) % size] for j in range(1, m)) == 0


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)])
def test_is_normalized_matches_subzero_definition(rng, q, m):
    size = q ** m
    seen = set()
    for _ in range(40):
        table = [0] + [int(v) for v in rng.integers(0, 2, size - 1)]
        f = dq.make_digital_function(q, m, table, 2)
        for g in (f, dq.normalize(f)):
            want = all(sum(g.F[(n * q ** j) % size] for j in range(1, m)) == 0
                       for n in range(size))
            assert g.is_normalized == want
            seen.add(want)
    assert seen == {False, True}


# ----------------------------------------------------------------------
# truncation


def test_window_examples(rudin_shapiro):
    assert dq.eval_b_window(rudin_shapiro, 7, 0, 1) == 1
    assert dq.eval_b_window(rudin_shapiro, 7, 1, 2) == 1
    assert dq.eval_b_window(rudin_shapiro, 7, 3, 3) == 0
    for mu, lam in [(-1, 2), (3, 2)]:
        with pytest.raises(ValueError, match=rf"need 0 <= mu <= lam, got \({mu}, {lam}\)"):
            dq.eval_b_window(rudin_shapiro, 7, mu, lam)


def test_truncation_exact_beyond_top_digit(rng, rudin_shapiro, thue_morse):
    for f in (rudin_shapiro, thue_morse):
        for n in [0, 1, 5] + [int(v) for v in rng.integers(0, 2 ** 30, 32)]:
            lam = max(n.bit_length(), 1)
            assert dq.eval_b_truncated(f, n, lam) == dq.eval_b(f, n)


def test_truncation_periodicity(rng, rudin_shapiro):
    f = rudin_shapiro
    for _ in range(100):
        lam = int(rng.integers(1, 12))
        period = f.q ** (lam + f.m - 1)
        n = int(rng.integers(0, 2 ** 40))
        assert dq.eval_b_truncated(f, n + period, lam) == dq.eval_b_truncated(f, n, lam)
    # negative arguments reduce modulo the period
    assert dq.eval_b_truncated(f, -3, 4) == dq.eval_b_truncated(f, -3 % 2 ** 5, 4)


def test_band_many_matches_scalar(rng, rudin_shapiro):
    xs = rng.integers(0, 2 ** 40, 500)
    for mu, lam in [(0, 6), (2, 9), (5, 5)]:
        vec = eval_b_band_many(rudin_shapiro, xs, mu, lam)
        assert all(int(v) == dq.eval_b_window(rudin_shapiro, int(x), mu, lam)
                   for v, x in zip(vec, xs))


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 10, 12])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_band_kernel_matches_window(rng, q, m):
    size = q ** m
    table = [0] + [int(v) for v in rng.integers(0, 6, size - 1)]
    g = dq.normalize(dq.make_digital_function(q, m, table, 2))
    w = _block_width(g)
    bands = [(0, 0), (4, 4), (0, w - 1), (1, w), (0, w), (3, w + 3),
             (0, w + 1), (2, 2 * w + 3), (0, 2 * w), (0, 3 * w)]
    # one band whose period q^(lam+m-1) reaches 2^62 and one past int64
    deep = next(lam for lam in range(200) if q ** (lam + m - 1) >= 1 << 62)
    bands += [(0, deep), (5, deep + 40)]
    # q^mu past int64: every argument is below it, so the band is 0
    # (for q = 2 these are the bands (63, 64) and (64, 70))
    wide = next(mu for mu in range(200) if q ** mu >= 1 << 63)
    bands += [(wide, wide + 1), (wide + 1, wide + 7)]
    xs = rng.integers(-(2 ** 63), 2 ** 63 - 1, 200, dtype=np.int64, endpoint=True)
    for mu, lam in bands:
        period = q ** (lam + m - 1)
        args = xs if period < 2 ** 63 else np.abs(xs[1:])
        # the top of the scan's range, x = period - 1, and of int64
        edges = [x for x in (period - 1, 2 ** 62 - 1, 2 ** 63 - 1) if x < 2 ** 63]
        args = np.concatenate([args, np.array(edges, dtype=np.int64)])
        want = [dq.eval_b_window(g, int(x), mu, lam) for x in args]
        assert eval_b_band_many(g, args, mu, lam).tolist() == want, (mu, lam)


# ----------------------------------------------------------------------
# the base-q > 2 block rounds: one unsigned quotient a round (the suite
# turns warnings into errors, so a mixed uint64/int promotion fails here)


def round_function(q, m):
    """A seeded base-q table of window length m, every weight but F[0] nonzero."""
    weights = np.random.default_rng([q, m]).integers(1, 9, q ** m - 1)
    return dq.make_digital_function(q, m, [0] + weights.tolist(), 7)


def assert_streams_match_scalar(f):
    """Streams of 300 symbols below 2^62, across it (t^2 passes 2^62 at
    t = 2^31) and past it, on the wide limbs, against eval_b mod m'."""
    starts = [(dq.SQUARE, 0), (dq.SQUARE, 3 * 10 ** 6), (dq.SQUARE, 2 ** 31 - 150),
              (dq.SQUARE, 2 ** 40), (dq.SQUARE, 2 ** 62), (dq.IDENTITY, 2 ** 100 - 150)]
    for index_map, start in starts:
        want = [dq.eval_b(f, index_map(t)) % f.m_prime for t in range(start, start + 300)]
        for chunk, threads in ((1 << 16, 1), (64, 2)):
            got = dq.stream(f, index_map, start, 300, chunk=chunk, threads=threads)
            assert got.tolist() == want, (index_map, start, chunk)


@pytest.mark.parametrize("q", [3, 5, 6, 7, 10, 12])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_rounds_match_scalar(rng, q, m):
    f, shift = round_function(q, m), q ** (m - 1)
    w = _block_width(f)
    # every argument count D, so the D + m - 1 scanned digits fall on whole
    # rounds and on every part round, up to arguments times q^(m-1) < 2^62
    top_digits = _ilog_floor(q, ((1 << 62) - 1) // shift)
    scanned = set()
    for D in range(1, top_digits + 1):
        ns = np.array([q ** D - 1, q ** D - 2, q ** (D - 1),
                       int(rng.integers(0, q ** D))], dtype=np.int64)
        scanned.add((D + m - 1) % w)
        assert dq.eval_b_many(f, ns).tolist() == [dq.eval_b(f, int(n)) for n in ns], D
    assert 0 in scanned and len(scanned) > 1
    ns = np.array([((1 << 62) - 1) // shift - k for k in range(3)], dtype=np.int64)
    assert dq.eval_b_many(f, ns).tolist() == [dq.eval_b(f, int(n)) for n in ns]


@pytest.mark.parametrize("name", ["digit-sum:10,7", "digit-sum:3,3", "digit-sum:12",
                                  "10,2", "6,3"])
def test_block_rounds_stream(name):
    f = round_function(*map(int, name.split(","))) if name[0].isdigit() \
        else dq.parse_preset(name)
    assert_streams_match_scalar(f)


@pytest.mark.parametrize("count", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
def test_eval_b_many_chunks(rng, count):
    # one digit count serves every chunk: the widest argument is the last
    for f in (dq.parse_preset("digit-sum:10,7"), dq.preset("rudin-shapiro"),
              round_function(3, 2)):
        ns = rng.integers(0, 2 ** 40, count, dtype=np.int64)
        ns[-1] = 2 ** 41 - 1
        shift = f.q ** (f.m - 1)
        digits = _ilog_floor(f.q, int(ns.max()) * shift) + 1
        got = dq.eval_b_many(f, ns)
        assert got.dtype == np.int64 and got.shape == (count,)
        assert got.tolist() == dq.digital._scan(f, ns * shift, digits).tolist()
        for k in (0, 2 ** 16 - 2, 2 ** 16 - 1, 2 ** 16, count - 1):
            if k < count:
                assert got[k] == dq.eval_b(f, int(ns[k])), k
        assert dq.eval_b_many(f, ns[:15].reshape(3, 5)).tolist() == \
            got[:15].reshape(3, 5).tolist()


INT64_EDGES = [-2 ** 63, -2 ** 62 - 1, -2 ** 62, -1, 0, 1, 2 ** 62, 2 ** 63 - 1]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                          st.sampled_from(INT64_EDGES)), min_size=1, max_size=40),
       st.one_of(st.integers(0, 62).map(lambda e: 1 << e), st.integers(1, 1000),
                 st.integers(1, 2 ** 63 - 1)))
def test_rem_matches_python_mod(xs, d):
    x = np.array(xs, dtype=np.int64)
    want = [v % d for v in xs]
    assert _rem(x, d).tolist() == want
    assert x.tolist() == xs
    assert _rem(x, d, out=x) is x and x.tolist() == want


def test_rem_on_the_int16_accumulator():
    x = np.arange(-2 ** 15, 2 ** 15, dtype=np.int16)
    for d in (1, 2, 3, 7, 1024, 2 ** 15 - 1):
        assert _rem(x, d).tolist() == [v % d for v in range(-2 ** 15, 2 ** 15)]


@pytest.mark.parametrize("name", LIMIT_TABLES)
@pytest.mark.parametrize("limit,narrow,wider", LIMITS)
@pytest.mark.parametrize("above", [False, True])
def test_many_at_accumulator_limits(name, limit, narrow, wider, above):
    unit = LIMIT_TABLES[name]
    shift = len(unit) // 2  # q^(m-1)
    top = (1 << 62) // shift  # arguments below top scan 62 digits
    f, _ = limit_function(unit, limit, above, 62)
    assert _acc_dtype(f, 62) == (wider if above else narrow)
    ns = np.array([top - 1, top - 2, top // 2, (top - 1) // 3, 12345, 0],
                  dtype=np.int64)
    got = dq.eval_b_many(f, ns)
    assert got.dtype == np.int64
    assert got.tolist() == [dq.eval_b(f, int(n)) for n in ns]

    lam = 62 - (len(unit).bit_length() - 2)  # period q^(lam+m-1) = 2^62
    _, g = limit_function(unit, limit, above, lam, wide=True)
    assert _acc_dtype(g, lam) == (wider if above else narrow)
    xs = np.concatenate([ns, ns - (1 << 62)])  # negative ones reduce to ns
    band = eval_b_band_many(g, xs, 0, lam)
    assert band.dtype == np.int64
    assert band.tolist() == [dq.eval_b_window(g, int(x), 0, lam) for x in xs]


def test_truncation_requires_normalized():
    f = dq.make_digital_function(2, 2, [0, 3, 1, 0], 2)
    assert not f.is_normalized
    with pytest.raises(ValueError):
        dq.eval_b_truncated(f, 5, 3)


# ----------------------------------------------------------------------
# recursion


def test_recursion_examples(thue_morse, rudin_shapiro):
    assert dq.check_recursion(rudin_shapiro, 3, 1, 2, 4) == (0, 0)
    assert dq.check_recursion(thue_morse, 5, 3, 2, 5) == (0, 0)
    assert dq.check_recursion(thue_morse, 0, 3, 2, 5) == (0, 0)


def test_recursion_random(rng, thue_morse, rudin_shapiro):
    digit_sum = dq.preset("digit-sum", q=3, m_prime=3)
    for f in (thue_morse, rudin_shapiro, digit_sum):
        for _ in range(300):
            alpha = int(rng.integers(0, 8))
            lam = alpha + int(rng.integers(1, 8))
            n1 = int(rng.integers(0, 2 ** 20))
            n2 = int(rng.integers(0, f.q ** alpha))
            assert dq.check_recursion(f, n1, n2, alpha, lam) == (0, 0)


def test_recursion_validates_inputs(rudin_shapiro):
    with pytest.raises(ValueError):
        dq.check_recursion(rudin_shapiro, 3, 4, 2, 5)  # n2 >= q^alpha
    with pytest.raises(ValueError):
        dq.check_recursion(rudin_shapiro, 3, 1, 2, 2)  # lam <= alpha


# ----------------------------------------------------------------------
# gcd hypotheses


def test_gcd_conditions_rudin_shapiro(rudin_shapiro):
    rep = dq.check_gcd_conditions(rudin_shapiro)
    assert rep.hypotheses_ok and rep.b_scan_ok and rep.table_scan_ok
    assert rep.gcd_q_minus_1_ok
    assert not rep.naive_scan_differs


def test_gcd_conditions_per_prime_beats_naive_scan():
    # q=3, m=1, m'=6, F=(0,2,3): every b(n) for n < 3 shares a factor with
    # 6, yet no prime divides all of them; b(5) = 5 is the first coprime value.
    f = dq.make_digital_function(3, 1, [0, 2, 3], 6)
    assert dq.eval_b(f, 5) == 5
    rep = dq.check_gcd_conditions(f)
    assert rep.table_scan_ok and rep.b_scan_ok
    assert not rep.naive_gcd_scan_ok
    assert rep.naive_scan_differs
    assert not rep.gcd_q_minus_1_ok  # gcd(2, 6) = 2


def test_gcd_conditions_scan_equivalence(rng):
    # the table scan and the b scan must always agree
    for _ in range(50):
        q = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        size = q ** m
        table = [0] + [int(v) for v in rng.integers(0, 9, size - 1)]
        mp = int(rng.integers(2, 13))
        rep = dq.check_gcd_conditions(dq.make_digital_function(q, m, table, mp))
        assert rep.table_scan_ok == rep.b_scan_ok


def test_gcd_conditions_thue_morse_mod_3():
    rep = dq.check_gcd_conditions(dq.make_digital_function(2, 1, [0, 1], 3))
    assert rep.gcd_q_minus_1_ok  # q - 1 = 1


def test_gcd_conditions_json_is_pinned(rudin_shapiro):
    # sorted-key JSON of the report, as the package emitted it before the
    # reports serialized from their own fields
    want = [
        (rudin_shapiro,
            '{"b_scan_ok": true, "gcd_q_minus_1_ok": true, "hypotheses_ok": true, '
            '"m_prime": 2, "naive_gcd_scan_ok": true, "naive_scan_differs": false, '
            '"primes": [2], "q": 2, "table_scan_ok": true}'),
        (dq.preset("digit-sum", q=3, m_prime=6),
            '{"b_scan_ok": true, "gcd_q_minus_1_ok": false, "hypotheses_ok": false, '
            '"m_prime": 6, "naive_gcd_scan_ok": true, "naive_scan_differs": false, '
            '"primes": [2, 3], "q": 3, "table_scan_ok": true}'),
    ]
    for f, text in want:
        assert json.dumps(dq.check_gcd_conditions(f).to_dict(), sort_keys=True) == text


def test_gcd_conditions_rejects_trivial_modulus(thue_morse):
    with pytest.raises(ValueError):
        dq.check_gcd_conditions(dq.make_digital_function(2, 1, [0, 1], 1))


# ----------------------------------------------------------------------
# boundary-difference witnesses


def test_difference_witness_thue_morse(thue_morse):
    e1, e2, d = dq.find_difference_witness(thue_morse, 1)
    assert e1 < 2 and e2 < 2
    assert d % 2 == 1
    assert d == boundary_difference(thue_morse, e1) - boundary_difference(thue_morse, e2)


def test_difference_witness_rudin_shapiro(rudin_shapiro):
    e1, e2, d = dq.find_difference_witness(rudin_shapiro, 1)
    assert e1 < 8 and e2 < 8 and d % 2 == 1


def test_difference_witness_exhaustion():
    f = dq.make_digital_function(2, 1, [0, 2], 2)  # every b(n) is even
    with pytest.raises(WitnessNotFoundError):
        dq.find_difference_witness(f, 1)


def test_difference_witness_deterministic(rudin_shapiro):
    assert dq.find_difference_witness(rudin_shapiro, 1) == \
        dq.find_difference_witness(rudin_shapiro, 1)


def test_difference_witness_is_budget_checked(monkeypatch):
    f = dq.make_digital_function(2, 3, [0, 1, 0, 0, 2, 0, 0, 1], 3)  # 2^5 jumps
    monkeypatch.setenv("DIGITSEQ_BUDGET", "31")
    with pytest.raises(BudgetExceededError, match="witness search needs 32"):
        dq.find_difference_witness(f, 1)
    monkeypatch.setenv("DIGITSEQ_BUDGET", "32")
    assert dq.find_difference_witness(f, 1)[0] == 0


# ----------------------------------------------------------------------
# table-wide derivations against the loops they replaced


def reference_normalize(f):
    q, m, size = f.q, f.m, f.table_size
    G = [sum(f.F[(n * q ** j) % size] for j in range(1, m)) for n in range(size)]
    newF = tuple(f.F[n] + G[n] - G[n // q] for n in range(size))
    return DigitalFunction(q, m, newF, f.m_prime)


def reference_gcd_report(f):
    q, size = f.q, f.table_size
    g = reference_normalize(f)
    primes = tuple(_prime_factors(f.m_prime))
    bvals = [dq.eval_b(f, n) for n in range(size)]
    return GcdConditionReport(
        q=q,
        m_prime=f.m_prime,
        primes=primes,
        gcd_q_minus_1_ok=math.gcd(q - 1, f.m_prime) == 1,
        table_scan_ok=all(any(g.F[n] % p != 0 for n in range(size)) for p in primes),
        b_scan_ok=all(any(bv % p != 0 for bv in bvals) for p in primes),
        naive_gcd_scan_ok=any(math.gcd(f.m_prime, bv) == 1 for bv in bvals),
    )


def reference_witness(f, alpha_num, diffs):
    """The lexicographic double loop over boundary_difference(f, e),
    e < q^(2m-1); None where it comes up empty."""
    for e1 in range(len(diffs)):
        for e2 in range(len(diffs)):
            d = diffs[e1] - diffs[e2]
            if (d * alpha_num) % f.m_prime != 0:
                return e1, e2, d
    return None


def _random_tables():
    """Three tables per (q, m) where the q^(2m-1) x q^(2m-1) witness loop is
    cheap, one elsewhere.  The third of three scales every weight by the
    smallest prime of m', so table scans fail and witnesses run out."""
    rng = np.random.default_rng(1704)
    cases = []
    for q in (2, 3, 5):
        for m in (1, 2, 3, 4):
            small = q ** (2 * m - 1) <= 3 ** 5
            for trial in range(3 if small else 1):
                mp = int(rng.integers(2, 9))
                scale = min(_prime_factors(mp)) if trial == 2 else 1
                weights = rng.integers(0, 10, q ** m - 1) * scale
                cases.append(pytest.param(
                    q, m, [0] + weights.tolist(), mp, id=f"q{q}-m{m}-t{trial}"))
    # no b(n), n < q^m, is prime to 6, yet neither 2 nor 3 divides them all
    return cases + [pytest.param(3, 1, [0, 2, 3], 6, id="naive-scan-differs")]


@pytest.mark.parametrize("q,m,table,mp", _random_tables())
def test_table_derivations_match_the_loops(q, m, table, mp):
    raw = dq.make_digital_function(q, m, table, mp)
    bound = q ** (2 * m - 1)
    diffs = [boundary_difference(raw, e) for e in range(bound)]
    for f in (raw, dq.normalize(raw)):
        if m > 1:
            assert dq.normalize(f).F == reference_normalize(f).F
        got = json.dumps(dq.check_gcd_conditions(f).to_dict(), sort_keys=True)
        assert got == json.dumps(reference_gcd_report(f).to_dict(), sort_keys=True)
        for alpha_num in range(1, mp):
            try:
                got = dq.find_difference_witness(f, alpha_num)
            except WitnessNotFoundError:
                got = None
            assert got == reference_witness(f, alpha_num, diffs), alpha_num


def test_vectorized_normalize_on_block_ones():
    f = dq.parse_preset("block-ones:9")
    assert dq.normalize(f).F == reference_normalize(f).F


# ----------------------------------------------------------------------
# int64 bounds of the vectorized paths


def test_vectorized_paths_refuse_sums_past_int64():
    # b(3) = 2^63 = 2 mod 3 is exact in eval_b, and wrapped to -2^63 in int64
    f = dq.make_digital_function(2, 1, [0, 2 ** 62], 3)
    assert dq.eval_b(f, 3) == 2 ** 63
    for call in (lambda: dq.eval_b_many(f, [3]),
                 lambda: eval_b_band_many(f, [3], 0, 2),
                 lambda: dq.stream(f, dq.IDENTITY, 3, 1),
                 lambda: dq.stream(f, dq.IDENTITY, 2 ** 62, 1)):
        with pytest.raises(OverflowError, match=r"could pass 2\^63 - 1"):
            call()
    # one weight fits
    assert dq.eval_b_many(f, [1]).tolist() == [2 ** 62]
    assert dq.stream(f, dq.IDENTITY, 1, 1).tolist() == [2 ** 62 % 3]


def test_wide_stream_counts_every_limb():
    # limbs of 46 binary digits: one limb's sum of 2^57 weights fits int64,
    # but the 100 digits of 2^100 - 1 that the stream's sums cover could
    # pass it (b = 100 * 2^57 would wrap), while 100 weights of 2^56 fit
    n = 2 ** 100 - 1
    big = dq.make_digital_function(2, 1, [0, 2 ** 57], 3)
    with pytest.raises(OverflowError, match="a sum of 100 table weights"):
        dq.stream(big, dq.IDENTITY, n, 1)
    fits = dq.make_digital_function(2, 1, [0, 2 ** 56], 3)
    assert dq.stream(fits, dq.IDENTITY, n - 2, 3).tolist() == \
        [dq.eval_b(fits, t) % 3 for t in range(n - 2, n + 1)]


def test_weights_past_int64_raise_before_conversion():
    f = dq.make_digital_function(2, 2, [0, 0, 2 ** 63, 1], 2)
    for call in (lambda: dq.normalize(f), lambda: dq.check_gcd_conditions(f),
                 lambda: dq.find_difference_witness(f, 1),
                 lambda: dq.eval_b_many(f, [5])):
        with pytest.raises(OverflowError, match=r"could pass 2\^63 - 1"):
            call()


# ----------------------------------------------------------------------
# one integer logarithm


def test_integer_log_gives_the_loop_widths():
    popcount_limbs = []
    for q in range(2, 40):
        assert [_ilog_floor(q, x) for x in range(1, 200)] == \
            [max(t for t in range(10) if q ** t <= x) for x in range(1, 200)]
        for m in range(1, 7):
            # the widths read only q and m; base-2 limbs also read F, so q = 2
            # takes a dense table: x0 or .. or x(m-1), 2^m - 1 Moebius terms
            f = SimpleNamespace(q=q, m=m) if q > 2 else \
                dq.make_digital_function(2, m, [0] + [1] * (2 ** m - 1), 2)
            width = 0
            while q ** (width + m) <= 1 << 18:
                width += 1
            assert _block_width(f) == max(width, 1)

            def fits(L):  # B = q^L <= 2^46, a scan argument q^(L+m-1) <= 2^62
                return q ** L <= 1 << 46 and q ** (L + m - 1) <= 1 << 62

            limb = 0
            while fits(limb + _block_width(f)):
                limb += _block_width(f)
            top = max(t for t in range(64) if fits(t))
            if q == 2 and dq.digital._bit_plan(f, top) is not None:
                popcount_limbs.append(m)
                limb = top
            assert dq.seqgen._limb_digits(f) == limb
    assert popcount_limbs == [1, 2]


# ----------------------------------------------------------------------
# the base-2 popcount scan


def reference_moebius(F, m):
    """a_S = sum over T within S of (-1)^|S - T| F[T], one S at a time."""
    return [sum((-1) ** bin(S ^ T).count("1") * F[T]
                for T in range(1 << m) if T & ~S == 0) for S in range(1 << m)]


def sparse_table(rng, m, terms):
    """F[w] = sum of c_k over the k with S_k within the bits of w."""
    F = [0] * (1 << m)
    for _ in range(terms):
        S, c = int(rng.integers(1, 1 << m)), int(rng.integers(1, 6))
        for w in range(1 << m):
            F[w] += c * (w & S == S)
    return F


def bit_path(g, digits):
    return dq.digital._bit_plan(g, digits) is not None


def base2_tables(rng):
    """Seeded base-2 tables with m <= 4: sparse and dense, raw and normalized."""
    out = []
    for m in range(1, 5):
        for _ in range(4):
            out.append(sparse_table(rng, m, int(rng.integers(1, 3))))
            out.append([0] + [int(v) for v in rng.integers(0, 6, (1 << m) - 1)])
    fs = [dq.make_digital_function(2, len(F).bit_length() - 1, F, 5) for F in out]
    return fs + [dq.normalize(f) for f in fs]


def test_bit_terms_are_the_moebius_coefficients(rng):
    for f in base2_tables(rng):
        sets, a = dq.digital._bit_terms(f)
        got = [0] * (1 << f.m)
        for S, coef in zip(sets, a.tolist()):
            got[S] = coef
        assert got == reference_moebius(f.F, f.m)
        plan = dq.digital._bit_plan(f, 62)
        for S, (runs, _, _) in zip(sets, plan or ()):
            assert sum(((1 << length) - 1) << start for start, length in runs) == S
            # maximal: each run starts above a clear bit and ends below one
            assert all(start == 0 or not S >> (start - 1) & 1 for start, _ in runs)
            assert all(not S >> (start + length) & 1 for start, length in runs)


def test_bit_scan_selection(monkeypatch):
    tm, rs = dq.preset("thue-morse"), dq.preset("rudin-shapiro")
    dense = dq.make_digital_function(2, 4, [0] + [1] * 15, 5)  # x0 or .. or x3
    b7, b19 = dq.parse_preset("block-ones:7"), dq.parse_preset("block-ones:19")
    ten = dq.parse_preset("digit-sum:10,7")
    bits = {tm: range(1, 64), rs: range(17, 64), b7: range(13, 64),
            b19: range(2, 64), dense: (), ten: ()}
    for g, want in bits.items():
        assert [d for d in range(1, 64) if bit_path(g, d)] == list(want), g
    assert len(dq.digital._bit_terms(dense)[0]) == 15
    # the bit path never reads a block table, the block path always does
    args = np.array([0, 5, 2 ** 20 - 1, 2 ** 40 + 12345], dtype=np.int64)
    ref = {g: [dq.eval_b(g, int(n)) for n in args] for g in (tm, rs, dense)}

    def refuse(*_):
        raise AssertionError("block table read")

    monkeypatch.setattr(dq.digital, "_block_table", refuse)
    for g in (tm, rs):  # 42 digits
        assert dq.eval_b_many(g, args).tolist() == ref[g]
    with pytest.raises(AssertionError, match="block table read"):
        dq.eval_b_many(dense, args)
    with pytest.raises(AssertionError, match="block table read"):
        dq.eval_b_many(rs, args[:2])  # 4 digits: one lookup
    monkeypatch.undo()
    assert dq.eval_b_many(dense, args).tolist() == ref[dense]


def test_bit_scan_matches_scalar(rng):
    paths = set()
    for f in base2_tables(rng):
        for bits in (3, 16, 20, 40, 62 - f.m):
            ns = rng.integers(0, 1 << bits, 40, dtype=np.int64, endpoint=True)
            ns[0] = (1 << bits) - 1
            digits = ((int(ns.max()) << (f.m - 1)).bit_length())
            paths.add(bit_path(f, digits))
            assert dq.eval_b_many(f, ns).tolist() == [dq.eval_b(f, int(n)) for n in ns]
        if not f.is_normalized:
            continue
        # bands of 63 digits and more skip the mask
        for mu, lam in [(0, 17), (3, 40), (0, 62), (0, 63), (1, 70), (20, 90)]:
            paths.add(bit_path(f, lam - mu))
            xs = rng.integers(0, 2 ** 63 - 1, 60, dtype=np.int64, endpoint=True)
            xs[0] = 2 ** 63 - 1
            assert eval_b_band_many(f, xs, mu, lam).tolist() == \
                [dq.eval_b_window(f, int(x), mu, lam) for x in xs], (f, mu, lam)
    assert paths == {False, True}


@pytest.mark.parametrize("name", ["thue-morse", "rudin-shapiro", "block-ones:2",
                                  "block-ones:3", "block-ones:7", "block-ones:19",
                                  "sparse"])
def test_bit_scan_streams(name):
    f = dq.make_digital_function(2, 3, sparse_table(np.random.default_rng(7), 3, 2), 3) \
        if name == "sparse" else dq.parse_preset(name)
    assert_streams_match_scalar(f)


def test_bit_scan_limbs():
    # the tables the wide stream scans; dense tables: the integer-log test
    # 46 digits, or fewer where the scan argument would pass 2^62: 2^(44+18)
    for name, limb in (("thue-morse", 46), ("rudin-shapiro", 46),
                       ("block-ones:3", 46), ("block-ones:19", 44)):
        assert dq.seqgen._limb_digits(dq.normalize(dq.parse_preset(name))) == limb, name


def test_bit_scan_wraps_in_the_accumulator_ring():
    # F = c (x0 xor x1) = c x0 + c x1 - 2c x0 x1: b counts bit changes.  At
    # 52 digits the sum fits int16, but the partial sums after the first
    # two terms reach 104 c > 2^15 and the third term's product wraps too
    c = (2 ** 15 - 1) // 52
    f = dq.make_digital_function(2, 2, [0, c, c, 0], 3)
    assert _acc_dtype(f, 52) == np.int16 and bit_path(f, 52)
    ns = np.array([2 ** 51 - 1, 2 ** 51 - 2, 0x5555555555555, 0x2AAAAAAAAAAAA,
                   3 << 49, 1], dtype=np.int64)
    assert dq.eval_b_many(f, ns).tolist() == [dq.eval_b(f, int(n)) for n in ns]
    assert dq.eval_b(f, 0x5555555555555) == 52 * c
    assert dq.stream(f, dq.IDENTITY, 2 ** 51 - 40, 40).tolist() == \
        [dq.eval_b(f, t) % 3 for t in range(2 ** 51 - 40, 2 ** 51)]


# ----------------------------------------------------------------------
# function-spec files


def test_spec_roundtrip(rudin_shapiro, tmp_path):
    path = tmp_path / "rs.txt"
    path.write_text(dq.dump_function_spec(rudin_shapiro))
    assert dq.load_function_spec(path) == rudin_shapiro


def test_spec_parse():
    f = dq.parse_function_spec("q=2 m=2 mod=2\nF 0 0 0 1\n")
    assert f == dq.preset("rudin-shapiro")


@pytest.mark.parametrize("text,line", [
    ("q=2 m=2\nF 0 0 0 1\n", 1),
    ("q=x m=2 mod=2\nF 0 0 0 1\n", 1),
    ("q=2 m=2 mod=2\nF 0 0 1\n", 2),
    ("q=2 m=2 mod=2\nG 0 0 0 1\n", 2),
    ("q=2 m=2 mod=2\nF 0 0 0 one\n", 2),
    ("q=2 m=2 mod=2\nF 0 0 0 1\njunk\n", 3),
])
def test_spec_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FunctionSpecError, match=f"line {line}"):
        dq.parse_function_spec(text)


@pytest.mark.parametrize("xs", [[], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)],
                         ids=["list", "int64", "uint8"])
def test_band_of_no_arguments_is_empty_int64(rudin_shapiro, xs):
    got = eval_b_band_many(rudin_shapiro, xs, 0, 4)
    assert got.dtype == np.int64 and got.shape == (0,)
