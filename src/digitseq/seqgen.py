"""Digit sequences modulo m' along identity, progressions and squares.

The named presets cover the classical block-additive functions; streams
evaluate b(map(t)) mod m' term by term with the vectorized digit scan, so
producing n symbols costs O(n log n) digit operations.  Emission is a
pure function of the index, which makes chunked, repeated and
range-partitioned reads all agree bit for bit.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import check as budget_check
from .digital import (
    _VECTOR_ARG_LIMIT,
    DigitalFunction,
    MAX_ARG_BITS,
    _acc_dtype,
    _ilog_floor,
    _rem,
    _round_digits,
    _scan,
    make_digital_function,
    normalize,
)

# Wide map values are split into limbs of B = q^L <= 2^46 over spans of at
# most 2^15 symbols; docs/DECISIONS.md, section 6, bounds every sum.
_WIDE_SPAN = 1 << 15
_LIMB_BASE_LIMIT = 1 << 46


@lru_cache(maxsize=1)
def _span_terms():
    """i and i(i-1)/2 for i < 2^15, built in place on first use: built at import
    or from temporaries, they raised peak RSS (glibc's mmap threshold)."""
    i = np.arange(_WIDE_SPAN, dtype=np.int64)
    tri = np.arange(-1, _WIDE_SPAN - 1, dtype=np.int64)
    tri *= i
    tri >>= 1
    return i, tri


def digits(n: int, q: int) -> list:
    """Base-q digits of n, least significant first; digits(0) == [0]."""
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [0]
    out = []
    while n:
        n, r = divmod(n, q)
        out.append(r)
    return out


@dataclass(frozen=True)
class IndexMap:
    """t -> t (identity), t -> a*t + b (affine) or t -> t^2 (square)."""

    kind: str
    a: int = 1
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "affine", "square"):
            raise ValueError(f"unknown index map kind {self.kind!r}")
        if self.kind == "affine" and (self.a < 1 or self.b < 0):
            raise ValueError("affine map needs a >= 1 and b >= 0")

    def __call__(self, t):
        """The image of t, an int or an int64 array of them."""
        if self.kind == "identity":
            return t
        if self.kind == "affine":
            return self.a * t + self.b
        return t * t

    def describe(self) -> str:
        if self.kind == "affine":
            return f"affine:{self.a},{self.b}"
        return {"identity": "id", "square": "square"}[self.kind]


IDENTITY = IndexMap("identity")
SQUARE = IndexMap("square")


def affine(a: int, b: int) -> IndexMap:
    return IndexMap("affine", a, b)


def parse_ints(text: str, name: str) -> list:
    """The comma-separated integers of text, the value of input `name`."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated integers, got {text!r}") from None


def parse_index_map(text: str) -> IndexMap:
    """Parse 'id', 'square' or 'affine:a,b'."""
    if text in ("id", "identity"):
        return IDENTITY
    if text == "square":
        return SQUARE
    if text.startswith("affine:"):
        parts = parse_ints(text[len("affine:"):], "affine map")
        if len(parts) != 2:
            raise ValueError(f"affine map needs two parameters, got {text!r}")
        return affine(*parts)
    raise ValueError(f"unknown index map {text!r}")


_PRESET_PARAMS = {"thue-morse": (), "rudin-shapiro": (), "digit-sum": ("q", "m_prime"),
                  "block-ones": ("L",)}


def preset(name: str, **params) -> DigitalFunction:
    """Named digital functions.

    thue-morse            sum of binary digits mod 2
    rudin-shapiro         number of "11" blocks in binary, mod 2
    digit-sum             q=base, m_prime (default q): digit sum in base q
    block-ones            L: parity of all-ones blocks of length L in binary
    """
    if name not in _PRESET_PARAMS:
        raise ValueError(f"unknown preset {name!r}")
    extra = sorted(params.keys() - _PRESET_PARAMS[name])
    if extra:
        raise ValueError(f"preset {name!r} got unexpected parameters {extra}")
    if name == "thue-morse":
        return make_digital_function(2, 1, [0, 1], 2)
    if name == "rudin-shapiro":
        return make_digital_function(2, 2, [0, 0, 0, 1], 2)
    if name == "digit-sum":
        q = int(params.get("q", 10))
        m_prime = int(params.get("m_prime", q))
        return make_digital_function(q, 1, list(range(q)), m_prime)
    L = int(params.get("L", 2))
    if L < 1:
        raise ValueError(f"block length must be >= 1, got {L}")
    budget_check("sum", 2 ** L, f"block-ones:{L} weight table")
    table = [0] * (2 ** L)
    table[-1] = 1
    return make_digital_function(2, L, table, 2)


def parse_preset(text: str) -> DigitalFunction:
    """Parse 'thue-morse', 'digit-sum:10', 'digit-sum:10,7', 'block-ones:3'."""
    name, _, argtext = text.partition(":")
    if name not in _PRESET_PARAMS:  # before its parameters, which may not fit any preset
        raise ValueError(f"unknown preset {name!r}")
    args = parse_ints(argtext, f"preset {name!r}") if argtext else []
    if name == "digit-sum" and args:
        params = {"q": args[0]}
        if len(args) > 1:
            params["m_prime"] = args[1]
        if len(args) > 2:
            raise ValueError(f"digit-sum takes at most two parameters, got {text!r}")
        return preset(name, **params)
    if name == "block-ones" and args:
        if len(args) != 1:
            raise ValueError(f"block-ones takes one parameter, got {text!r}")
        return preset(name, L=args[0])
    if args:
        raise ValueError(f"preset {name!r} takes no parameters")
    return preset(name)


def _map_range_check(index_map: IndexMap, start: int, count: int) -> None:
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
    if count:
        top = index_map(start + count - 1)
        if top.bit_length() > MAX_ARG_BITS:
            raise OverflowError(
                f"map value at index {start + count - 1} exceeds the "
                f"{MAX_ARG_BITS}-bit evaluation contract"
            )


@lru_cache(maxsize=256)
def _limb_top(q: int, m: int) -> int:
    """The most digits L with q^L <= 2^46 and q^(L+m-1) <= 2^62: two integer
    log loops, run once per (q, m) rather than once per wide chunk."""
    return min(_ilog_floor(q, _LIMB_BASE_LIMIT), _ilog_floor(q, _VECTOR_ARG_LIMIT) - m + 1)


def _limb_digits(f: DigitalFunction) -> int:
    """L: the most digits up to `_limb_top` that f's scan takes in whole rounds."""
    return _round_digits(f, _limb_top(f.q, f.m))


def _emit_wide(g: DigitalFunction, limb_digits: int, index_map: IndexMap,
               start: int, count: int) -> np.ndarray:
    """b(map(t)) for t in [start, start+count) through int64 limbs.

    g is normalized, so b(n) = b(n // B^V) + sum_{k<V} b_L(c_k +
    (c_{k+1} mod q^(m-1)) B) for the base-B limbs c_k of n: the split
    recursion at every limb boundary.  Over a span of c symbols the map is
    n0 + d1 i + d2 i(i-1)/2 with nonnegative d1, d2, and n // B^V = H0 + j
    with j <= J <= c, so only limbs 0..V-1 vary; b(H0 + j) is read once.
    """
    q, base, low = g.q, g.q ** limb_digits, g.q ** (g.m - 1)
    # every partial sum adds weights of windows below the top value's digits
    _acc_dtype(g, _ilog_floor(q, index_map(start + count - 1)) + 1)
    d2 = index_map(start + 2) - 2 * index_map(start + 1) + index_map(start)
    D2, span = max(digits(d2, base)), _WIDE_SPAN
    while (base - 1) * span + D2 * span * (span - 1) // 2 > 1 << 62:
        span //= 2
    shift = limb_digits * (q.bit_length() - 1) if q & (q - 1) == 0 else 0
    i, tri = _span_terms()
    out = np.empty(count, dtype=np.int64)
    for s in range(start, start + count, span):
        c = min(span, start + count - s)
        n0 = index_map(s)
        off = index_map(s + c - 1) - n0
        V, size = 1, base
        while (n0 % size + off) // size > c:
            V, size = V + 1, size * base
        # the top limb keeps h = H0 mod q^(m-1), the digits its windows read
        high, rest = divmod(n0, size * low)
        h, J = rest // size, (rest % size + off) // size
        # terms that vanish on the span are dropped, so each one left is at
        # most off, and the top limb takes all that is left of them
        coeffs = (rest, index_map(s + 1) - n0 if c > 1 else 0, d2 if c > 2 else 0)
        limbs, carry = [], None
        for k in range(V):
            k0, k1, k2 = coeffs if k == V - 1 else (v % base for v in coeffs)
            coeffs = [v // base for v in coeffs]
            v = i[:c] * k1
            if k2:
                v += tri[:c] * k2
            v += k0 if carry is None else np.add(carry, k0, out=carry)
            mod = base if k < V - 1 else low * base
            if shift:
                carry = v >> shift
                v &= mod - 1
            else:
                carry = v // base
                v -= carry * base if mod == base else carry // low * mod
            limbs.append(v)
        total = out[s - start:s - start + c]
        b_high = _emit_b(g, IDENTITY, high * low + h, J + 1).astype(np.int64, copy=False)
        # 0 <= j <= J, so "clip" only skips the buffered bounds check
        np.take(b_high, np.subtract(carry, h, out=carry), out=total, mode="clip")
        for k, x in enumerate(limbs):
            if k < V - 1 and low > 1:
                x += _rem(limbs[k + 1], low) * base
            total += _scan(g, x, limb_digits)
    return out


def _emit_b(f: DigitalFunction, index_map: IndexMap, start: int,
            count: int) -> np.ndarray:
    """b(map(t)) for t in [start, start+count), in the scan's accumulator
    dtype below 2^62 (it holds m') and int64 beyond."""
    top = index_map(start + count - 1) * f.q ** (f.m - 1)
    if top < _VECTOR_ARG_LIMIT:
        x = index_map(np.arange(start, start + count, dtype=np.int64))
        if f.m > 1:
            x *= f.q ** (f.m - 1)
        return _scan(f, x, _ilog_floor(f.q, top) + 1)  # b(x // q^(m-1))
    g = normalize(f)  # normalizing leaves b as is
    return _emit_wide(g, _limb_digits(g), index_map, start, count)


def _chunks(f: DigitalFunction, index_map: IndexMap, start: int, count: int,
            chunk: int = 1 << 16, threads: int = 1):
    """Iterator over b(map(t)) mod m' for t in [start, start+count), in
    arrays of at most `chunk`, in the scan's accumulator dtype (int64 past
    2^62).  The arguments are checked at the call.  threads > 1 runs chunks
    on a pool of at most os.cpu_count() workers, at most two a worker in
    flight, and yields them in order: output does not depend on the
    partitioning, and memory is O(threads * chunk) for any count.
    """
    start, count = operator.index(start), operator.index(count)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if chunk < 1:  # a negative step would yield nothing
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if threads > 1:
        threads = min(threads, os.cpu_count() or 1)
    _map_range_check(index_map, start, count)
    spans = ((s, min(chunk, start + count - s))  # each formed as it is read
             for s in range(start, start + count, chunk))

    def emit(span):
        b = _emit_b(f, index_map, *span)
        return _rem(b, f.m_prime, out=b)

    def ordered():
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for span in spans:
                pending.append(pool.submit(emit, span))
                if len(pending) > 2 * threads:
                    yield pending.popleft().result()
            yield from (future.result() for future in pending)

    return ordered() if threads > 1 and count > chunk else map(emit, spans)


def stream(f: DigitalFunction, index_map: IndexMap, start: int, count: int,
           chunk: int = 1 << 16, threads: int = 1) -> np.ndarray:
    """Values b(map(t)) mod m' for t in [start, start+count), as int64.

    The chunks of `_chunks`, sized to stay cache-resident, are copied into
    one preallocated output, so throughput is flat in count.  Their
    temporaries (two 512 KB int64 arrays and a few narrower ones) also keep
    a 10^6-symbol call's heap growth under glibc's trim threshold, so
    repeated calls reuse their pages instead of faulting in about 3,000
    fresh ones each.  Map values past int64 are evaluated exactly on int64
    limbs with the same digit scan, so throughput also holds past 2^62.
    """
    chunks = _chunks(f, index_map, start, count, chunk, threads)
    return next(_windows(chunks, count, 1, np.int64), np.zeros(0, np.int64))  # one full view


def _windows(chunks, size: int, k: int, dtype):
    """The chunks' symbols as views of k to size + k - 1 of them in one reused
    buffer, each view's last k - 1 carried to the start of the next, so each
    length-k window lies in exactly one view."""
    buf, fill = np.empty(size + k - 1, dtype), 0
    for x in chunks:
        while x.size:
            take = min(x.size, buf.size - fill)
            buf[fill:fill + take], x = x[:take], x[take:]
            fill += take
            if fill == buf.size:
                yield buf
                buf[:k - 1], fill = buf[fill - k + 1:], k - 1
        del x  # the next chunk's temporaries reuse its memory
    if fill >= k:
        yield buf[:fill]
