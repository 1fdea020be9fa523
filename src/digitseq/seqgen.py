"""Digit sequences modulo m' along identity, progressions and squares.

The named presets cover the classical block-additive functions; streams
evaluate b(map(t)) mod m' term by term with a block-table digit scan, so
producing n symbols costs O(n log n) digit operations.  Emission is a
pure function of the index, which makes chunked, repeated and
range-partitioned reads all agree bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .digital import (
    DigitalFunction,
    MAX_ARG_BITS,
    eval_b,
    eval_b_many,
    make_digital_function,
)

_VECTOR_LIMIT = 1 << 62


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

    def __call__(self, t: int) -> int:
        if self.kind == "identity":
            return t
        if self.kind == "affine":
            return self.a * t + self.b
        return t * t

    def apply_array(self, ts: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return ts
        if self.kind == "affine":
            return self.a * ts + self.b
        return ts * ts

    def describe(self) -> str:
        if self.kind == "affine":
            return f"affine:{self.a},{self.b}"
        return {"identity": "id", "square": "square"}[self.kind]


IDENTITY = IndexMap("identity")
SQUARE = IndexMap("square")


def affine(a: int, b: int) -> IndexMap:
    return IndexMap("affine", a, b)


def parse_index_map(text: str) -> IndexMap:
    """Parse 'id', 'square' or 'affine:a,b'."""
    if text in ("id", "identity"):
        return IDENTITY
    if text == "square":
        return SQUARE
    if text.startswith("affine:"):
        parts = text[len("affine:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"affine map needs two parameters, got {text!r}")
        return affine(int(parts[0]), int(parts[1]))
    raise ValueError(f"unknown index map {text!r}")


PRESET_NAMES = ("thue-morse", "rudin-shapiro", "digit-sum", "block-ones")


def preset(name: str, **params) -> DigitalFunction:
    """Named digital functions.

    thue-morse            sum of binary digits mod 2
    rudin-shapiro         number of "11" blocks in binary, mod 2
    digit-sum             q=base, m_prime (default q): digit sum in base q
    block-ones            L: parity of all-ones blocks of length L in binary
    """
    if name == "thue-morse":
        _reject_params(name, params)
        return make_digital_function(2, 1, [0, 1], 2)
    if name == "rudin-shapiro":
        _reject_params(name, params)
        return make_digital_function(2, 2, [0, 0, 0, 1], 2)
    if name == "digit-sum":
        q = int(params.pop("q", 10))
        m_prime = int(params.pop("m_prime", q))
        _reject_params(name, params)
        return make_digital_function(q, 1, list(range(q)), m_prime)
    if name == "block-ones":
        L = int(params.pop("L", 2))
        _reject_params(name, params)
        if L < 1:
            raise ValueError(f"block length must be >= 1, got {L}")
        table = [0] * (2 ** L)
        table[-1] = 1
        return make_digital_function(2, L, table, 2)
    raise ValueError(f"unknown preset {name!r}")


def _reject_params(name, params):
    if params:
        raise ValueError(f"preset {name!r} got unexpected parameters {sorted(params)}")


def parse_preset(text: str) -> DigitalFunction:
    """Parse 'thue-morse', 'digit-sum:10', 'digit-sum:10,7', 'block-ones:3'."""
    name, _, argtext = text.partition(":")
    args = [int(tok) for tok in argtext.split(",")] if argtext else []
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


def _emit_chunk(f: DigitalFunction, index_map: IndexMap, start: int,
                count: int) -> np.ndarray:
    ts = np.arange(start, start + count, dtype=np.int64)
    ns = index_map.apply_array(ts)
    return eval_b_many(f, ns) % f.m_prime


def stream(f: DigitalFunction, index_map: IndexMap, start: int, count: int,
           chunk: int = 1 << 16, threads: int = 1) -> np.ndarray:
    """Values b(map(t)) mod m' for t in [start, start+count).

    Work proceeds in chunks sized to stay cache-resident and is written
    into one preallocated output, so throughput is flat in count.  The
    512 KB chunk temporaries also keep a 10^6-symbol call's heap growth
    under glibc's trim threshold, so repeated calls reuse their pages
    instead of faulting in about 3,000 fresh ones each.  Falls back to exact big-integer evaluation when map values outgrow the
    vectorized int64 path.  threads > 1 fans chunks out to a thread
    pool of at most os.cpu_count() workers; the ordered merge keeps
    output independent of partitioning.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    threads = min(threads, os.cpu_count() or 1)
    _map_range_check(index_map, start, count)
    if count == 0:
        return np.zeros(0, dtype=np.int64)

    top = index_map(start + count - 1) * f.q ** (f.m - 1)
    if top >= _VECTOR_LIMIT:
        values = [eval_b(f, index_map(t)) % f.m_prime
                  for t in range(start, start + count)]
        return np.asarray(values, dtype=np.int64)

    out = np.empty(count, dtype=np.int64)
    spans = [(s, min(chunk, start + count - s))
             for s in range(start, start + count, chunk)]

    def fill(span):
        s, c = span
        out[s - start:s - start + c] = _emit_chunk(f, index_map, s, c)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    return out


class SequenceStream:
    """Single-consumer pull stream over b(map(t)) mod m'.

    The t-th emitted value only depends on t, never on how reads were
    batched.
    """

    def __init__(self, f: DigitalFunction, index_map: IndexMap = IDENTITY,
                 start: int = 0):
        self.f = f
        self.index_map = index_map
        self.position = start

    def read(self, count: int) -> np.ndarray:
        out = stream(self.f, self.index_map, self.position, count)
        self.position += count
        return out

    def __iter__(self):
        while True:
            for v in self.read(1 << 14):
                yield int(v)
