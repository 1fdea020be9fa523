"""Strongly block-additive digital functions.

A digital function is given by a base ``q >= 2``, a window length
``m >= 1``, a weight table ``F`` over all q^m length-m digit blocks with
``F[0] == 0``, and a modulus ``m_prime``.  Its value is

    b(n) = sum over every length-m window of the base-q digits of n
           (padded with zeros on both ends) of the window's weight.

The table index encodes a window most-significant-digit first, so the
window (e_{m-1}, ..., e_0) sits at index sum e_j q^j.  Classical
instances: digit sums in base q (m = 1, F[x] = x; base 2 gives
Thue-Morse mod 2) and the Rudin-Shapiro weight counting "11" blocks
(q = 2, m = 2, F = [0, 0, 0, 1]).

A table is *normalized* when the windows hanging below digit position 0
contribute nothing, i.e. sum_{j=1}^{m-1} F[(n * q^j) mod q^m] = 0 for all
n < q^m.  ``normalize`` rewrites any table into that form without changing
b; truncated evaluations (``eval_b_window`` and friends) require it, since
for normalized tables

    b_lam(n) = sum_{j=0}^{lam-1} F[floor(n / q^j) mod q^m]

picks out exactly the windows anchored below position lam.

Vectorized evaluation runs one digit scan: the width-w block table holds
the summed weight of w consecutive windows, so the scan advances w digits
per lookup in a fixed number of rounds (or, in base 2, counts bits).
``eval_b_many`` (b over int64 arguments), ``eval_b_band_many`` (digit
bands, behind the Fourier phase tables and the carry counts) and the
int64 limbs that ``stream`` splits wider map values into all run on it.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .budget import check as budget_check

# b must stay exact for arguments up to 2^126 so that squares of 63-bit
# indices are in range; wider inputs are rejected instead of wrapping.
MAX_ARG_BITS = 126

# int64 headroom for the vectorized evaluation paths.
_VECTOR_ARG_LIMIT = 1 << 62

# Arguments per `eval_b_many` scan, as many as a default `stream` chunk.
_SCAN_CHUNK = 1 << 16


class FunctionSpecError(ValueError):
    """Malformed function-spec text (carries a line number)."""


class WitnessNotFoundError(RuntimeError):
    """An exhaustive witness search came up empty.

    For inputs satisfying the gcd hypotheses this cannot happen; raising
    instead of returning a sentinel makes a hypothesis violation loud.
    """


@dataclass(frozen=True)
class DigitalFunction:
    """Base q, window length m, weight table F, output modulus m_prime."""

    q: int
    m: int
    F: tuple
    m_prime: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"base q must be >= 2, got {self.q}")
        if self.m < 1:
            raise ValueError(f"window length m must be >= 1, got {self.m}")
        if self.m_prime < 1:
            raise ValueError(f"modulus must be >= 1, got {self.m_prime}")
        size = self.q ** self.m
        if len(self.F) != size:
            raise ValueError(
                f"table length {len(self.F)} != q^m = {size}"
            )
        if self.F[0] != 0:
            raise ValueError("all-zero window must have weight 0")
        object.__setattr__(self, "F", tuple(map(int, self.F)))
        # hashed once: cached tables are keyed by f, and F may have 2^19 entries
        object.__setattr__(self, "_hash",
                           hash((self.q, self.m, self.F, self.m_prime)))

    def __hash__(self):
        return self._hash

    @property
    def table_size(self) -> int:
        return self.q ** self.m

    @cached_property
    def is_normalized(self) -> bool:
        # normalize(f) == f iff G(n) = G(n // q) for all n iff G == G(0) = 0
        return self.m == 1 or normalize(self).F == self.F

    @cached_property
    def _max_weight(self) -> int:  # once per f, not per digit count
        return max(map(abs, self.F))

    def __repr__(self):
        body = f"q={self.q}, m={self.m}, m_prime={self.m_prime}"
        if self.table_size <= 16:
            return f"DigitalFunction({body}, F={list(self.F)})"
        return f"DigitalFunction({body}, |F|={self.table_size})"


_INTERNED = weakref.WeakValueDictionary()


def _intern(f: DigitalFunction) -> DigitalFunction:
    """The live function equal to f, else f: equal functions are one object,
    so a cache keyed by f finds its entry by identity, not by comparing F."""
    return _INTERNED.setdefault((f.q, f.m, f.F, f.m_prime), f)


def make_digital_function(q: int, m: int, F, m_prime: int) -> DigitalFunction:
    """Validate and build a digital function from a raw weight table.

    User-supplied tables must be non-negative; ``normalize`` may later
    introduce negative entries, which is fine internally.
    """
    f = DigitalFunction(q, m, tuple(F), m_prime)
    if min(f.F) < 0:
        raise ValueError("weight table entries must be >= 0")
    return _intern(f)


def normalize(f: DigitalFunction) -> DigitalFunction:
    """Rewrite the table so sub-zero windows cancel, preserving b.

    Uses the correction G(n) = sum_{j=1}^{m-1} F[(n q^j) mod q^m] and
    returns the table F'(n) = F(n) + G(n) - G(floor(n/q)).  Entries may
    come out negative.  Idempotent on already-normalized tables.
    """
    return f if f.m == 1 else _normalized(f)


@lru_cache(maxsize=64)
def _normalized(f: DigitalFunction) -> DigitalFunction:
    # cached, as F may have 2^19 entries.  (n q^j) mod q^m = (n mod q^(m-j)) q^j,
    # so G(n) is G(n mod q^(m-1)): G tiled q times, and G(n // q) is G repeated
    q, m, size = f.q, f.m, f.table_size
    F = np.asarray(f.F, dtype=_acc_dtype(f, 2 * m - 1))
    r = np.arange(q ** (m - 1))
    G = sum(F[_rem(r * q ** j, size)] for j in range(1, m))
    newF = F + np.tile(G, q) - np.repeat(G, q)
    return _intern(DigitalFunction(q, m, newF.tolist(), f.m_prime))


def _check_arg(n: int) -> None:
    if n < 0:
        raise ValueError(f"argument must be >= 0, got {n}")
    if n.bit_length() > MAX_ARG_BITS:
        raise OverflowError(
            f"argument has {n.bit_length()} bits, exceeds the "
            f"{MAX_ARG_BITS}-bit evaluation contract"
        )


def eval_b(f: DigitalFunction, n: int) -> int:
    """b(n): total weight of all digit windows of n.

    Scans every window position, including those straddling the bottom of
    the expansion, so the value is table-faithful whether or not f is
    normalized.  Exact for n up to 2^126.
    """
    n = int(n)
    _check_arg(n)
    q, size = f.q, f.table_size
    # Shifting by q^(m-1) makes the j >= 0 scan cover the sub-zero windows.
    x = n * f.q ** (f.m - 1)
    total = 0
    while x:
        total += f.F[x % size]
        x //= q
    return total


def eval_b_truncated(f: DigitalFunction, n: int, lam: int) -> int:
    """b_lam(n): weight of the lam lowest window positions.

    Requires a normalized table.  b_lam is q^(lam+m-1)-periodic and the
    argument is reduced modulo that period, so negative n is accepted.
    """
    if not f.is_normalized:
        raise ValueError("truncated evaluation requires a normalized table")
    if lam < 0:
        raise ValueError(f"truncation depth must be >= 0, got {lam}")
    q, size = f.q, f.table_size
    x = int(n) % q ** (lam + f.m - 1) if lam > 0 else 0
    _check_arg(x)
    total = 0
    for _ in range(lam):
        if x == 0:
            break
        total += f.F[x % size]
        x //= q
    return total


def eval_b_window(f: DigitalFunction, n: int, mu: int, lam: int) -> int:
    """b_{mu,lam}(n) = b_lam(n) - b_mu(n), the weight of the digit band [mu, lam)."""
    if not 0 <= mu <= lam:
        raise ValueError(f"need 0 <= mu <= lam, got ({mu}, {lam})")
    n = int(n) % f.q ** (lam + f.m - 1)
    return eval_b_truncated(f, n, lam) - eval_b_truncated(f, n, mu)


def check_recursion(f: DigitalFunction, n1: int, n2: int, alpha: int,
                    lam: int):
    """Residuals of the split-at-digit-alpha recursion; both must be 0.

    Returns (b_lam(n1 q^a + n2) - b_{lam-a}(n1) - b_a(n1 q^a + n2),
             b(n1 q^a + n2) - b(n1) - b_a(n1 q^a + n2)).
    """
    if not f.is_normalized:
        raise ValueError("recursion check requires a normalized table")
    if alpha < 0 or not 0 <= n2 < f.q ** alpha:
        raise ValueError(f"need 0 <= n2 < q^alpha, got n2={n2}, alpha={alpha}")
    if lam <= alpha:
        raise ValueError(f"need lam > alpha, got lam={lam}, alpha={alpha}")
    if n1 < 0:
        raise ValueError("n1 must be >= 0")
    n = n1 * f.q ** alpha + n2
    low = eval_b_truncated(f, n, alpha)
    r_trunc = eval_b_truncated(f, n, lam) - eval_b_truncated(f, n1, lam - alpha) - low
    r_full = eval_b(f, n) - eval_b(f, n1) - low
    return r_trunc, r_full


def _prime_factors(n: int) -> dict:
    """{p: e} with n = prod p^e over increasing primes p (n >= 1)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


@dataclass(frozen=True)
class GcdConditionReport:
    """Hypothesis check for normality of the function along squares."""

    q: int
    m_prime: int
    primes: tuple
    gcd_q_minus_1_ok: bool          # gcd(q-1, m') == 1
    table_scan_ok: bool             # every p | m' misses some table weight
    b_scan_ok: bool                 # every p | m' misses some b(n), n < q^m
    naive_gcd_scan_ok: bool         # some n < q^m has gcd(m', b(n)) == 1

    @property
    def hypotheses_ok(self) -> bool:
        return self.gcd_q_minus_1_ok and self.table_scan_ok

    @property
    def naive_scan_differs(self) -> bool:
        """True when the gcd-at-once scan is strictly weaker here."""
        return self.table_scan_ok and not self.naive_gcd_scan_ok

    def to_dict(self):
        return {**asdict(self), "naive_scan_differs": self.naive_scan_differs,
                "hypotheses_ok": self.hypotheses_ok}


def check_gcd_conditions(f: DigitalFunction) -> GcdConditionReport:
    """Decide gcd(q-1, m') = 1 and gcd(m', gcd{b(n)}) = 1 by finite scans.

    The second condition is decided prime by prime: p divides every b(n)
    exactly when p divides every normalized table weight, so a scan of
    n < q^m settles it (the table is normalized internally; b is
    unchanged by that).  A naive scan for a single n with
    gcd(m', b(n)) = 1 over n < q^m can fail even when the per-prime
    conditions hold (different n may witness different primes), so that
    outcome is reported too.
    """
    if f.m_prime <= 1:
        raise ValueError("gcd conditions need m_prime > 1")
    primes = tuple(_prime_factors(f.m_prime))
    b = eval_b_many(f, np.arange(f.table_size))  # checks 2m-1 weight sums
    weights = np.asarray(normalize(f).F, dtype=np.int64)
    return GcdConditionReport(
        q=f.q, m_prime=f.m_prime, primes=primes,
        gcd_q_minus_1_ok=math.gcd(f.q - 1, f.m_prime) == 1,
        table_scan_ok=all(np.any(weights % p) for p in primes),
        b_scan_ok=all(np.any(b % p) for p in primes),
        naive_gcd_scan_ok=bool(np.any(np.gcd(b, f.m_prime) == 1)),
    )


def boundary_difference(f: DigitalFunction, e: int) -> int:
    """b(q^(m-1)(e+1) - 1) - b(q^(m-1)(e+1)): the carry-boundary jump."""
    top = f.q ** (f.m - 1) * (e + 1)
    return eval_b(f, top - 1) - eval_b(f, top)


@lru_cache(maxsize=256)
def find_difference_witness(f: DigitalFunction, alpha_num: int):
    """Lexicographically first (e1, e2), e1, e2 < q^(2m-1), whose jumps
    differ by a d with d*alpha not in Z, alpha = alpha_num / m_prime.

    (d1 - d2) alpha is in Z iff d1 = d2 mod m' / gcd(alpha_num, m'), so
    unless every jump has the first one's residue (which the gcd
    hypotheses rule out; exhaustion raises WitnessNotFoundError), the
    answer is e1 = 0 and the first e2 whose residue differs.
    """
    if not 1 <= alpha_num <= f.m_prime - 1:
        raise ValueError(f"need 1 <= alpha_num <= m_prime-1, got {alpha_num}")
    bound = f.q ** (2 * f.m - 1)
    budget_check("sum", bound, "boundary-difference witness search")
    M = f.m_prime // math.gcd(alpha_num, f.m_prime)
    top = f.q ** (f.m - 1) * np.arange(1, bound + 1)
    below, at = eval_b_many(f, top - 1), eval_b_many(f, top)
    residue = _rem(_rem(below, M) - _rem(at, M), M)
    differs = np.flatnonzero(residue != residue[0])
    if not differs.size:
        raise WitnessNotFoundError("no boundary-difference witness below "
                                   f"q^(2m-1)={bound}; the gcd hypotheses fail "
                                   "for this function")
    e2 = int(differs[0])
    return 0, e2, int(below[0]) - int(at[0]) - int(below[e2]) + int(at[e2])


# ----------------------------------------------------------------------
# vectorized evaluation


def _rem(x: np.ndarray, d: int, out=None) -> np.ndarray:
    """x mod d as Python % gives it, for a positive d that fits x's dtype.

    A mask for a power of two, else x - (x // d) d: floor division by a
    scalar multiplies and shifts, while np.remainder divides per element.
    The product may wrap, but the result is right mod 2^bits and in [0, d).
    """
    if d & (d - 1) == 0:
        return np.bitwise_and(x, d - 1, out=out)
    quot = x // d
    quot *= d
    return np.subtract(x, quot, out=out)


@lru_cache(maxsize=256)
def _acc_dtype(f: DigitalFunction, digits: int):
    """Narrowest signed dtype holding m' and any sum of `digits` weights;
    past int64 it raises OverflowError, so the vectorized paths never wrap."""
    bound = max(digits * f._max_weight, f.m_prime)
    if bound > np.iinfo(np.int64).max:
        raise OverflowError(f"a sum of {digits} table weights or the modulus "
                            "could pass 2^63 - 1; the vectorized paths hold "
                            "int64 (eval_b is exact)")
    return next(dt for dt in (np.int16, np.int32, np.int64)
                if bound <= np.iinfo(dt).max)


@lru_cache(maxsize=64)
def _block_table(f: DigitalFunction, width: int):
    """T[y] = sum_{j < width} F[(y // q^j) mod q^m] for y < q^(width+m-1).

    Lets the window scan advance `width` digits per lookup.  Stored in
    the accumulator dtype of `width` digits, which keeps the gather
    traffic low on long streams and is never wider than a scan's sum.
    """
    # T_w[y] = F[y mod q^m] + T_(w-1)[y // q], exact in the dtype of w digits
    F = table = np.asarray(f.F, dtype=_acc_dtype(f, width))
    for w in range(1, width):
        table = np.tile(F, f.q ** w) + np.repeat(table, f.q)
    return table


def _ilog_floor(q: int, x: int) -> int:
    """Largest t >= 0 with q^t <= x (x >= 1); 0 for x < q."""
    t, power = 0, q
    while power <= x:
        t, power = t + 1, power * q
    return t


def _block_width(f: DigitalFunction) -> int:
    """Digits per lookup: the widest table has q^(width+m-1) <= 2^18 entries."""
    return max(_ilog_floor(f.q, 1 << 18) - f.m + 1, 1)


def _int64_array(ns) -> np.ndarray:
    """Integer input as int64; non-integer dtypes raise instead of truncating."""
    ns = np.asarray(ns)
    if ns.size and ns.dtype.kind in "fc":
        raise ValueError(f"arguments must be integers, got dtype {ns.dtype}")
    return np.asarray(ns, dtype=np.int64)


@lru_cache(maxsize=64)
def _bit_terms(f: DigitalFunction):
    """Nonzero Moebius coefficients of a base-2 table, ([S], [a_S] as int64
    mod 2^64): F[w] is the sum of a_S over the S within the bits of w.  None
    past 210 terms: 3 x (2 passes or more a term) > 5 x (63 digits x 4)."""
    _acc_dtype(f, 1)  # raises before a weight past int64 meets np.array
    a = np.array(f.F, dtype=np.int64)
    for i in range(f.m):  # a[w | 2^i] -= a[w] for w without bit i
        pairs = a.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    S = np.flatnonzero(a)
    return None if S.size > 210 else (S.tolist(), a[S])


@lru_cache(maxsize=256)
def _bit_plan(g: DigitalFunction, digits: int):
    """Terms (runs of S, mask, a_S) of a `digits`-digit popcount scan of g,
    or None (always for q > 2) where the block scan costs less.  a_S wraps
    into `_acc_dtype(g, digits)`, exact as the scan's sum fits there."""
    found = g.q == 2 and _bit_terms(g)
    if not found:
        return None
    plan, passes = [], 0
    for S, coef in zip(found[0], found[1].astype(_acc_dtype(g, digits))):
        runs = tuple((r.start(), len(r[0])) for r in re.finditer("1+", bin(S)[:1:-1]))
        # x < 2^(digits+m-1): an AND with bit m - 1 of S is 0 from `digits` up
        masked = S < 1 << (g.m - 1) and digits + S.bit_length() <= 63
        plan.append((runs, (1 << digits) - 1 if masked else None, coef))
        # a run: its shift, 2 a doubling step, the AND joining it (or the
        # popcount); then the add, the mask and the multiply
        passes += sum((start > 0) + 2 * (length - 1).bit_length() + 1
                      for start, length in runs) + 1 + masked + (coef != 1)
    width = _block_width(g)  # a block round: remainder, gather, add, shift
    blocks = 4 * (digits // width) + 2 * (digits % width > 0)
    # a block pass, gathers among them, takes 5/3 of a bit pass (timed)
    return tuple(plan) if 3 * passes <= 5 * blocks else None


def _round_digits(g: DigitalFunction, top: int) -> int:
    """The most digits up to `top` that `_scan` of g takes in whole rounds."""
    width = top if g.q == 2 and _bit_plan(g, top) is not None else _block_width(g)
    return width * (top // width)


def _scan(g: DigitalFunction, x: np.ndarray, digits: int) -> np.ndarray:
    """sum_{j < digits} F[(x // q^j) mod q^m] for int64 0 <= x < q^(digits+m-1).

    Where `_bit_plan` serves g, sum_S a_S popcount(AND_{i in S} (x >> i)
    mod 2^digits); else `_block_width(g)` digits per block-table lookup and
    the last digits mod width in one lookup of the narrower table, so the
    round count is fixed.  For a base that is not a power of two, a last
    whole round looks x up without dividing it.  Gathers go into buffers
    made once per call; the sum stays in `_acc_dtype(g, digits)`.  x may be
    overwritten.
    """
    out = np.zeros(x.shape, dtype=_acc_dtype(g, digits))
    plan = _bit_plan(g, digits)
    if plan is not None:
        for runs, mask, coef in plan:
            y = None
            for start, length in runs:
                r, k = (x >> start if start else x), 1
                while k < length:  # bit j of r: bits j..j+k-1 of x >> start
                    r, k = r & (r >> min(k, length - k)), min(2 * k, length)
                y = r if y is None else y & r
            count = np.bitwise_count(y if mask is None else y & mask)
            out += count if coef == 1 else np.multiply(count, coef, dtype=out.dtype)
        return out
    q, width = g.q, _block_width(g)
    full, rest = divmod(digits, width)
    if full:
        table = _block_table(g, width)
        size, step = q ** (width + g.m - 1), q ** width
        idx, vals = np.empty_like(x), np.empty(x.shape, dtype=table.dtype)
        if q & (q - 1) == 0:  # power-of-two base: a mask and a shift
            for _ in range(full):
                out += np.take(table, _rem(x, size, out=idx), out=vals)
                x >>= step.bit_length() - 1
        else:
            # x >= 0, so its uint64 view holds the same values, and an
            # unsigned quotient costs less than a floor one; the quotient
            # carries to the next round and, for m = 1 (size == step), its
            # remainder is the index
            y, uidx = x.view(np.uint64), idx.view(np.uint64)
            quot = np.empty_like(y)
            for _ in range(full - (rest == 0)):
                np.floor_divide(y, step, out=quot)
                if size == step:
                    np.multiply(quot, step, out=uidx)
                else:
                    np.floor_divide(y, size, out=uidx)
                    uidx *= size
                np.subtract(y, uidx, out=uidx)
                out += np.take(table, idx, out=vals)
                y, quot = quot, y
            x = y.view(np.int64)
            # with no digits left after it, the last round's x is below
            # q^(w+m-1): its index is x itself and its quotient 0
            rest = rest or width
    if rest:
        out += np.take(_block_table(g, rest), x)
    return out


def eval_b_many(f: DigitalFunction, ns) -> np.ndarray:
    """Vectorized b over integer arguments; bit-identical to eval_b.

    Arguments times q^(m-1) must stay below 2^62; wider ones raise
    OverflowError (``stream`` splits those into limbs).  The scan runs
    on chunks of 2^16 arguments, so its temporaries stay cache-resident.
    """
    ns = _int64_array(ns)
    if ns.size == 0:
        return np.zeros(0, dtype=np.int64)
    if ns.min() < 0:
        raise ValueError("arguments must be >= 0")
    # Shifting by q^(m-1) makes the j >= 0 scan cover the sub-zero windows.
    shift = f.q ** (f.m - 1)
    top = int(ns.max()) * shift
    if top >= _VECTOR_ARG_LIMIT:
        raise OverflowError("arguments too wide for the vectorized path")
    digits = _ilog_floor(f.q, top) + 1
    flat, out = ns.reshape(-1), np.empty(ns.size, dtype=np.int64)
    for s in range(0, flat.size, _SCAN_CHUNK):  # the product is the scan's copy
        out[s:s + _SCAN_CHUNK] = _scan(f, flat[s:s + _SCAN_CHUNK] * shift, digits)
    return out.reshape(ns.shape)


def eval_b_band_many(f: DigitalFunction, xs, mu: int, lam: int) -> np.ndarray:
    """Vectorized b_{mu,lam} over integer arguments (normalized f only)."""
    if not f.is_normalized:
        raise ValueError("truncated evaluation requires a normalized table")
    if not 0 <= mu <= lam:
        raise ValueError(f"need 0 <= mu <= lam, got ({mu}, {lam})")
    xs = _int64_array(xs)
    if xs.size == 0:
        return np.zeros(0, dtype=np.int64)
    period, low = f.q ** (lam + f.m - 1), f.q ** mu
    if period <= np.iinfo(np.int64).max:
        xs = _rem(xs, period)
    elif xs.min() < 0:
        raise OverflowError("band period too wide for vectorized reduction")
    if low > np.iinfo(np.int64).max:  # every argument is below q^mu
        return np.zeros(xs.shape, dtype=np.int64)
    # the scan overwrites its input
    return _scan(f, xs // low, lam - mu).astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# function-spec text files
#
#   q=<int> m=<int> mod=<int>
#   F <v0> <v1> ... <v_{q^m-1}>


def parse_function_spec(text: str) -> DigitalFunction:
    lines = text.splitlines()
    if len(lines) < 2:
        raise FunctionSpecError("line 1: expected 'q=<int> m=<int> mod=<int>'")
    for extra, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise FunctionSpecError(f"line {extra}: unexpected content {line.strip()!r}")

    head = lines[0].split()
    keys = ("q", "m", "mod")
    if len(head) != 3 or any(not tok.startswith(k + "=") for tok, k in zip(head, keys)):
        raise FunctionSpecError("line 1: expected 'q=<int> m=<int> mod=<int>'")
    try:
        q, m, mod = (int(tok.split("=", 1)[1]) for tok in head)
    except ValueError:
        raise FunctionSpecError("line 1: non-integer value") from None

    body = lines[1].split()
    if not body or body[0] != "F":
        raise FunctionSpecError("line 2: expected 'F <v0> <v1> ...'")
    try:
        F = [int(tok) for tok in body[1:]]
    except ValueError:
        raise FunctionSpecError("line 2: non-integer table entry") from None

    try:
        return make_digital_function(q, m, F, mod)
    except ValueError as exc:
        line = 2 if "table" in str(exc) or "weight" in str(exc) else 1
        raise FunctionSpecError(f"line {line}: {exc}") from None


def load_function_spec(path) -> DigitalFunction:
    with open(path, "r", encoding="ascii") as fh:
        return parse_function_spec(fh.read())


def dump_function_spec(f: DigitalFunction) -> str:
    values = " ".join(str(v) for v in f.F)
    return f"q={f.q} m={f.m} mod={f.m_prime}\nF {values}\n"
