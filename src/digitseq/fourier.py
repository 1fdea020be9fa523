"""Correlation Fourier terms of digital functions and their transfer matrices.

For a normalized digital function b with coefficients alpha_l = num_l/m',
the central objects are the discrete Fourier transforms

    H_lam^I(h, d) = q^-(lam+m-1) * sum_{u < q^(lam+m-1)}
                    e( sum_l alpha_l b_lam(u + l d + i_l) - h u q^-(lam+m-1) )
    G_lam^I(h, d) = q^-lam * sum_{u < q^lam}
                    e( sum_l alpha_l b_lam(q^(m-1)(u + l d) + i_l) - h u q^-lam )

indexed by offset vectors I from the sets

    I_k  = { (i_0..i_{k-1}) : i_0 < q^(m-1),
             i_{l-1} <= i_l <= i_{l-1} + q^(m-1) }
    I'_k = { i_0 = 0, increments in {0, 1} }.

Stepping one digit block at a time acts on the offsets through

    T^j_{eps,delta}(I) = ( floor((i_l + q^(m-1)(eps + l delta)) / q^j) )_l

and multiplies the summand by the unimodular weight
v^j(I,eps,delta) = e( sum_l alpha_l b_j(i_l + q^(m-1)(eps + l delta)) ).
G then satisfies an exact one-block recursion whose d-averaged second
moments evolve under a transfer matrix over pairs (I, I'); row-norm
contraction of windowed products of those matrices is what drives every
decay statement checked here.  The pair matrix is the Kronecker sum
M(beta) = q^-3 sum_delta A_delta(z) (x) conj(A_delta(z)), z = e(-beta), of
the one-digit single-index matrices A_delta = M^1_delta, from which every
transfer matrix here is derived.  All b-derived phases are exact integers
modulo m'; only the h*u Fourier kernel is floating point, with its
argument reduced exactly first.

Two contraction regimes are covered: when K = sum alpha_l is an integer,
windowed pair-matrix products contract (condition_1/condition_2 checks,
average decay profiles); when K is not an integer, the single-index
matrices M^j_delta(z) lose a fixed amount of row norm at j = (4m-2)k,
certified constructively by a witness record per (I, delta).  The
witness saves 8 sin^2(pi/4m') from two disjoint colliding eps pairs; when
the two pairs share an eps (only possible for m = 1) it saves
3 - sqrt(5 + 4 cos(pi/m')) from the three-term chain they form instead,
so the uniform saving for m = 1 is the smaller, chain constant.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .budget import check as budget_check
from .digital import DigitalFunction, _ilog_floor, _rem, eval_b_band_many
from .normality import AlphaVector
from .phases import e_frac, roots_of_unity

_TOL = 1e-9
_EXACT_TOL = 1e-12


# ----------------------------------------------------------------------
# index sets


@lru_cache(maxsize=128)
def _index_sets(q: int, m: int, k: int):
    cap = q ** (m - 1)
    full = [(i0,) for i0 in range(cap)]
    for _ in range(k - 1):
        full = [I + (v,) for I in full for v in range(I[-1], I[-1] + cap + 1)]
    start = [(0,)]
    for _ in range(k - 1):
        start = [I + (v,) for I in start for v in (I[-1], I[-1] + 1)]
    return tuple(full), tuple(start)


def index_set_size(q: int, m: int, k: int) -> int:
    return q ** (m - 1) * (q ** (m - 1) + 1) ** (k - 1)


def enumerate_index_sets(q: int, m: int, k: int):
    """Lexicographic offset vectors (full set, start-normalized set)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    budget_check("index", index_set_size(q, m, k), "index set enumeration")
    full, start = _index_sets(q, m, k)
    return list(full), list(start)


def _vector(I):
    """I as a tuple of Python ints, or None unless I is a 1-D integer sequence."""
    try:
        return tuple(operator.index(i) for i in I)
    except TypeError:  # not iterable, or an entry that is no integer (a row, a float)
        return None


def is_index_vector(I, q: int, m: int) -> bool:
    I, cap = _vector(I), q ** (m - 1)
    if not I or not 0 <= I[0] < cap:
        return False
    return all(prev <= cur <= prev + cap for prev, cur in zip(I, I[1:]))


def is_start_index_vector(I) -> bool:
    I = _vector(I)
    if not I or I[0] != 0:
        return False
    return all(cur - prev in (0, 1) for prev, cur in zip(I, I[1:]))


def _offsets(ctx, I, start: bool = False) -> tuple:
    """I as a tuple of ints, once it is checked to be a k-long offset vector of
    the full index set, or of the start-normalized one."""
    J = _vector(I)
    valid = is_start_index_vector(J) if start else is_index_vector(J, ctx.q, ctx.m)
    if not valid or len(J) != ctx.k:
        raise ValueError(f"{I} is not a {'start-normalized' if start else 'valid'} offset vector")
    return J


def _integer(name: str, value) -> int:
    """value as a Python int: any integer type, numpy's of every width included."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


# ----------------------------------------------------------------------
# context


class FourierContext:
    """A normalized function, its coefficients, and a working depth.

    Carries per-depth phase tables and the transfer-matrix structure so
    repeated evaluations stay cheap.  Immutable in its semantic fields.
    """

    def __init__(self, f: DigitalFunction, alpha: AlphaVector, lam: int):
        if not f.is_normalized:
            raise ValueError("Fourier terms need a normalized table")
        if alpha.m_prime != f.m_prime:
            raise ValueError("alpha and function moduli differ")
        if lam < 1:
            raise ValueError("depth lam must be >= 1")
        budget_check("sum", f.q ** (lam + f.m - 1), "Fourier summation range")
        budget_check("index", index_set_size(f.q, f.m, alpha.k), "index set")
        self.f = f
        self.alpha = alpha
        self.lam = lam
        self.q = f.q
        self.m = f.m
        self.k = alpha.k
        self.m_prime = f.m_prime
        self.roots = roots_of_unity(f.m_prime)
        # num b mod m' for b < m', per coefficient num > 1 (num 1 is b itself)
        self.times = {num: num * np.arange(f.m_prime, dtype=np.int64) % f.m_prime
                      for num in set(alpha.numerators) - {0, 1}}
        # e(p/m') for every phase p < k m' that `_phases` sums
        self.phase_roots = self.roots[np.arange(
            self.k * (f.m_prime - 1) + 1) % f.m_prime]
        self._btab = {}
        self._bands = {}
        self._structure = None
        self._reach = {}

    # -- cached tables ------------------------------------------------

    def band_table(self, depth: int) -> np.ndarray:
        """b_depth mod m' on one full period [0, q^(depth+m-1))."""
        tab = self._btab.get(depth)
        if tab is None:
            period = self.q ** (depth + self.m - 1)
            budget_check("sum", period, "phase table")
            xs = np.arange(period, dtype=np.int64)
            tab = _rem(eval_b_band_many(self.f, xs, 0, depth), self.m_prime)
            self._btab[depth] = tab
        return tab

    def reduced_band(self, depth: int, num: int) -> np.ndarray:
        """num b_depth mod m' on one full period: the band table itself for
        num = 1, else its gather through `times[num]`, read-only, cached per
        (depth, num)."""
        if num == 1:
            return self.band_table(depth)
        band = self._bands.get((depth, num))
        if band is None:
            band = self._bands[depth, num] = self.times[num][self.band_table(depth)]
            band.flags.writeable = False
        return band

    def index_vectors(self):
        return _index_sets(self.q, self.m, self.k)[0]

    def start_vectors(self):
        return _index_sets(self.q, self.m, self.k)[1]

    def pair_labels(self):
        Is = self.index_vectors()
        return tuple((A, B) for A in Is for B in Is)

    def require_nonzero_alpha(self, what: str):
        if self.alpha.is_zero:
            raise ValueError(f"{what} needs a nonzero coefficient vector")

    def m0(self) -> int:
        """Window width after which every offset vector collapses to 0.

        m - 1 + ceil(log_q(k + 1)); the smallest t with q^t > k is
        floor(log_q k) + 1.
        """
        return self.m + _ilog_floor(self.q, self.k)

    def m1_pair(self) -> int:
        """Window width for the first-row contraction of pair matrices."""
        return _ilog_floor(self.q, self.k) + 4 * self.m - 1

    def m1_single(self) -> int:
        """Block length at which M^j_delta(z) loses a fixed row norm."""
        return (4 * self.m - 2) * self.k

    def eta_pair(self) -> float:
        return 4.0 * math.sin(math.pi / (2 * self.m_prime)) ** 2 \
            * float(self.q) ** (-3 * self.m1_pair())

    def eta_single(self) -> float:
        """Row-norm saving of M^m1_delta(z) proven for every delta and z.

        The two-pair saving eta' for m >= 2; for m = 1 the witness pairs
        may overlap into a chain, whose smaller saving is the one proven.
        """
        if self.m == 1:
            return eta_chain(self.m_prime)
        return eta_pair_witness(self.m_prime)

    # -- transfer structure --------------------------------------------

    def transfer_parts(self):
        """The one-digit step table (C, N) behind every transfer matrix.

        C[delta, eps] (delta, eps < q) holds v^1(I, eps, delta) at row I,
        column T^1_{eps,delta}(I); so A_delta(z) = M^1_delta(z) =
        sum_eps z^eps C[delta, eps], and N[delta] counts the steps I -> J.
        Every transfer matrix is derived from these.  Cached per context.
        """
        if self._structure is None:
            q, Is = self.q, self.index_vectors()
            pos = {I: r for r, I in enumerate(Is)}
            d, e, _, ell = np.ogrid[:q, :q, :1, :self.k]
            keys = np.array(Is) + q ** (self.m - 1) * (e + ell * d)  # (d, e, I, l)
            cols = [pos[tuple(t)] for t in (keys // q).reshape(-1, self.k).tolist()]
            ph = (self.band_table(1)[keys % q ** self.m]
                  @ np.array(self.alpha.numerators)) % self.m_prime
            C = np.zeros((q, q, len(Is), len(Is)), dtype=np.complex128)
            np.put_along_axis(C, np.reshape(cols, (q, q, -1, 1)),
                              self.roots[ph][..., None], axis=3)
            self._structure = (C, (C != 0).sum(axis=1))
        return self._structure

    def reach_columns(self, w: int) -> np.ndarray:
        """Per row I, the columns some w-step path from I reaches: (nI, width).

        Those are the nonzero entries of row I of the boolean power
        (sum_delta N_delta)^w; off them row I of every product of w one-digit
        matrices is an exact zero (docs/DECISIONS.md, 28).  Column 0 leads
        every row, then the reached columns in order; a row that reaches
        fewer than width is padded with columns it never reaches.  Cached
        per w.
        """
        cols = self._reach.get(w)
        if cols is None:
            step = self.transfer_parts()[1].sum(axis=0) > 0
            reach = np.eye(len(step), dtype=bool)
            for _ in range(w):
                reach = reach @ step
            order = np.where(reach, 1, 2)
            order[:, 0] = 0
            width = int((order < 2).sum(axis=1).max())
            cols = self._reach[w] = np.argsort(order, axis=1, kind="stable")[:, :width]
        return cols


def make_context(f: DigitalFunction, alpha: AlphaVector, lam: int) -> FourierContext:
    return FourierContext(f, alpha, lam)


def eta_pair_witness(m_prime: int) -> float:
    """eta' = 8 sin^2(pi/4m'): the saving of two disjoint colliding pairs."""
    return 8.0 * math.sin(math.pi / (4 * m_prime)) ** 2


def eta_chain(m_prime: int) -> float:
    """eta3 = 3 - sqrt(5 + 4 cos(pi/m')): the saving of a colliding chain.

    |1 + w + w^2 e(g)| peaks at sqrt(5 + 4|cos(pi g)|) over |w| = 1, and
    a nonzero multiple g of 1/m' has |cos(pi g)| <= cos(pi/m').
    """
    return 3.0 - math.sqrt(5.0 + 4.0 * math.cos(math.pi / m_prime))


# ----------------------------------------------------------------------
# T and v


def _T(ctx, I, eps: int, delta: int, j: int):
    q, shift, p = ctx.q, ctx.q ** (ctx.m - 1), ctx.q ** j
    eps %= p
    delta %= p
    return tuple((i + shift * (eps + ell * delta)) // p for ell, i in enumerate(I))


def transform_T(ctx: FourierContext, I, eps: int, delta: int, j: int):
    """Digit-block shift on offset vectors; eps, delta reduced mod q^j."""
    eps, delta, j = _integer("eps", eps), _integer("delta", delta), _integer("j", j)
    if j < 0:
        raise ValueError("j must be >= 0")
    return _T(ctx, _offsets(ctx, I), eps, delta, j)


def weight_v_phase(ctx: FourierContext, I, eps: int, delta: int, j: int) -> int:
    """Integer numerator mod m' of the phase of v^j(I, eps, delta)."""
    if j == 0:
        return 0
    tab = ctx.band_table(j)
    period = ctx.q ** (j + ctx.m - 1)
    shift = ctx.q ** (ctx.m - 1)
    total = 0
    for ell, (i, num) in enumerate(zip(I, ctx.alpha.numerators)):
        if num:
            total += num * int(tab[(i + shift * (eps + ell * delta)) % period])
    return total % ctx.m_prime


def weight_v(ctx: FourierContext, I, eps: int, delta: int, j: int) -> complex:
    """The unimodular recursion weight v^j(I, eps, delta)."""
    return complex(ctx.roots[weight_v_phase(ctx, I, eps, delta, j)])


# ----------------------------------------------------------------------
# H and G


def _rows_by_value(col: list) -> list:
    """(v, rows) for each distinct v of the list col.

    rows are the positions holding v: an int where v is held once and a
    slice where they are consecutive, so that ph[rows] is a view added in
    place, else a list.
    """
    at = {}
    for row, v in enumerate(col):
        at.setdefault(v, []).append(row)
    return [(v, rows[0] if len(rows) == 1 else slice(rows[0], rows[-1] + 1)
             if rows[-1] - rows[0] < len(rows) else rows) for v, rows in at.items()]


def _phases(ctx, I, d: int, lam: int, stride: int) -> np.ndarray:
    """sum_l (num_l b_lam(stride (u + l d) + i_l) mod m') for u < n.

    n = q^(lam+m-1)/stride.  I is a stack (rows, k) of offset vectors; the
    result has shape (rows, n) with entries below k m' (index
    `ctx.phase_roots` with it).  H takes stride 1 and n = q^(lam+m-1), G
    stride q^(m-1) and n = q^lam.  With c = (stride l d + i_l) mod
    q^(lam+m-1) = r + stride o, r < stride, the row of band values at
    u < n is band[r::stride] rotated left by o: two slices, taken once
    per distinct c into every row with that c.
    """
    big = ctx.q ** (lam + ctx.m - 1)
    n = big // stride
    d %= big  # both phases are big-periodic in stride * d
    I = np.asarray(I, dtype=np.int64).tolist()
    ph = np.zeros((len(I), n), dtype=np.int64)
    for ell, num in enumerate(ctx.alpha.numerators):
        if num:
            band, step = ctx.reduced_band(lam, num), stride * d * ell
            for c, rows in _rows_by_value([(step + i[ell]) % big for i in I]):
                o, r = divmod(c, stride)
                ph[rows, :n - o] += band[c::stride]  # band[r::stride][o:]
                if o:
                    ph[rows, n - o:] += band[r:c:stride]  # band[r::stride][:o]
    return ph


def _check_depth(ctx, lam):
    lam = ctx.lam if lam is None else _integer("lam", lam)
    if lam < 0:
        raise ValueError("depth must be >= 0")
    budget_check("sum", ctx.q ** (lam + ctx.m - 1), "Fourier summation range")
    return lam


# Phase terms formed at once for a stack of offset vectors.
_STACK_TERMS = 1 << 20


class _KernelTables:
    """e(-r/n) for r < n, one table per recent n, shared by every context, and
    beside each table the last kernel e(-h u/n), u < n, read from it.

    Each table is the elementwise np.exp(-2j pi r / n) of the r themselves,
    so reading it at r = h u mod n gives the bits np.exp gives on that r.
    The kernel is keyed by h mod n, so the H and G sums of one check share
    it.  Tables and kernels are read-only.  The least recently used tables,
    with their kernels, are dropped once they hold more than `terms` entries
    in all (16 bytes each); a longer table is returned but not kept, and a
    kernel is kept only where it fits beside its table.
    """

    def __init__(self, terms: int):
        self.terms = terms
        self.lock = threading.Lock()
        # an instance attribute, as on an lru_cache: code that calls
        # cache_clear() on every module-level value also meets the class
        self.cache_clear = self._clear
        self._clear()

    def _clear(self) -> None:
        """Drop every table and kernel."""
        with self.lock:
            self.held, self.tables, self.kernels = 0, {}, {}

    def __call__(self, n: int) -> np.ndarray:
        with self.lock:
            return self._table(n)

    def _table(self, n: int) -> np.ndarray:
        tab = self.tables.pop(n, None)
        if tab is None:
            tab = np.exp(-2j * np.pi * np.arange(n, dtype=np.int64) / n)
            tab.flags.writeable = False
            if n > self.terms:  # kept, it would push out every other table
                return tab
            self.held += n
        self.tables[n] = tab  # dicts keep insertion order: most recent last
        self._trim()
        return tab

    def _trim(self) -> None:
        while self.held > self.terms:
            n = next(iter(self.tables))
            self.held -= len(self.tables.pop(n))
            if self.kernels.pop(n, None) is not None:
                self.held -= n

    def kernel(self, h: int, n: int) -> np.ndarray:
        """e(-h u/n) for u < n, read from the table at h u mod n.

        With u = u1 + n1 u2 and n1 = ceil(sqrt n), h u mod n is the sum of
        the short progressions h u1 mod n and (h n1 mod n) u2 mod n, less n
        where it reaches n.  h is reduced mod n first, so every integer
        product stays below n (sqrt n + 1) < 2^40 up to the hard sum limit
        n = 2^26.
        """
        h %= n
        with self.lock:
            tab = self._table(n)
            h_kept, ker = self.kernels.get(n, (None, None))
            if h_kept == h:
                return ker
            n1 = math.isqrt(n - 1) + 1
            idx = (h * n1 % n * np.arange(-(-n // n1), dtype=np.int64) % n)[:, None] \
                + (h * np.arange(n1, dtype=np.int64) % n - n)
            ker = tab[idx.reshape(-1)[:n]]  # an index in [-n, 0) reads entry + n
            ker.flags.writeable = False
            if 2 * n <= self.terms:  # then its table is kept, most recent
                self.held += n * (h_kept is None)
                self.kernels[n] = (h, ker)
                self._trim()
        return ker


# Every table the default sum budget admits fits (docs/DECISIONS.md, 14).
_kernel_table = _KernelTables(1 << 22)


def _fourier_sum(ctx, I, h: int, d: int, lam: int, stride: int) -> np.ndarray:
    """n^-1 sum_{u<n} e(phase_u/m' - h u/n) over the `_phases` of each I.

    I is one offset vector or a stack (..., k), taken in slices of about
    _STACK_TERMS terms; n = q^(lam+m-1)/stride.
    """
    n = ctx.q ** (lam + ctx.m - 1) // stride
    kernel = _kernel_table.kernel(h, n)
    I = np.asarray(I, dtype=np.int64)
    flat, rows = I.reshape(-1, I.shape[-1]), max(1, _STACK_TERMS // n)
    sums = np.empty(len(flat), dtype=np.complex128)
    for s in range(0, len(flat), rows):
        sums[s:s + rows] = (ctx.phase_roots[_phases(ctx, flat[s:s + rows], d, lam, stride)]
                            * kernel).sum(axis=-1)
    return sums.reshape(I.shape[:-1]) / n


def _G(ctx, I, h: int, d: int, lam: int) -> np.ndarray:
    """G_lam^I(h, d) for one offset vector or each of a stack (..., k)."""
    return _fourier_sum(ctx, I, h, d, lam, ctx.q ** (ctx.m - 1))


def fourier_H(ctx: FourierContext, I_prime, h: int, d: int, lam=None) -> complex:
    """H_lam^I(h, d) for I in the start-normalized index set."""
    h, d, lam = _integer("h", h), _integer("d", d), _check_depth(ctx, lam)
    return complex(_fourier_sum(ctx, _offsets(ctx, I_prime, start=True), h, d, lam, 1))


def fourier_G(ctx: FourierContext, I, h: int, d: int, lam=None) -> complex:
    """G_lam^I(h, d) for I in the full index set."""
    h, d, lam = _integer("h", h), _integer("d", d), _check_depth(ctx, lam)
    return complex(_G(ctx, _offsets(ctx, I), h, d, lam))


def fourier_G_all_h(ctx: FourierContext, I, d: int, lam=None) -> np.ndarray:
    """G_lam^I(h, d) for every h < q^lam at once (one FFT)."""
    d, lam = _integer("d", d), _check_depth(ctx, lam)
    ph = _phases(ctx, [_offsets(ctx, I)], d, lam, ctx.q ** (ctx.m - 1))[0]
    return np.fft.fft(ctx.phase_roots[ph]) / ctx.q ** lam


def parseval_sum(ctx: FourierContext, I, d: int, lam=None) -> float:
    """sum_h |G_lam^I(h, d)|^2; equals 1 exactly for unimodular data."""
    spec = fourier_G_all_h(ctx, I, d, lam)
    return float(np.sum(np.abs(spec) ** 2))


def h_recursion_residual(ctx: FourierContext, I_prime, h: int, d: int,
                         delta: int, lam=None) -> float:
    """|H(h, q^(m-1) d + delta) - avg_eps e(-h eps/q^(lam+m-1)) G^(J)(h, d)|.

    J = J_{eps,delta}(I) = (i_l + l delta + eps)_l lands in the full
    index set; the residual is an exact-identity check.
    """
    h, d, delta = _integer("h", h), _integer("d", d), _integer("delta", delta)
    lam = _check_depth(ctx, lam)
    shift = ctx.q ** (ctx.m - 1)
    if not 0 <= delta < shift:
        raise ValueError(f"delta must lie in [0, q^(m-1)), got {delta}")
    I_prime = _offsets(ctx, I_prime, start=True)
    period = ctx.q ** (lam + ctx.m - 1)
    lhs = complex(_fourier_sum(ctx, I_prime, h, shift * d + delta, lam, 1))
    Js = [[i + ell * delta + eps for ell, i in enumerate(I_prime)]
          for eps in range(shift)]
    rhs = 0j
    for eps, g in enumerate(_G(ctx, Js, h, d, lam).tolist()):
        rhs += e_frac(-h * eps, period) * g
    rhs /= shift
    return abs(lhs - rhs)


def g_recursion_residual(ctx: FourierContext, I, h: int, d: int, j: int,
                         delta: int, lam=None) -> float:
    """Residual of the one-to-j-block recursion of G (exact identity).

    G_lam(h, q^j d + delta) should equal
    q^-j sum_eps e(-h eps/q^lam) v^j(I,eps,delta) G_{lam-j}^{T(I)}(h, d),
    that is q^-j (row I of M^j_delta(z)) . g with z = e(-h/q^lam) and
    g_J = G_{lam-j}^J(h, d) over the full index set.  The t-th digit
    factor of M^j_delta sees z^(q^t) = e(-h/q^(lam-t)), reduced exactly.
    """
    h, d, j, delta = (_integer(name, v) for name, v in
                      (("h", h), ("d", d), ("j", j), ("delta", delta)))
    lam = _check_depth(ctx, lam)
    if not 1 <= j <= lam:
        raise ValueError(f"need 1 <= j <= lam, got j={j}")
    p = ctx.q ** j
    if not 0 <= delta < p:
        raise ValueError(f"delta must lie in [0, q^j), got {delta}")
    I, Is = _offsets(ctx, I), ctx.index_vectors()
    lhs = complex(_G(ctx, I, h, p * d + delta, lam))
    A = _digit_matrices_at(ctx, -h, ctx.q ** lam, j)
    row = _digit_products(ctx, A, [delta])[0, Is.index(I)]
    rhs = complex(row @ _G(ctx, Is, h, d, lam - j)) / p
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# pair transfer matrices


@dataclass
class TransferMatrix:
    """Dense complex matrix over pair labels or single offset vectors."""

    entries: np.ndarray
    index: tuple
    path_counts: np.ndarray = None

    def row_sums(self) -> np.ndarray:
        return np.abs(self.entries).sum(axis=1)

    def norm_inf(self) -> float:
        return float(self.row_sums().max())


def _digit_matrices(ctx, zpow: np.ndarray) -> np.ndarray:
    """A_delta(z) for each row of powers z^eps, eps < q: (..., q, nI, nI)."""
    return np.tensordot(zpow, ctx.transfer_parts()[0], axes=([-1], [1]))


def _phase_schedule(q: int, nums, den: int, j: int) -> np.ndarray:
    """num q^t mod den for t < j on a last axis, one multiply-mod at a time, once
    0 < q |den| <= 2^53 is checked: then no product wraps and every eps r (eps < q,
    |r| < |den|) is an exact float64 integer (docs/DECISIONS.md, 26)."""
    if not 0 < q * abs(int(den)) <= 1 << 53:
        raise ValueError(f"exact beta needs 0 < q |den| <= 2^53, got den = {den}")
    r = np.asarray(nums % den, dtype=np.int64)
    R = np.empty(r.shape + (j,), dtype=np.int64)
    for t in range(j):
        R[..., t], r = r, r * q % den
    return R


def _digit_matrices_at(ctx, nums, den: int, j: int) -> np.ndarray:
    """A_delta(e(num q^t/den)) for t < j: (..., j, q, nI, nI).  Each phase
    eps (num q^t mod den)/den is divided before the 2 pi, so equal rationals
    over any den give equal matrices."""
    R = _phase_schedule(ctx.q, nums, den, j)[..., None] * np.arange(ctx.q) % den
    return _digit_matrices(ctx, np.exp(2j * np.pi * (R / den)))


def _digit_products(ctx, A, deltas) -> np.ndarray:
    """M^j_delta(z) per delta mod q^j, in the order of deltas: (..., len, nI, nI).

    A is an array with A[..., t, d] = A_d(z^(q^t)), (..., j, q, nI, nI), or a list
    of j level stacks over n points, A[t] of shape (s_t, q, nI, nI) with s_0 = n and
    s_t dividing n, point i taking A[t][i // (n / s_t)]; an empty list gives the
    empty product once.  Level t multiplies the kept prefixes by its digit matrices
    in one GEMM a factor, over the points that share it (docs/DECISIONS.md, 29),
    keeping the residues mod q^(t+1) that deltas continue, so deltas sharing low
    digits share leading factors.
    """
    if isinstance(A, np.ndarray):  # one factor a point: each level's stack is n long
        batch = A.shape[:-4]
        A = A.reshape((math.prod(batch),) + A.shape[-4:]).swapaxes(0, 1)
    else:
        batch = A[0].shape[:1] if A else ()
    q, j, nI, n = ctx.q, len(A), len(ctx.index_vectors()), math.prod(batch)
    want = [int(d) % q ** j for d in deltas]
    P, kept = None, [0]
    for t, At in enumerate(A):
        p = q ** t
        res = {d % (q * p) for d in want}
        lo, hi = min(res) // p, max(res) // p + 1
        kept = [r + p * d for r in kept for d in range(lo, hi)]
        if t == 0:
            P = At[:, lo:hi]  # a view: each level's digits form one range
        else:  # every kept prefix times every digit matrix, digits side by side
            s = len(At)
            P = P.reshape(s, -1, nI) @ At[:, lo:hi].swapaxes(-3, -2).reshape(s, nI, -1)
            P = P.reshape(n, -1, nI, hi - lo, nI).swapaxes(-3, -2)
        if len(kept) > len(res):  # drop candidates no delta continues
            keep = [r in res for r in kept]
            P = P.reshape(n, -1, nI, nI)[:, keep]
            kept = [r for r in kept if r in res]
    if P is None:  # j = 0: the empty product
        P = np.broadcast_to(np.eye(nI, dtype=np.complex128), (n, 1, nI, nI)).copy()
    P = P.reshape(batch + (-1, nI, nI))
    pos = {r: i for i, r in enumerate(kept)}
    return P if kept == want else P[..., [pos[d] for d in want], :, :]


def _low_digits_first(q: int, j: int, deltas) -> list:
    """Positions of deltas < q^j by base-q digits, lowest first: `_digit_products`' order."""
    return sorted(range(len(deltas)), key=lambda i: [deltas[i] // q ** t % q for t in range(j)])


def _kron_sum(P: np.ndarray, i=slice(None), k=slice(None)) -> np.ndarray:
    """Rows (i, k) of sum_s P_s (x) conj(P_s), s on axis -3 of P, as [..., i, j, k, l]:
    the entry at row (i, k), column (j, l), an int i or k dropping its axis.  One
    GEMM X_i^T conj(X_k), where X_i stacks rows i of every P_s, one P_s a row."""
    Xi, Xk = P[..., i, :], P[..., k, :]
    b = P.ndim - 2  # the axes up to s
    G = Xi.reshape(Xi.shape[:b] + (-1,)).swapaxes(-1, -2) @ Xk.reshape(Xk.shape[:b] + (-1,)).conj()
    return G.reshape(Xi.shape[:b - 1] + Xi.shape[b:] + Xk.shape[b:])


def build_transfer_matrix(ctx: FourierContext, beta) -> TransferMatrix:
    """M(beta) over index-vector pairs, with its path-count companion.

    beta may be a float or an exact (num, den) pair.  Routing the q^3
    one-digit steps (eps1, eps2, delta) from row (I, I') to column
    (T(I), T(I')) with weight q^-3 e(-(eps1-eps2) beta) v conj(v) gives
    M(beta) = q^-3 sum_delta A_delta(z) (x) conj(A_delta(z)), z = e(-beta),
    and path counts sum_delta N_delta (x) N_delta.
    """
    q, labels = ctx.q, ctx.pair_labels()
    if isinstance(beta, tuple):
        A = _digit_matrices_at(ctx, -int(beta[0]), beta[1], 1)[0]
    else:
        A = _digit_matrices(ctx, np.exp(-2j * np.pi * float(beta) * np.arange(q)))
    entries, counts = (_kron_sum(P).swapaxes(1, 2).reshape(len(labels), -1)
                       for P in (A, ctx.transfer_parts()[1]))
    return TransferMatrix(entries=entries / q ** 3, index=labels, path_counts=counts)


def psi_vector(ctx: FourierContext, h: int, lam: int, lam_prime: int) -> np.ndarray:
    """d-averaged pair correlations Phi via the matrix recursion.

    Phi_{lam,lam'}^{I,I'}(h) = avg_{d<q^lam'} G^I(h,d) conj(G^I'(h,d))
    equals the lam'-fold product of transfer matrices applied to the
    depth lam-lam' seed vector.  On the nI x nI matrix X of that vector,
    M(beta) acts as X -> q^-3 sum_delta A_delta X A_delta^H.
    """
    if not 0 <= lam_prime <= lam:
        raise ValueError("need 0 <= lam' <= lam")
    base = _G(ctx, ctx.index_vectors(), h, 0, _check_depth(ctx, lam - lam_prime))
    X = np.outer(base, base.conjugate())
    # A[t] at beta = h/q^(lam-t), formed for all lam: one GEMM shape, so one rounding, at any lam'
    A = _digit_matrices_at(ctx, -h, ctx.q ** lam, lam)
    for F in A[:lam_prime][::-1]:
        X = (F @ X @ F.conj().swapaxes(-1, -2)).sum(axis=0) / ctx.q ** 3
    return X.reshape(-1)


# ----------------------------------------------------------------------
# contraction condition checks


def stratified_samples(total: int, cap: int) -> list:
    """Deterministic evenly spread sample of [0, total)."""
    if total <= cap:
        return list(range(total))
    return sorted({(i * total) // cap for i in range(cap)})


@dataclass(frozen=True)
class ConditionReport:
    name: str
    lam: int
    window: int
    c0: float
    eta: float
    h_count: int
    windows_checked: int
    worst_margin: float
    worst_at: tuple = None      # (h, ell_hi, row) of the worst margin
    violations: tuple = ()
    wrong_branch: bool = False

    @property
    def ok(self) -> bool:
        return not self.wrong_branch and self.worst_margin >= -_EXACT_TOL

    def to_dict(self):
        d = asdict(self)
        return {"check": d.pop("name"), **d,
                "worst_at": None if self.worst_at is None else list(self.worst_at),
                "violations": [list(v) for v in self.violations], "ok": self.ok}


# Byte cap on the matrices formed at once (docs/DECISIONS.md, 4, 12, 13, 27 and 28):
# the condition windows' key batches, sized at nI^3 complex values a key, so RS
# k=2 takes 606 keys at a time, RS k=3 22 and RS k=4 one; condition 1's row blocks
# (k, i), at width^2 values a row on its width reachable columns, so RS k=4 forms
# all 54 rows of a block at 30 of 54 columns in one GEMM; and the saving sweep's
# products of a chunk of deltas over the z grid, 14 deltas at a time for RS k=2 at
# a 256-point grid, or of one delta over a block of grid points where one delta's
# products over the whole grid pass the cap (docs/DECISIONS.md, 29).
_WINDOW_BYTES = 1 << 21


def _window_report(ctx, name, h_samples, lam, width, c0, eta, margins_of):
    """Report on every width-wide window, top ell_hi = lam down to width.

    The window at (h, ell_hi) is M(beta) M(q beta) ... M(q^(w-1) beta),
    beta = g/q^lam with key g = h q^(lam - ell_hi) mod q^lam (the phase
    schedule of h), so each distinct key is formed once.  margins_of(A)
    maps the factors A[key, i] = A_delta(e(-g q^i/q^lam)), i < width, of a
    batch of keys to margins of shape (key, row); a batch holds as many keys
    as nI^3 complex values each fit in _WINDOW_BYTES.  The worst margin, where
    it fell and the first 16 violations are read in h, then ell_hi order.
    """
    if h_samples is None:
        h_samples = stratified_samples(ctx.q ** lam, 1 << 10)  # windows see h mod q^lam
    if len(h_samples) == 0:
        raise ValueError("h_samples must not be empty")
    top = ctx.q ** lam
    keys, inv = np.unique(_phase_schedule(ctx.q, np.array(h_samples, dtype=object), top,
                                          lam - width + 1), return_inverse=True)
    fit = max(1, _WINDOW_BYTES // (16 * len(ctx.index_vectors()) ** 3))
    lo, rows = np.empty(keys.size), np.empty(keys.size, dtype=np.int64)
    for s in range(0, keys.size, fit):
        margins = margins_of(_digit_matrices_at(ctx, -keys[s:s + fit], top, width))
        lo[s:s + fit], rows[s:s + fit] = margins.min(axis=1), margins.argmin(axis=1)
    lo, rows = lo[inv], rows[inv]
    b, w = np.unravel_index(np.argmin(lo), lo.shape)
    return ConditionReport(
        name=name, lam=lam, window=width, c0=c0, eta=eta,
        h_count=len(h_samples), windows_checked=lo.size, worst_margin=float(lo[b, w]),
        worst_at=(int(h_samples[b]), lam - int(w), int(rows[b, w])),
        violations=tuple((int(h_samples[b]), lam - int(w), int(rows[b, w]), float(lo[b, w]))
                         for b, w in np.argwhere(lo < -_EXACT_TOL)[:16]),
    )


def check_condition1(ctx: FourierContext, h_samples=None, lam=None) -> ConditionReport:
    """Row condition on every m0-window of pair-matrix products.

    Each row of such a product must either put at least c0 = q^-3m0 / 2
    of absolute mass on the (0,0) column or have absolute row sum at
    most 1 - q^-3m0.  Failures are reported, never raised.

    By the mixed-product rule a window M(h/q^ell_hi) ... M(h/q^ell_lo) is
    q^-3w sum_s P_s (x) conj(P_s) over the q^w digit sequences s, with
    P_s = A_{s_1}(z_hi) ... A_{s_w}(z_lo).  Row (i, k) holds the conjugates
    of row (k, i) with columns (j, l) and (l, j) swapped, so both have one
    margin: only rows (k, i) with k >= i are formed, one GEMM of the stacked
    P_s per i and block of k.  On that tie worst_at names the row (i, k) with
    i <= k.  Row k of every P_s is an exact zero off the columns that some
    m0-step path from k reaches (`FourierContext.reach_columns`), so row
    (k, i) is formed only at the columns (l, j) with l reached from k and j
    from i; where every row reaches every column, P_s is taken as it is.
    """
    ctx.require_nonzero_alpha("condition check")
    lam = ctx.lam if lam is None else lam
    m0 = ctx.m0()
    if lam < m0:
        raise ValueError(f"need lam >= m0 = {m0}")
    eta = float(ctx.q) ** (-3 * m0)
    every = _low_digits_first(ctx.q, m0, range(ctx.q ** m0))  # each s once: no pruning
    cols = ctx.reach_columns(m0)
    width = cols.shape[1]

    def margins_of(A):
        P = _digit_products(ctx, A, every)
        keys, nI = len(P), P.shape[-1]
        if width < nI:  # row k of every P_s is exactly zero off cols[k]
            P = np.take_along_axis(P, cols[None, None], axis=-1)
        out = np.empty((keys, nI, nI))
        step = max(1, _WINDOW_BYTES // (16 * keys * width * width))  # rows a GEMM
        for i in range(nI):  # rows (k, i), k >= i: row (i, k) has the conjugate entries
            for k in range(i, nI, step):
                # row (k, i) at column (cols[k][c], cols[i][d]), stored at [c, d]
                G = np.abs(_kron_sum(P, slice(k, k + step), i))
                m = np.maximum(eta * G[:, :, 0, 0] - eta / 2.0,
                               (1.0 - eta) - eta * G.sum(axis=(2, 3)))
                out[:, k:k + step, i] = out[:, i, k:k + step] = m
        return out.reshape(keys, -1)

    return _window_report(ctx, "condition1", h_samples, lam, m0, eta / 2.0, eta,
                          margins_of)


def check_condition2(ctx: FourierContext, h_samples=None, lam=None) -> ConditionReport:
    """First-row contraction of every m1-window of pair-matrix products.

    Applies in the integer-K regime: the absolute sum of the (0,0) row
    must drop below 1 - 4 sin^2(pi/2m') q^-3m1.  Non-integer K is
    reported as wrong-branch instead of raising.  The row is propagated
    as an nI x nI matrix: X -> q^-3 sum_delta A_delta^T X conj(A_delta).
    """
    ctx.require_nonzero_alpha("condition check")
    lam = ctx.lam if lam is None else lam
    m1 = ctx.m1_pair()
    eta = ctx.eta_pair()
    if not ctx.alpha.is_integer_K:
        return ConditionReport(name="condition2", lam=lam, window=m1, c0=0.0, eta=eta, h_count=0,
                               windows_checked=0, worst_margin=math.nan, wrong_branch=True)
    if lam < m1:
        raise ValueError(f"need lam >= m1 = {m1}")

    def margins_of(A):
        nI = A.shape[-1]
        X = np.zeros((A.shape[0], nI, nI), dtype=np.complex128)
        X[:, 0, 0] = 1.0
        for t in range(m1):
            F = A[:, t]
            X = (F.swapaxes(-1, -2) @ X[:, None] @ F.conj()).sum(axis=1) / ctx.q ** 3
        return (1.0 - eta) - np.abs(X).sum(axis=(1, 2))[:, None]

    return _window_report(ctx, "condition2", h_samples, lam, m1, 0.0, eta, margins_of)


# ----------------------------------------------------------------------
# average decay profile (integer-K regime)


@dataclass(frozen=True)
class DecayProfileRow:
    lam: int
    lam_prime: int
    h_avg: float          # avg_d |H_lam(h,d)|^2
    g_avg: float          # avg_d |G_lam(h,d)|^2, brute force
    g_avg_matrix: float   # same quantity through the matrix recursion


@dataclass(frozen=True)
class DecayProfile:
    rows: tuple
    strictly_decreasing: bool
    fitted_rate: float          # lsq slope of log(h_avg) vs lam
    max_matrix_residual: float  # worst |g_avg - g_avg_matrix|

    def to_dict(self):
        return asdict(self)


def prop1_decay_profile(ctx: FourierContext, I_prime, h: int,
                        lambda_grid) -> DecayProfile:
    """d-averaged |H|^2 across depths, cross-checked against the matrices.

    The average uses lam' = ceil(lam/2) and should shrink geometrically
    in lam for integer K; the G-average equals a pair-matrix product
    entry, giving an independent recomputation per row.  The pair
    (I', d) reads the phases of the row I' + stride d (0, 1, .., k-1) at
    d = 0, so each depth takes one stacked H and one stacked G sum.
    """
    ctx.require_nonzero_alpha("decay profile")
    if not ctx.alpha.is_integer_K:
        raise ValueError("average decay profile applies to integer K")
    I_prime, h = _offsets(ctx, I_prime, start=True), _integer("h", h)
    lambda_grid = [int(lam) for lam in lambda_grid]
    if len(set(lambda_grid)) < 2:  # the fitted rate is a slope through the rows
        raise ValueError("lambda_grid needs at least two distinct depths")
    Is = ctx.index_vectors()
    at = Is.index(I_prime) * (len(Is) + 1)  # the (I', I') pair entry
    rows = []
    for lam in lambda_grid:
        lam_prime = (lam + 1) // 2
        n = ctx.q ** lam_prime
        budget_check("sum", n * ctx.q ** (lam + ctx.m - 1), "decay profile row")
        _check_depth(ctx, lam)
        d_ell = np.arange(n, dtype=np.int64)[:, None] * np.arange(ctx.k)
        H = _fourier_sum(ctx, I_prime + d_ell, h, 0, lam, 1)
        G = _G(ctx, I_prime + ctx.q ** (ctx.m - 1) * d_ell, h, 0, lam)
        h_avg = g_avg = 0.0
        for hd, gd in zip(H.tolist(), G.tolist()):  # in d order
            h_avg += abs(hd) ** 2
            g_avg += abs(gd) ** 2
        h_avg /= n
        g_avg /= n
        g_mat = float(psi_vector(ctx, h, lam, lam_prime)[at].real)
        rows.append(DecayProfileRow(lam=lam, lam_prime=lam_prime,
                                    h_avg=h_avg, g_avg=g_avg,
                                    g_avg_matrix=g_mat))
    decreasing = all(b.h_avg < a.h_avg for a, b in zip(rows, rows[1:]))
    xs = np.array([r.lam for r in rows], dtype=float)
    ys = np.log([max(r.h_avg, 1e-300) for r in rows])
    rate = float(np.polyfit(xs, ys, 1)[0])
    residual = max(abs(r.g_avg - r.g_avg_matrix) for r in rows)
    return DecayProfile(rows=tuple(rows), strictly_decreasing=decreasing,
                        fitted_rate=rate, max_matrix_residual=residual)


# ----------------------------------------------------------------------
# single-index matrices and the non-integer-K saving


def small_matrix_M(ctx: FourierContext, j: int, delta: int, z: complex) -> TransferMatrix:
    """M^j_delta(z) over single offset vectors.

    Entry (I, J) collects z^eps v^j(I, eps, delta) over eps < q^j with
    T^j_{eps,delta}(I) = J.  Row norms never exceed q^j.  Built as the
    product A_{delta_0}(z) A_{delta_1}(z^q) ... of one-digit matrices.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    budget_check("sum", ctx.q ** j, "single-index matrix")
    zt = np.array([complex(z) ** ctx.q ** t for t in range(j)], dtype=np.complex128)
    A = _digit_matrices(ctx, zt[:, None] ** np.arange(ctx.q))
    return TransferMatrix(entries=_digit_products(ctx, A, [delta])[0],
                          index=ctx.index_vectors())


def _grid_row_sums(ctx, j: int, deltas: list, grid: int):
    """(points, positions, sums) per block of grid points and chunk of deltas whose
    products fit _WINDOW_BYTES, formed as read: sums[i, k, r] = sum_J
    |M^j_delta(e(g/grid))[r, J]| at g = points[i] and the distinct delta =
    deltas[positions[k]], low digits first so that chunks share leading factors.

    Level t's factors depend on g mod s_t only, s_t = grid / gcd(grid, q^t)
    (docs/DECISIONS.md, 29).  A block is a run of consecutive g, the longest that
    one delta's products fit such that each s_t is at least its size or divides
    it; its points are sorted so that each level's classes are contiguous, and it
    forms each distinct factor once.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    q, nI = ctx.q, len(ctx.index_vectors())
    budget_check("sum", q ** j, "single-index matrix")
    if not deltas:
        raise ValueError("deltas must not be empty")
    s = [grid // math.gcd(grid, q ** t) for t in range(j)]
    size = next(b for b in range(min(grid, max(1, _WINDOW_BYTES // (16 * nI * nI))), 0, -1)
                if all(b <= st or b % st == 0 for st in s))
    full, rest = divmod(grid, size)  # a block of n points has min(n, s_t) classes at level t
    formed = sum(full * min(size, st) + min(rest, st) for st in s) * q * nI * nI
    budget_check("sum", formed, "root-grid factor stack")
    r = np.arange(size)
    sort = np.lexsort([r] + [r % st for st in s])  # by g mod s_(j-1), ..., g mod s_0
    order, fit = _low_digits_first(q, j, deltas), max(1, _WINDOW_BYTES // (16 * grid * nI * nI))

    def blocks():
        for start in range(0, grid, size):
            points = start + sort[sort < grid - start]  # the last block may be short
            classes = [min(len(points), st) for st in s]
            R, A = _phase_schedule(q, points, grid, j), []
            if j:  # every level in one tensordot stack, read at each class's first point;
                # a one-row stack rounds otherwise, so a lone row is doubled unless the
                # per-point stack had one row too (grid = j = 1)
                heads = np.concatenate([R[::len(points) // c, t] for t, c in enumerate(classes)])
                rows = np.resize(heads, max(heads.size, min(2, grid * j)))
                A = np.split(_digit_matrices_at(ctx, rows, grid, 1)[:heads.size, 0],
                             np.cumsum(classes)[:-1])
            for c in range(0, len(order), fit):
                pos = order[c:c + fit]
                sums = np.abs(_digit_products(ctx, A, [deltas[i] for i in pos])).sum(axis=-1)
                yield points, pos, sums
            del A  # before the next block's factors are formed

    return blocks()


def small_matrix_norms_on_root_grid(ctx: FourierContext, j: int, delta,
                                    grid: int = 256) -> np.ndarray:
    """inf-norm of M^j_delta(z) at every z = e(t/grid), t < grid.

    delta is one int, giving shape (grid,), or a non-empty sequence of
    them, giving (grid, len(delta)).
    """
    keys, inv = np.unique(np.atleast_1d(delta) % ctx.q ** j, return_inverse=True)
    rows = _grid_row_sums(ctx, j, keys.tolist(), grid)  # checks grid before out is sized
    out = np.empty((grid, keys.size))
    for points, pos, sums in rows:
        out[np.ix_(points, pos)] = sums.max(axis=-1)
    return out[:, inv] if np.ndim(delta) else out[:, 0]


@dataclass(frozen=True)
class SavingSweepReport:
    """Row norms of M^m1_delta(z) over the checked deltas and a z grid.

    worst_norm is the maximum on the grid z = e(t/grid), a lower bound on
    the supremum over the unit circle.  certified_upper is a proven upper
    bound on that supremum for the same deltas: each row sum is
    2 pi sum_{eps < q^m1} eps - Lipschitz in t, and every t lies within
    1/(2 grid) of a grid point; it is capped at the trivial q^m1.
    deltas_checked counts the distinct deltas mod q^m1, since M^m1_delta
    depends on delta mod q^m1 only.
    """

    m1: int
    eta_prime: float
    bound: float
    deltas_checked: int
    grid: int
    worst_norm: float
    certified_upper: float

    @property
    def ok(self) -> bool:
        return self.worst_norm <= self.bound + _TOL

    def to_dict(self):
        return {**asdict(self), "ok": self.ok}


def prop2_saving_sweep(ctx: FourierContext, deltas=None,
                       grid: int = 256) -> SavingSweepReport:
    """Check the fixed row-norm saving of M^m1_delta(z) on a z grid.

    In the non-integer-K regime the norm must stay below
    q^m1 - eta for every delta and unimodular z, with eta the saving the
    witness construction proves (`FourierContext.eta_single`).  `ok`
    compares the grid maximum; `certified_upper` bounds the supremum.
    """
    ctx.require_nonzero_alpha("saving sweep")
    if ctx.alpha.is_integer_K:
        raise ValueError("row-norm saving applies to non-integer K")
    m1 = ctx.m1_single()
    eta_p = ctx.eta_single()
    p = ctx.q ** m1
    deltas = list({int(d) % p for d in (range(p) if deltas is None else deltas)})
    worst = max(float(sums.max()) for *_, sums in _grid_row_sums(ctx, m1, deltas, grid))
    slack = math.pi / grid * (p * (p - 1) // 2)
    return SavingSweepReport(m1=m1, eta_prime=eta_p, bound=float(p) - eta_p,
                             deltas_checked=len(deltas), grid=grid, worst_norm=worst,
                             certified_upper=min(worst + slack, float(p)))


# ----------------------------------------------------------------------
# constructive witness for the saving


@dataclass(frozen=True)
class WitnessRecord:
    """Constructive certificate for the row-norm saving at one (I, delta).

    eps1/eps2 are consecutive-eps collision pairs: both T-images agree
    with their eps+1 neighbours.  When the pairs are disjoint
    (argument "two-pair") the two two-term weight sums cannot align,
    costing a fixed 8 sin^2(pi/4m') of row norm for every z.  When they
    share an eps (argument "chain", only for m = 1 at x0 = 0) they form
    one colliding chain s, s+1, s+2 whose three-term sum stays below
    3 - eta3, costing eta3 = 3 - sqrt(5 + 4 cos(pi/m')).  eta_prime is the
    saving the record proves and max_pair_sum the z-grid maximum of the
    sum it bounds (two pair sums against 4 - eta_prime, or the chain sum
    against 3 - eta_prime).
    """

    I: tuple
    delta: int
    d_key: int                 # value classifying offsets, reduced mod q^m1
    x0: int
    c0: int
    c0_plus: int
    e1: int
    e2: int
    d: int                     # boundary-jump difference with d*beta not in Z
    eps1: int
    eps2: int
    m1_prime: int
    beta_c0_num: int           # numerator of beta_{x0,c0} mod m'
    eta_prime: float
    xi_gap_num: int            # numerator of xi1 - xi2 mod m' (nonzero)
    max_pair_sum: float        # max over the z grid of the two-term sums
    clause_T_ok: bool
    clause_v_ok: bool
    wrapped: bool              # eps+1 left [0, q^m1'), reduced per extension
    argument: str              # "two-pair" or "chain"

    @property
    def verified(self) -> bool:
        return self.clause_T_ok and self.clause_v_ok

    def to_dict(self):
        return {**asdict(self), "I": list(self.I), "verified": self.verified}


# the 256-point z grid on which find_saving_witness checks its bounds
_WITNESS_GRID = np.exp(2j * np.pi * np.arange(256) / 256)
_WITNESS_GRID.flags.writeable = False


@lru_cache(maxsize=1 << 12)
def _witness_grid_max(m_prime: int, argument: str, phases: tuple) -> float:
    """The witness's weight-sum maximum over _WITNESS_GRID, memoized by its
    whole input: m', the argument and the phase numerators.

    "chain" phases (v0, v1, v2) give max_z |e(v0/m') + z e(v1/m') + z^2 e(v2/m')|,
    "two-pair" phases ((a, b), (a', b')) give max_z of |e(a/m') + z e(b/m')| +
    |e(a'/m') + z e(b'/m')|.
    """
    roots, zg = roots_of_unity(m_prime), _WITNESS_GRID
    if argument == "chain":
        v0, v1, v2 = phases
        return float(np.abs(roots[v0] + zg * roots[v1] + zg ** 2 * roots[v2]).max())
    return float(sum(np.abs(roots[a] + zg * roots[b]) for a, b in phases).max())


def find_saving_witness(ctx: FourierContext, I, delta: int) -> WitnessRecord:
    """Build and verify the saving certificate for one (I, delta).

    Walks the key partition until it stabilizes over one (4m-2)-digit
    step (level x0), picks the smallest class residue c0 whose
    coefficient mass beta is non-integral, pulls a boundary-difference
    pair (e1, e2, d) for that beta, and forms the collision offsets
    eps_i = q^(x0+m-1)(e_i+1) - c0_plus - 1 mod q^(x0+4m-2).  Both
    clauses (T-collision and the weight-sum bound) are verified on the
    spot; a failure on conforming input raises, since the construction
    is unconditional.  The weight-sum bound is the two-pair one when the
    pairs {eps_i, eps_i+1} are disjoint and the three-term chain one when
    they overlap (eps2 - eps1 = q^(x0+m-1)(e2 - e1) = +-1, so m = 1).
    """
    from .digital import find_difference_witness

    ctx.require_nonzero_alpha("saving witness")
    if ctx.alpha.is_integer_K:
        raise ValueError("saving witness applies to non-integer K")
    I, delta = _offsets(ctx, I), _integer("delta", delta)
    q, m, k, mp = ctx.q, ctx.m, ctx.k, ctx.m_prime
    m1 = ctx.m1_single()
    step = 4 * m - 2
    dd = delta % q ** m1
    shift = q ** (m - 1)

    keys = [I[ell] // shift + dd * ell for ell in range(k)]

    # classes mod q^(x+step) refine those mod q^x, so the two partitions
    # agree exactly when their class counts do; a count starts at 1, never
    # falls and never passes k, so some x <= step (k-1) is stable
    # (docs/DECISIONS.md, 19)
    x0 = next(x for x in range(step * (k - 1) + 1)
              if len({key % q ** x for key in keys})
              == len({key % q ** (x + step) for key in keys}))

    beta_nums, plus = {}, {}
    for key, num in zip(keys, ctx.alpha.numerators):
        c = key % q ** x0
        beta_nums[c] = (beta_nums.get(c, 0) + num) % mp
        plus.setdefault(c, key % q ** (x0 + step))
    # the class masses add up to K_num, nonzero for non-integer K
    c0 = min(c for c, b in beta_nums.items() if b)
    beta_num, c0_plus = beta_nums[c0], plus[c0]

    e1, e2, d = find_difference_witness(ctx.f, beta_num)

    m1p = x0 + step
    pm1p = q ** m1p
    eps = [(q ** (x0 + m - 1) * (e + 1) - c0_plus - 1) % pm1p for e in (e1, e2)]
    wrapped = any(e + 1 == pm1p for e in eps)

    delta_red = delta % pm1p
    clause_T = all(
        _T(ctx, I, e, delta_red, m1p) == _T(ctx, I, (e + 1) % pm1p, delta_red, m1p)
        for e in eps
    )

    ph = [(weight_v_phase(ctx, I, e, delta_red, m1p),
           weight_v_phase(ctx, I, (e + 1) % pm1p, delta_red, m1p))
          for e in eps]
    xi = [(b - a) % mp for a, b in ph]
    xi_gap = (xi[0] - xi[1]) % mp

    gap = (eps[1] - eps[0]) % pm1p
    if gap in (1, pm1p - 1):
        # the pairs share an eps: bound the chain s, s+1, s+2 as a whole,
        # which needs its z exponents consecutive (no wrap past q^m1')
        argument = "chain"
        eta_p = eta_chain(mp)
        first = 0 if gap == 1 else 1
        (v0, v1), (_, v2) = ph[first], ph[1 - first]
        max_pair = _witness_grid_max(mp, argument, (v0, v1, v2))
        bounded = eps[first] + 2 < pm1p and max_pair <= 3.0 - eta_p + _TOL
    else:
        argument = "two-pair"
        eta_p = eta_pair_witness(mp)
        max_pair = _witness_grid_max(mp, argument, tuple(ph))
        bounded = max_pair <= 4.0 - eta_p + _TOL
    clause_v = xi_gap != 0 and bounded

    record = WitnessRecord(
        I=I, delta=delta, d_key=dd, x0=x0, c0=c0, c0_plus=c0_plus,
        e1=e1, e2=e2, d=d, eps1=eps[0], eps2=eps[1], m1_prime=m1p,
        beta_c0_num=beta_num, eta_prime=eta_p, xi_gap_num=xi_gap,
        max_pair_sum=max_pair, clause_T_ok=clause_T, clause_v_ok=clause_v,
        wrapped=wrapped, argument=argument,
    )
    if not record.verified:
        raise RuntimeError(f"witness verification failed: {record.to_dict()}")
    return record


# ----------------------------------------------------------------------
# uniform decay check (non-integer-K regime)


@dataclass(frozen=True)
class UniformDecayRow:
    L: int
    h_abs: float
    g_max: float
    scale: float      # q^(-eta L)
    bound: float      # scale * g_max
    ratio: float


@dataclass(frozen=True)
class UniformDecayReport:
    eta: float
    m1: int
    rows: tuple
    empirical_constant: float

    def to_dict(self):
        return asdict(self)


def prop2_decay_check(ctx: FourierContext, I_prime, h: int, d: int,
                      L_grid) -> UniformDecayReport:
    """Compare |H_lam(h,d)| against q^(-eta L) max_J |G_{lam-L}(h, d/q^L)|.

    eta = eta_single / (q^m1 log q^m1) with m1 = (4m-2)k, where eta_single
    is the proven row-norm saving (8 sin^2(pi/4m') for m >= 2, the chain
    saving for m = 1).  The implied constant is reported, not asserted.
    """
    ctx.require_nonzero_alpha("uniform decay check")
    if ctx.alpha.is_integer_K:
        raise ValueError("uniform decay check applies to non-integer K")
    I_prime, h, d = _offsets(ctx, I_prime, start=True), _integer("h", h), _integer("d", d)
    L_grid = [int(L) for L in L_grid]
    if not L_grid:
        raise ValueError("L_grid must not be empty")
    m1 = ctx.m1_single()
    eta = ctx.eta_single() / (ctx.q ** m1 * math.log(ctx.q ** m1))
    lam = ctx.lam
    Is = ctx.index_vectors()
    h_abs = abs(fourier_H(ctx, I_prime, h, d, lam))
    rows = []
    worst = 0.0
    for L in L_grid:
        if not 0 <= L <= lam:
            raise ValueError(f"need 0 <= L <= lam, got L={L}")
        g_max = max(map(abs, _G(ctx, Is, h, d // ctx.q ** L, lam - L).tolist()))
        scale = float(ctx.q) ** (-eta * L)
        bound = scale * g_max
        ratio = h_abs / bound if bound > 0 else (0.0 if h_abs == 0 else math.inf)
        worst = max(worst, ratio)
        rows.append(UniformDecayRow(L=L, h_abs=h_abs, g_max=g_max,
                                    scale=scale, bound=bound, ratio=ratio))
    return UniformDecayReport(eta=eta, m1=m1, rows=tuple(rows),
                              empirical_constant=worst)
