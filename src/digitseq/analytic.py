"""Quadratic Gauss sums, extremal trigonometric approximation, Van der
Corput smoothing and carry-propagation counts.

Every operation that has an explicit closed-form bound returns both the
computed value and the bound, so callers can assert value <= bound; the
order-of-growth statements (carry counts) instead report the empirical
constant count / expected_power.  Phases of quadratic sums are reduced
exactly as integers modulo the denominator before any float enters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .budget import check as budget_check
from .digital import (
    DigitalFunction,
    _prime_factors,
    _rem,
    eval_b_band_many,
    eval_b_many,
)
from .phases import frac_norm, roots_of_unity

_TOL = 1e-9


def divisor_count(n: int) -> int:
    """tau(n): number of positive divisors, prod (e + 1) over p^e || n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.prod(e + 1 for e in _prime_factors(n).values())


def distinct_prime_count(n: int) -> int:
    """omega(n): number of distinct prime factors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return len(_prime_factors(n))


# ----------------------------------------------------------------------
# quadratic exponential sums


@dataclass(frozen=True)
class BoundedValue:
    """A computed complex value next to its proven upper bound."""

    value: complex
    bound: float

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def margin(self) -> float:
        return self.bound - self.magnitude

    @property
    def ok(self) -> bool:
        return self.margin >= -_TOL


def _quadratic_phase_sum(a: int, b: int, m: int, ns: np.ndarray) -> complex:
    # every operand is nonnegative, so floor division reduces as % does
    phases = _rem(a % m * _rem(ns * ns, m) + b % m * ns, m)
    counts = np.bincount(phases, minlength=m)
    return complex(counts @ roots_of_unity(m))


def gauss_sum(a: int, b: int, m: int) -> BoundedValue:
    """Full quadratic Gauss sum sum_{n<m} e((a n^2 + b n)/m).

    The magnitude never exceeds sqrt(2 m gcd(a, m)); the value is
    m-periodic in b.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    budget_check("sum", m, "Gauss sum")
    ns = np.arange(m, dtype=np.int64)
    value = _quadratic_phase_sum(a, b, m, ns)
    return BoundedValue(value=value, bound=math.sqrt(2 * m * math.gcd(a, m)))


def incomplete_gauss_sum(a: int, b: int, m: int, n0: int, N: int) -> BoundedValue:
    """sum_{n=n0+1}^{n0+N} e((a n^2 + b n)/m) with its completion bound."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    budget_check("sum", max(N, 1), "incomplete Gauss sum")
    budget_check("sum", m, "incomplete Gauss sum modulus")
    if N == 0:
        value = 0j
    else:
        ns = _rem((n0 + 1) % m + np.arange(N, dtype=np.int64), m)
        value = _quadratic_phase_sum(a, b, m, ns)
    bound = (N / m + 1 + (2 / math.pi) * math.log(2 * m / math.pi)) \
        * math.sqrt(2 * m * math.gcd(a, m))
    return BoundedValue(value=value, bound=bound)


def geometric_min_bound(xi: float, L1: int, L2: int) -> BoundedValue:
    """sum_{L1 < l <= L2} e(l xi) against min(L2-L1, 1/|sin pi xi|)."""
    if L1 > L2:
        raise ValueError("need L1 <= L2")
    ls = np.arange(L1 + 1, L2 + 1, dtype=np.int64)
    value = complex(np.exp(2j * np.pi * ((ls * xi) % 1.0)).sum()) if ls.size else 0j
    s = abs(math.sin(math.pi * xi))
    bound = float(L2 - L1) if s == 0.0 else min(float(L2 - L1), 1.0 / s)
    return BoundedValue(value=value, bound=bound)


@dataclass(frozen=True)
class SinusSumReport:
    """Single and averaged sums of min(U, 1/|sin|) along a progression."""

    single_sum: float
    single_bound: float
    double_sum: float
    shape_value: float        # tau(m) U + m log m
    shape_constant: float     # double_sum / shape_value
    tau_m: int
    omega_m: int

    @property
    def single_ok(self) -> bool:
        return self.single_sum <= self.single_bound * (1 + 1e-12) + _TOL

    def to_dict(self):
        return {**asdict(self), "single_ok": self.single_ok}


def sinus_sum_checks(a: int, m: int, b: float, U: float, A: int = 1) -> SinusSumReport:
    """Check sum_{n<m} min(U, 1/|sin(pi (a n + b)/m)|) against its bound.

    The bound is gcd(a,m) min(U, 1/|sin(pi gcd ||b/gcd|| / m)|)
    + (2m/pi) log(2m).  The a-averaged double sum over 1 <= a <= A is
    reported against the shape tau(m) U + m log m with its empirical
    constant; that relation has an unspecified constant, so it is not
    asserted.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (math.isfinite(U) and math.isfinite(b)):  # NaN slips past `U <= 0` below
        raise ValueError(f"U and b must be finite, got U={U!r}, b={b!r}")
    if U <= 0:
        raise ValueError("U must be > 0")
    if A < 1:
        raise ValueError("A must be >= 1")
    budget_check("sum", m * A, "sinus sum sweep")

    # row 0 is a, rows 1..A the averaged ones, each summed on its own as
    # a contiguous row, so each sum is its 1-D pass's (docs/DECISIONS.md, 30)
    aa = np.array([a, *range(1, A + 1)], dtype=np.int64)[:, None]
    s = np.abs(np.sin(np.pi * ((aa * np.arange(m, dtype=np.int64) + b) / m)))
    with np.errstate(divide="ignore"):
        inv = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), np.inf)
    rows = np.minimum(U, inv).sum(axis=1).tolist()

    single = rows[0]
    g = math.gcd(a, m) if a != 0 else m
    s0 = abs(math.sin(math.pi * g * frac_norm(b / g) / m))
    head = g * (U if s0 == 0.0 else min(U, 1.0 / s0))
    single_bound = head + (2 * m / math.pi) * math.log(2 * m)

    double = sum(rows[1:]) / A
    shape = divisor_count(m) * U + m * math.log(m)
    return SinusSumReport(
        single_sum=single,
        single_bound=single_bound,
        double_sum=double,
        shape_value=shape,
        shape_constant=double / shape,
        tau_m=divisor_count(m),
        omega_m=distinct_prime_count(m),
    )


# ----------------------------------------------------------------------
# Vaaler's extremal approximation of an interval indicator


def chi_indicator(alpha: float, x) -> np.ndarray:
    """chi_alpha(x) = floor(x) - floor(x - alpha): indicator of
    {x} in [0, alpha) as a function on the reals."""
    x = np.asarray(x, dtype=float)
    return np.floor(x) - np.floor(x - alpha)


def _jhat(t: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the extremal interpolation kernel.

    jhat(t) = pi t (1 - |t|) cot(pi t) + |t| on (0, 1), jhat(0) = 1;
    even, decreasing from 1 to 0 on [0, 1].
    """
    t = np.abs(np.asarray(t, dtype=float))
    if np.any(t >= 1):
        raise ValueError("kernel argument must satisfy |t| < 1")
    out = np.ones_like(t)
    inner = t > 0
    ti = t[inner]
    out[inner] = np.pi * ti * (1 - ti) / np.tan(np.pi * ti) + ti
    return out


@dataclass(frozen=True)
class VaalerPolynomials:
    """Trigonometric sandwich |chi_alpha - A| <= B of degree H.

    a_coeffs and b_coeffs hold the coefficients of A and B for
    h = -H..H (index h + H).  a_0 = alpha exactly,
    |a_h| <= min(alpha, 1/(pi |h|)), |b_h| <= 1/(H+1), and B >= 0
    everywhere.  A, B and defect take x of any shape and return that
    shape (a scalar gives shape (1,)); they share one blocked Horner
    pass in e(x), whose largest arrays hold about 3 sqrt(H) x.size
    values.
    """

    alpha: float
    H: int
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray

    def _eval(self, x) -> np.ndarray:
        """(A(x), B(x)) stacked along a new first axis.

        Both are real, so c_-h = conj(c_h) and each equals
        Re(c_0 + 2 sum_{h=1..H} c_h z^h) with z = e(x - floor(x)).  With
        k = isqrt(H) and h = t k + j, 1 <= j <= k, that sum is Horner's
        rule in z^k over the inner sums Q_t = sum_j 2 c_{tk+j} z^j, which
        one GEMM forms for A and B together (docs/DECISIONS.md, 30).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        budget_check("sum", x.size * (self.H + 1), "Vaaler evaluation")
        H, k = self.H, math.isqrt(self.H)
        n = -(-H // k)  # blocks of k degrees, the last zero-padded
        c = np.zeros((2, n * k + 1), dtype=np.complex128)
        c[:, :H + 1] = np.stack([self.a_coeffs, self.b_coeffs])[:, H:]
        u = x.ravel()
        z = np.exp(2j * np.pi * (u - np.floor(u)))
        Z = np.empty((k, z.size), dtype=np.complex128)
        Z[:] = z
        np.cumprod(Z, axis=0, out=Z)  # z^1 .. z^k
        Q = (2 * c[:, 1:].reshape(2 * n, k) @ Z).reshape(2, n, z.size)
        p = Q[:, n - 1]
        for t in range(n - 2, -1, -1):
            p *= Z[k - 1]
            p += Q[:, t]
        return (c[:, :1].real + p.real).reshape((2,) + x.shape)

    def A(self, x) -> np.ndarray:
        return self._eval(x)[0]

    def B(self, x) -> np.ndarray:
        return self._eval(x)[1]

    def chi(self, x) -> np.ndarray:
        return chi_indicator(self.alpha, x)

    def defect(self, x) -> np.ndarray:
        """|chi - A| - B; nonpositive up to rounding."""
        A, B = self._eval(x)
        return np.abs(self.chi(x) - A) - B

    def coefficient_margins(self):
        """(a-bound margins, b-bound margins); all must be >= 0."""
        hs = np.arange(-self.H, self.H + 1)
        with np.errstate(divide="ignore"):
            a_cap = np.minimum(self.alpha, 1.0 / (np.pi * np.abs(hs)))
        a_cap[self.H] = self.alpha  # h = 0 entry equals alpha exactly
        a_margin = a_cap - np.abs(self.a_coeffs)
        a_margin[self.H] = 0.0 if self.a_coeffs[self.H] == self.alpha else -1.0
        b_margin = 1.0 / (self.H + 1) - np.abs(self.b_coeffs)
        return a_margin, b_margin


def vaaler_build(alpha: float, H: int) -> VaalerPolynomials:
    """Extremal one-sided approximation of the interval indicator.

    A(x) = alpha + psi_H(x - alpha) - psi_H(x) where psi_H is the degree-H
    extremal approximation of the sawtooth {x} - 1/2, and B is the pair
    of averaged Fejer kernels that majorizes both sawtooth errors.
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    if H < 1:
        raise ValueError("H must be >= 1")
    budget_check("sum", 2 * H + 1, "Vaaler coefficients")
    hs = np.arange(-H, H + 1)
    a = np.zeros(2 * H + 1, dtype=np.complex128)
    b = np.zeros(2 * H + 1, dtype=np.complex128)
    nz = hs != 0
    hnz = hs[nz]
    psi_hat = 1j * _jhat(hnz / (H + 1)) / (2 * np.pi * hnz)
    a[nz] = psi_hat * (np.exp(-2j * np.pi * hnz * alpha) - 1.0)
    a[H] = alpha
    fejer = 1.0 - np.abs(hs) / (H + 1)
    b[:] = fejer * (1.0 + np.exp(-2j * np.pi * hs * alpha)) / (2 * H + 2)
    return VaalerPolynomials(alpha=float(alpha), H=int(H), a_coeffs=a, b_coeffs=b)


def box_detection_check(polys, xs) -> tuple:
    """(lhs, rhs) of the d-dimensional box-detection inequality.

    lhs = |prod chi - prod A| at the point xs; rhs sums, over nonempty
    subsets J of coordinates, prod_{j not in J} chi * prod_{j in J} B,
    which expands to prod (chi + B) - prod chi.
    """
    d = len(polys)
    if len(xs) != d:
        raise ValueError("need one coordinate per polynomial pair")
    chi = [float(np.atleast_1d(p.chi(x))[0]) for p, x in zip(polys, xs)]
    A, B = np.array([p._eval(x)[:, 0]
                     for p, x in zip(polys, xs)]).reshape(d, 2).T.tolist()
    lhs = abs(math.prod(chi) - math.prod(A))
    rhs = math.prod(c + b for c, b in zip(chi, B)) - math.prod(chi)
    return lhs, rhs


# ----------------------------------------------------------------------
# Van der Corput's inequality


def van_der_corput_check(z, Q: int, R: int) -> tuple:
    """(lhs, rhs) of the smoothed Cauchy-Schwarz inequality.

    lhs = |sum_{n=1}^{N-1} z_n|^2 and rhs is the (Q, R)-smoothed
    majorant; lhs <= rhs holds for every complex sequence.
    """
    if Q < 1 or R < 1:
        raise ValueError("Q and R must be >= 1")
    z = np.asarray(z, dtype=np.complex128)
    N = z.size
    zz = z[:N - 1]  # the inequality runs over z_1 .. z_{N-1}
    lhs = abs(zz.sum()) ** 2
    inner = float((np.abs(zz) ** 2).sum())
    cross, shifts = 0.0, min(R, (N - 2) // Q + 1)  # past it, no z_n pair is Q r apart
    budget_check("sum", N * shifts, "Van der Corput cross sums")
    for r in range(1, shifts):
        top = N - Q * r - 1
        cross += (1 - r / R) * float((zz[Q * r:Q * r + top] @ zz[:top].conj()).real)
    rhs = (N + Q * R - Q) / R * (inner + 2 * cross)
    return float(lhs), float(rhs)


# ----------------------------------------------------------------------
# carry propagation


@dataclass(frozen=True)
class CarryExperiment:
    """Count of n < q^nu whose square changes some digit >= lam under a
    shift by r, with the induced truncation mismatch count."""

    nu: int
    lam: int
    rho: int
    r: int
    digit_exceptions: int
    band_exceptions: int
    expected_power: int    # q^(2 nu + rho - lam)
    constant: float        # max(counts) / expected_power

    def to_dict(self):
        return asdict(self)


def carry_exception_count(f: DigitalFunction, nu: int, lam: int, rho: int,
                          r: int) -> CarryExperiment:
    """Exhaustively count carry exceptions for the shift n -> n + r.

    Needs nu + rho <= lam <= 2 nu and 0 <= r <= q^rho.  Counts n < q^nu
    with floor((n+r)^2 / q^lam) != floor(n^2 / q^lam), and those where
    the b-increment differs from its depth lam-m+1 truncation.  Both
    counts come with the reference power q^(2 nu + rho - lam).
    """
    q = f.q
    if not nu + rho <= lam <= 2 * nu:
        raise ValueError(f"need nu+rho <= lam <= 2nu, got ({nu},{lam},{rho})")
    if not 0 <= r <= q ** rho:
        raise ValueError(f"need 0 <= r <= q^rho, got r={r}")
    budget_check("carry0", q ** nu, "carry exception count")
    n = np.arange(q ** nu, dtype=np.int64)
    sq = n * n
    sq_r = (n + r) * (n + r)
    p = q ** lam
    digit = int(np.count_nonzero(sq // p != sq_r // p))

    # b(n) = b_d(n) + b(floor(n / q^d)) for a normalized table, so the
    # b-increment differs from its depth-d truncation exactly where
    # b(floor(n / q^d)) differs at n = sq and n = sq_r (docs/DECISIONS.md, 30)
    if not f.is_normalized:
        raise ValueError("truncated evaluation requires a normalized table")
    high = q ** max(lam - f.m + 1, 0)
    band = int(np.count_nonzero(eval_b_many(f, sq_r // high)
                                != eval_b_many(f, sq // high)))

    power = q ** (2 * nu + rho - lam)
    return CarryExperiment(nu=nu, lam=lam, rho=rho, r=r,
                           digit_exceptions=digit, band_exceptions=band,
                           expected_power=power,
                           constant=max(digit, band) / power)


@dataclass(frozen=True)
class CarryDecomposition:
    """Failure count of the digit-band decomposition identities."""

    nu: int
    mu: int
    lam: int
    rho_prime: int
    ell: int
    s: int
    r: int
    exceptions: int
    expected_power: int    # q^(nu - rho')
    constant: float

    def to_dict(self):
        return asdict(self)


def carry_decomposition_check(f: DigitalFunction, nu: int, mu: int, lam: int,
                              rho_prime: int, ell: int, s: int,
                              r: int) -> CarryDecomposition:
    """Count n < q^nu violating the four band-decomposition identities.

    The digits of n^2, (n+r)^2 and 2n above mu' = mu - rho' determine the
    digit band [mu, lam) of the four shifted squares through

        b_{mu,lam}((n+ell)^2)            = b_{rho',lam-mu+rho'}(u1 + ell u3)
        b_{mu,lam}((n+ell+s q^(mu+m-1))^2)
            = b_{rho',lam-mu+rho'}(u1 + ell u3 + v q^rho' + 2 ell s q^(m-1+rho'))

    and the two analogues with u2 for n+r; exceptions are carry effects
    and their count is compared against q^(nu - rho').  All listed
    parameter constraints are enforced conjunctively.
    """
    q, m = f.q, f.m
    if not 0 < mu < nu < lam:
        raise ValueError(f"need 0 < mu < nu < lam, got ({mu},{nu},{lam})")
    if not 2 * rho_prime <= mu <= nu - rho_prime:
        raise ValueError(f"need 2 rho' <= mu <= nu - rho', got rho'={rho_prime}, mu={mu}")
    if rho_prime < 0:
        raise ValueError("rho' must be >= 0")
    if lam - nu > 2 * (mu - rho_prime):
        raise ValueError(f"need lam - nu <= 2(mu - rho'), got lam-nu={lam - nu}")
    if ell < 1 or s < 1:
        raise ValueError("ell and s must be >= 1")
    if not (1 <= r and r * r <= q ** (lam - nu)):
        raise ValueError(f"need 1 <= r <= q^((lam-nu)/2), got r={r}")
    budget_check("carry1", q ** nu, "carry decomposition check")

    mu_p = mu - rho_prime
    big = q ** (lam + m - 1)
    vmod = q ** (lam - mu + m - 1)
    n = np.arange(q ** nu, dtype=np.int64)
    shift = s * q ** (mu + m - 1)
    if (q ** nu + ell + shift + r) ** 2 >= 1 << 62:
        raise OverflowError("shifted squares exceed the vectorized range")

    u1 = (n * n % big) // q ** mu_p
    u2 = ((n + r) * (n + r) % big) // q ** mu_p
    u3 = (2 * n % big) // q ** mu_p
    v = (2 * s * q ** (m - 1) * n) % vmod
    rp = q ** rho_prime
    bad = np.zeros(n.size, dtype=bool)
    # one identity at the bases n + e, e = ell and ell + r, each also
    # shifted by s q^(mu+m-1), which adds v q^rho' + 2 e s q^(m-1+rho')
    for u, e in ((u1, ell), (u2, ell + r)):
        for t in (0, 1):
            base = n + (e + t * shift)
            arg = u + ell * u3
            if t:
                arg += v * rp + 2 * e * s * q ** (m - 1) * rp
            bad |= (eval_b_band_many(f, base * base, mu, lam)
                    != eval_b_band_many(f, arg, rho_prime, lam - mu + rho_prime))
    count = int(np.count_nonzero(bad))
    power = q ** (nu - rho_prime)
    return CarryDecomposition(nu=nu, mu=mu, lam=lam, rho_prime=rho_prime,
                              ell=ell, s=s, r=r, exceptions=count,
                              expected_power=power, constant=count / power)
