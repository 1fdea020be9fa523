"""Gauss sums, sinus sums, Vaaler sandwich, Van der Corput, carries."""

import cmath
import math
import time
from collections import Counter
from itertools import combinations

import mpmath
import numpy as np
import pytest

from digitseq import analytic as an
from digitseq.budget import BudgetExceededError
from digitseq.digital import (
    eval_b_band_many,
    eval_b_many,
    make_digital_function,
    normalize,
)
from digitseq.phases import roots_of_unity
from digitseq.seqgen import parse_preset


def brute_gauss(a, b, m):
    return sum(cmath.exp(2j * cmath.pi * ((a * n * n + b * n) % m) / m)
               for n in range(m))


# ----------------------------------------------------------------------
# Gauss sums


def test_gauss_examples():
    g = an.gauss_sum(1, 0, 4)
    assert g.value == pytest.approx(2 + 2j)
    assert g.magnitude == pytest.approx(2 * math.sqrt(2))
    assert g.bound == pytest.approx(math.sqrt(8))  # equality case
    assert an.gauss_sum(2, 0, 4).value == pytest.approx(0, abs=1e-12)
    g0 = an.gauss_sum(0, 0, 9)
    assert g0.value == pytest.approx(9) and g0.bound == pytest.approx(9 * math.sqrt(2))


def test_gauss_matches_bruteforce(rng):
    for _ in range(50):
        m = int(rng.integers(1, 200))
        a = int(rng.integers(-100, 100))
        b = int(rng.integers(-100, 100))
        got = an.gauss_sum(a, b, m)
        assert got.value == pytest.approx(brute_gauss(a, b, m), abs=1e-9)
        assert got.ok


def test_gauss_periodic_in_b(rng):
    for _ in range(20):
        m = int(rng.integers(1, 300))
        a = int(rng.integers(0, m + 3))
        b = int(rng.integers(0, m))
        assert an.gauss_sum(a, b, m).value == pytest.approx(
            an.gauss_sum(a, b + m, m).value, abs=1e-9)


def test_incomplete_gauss_empty_and_full():
    assert an.incomplete_gauss_sum(3, 1, 8, 5, 0).value == 0
    full = an.incomplete_gauss_sum(3, 1, 8, 0, 8)
    assert full.value == pytest.approx(an.gauss_sum(3, 1, 8).value, abs=1e-9)


def test_incomplete_gauss_example():
    got = an.incomplete_gauss_sum(1, 1, 8, 0, 5)
    want = sum(cmath.exp(2j * cmath.pi * (n * n + n) / 8) for n in range(1, 6))
    assert got.value == pytest.approx(want, abs=1e-9)
    assert got.ok


def test_incomplete_gauss_sweep(rng):
    for _ in range(300):
        m = int(rng.integers(1, 4096))
        a = int(rng.integers(0, m + 2))
        b = int(rng.integers(0, m + 2))
        n0 = int(rng.integers(0, 10 ** 6))
        N = int(rng.integers(0, 512))
        assert an.incomplete_gauss_sum(a, b, m, n0, N).ok


def test_incomplete_gauss_modulus_over_budget(monkeypatch):
    # the sum bincounts into m bins: m is budgeted like N
    monkeypatch.delenv("DIGITSEQ_BUDGET", raising=False)

    def no_sum(*args):
        raise AssertionError("phase sum reached past the budget check")

    monkeypatch.setattr(an, "_quadratic_phase_sum", no_sum)
    with pytest.raises(BudgetExceededError):
        an.incomplete_gauss_sum(1, 0, (1 << 22) + 1, 0, 3)


def test_incomplete_gauss_far_start_matches_python_ints():
    a, b, m, n0, N = 7, 3, 1009, 10 ** 30, 500
    want = sum(cmath.exp(2j * cmath.pi * ((a * n * n + b * n) % m) / m)
               for n in range(n0 + 1, n0 + N + 1))
    assert an.incomplete_gauss_sum(a, b, m, n0, N).value == pytest.approx(want, abs=1e-9)


# ----------------------------------------------------------------------
# geometric series and sinus sums


def test_geometric_exact_cases():
    r = an.geometric_min_bound(0.0, 0, 4)
    assert r.value == pytest.approx(4) and r.bound == 4
    r = an.geometric_min_bound(0.5, 0, 4)
    assert r.value == pytest.approx(0, abs=1e-12) and r.bound == pytest.approx(1.0)
    assert an.geometric_min_bound(0.3, 2, 2).value == 0


def test_geometric_sweep(rng):
    for _ in range(1000):
        xi = float(rng.uniform(-2, 2))
        L1 = int(rng.integers(-50, 50))
        L2 = L1 + int(rng.integers(0, 400))
        assert an.geometric_min_bound(xi, L1, L2).ok


def test_sinus_sum_degenerate_row():
    # a = 0, b = m/2: every term is 1/|sin(pi/2)| = 1
    rep = an.sinus_sum_checks(0, 16, 8.0, 1e9)
    assert rep.single_sum == pytest.approx(16.0)
    assert rep.single_ok


def test_sinus_sum_sweep(rng):
    for _ in range(300):
        m = int(rng.integers(1, 4096))
        a = int(rng.integers(0, 3 * m + 2))
        b = float(rng.uniform(-m, m))
        U = float(rng.uniform(0.5, 1e6))
        assert an.sinus_sum_checks(a, m, b, U).single_ok


def test_divisor_helpers():
    assert an.divisor_count(12) == 6
    assert an.distinct_prime_count(12) == 2
    assert an.divisor_count(1) == 1
    assert an.distinct_prime_count(1) == 0


def test_divisor_helpers_match_brute_force():
    for n in range(1, 2000):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        primes = [p for p in divisors[1:] if all(p % r for r in range(2, p))]
        assert an.divisor_count(n) == len(divisors), n
        assert an.distinct_prime_count(n) == len(primes), n


def test_sinus_double_sum_reports_constant():
    rep = an.sinus_sum_checks(5, 64, 0.25, 100.0, A=8)
    assert rep.double_sum > 0 and rep.shape_constant > 0
    assert rep.tau_m == an.divisor_count(64)


def reference_phase_sum(a, b, m, ns):
    """The quadratic phase sum with the phases reduced by %."""
    phases = (a % m * (ns * ns % m) + b % m * ns) % m
    return complex(np.bincount(phases, minlength=m) @ roots_of_unity(m))


def reference_sinus_rows(a, m, b, U, A):
    """Row a and the rows 1..A of the sinus sums, one 1-D pass a row."""
    def row_sum(aa):
        ns = np.arange(m, dtype=np.int64)
        s = np.abs(np.sin(np.pi * ((aa * ns + b) / m)))
        with np.errstate(divide="ignore"):
            inv = np.where(s > 0, 1.0 / np.maximum(s, 1e-300), np.inf)
        return float(np.minimum(U, inv).sum())

    return row_sum(a), sum(row_sum(aa) for aa in range(1, A + 1)) / A


def test_gauss_values_match_reduction_by_mod():
    rng = np.random.default_rng(20261021)
    cases = [(a, b, m) for m in (1, 2, 3, 1024, 2048, 4095) for a, b in
             ((0, 0), (-5, 7), (1, -1), (2 ** 40 + 3, -(2 ** 41)))]
    for _ in range(300):
        m = int(rng.integers(1, 4097))
        cases.append((int(rng.integers(-3 * m, 3 * m + 1)),
                      int(rng.integers(-3 * m, 3 * m + 1)), m))
    for a, b, m in cases:
        ns = np.arange(m, dtype=np.int64)
        assert an.gauss_sum(a, b, m).value == reference_phase_sum(a, b, m, ns)
        n0 = int(rng.integers(-10 ** 15, 10 ** 15))
        N = int(rng.integers(1, 5000))
        ns = ((n0 + 1) % m + np.arange(N, dtype=np.int64)) % m
        got = an.incomplete_gauss_sum(a, b, m, n0, N).value
        assert got == reference_phase_sum(a, b, m, ns), (a, b, m, n0, N)


def test_sinus_rows_match_one_pass_a_row():
    rng = np.random.default_rng(20261022)
    cases = [(a, m, b, 10.0, A) for m in (1, 2, 16) for a in (-3, 0, 1, 5)
             for b, A in ((0.0, 1), (m / 2, 3), (-0.25, 8))]
    for _ in range(300):
        m = int(rng.integers(1, 3000))
        cases.append((int(rng.integers(-3 * m, 3 * m + 2)), m,
                      float(rng.uniform(-m, m)), float(rng.uniform(0.5, 1e7)),
                      int(rng.integers(1, 9))))
    for a, m, b, U, A in cases:
        rep = an.sinus_sum_checks(a, m, b, U, A)
        single, double = reference_sinus_rows(a, m, b, U, A)
        assert (rep.single_sum, rep.double_sum) == (single, double), (a, m, b, U, A)


# ----------------------------------------------------------------------
# Vaaler sandwich


def test_vaaler_a0_exact(rng):
    for alpha in (0.0, 0.125, 0.5, 0.9):
        vp = an.vaaler_build(alpha, 12)
        assert vp.a_coeffs[vp.H] == alpha


def test_chi_examples():
    assert an.chi_indicator(0.5, 0.25) == 1.0
    assert an.chi_indicator(0.5, 0.75) == 0.0
    assert an.chi_indicator(0.5, -0.8) == 1.0  # {x} = 0.2 < 0.5


def test_vaaler_coefficient_bounds(rng):
    for _ in range(50):
        alpha = float(rng.uniform(0, 1))
        H = int(rng.integers(1, 128))
        a_margin, b_margin = an.vaaler_build(alpha, H).coefficient_margins()
        assert a_margin.min() >= -1e-12
        assert b_margin.min() >= -1e-12


def test_vaaler_pointwise_sandwich(rng):
    xs_grid = np.arange(1 << 12) / (1 << 12)
    for _ in range(20):
        alpha = float(rng.uniform(0, 1))
        H = int(rng.integers(1, 64))
        vp = an.vaaler_build(alpha, H)
        assert vp.defect(xs_grid).max() <= 1e-9
        xs_rand = rng.uniform(-3, 3, 256)
        assert vp.defect(xs_rand).max() <= 1e-9


def test_vaaler_B_nonnegative(rng):
    vp = an.vaaler_build(0.3, 20)
    xs = rng.uniform(-2, 2, 512)
    assert vp.B(xs).min() >= -1e-12


def test_vaaler_converges_with_H():
    xs = np.arange(256) / 256
    coarse = an.vaaler_build(0.37, 4)
    fine = an.vaaler_build(0.37, 256)
    assert np.abs(fine.chi(xs) - fine.A(xs)).mean() < \
        np.abs(coarse.chi(xs) - coarse.A(xs)).mean()
    assert fine.B(xs).mean() < coarse.B(xs).mean()


def test_box_detection(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        polys = [an.vaaler_build(float(rng.uniform(0.05, 0.95)),
                                 int(rng.integers(1, 32))) for _ in range(d)]
        xs = rng.uniform(-1, 2, d)
        lhs, rhs = an.box_detection_check(polys, xs)
        assert lhs <= rhs + 1e-9


def subset_sum_rhs(chi, B):
    """sum over nonempty J of prod_{j not in J} chi_j prod_{j in J} B_j."""
    d = len(chi)
    rhs = 0.0
    for r in range(1, d + 1):
        for J in combinations(range(d), r):
            term = 1.0
            for j in range(d):
                term *= B[j] if j in J else chi[j]
            rhs += term
    return rhs


def test_box_detection_matches_subset_sum(rng):
    for _ in range(400):
        d = int(rng.integers(1, 6))
        polys = [an.vaaler_build(float(rng.uniform(0.05, 0.95)),
                                 int(rng.integers(1, 16))) for _ in range(d)]
        xs = rng.uniform(-1, 2, d)
        chi = [float(p.chi(x)) for p, x in zip(polys, xs)]
        B = [float(p.B(x)[0]) for p, x in zip(polys, xs)]
        _, rhs = an.box_detection_check(polys, xs)
        assert abs(rhs - subset_sum_rhs(chi, B)) <= 1e-12


def test_vaaler_validation():
    with pytest.raises(ValueError):
        an.vaaler_build(1.0, 4)
    with pytest.raises(ValueError):
        an.vaaler_build(0.5, 0)


def direct_sum(coeffs, x):
    """Re sum_{h=-H..H} c_h e(h x) through the full exponential matrix."""
    H = (coeffs.size - 1) // 2
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return (np.exp(2j * np.pi * np.outer(x, np.arange(-H, H + 1))) @ coeffs).real


def mp_direct_sum(coeffs, trig):
    """The same sum at 40 digits, e(h x) read from a table of
    (cos 2 pi h x, sin 2 pi h x) for h >= 0 at each point x."""
    H = (coeffs.size - 1) // 2
    cr = [mpmath.mpf(c.real) for c in coeffs]
    ci = [mpmath.mpf(-c.imag) for c in coeffs]
    out = []
    for cos, sin in trig:
        cos_h = cos[H:0:-1] + cos[:H + 1]
        sin_h = [-v for v in sin[H:0:-1]] + sin[:H + 1]
        out.append(mpmath.fdot(cr, cos_h) + mpmath.fdot(ci, sin_h))
    return out


VAALER_MP_X = np.concatenate([np.arange(0, 1 << 12, 1 << 7) / (1 << 12),
                              np.random.default_rng(7).uniform(-3, 3, 8),
                              [1000.25, 1000.123]])


@pytest.fixture(scope="module")
def vaaler_mp_trig():
    with mpmath.workdps(40):
        trig = []
        for x in VAALER_MP_X:
            z = mpmath.expjpi(2 * mpmath.mpf(float(x)))
            powers = [mpmath.mpc(1)]
            for _ in range(256):
                powers.append(powers[-1] * z)
            trig.append(([w.real for w in powers], [w.imag for w in powers]))
    return trig


@pytest.mark.parametrize("H", [1, 2, 16, 64, 256])
def test_vaaler_matches_mpmath(H, vaaler_mp_trig):
    # grid points, points in [-3, 3] and large x, where an unreduced
    # direct sum in doubles is off by more than 1e-13 already at H = 16
    xs = VAALER_MP_X
    for alpha in (0.0, 0.37, 0.999):
        vp = an.vaaler_build(alpha, H)
        with mpmath.workdps(40):
            A = mp_direct_sum(vp.a_coeffs, vaaler_mp_trig)
            B = mp_direct_sum(vp.b_coeffs, vaaler_mp_trig)
            defect = [abs(c - a) - b for c, a, b in zip(vp.chi(xs), A, B)]
        for got, want in ((vp.A(xs), A), (vp.B(xs), B), (vp.defect(xs), defect)):
            assert np.abs(got - np.array(want, dtype=float)).max() <= 1e-13, alpha


def test_vaaler_matches_direct_sum():
    rng = np.random.default_rng(20261018)
    xs = np.arange(1 << 10) / (1 << 10)
    for _ in range(50):
        vp = an.vaaler_build(float(rng.uniform(0, 1)), int(rng.integers(1, 65)))
        A, B = vp._eval(xs)
        assert np.abs(A - direct_sum(vp.a_coeffs, xs)).max() <= 1e-12
        assert np.abs(B - direct_sum(vp.b_coeffs, xs)).max() <= 1e-12


def test_vaaler_keeps_input_shape():
    vp = an.vaaler_build(0.3, 4)
    flat = np.linspace(-1, 2, 9)
    want_A, want_B = vp.A(flat), vp.B(flat)
    want = vp.defect(flat)
    for shape in ((9, 1), (3, 3), (1, 9)):
        x = flat.reshape(shape)
        assert vp.A(x).shape == vp.B(x).shape == vp.defect(x).shape == shape
        assert np.array_equal(vp.A(x).ravel(), want_A)
        assert np.array_equal(vp.B(x).ravel(), want_B)
        assert np.array_equal(vp.defect(x).ravel(), want)
    assert vp.A(0.25).shape == vp.B(0.25).shape == vp.defect(0.25).shape == (1,)
    assert vp.defect(0.25)[0] == vp.defect(np.array([0.25]))[0]


def test_vaaler_budget():
    with pytest.raises(BudgetExceededError):
        an.vaaler_build(0.5, 1 << 21)  # 2H + 1 coefficients
    vp = an.vaaler_build(0.5, 64)
    with pytest.raises(BudgetExceededError):
        vp.defect(np.zeros(70000))     # 70000 x (H + 1) terms


def per_degree_eval(vp, x):
    """(A(x), B(x)) by one Horner step per degree h = H..1 in e(x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.stack([vp.a_coeffs, vp.b_coeffs])[:, vp.H:]
    c = c.reshape(c.shape + (1,) * x.ndim)
    c2 = 2 * c
    z = np.exp(2j * np.pi * (x - np.floor(x)))
    p = np.zeros((2,) + x.shape, dtype=np.complex128)
    for h in range(vp.H, 0, -1):
        p += c2[:, h]
        p *= z
    return c[:, 0].real + p.real


@pytest.mark.parametrize("H", [1, 2, 3, 15, 16, 17, 64, 255, 256])
def test_vaaler_blocked_matches_per_degree_horner(H):
    rng = np.random.default_rng(H)
    points = [0.3, np.arange(256) / 256, rng.uniform(-3, 3, (7, 11)),
              1000 + rng.uniform(-1, 1, 64), rng.uniform(-1e6, 1e6, (3, 2, 5))]
    for alpha in (0.0, float(rng.uniform(0, 1)), 0.999):
        vp = an.vaaler_build(alpha, H)
        for x in points:
            got, want = vp._eval(x), per_degree_eval(vp, x)
            assert got.shape == want.shape == (2,) + np.atleast_1d(x).shape
            assert np.abs(got - want).max() <= 1e-13, (alpha, H)


# ----------------------------------------------------------------------
# Van der Corput


def test_vdc_reduces_to_cauchy_schwarz(rng):
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    lhs, rhs = an.van_der_corput_check(z, 1, 1)
    n = z.size
    assert rhs == pytest.approx(n * float(np.sum(np.abs(z[:n - 1]) ** 2)))
    assert lhs <= rhs + 1e-9


def test_vdc_constant_sequence_equality_pattern():
    z = np.ones(32, dtype=complex)
    lhs, rhs = an.van_der_corput_check(z, 1, 1)
    assert lhs == pytest.approx(31.0 ** 2)
    assert rhs == pytest.approx(32.0 * 31.0)


def test_vdc_sweep(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 128))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        Q = int(rng.integers(1, 12))
        R = int(rng.integers(1, 12))
        lhs, rhs = an.van_der_corput_check(z, Q, R)
        assert lhs <= rhs + 1e-6 * max(1.0, abs(rhs))


def test_vdc_validation():
    with pytest.raises(ValueError):
        an.van_der_corput_check(np.ones(4), 0, 1)


def reference_vdc(z, Q, R):
    """The inequality with its cross sum over every r < R, the terms past N skipped."""
    N, zz = z.size, z[:z.size - 1]
    cross = 0.0
    for r in range(1, R):
        top = N - Q * r - 1
        if top >= 1:
            cross += (1 - r / R) * float((zz[Q * r:Q * r + top] @ zz[:top].conj()).real)
    inner = float((np.abs(zz) ** 2).sum())
    return float(abs(zz.sum()) ** 2), float((N + Q * R - Q) / R * (inner + 2 * cross))


def test_vdc_budgets_its_cross_sums(monkeypatch):
    # N x min(R, (N - 2) // Q + 1) terms, checked before the quadratic loop
    monkeypatch.delenv("DIGITSEQ_BUDGET", raising=False)
    z = np.ones(1 << 16)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^Van der Corput cross sums needs 4294901760 > "):
        an.van_der_corput_check(z, 1, 1 << 16)
    assert time.perf_counter() - start < 1.0
    lhs, rhs = an.van_der_corput_check(z, 1 << 10, 1 << 16)  # 65536 x 64 terms
    assert lhs <= rhs


def test_vdc_stops_where_no_pair_is_left(rng):
    # no r with Q r >= N - 1 pairs two terms, so the loop ends there: the
    # same floats as the full loop, and a huge R costs nothing
    for _ in range(300):
        n = int(rng.integers(0, 40))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        Q, R = int(rng.integers(1, 8)), int(rng.integers(1, 60))
        assert an.van_der_corput_check(z, Q, R) == reference_vdc(z, Q, R)
    start = time.perf_counter()
    z = np.exp(2j * np.pi * rng.uniform(size=512))
    lhs, rhs = an.van_der_corput_check(z, 3, 10 ** 9)
    assert time.perf_counter() - start < 1.0
    assert lhs <= rhs


# ----------------------------------------------------------------------
# carries


def test_carry_zero_shift(rudin_shapiro):
    ce = an.carry_exception_count(rudin_shapiro, 10, 14, 2, 0)
    assert ce.digit_exceptions == 0 and ce.band_exceptions == 0


def test_carry_counts_bounded(rudin_shapiro):
    ce = an.carry_exception_count(rudin_shapiro, 10, 14, 2, 3)
    assert ce.expected_power == 2 ** (20 + 2 - 14)
    assert ce.constant <= 16


def test_carry_top_cut(rudin_shapiro):
    # lam = 2 nu, rho = 0, r = 1: only squares brushing q^(2 nu) flip digits
    ce = an.carry_exception_count(rudin_shapiro, 10, 20, 0, 1)
    assert ce.digit_exceptions <= 4
    assert ce.expected_power == 1


def test_carry_monotone_in_lam(thue_morse):
    counts = [an.carry_exception_count(thue_morse, 10, lam, 2, 3).digit_exceptions
              for lam in (12, 14, 16, 18, 20)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_carry_validation(thue_morse):
    with pytest.raises(ValueError):
        an.carry_exception_count(thue_morse, 10, 22, 2, 1)   # lam > 2 nu
    with pytest.raises(ValueError):
        an.carry_exception_count(thue_morse, 10, 14, 2, 5)   # r > q^rho


def reference_carry_counts(f, nu, lam, rho, r):
    """(digit, band) counts with the band count from four scans: the full
    b-increment against its depth lam - m + 1 truncation."""
    q = f.q
    n = np.arange(q ** nu, dtype=np.int64)
    sq, sq_r = n * n, (n + r) * (n + r)
    digit = int(np.count_nonzero(sq // q ** lam != sq_r // q ** lam))
    depth = max(lam - f.m + 1, 0)
    full = eval_b_many(f, sq_r) - eval_b_many(f, sq)
    trunc = eval_b_band_many(f, sq_r, 0, depth) - eval_b_band_many(f, sq, 0, depth)
    return digit, int(np.count_nonzero(full != trunc))


def test_carry_counts_match_four_scans(rudin_shapiro):
    cells = [(rudin_shapiro, 16, lam, rho, r) for rho in (0, 2) for lam in (18, 20)
             for r in range(min(2 ** rho, 7) + 1)]  # the criterion-9 cells
    for name in ("rudin-shapiro", "thue-morse", "digit-sum:3,3", "block-ones:3"):
        f = normalize(parse_preset(name))
        for nu in (7, 12) if f.q == 2 else (7, 9):  # 3^12 n cost seconds
            for rho in range(3):
                for lam in range(nu + rho, 2 * nu + 1, 2):
                    cells += [(f, nu, lam, rho, r) for r in range(min(f.q ** rho, 4) + 1)]
    assert len(cells) > 300
    for f, nu, lam, rho, r in cells:
        ce = an.carry_exception_count(f, nu, lam, rho, r)
        assert (ce.digit_exceptions, ce.band_exceptions) \
            == reference_carry_counts(f, nu, lam, rho, r), (f.q, f.m, nu, lam, rho, r)


def test_carry_needs_normalized_table():
    f = make_digital_function(2, 2, [0, 0, 1, 0], 2)
    with pytest.raises(ValueError, match="requires a normalized table"):
        an.carry_exception_count(f, 6, 8, 0, 1)
    ce = an.carry_exception_count(normalize(f), 6, 8, 0, 1)
    assert (ce.digit_exceptions, ce.band_exceptions) \
        == reference_carry_counts(normalize(f), 6, 8, 0, 1)


def test_carry_decomposition_thue_morse(thue_morse):
    res = an.carry_decomposition_check(thue_morse, nu=12, mu=6, lam=16,
                                       rho_prime=2, ell=1, s=1, r=1)
    assert res.constant <= 8


def test_carry_decomposition_small_case(rudin_shapiro):
    res = an.carry_decomposition_check(rudin_shapiro, nu=10, mu=5, lam=12,
                                       rho_prime=2, ell=1, s=1, r=2)
    # identities hold for most n; exceptions stay within a small multiple
    assert res.exceptions < 2 ** 10
    assert res.exceptions <= 8 * res.expected_power


def reference_carry_decomposition(f, nu, mu, lam, rho_prime, ell, s, r):
    """The decomposition check with its four identities written out one by
    one: eight band evaluations, the left sides first."""
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
    n = np.arange(q ** nu, dtype=np.int64)
    if (q ** nu + ell + s * q ** (mu + m - 1) + r) ** 2 >= 1 << 62:
        raise OverflowError("shifted squares exceed the vectorized range")
    big, mu_p = q ** (lam + m - 1), mu - rho_prime
    u1 = (n * n % big) // q ** mu_p
    u2 = ((n + r) * (n + r) % big) // q ** mu_p
    u3 = (2 * n % big) // q ** mu_p
    v = (2 * s * q ** (m - 1) * n) % q ** (lam - mu + m - 1)
    shift, rp = s * q ** (mu + m - 1), q ** rho_prime
    lhs = [eval_b_band_many(f, x * x, mu, lam)
           for x in (n + ell, n + ell + shift, n + r + ell, n + r + ell + shift)]
    rhs = [eval_b_band_many(f, x, rho_prime, lam - mu + rho_prime) for x in (
        u1 + ell * u3,
        u1 + ell * u3 + v * rp + 2 * ell * s * q ** (m - 1) * rp,
        u2 + ell * u3,
        u2 + ell * u3 + v * rp + 2 * (ell + r) * s * q ** (m - 1) * rp)]
    bad = np.zeros(n.size, dtype=bool)
    for left, right in zip(lhs, rhs):
        bad |= left != right
    count = int(np.count_nonzero(bad))
    power = q ** (nu - rho_prime)
    return an.CarryDecomposition(nu=nu, mu=mu, lam=lam, rho_prime=rho_prime,
                                 ell=ell, s=s, r=r, exceptions=count,
                                 expected_power=power, constant=count / power)


def _outcome(check, f, params):
    try:
        return check(f, **params)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def test_carry_decomposition_matches_four_identities():
    # a seeded grid of parameter sets that pass every stated constraint,
    # ell and s log-uniform so that some shifted squares pass 2^62
    rng = np.random.default_rng(2021)
    outcomes = Counter()
    for name, top_nu in (("rudin-shapiro", 10), ("thue-morse", 10),
                         ("digit-sum:3,3", 6), ("block-ones:3", 10)):
        f = normalize(parse_preset(name))
        valid = 0
        while valid < 260:
            nu = int(rng.integers(2, top_nu + 1))
            mu = int(rng.integers(1, nu))
            rho_prime = int(rng.integers(0, mu // 2 + 1))
            if mu > nu - rho_prime:
                continue
            lam = int(rng.integers(nu + 1, nu + 2 * (mu - rho_prime) + 1))
            params = dict(nu=nu, mu=mu, lam=lam, rho_prime=rho_prime,
                          ell=int(2 ** rng.uniform(0, 16)), s=int(2 ** rng.uniform(0, 30)),
                          r=int(rng.integers(1, math.isqrt(f.q ** (lam - nu)) + 1)))
            got = _outcome(an.carry_decomposition_check, f, params)
            assert got == _outcome(reference_carry_decomposition, f, params), (name, params)
            outcomes[type(got).__name__] += 1
            valid += 1
    assert outcomes["CarryDecomposition"] >= 900 and outcomes["tuple"] >= 20, outcomes


def test_carry_decomposition_validation(thue_morse):
    with pytest.raises(ValueError):
        an.carry_decomposition_check(thue_morse, nu=12, mu=5, lam=16,
                                     rho_prime=3, ell=1, s=1, r=1)  # 2rho' > mu
    with pytest.raises(ValueError):
        an.carry_decomposition_check(thue_morse, nu=12, mu=6, lam=26,
                                     rho_prime=2, ell=1, s=1, r=1)  # lam-nu too big
    with pytest.raises(ValueError):
        an.carry_decomposition_check(thue_morse, nu=12, mu=6, lam=16,
                                     rho_prime=2, ell=1, s=1, r=100)  # r too big
