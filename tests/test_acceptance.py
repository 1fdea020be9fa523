"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Each test feeds a PASS/FAIL line into the terminal summary (see
conftest).  Criterion 5 is split into its two sub-cases.  In the
Thue-Morse sub-case (block length 2) the constructed index pairs
overlap for k = 1, so the disjoint-pair saving 8 sin^2(pi/8) does not
apply; the saving proven there is the three-term chain one,
3 - sqrt(5), and the exact supremum 16/(3 sqrt 3) lies below the
resulting bound 1 + sqrt(5).  See docs/DECISIONS.md.
"""

import math
import time

import numpy as np
import pytest

import digitseq as dq
from digitseq import analytic as an
from digitseq import fourier as fx
from digitseq.normality import AlphaVector

from conftest import record_criterion

SEED = 1729


def seeded():
    return np.random.default_rng(SEED)


def identity_functions():
    return {
        (2, 1): dq.preset("thue-morse"),
        (2, 2): dq.preset("rudin-shapiro"),
        (3, 1): dq.preset("digit-sum", q=3, m_prime=3),
    }


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    rng = seeded()
    functions = list(identity_functions().values())

    # split recursion: exactly zero on 10^4 random cases
    for i in range(10_000):
        f = functions[i % 3]
        alpha = int(rng.integers(0, 7))
        lam = alpha + int(rng.integers(1, 6))
        n1 = int(rng.integers(0, 2 ** 16))
        n2 = int(rng.integers(0, f.q ** alpha))
        assert dq.check_recursion(f, n1, n2, alpha, lam) == (0, 0)

    # H<->G and G block recursions: residual <= 1e-9 everywhere sampled
    worst = 0.0
    for (q, m), f in identity_functions().items():
        for k in (1, 2, 3):
            nums = tuple(int(rng.integers(0, f.m_prime)) for _ in range(k))
            if all(v == 0 for v in nums):
                nums = (1,) + nums[1:]
            ctx = fx.make_context(f, AlphaVector(nums, f.m_prime), 10)
            full = ctx.index_vectors()
            startv = ctx.start_vectors()
            for lam in range(1, 11):
                for _ in range(3):
                    h = int(rng.integers(0, q ** (lam + m - 1)))
                    d = int(rng.integers(0, q ** lam))
                    j = int(rng.integers(1, lam + 1))
                    delta = int(rng.integers(0, q ** j))
                    I = full[int(rng.integers(0, len(full)))]
                    Ip = startv[int(rng.integers(0, len(startv)))]
                    worst = max(worst, fx.g_recursion_residual(
                        ctx, I, h, d, j, delta, lam))
                    worst = max(worst, fx.h_recursion_residual(
                        ctx, Ip, h, d, int(rng.integers(0, q ** (m - 1))), lam))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 60.0
    record_criterion(1, "identity suite (split recursion, H/G recursions)",
                     ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_parseval():
    rng = seeded()
    contexts = []
    for (q, m), f in identity_functions().items():
        for k in (1, 2, 3):
            nums = tuple(int(rng.integers(0, f.m_prime)) for _ in range(k))
            contexts.append(fx.make_context(f, AlphaVector(nums, f.m_prime), 10))
    worst = 0.0
    for i in range(1000):
        ctx = contexts[i % len(contexts)]
        lam = int(rng.integers(1, 11))
        d = int(rng.integers(0, ctx.q ** lam))
        Is = ctx.index_vectors()
        I = Is[int(rng.integers(0, len(Is)))]
        worst = max(worst, abs(fx.parseval_sum(ctx, I, d, lam) - 1.0))
    record_criterion(2, "Parseval for G", worst <= 1e-9,
                     f"worst defect {worst:.2e}")


def test_criterion_03_explicit_bounds():
    rng = seeded()
    violations = 0

    for _ in range(1000):  # complete Gauss sums
        m = int(rng.integers(1, 4097))
        a = int(rng.integers(-m, m + 1))
        b = int(rng.integers(-m, m + 1))
        violations += not an.gauss_sum(a, b, m).ok

    for _ in range(1000):  # incomplete Gauss sums
        m = int(rng.integers(1, 4097))
        a = int(rng.integers(0, m + 1))
        b = int(rng.integers(0, m + 1))
        n0 = int(rng.integers(0, 10 ** 9))
        N = int(rng.integers(0, 513))
        violations += not an.incomplete_gauss_sum(a, b, m, n0, N).ok

    for _ in range(1000):  # geometric series against min bound
        xi = float(rng.uniform(-3, 3))
        L1 = int(rng.integers(-256, 256))
        L2 = L1 + int(rng.integers(0, 513))
        violations += not an.geometric_min_bound(xi, L1, L2).ok

    for _ in range(1000):  # Van der Corput
        n = int(rng.integers(2, 513))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        Q = int(rng.integers(1, 17))
        R = int(rng.integers(1, 17))
        lhs, rhs = an.van_der_corput_check(z, Q, R)
        violations += lhs > rhs + 1e-6 * max(1.0, abs(rhs))

    grid = np.arange(1 << 10) / (1 << 10)
    for _ in range(1000):  # Vaaler coefficients and sandwich
        alpha = float(rng.uniform(0, 1))
        H = int(rng.integers(1, 65))
        vp = an.vaaler_build(alpha, H)
        a_margin, b_margin = vp.coefficient_margins()
        violations += a_margin.min() < -1e-12 or b_margin.min() < -1e-12
        violations += float(vp.defect(grid).max()) > 1e-9

    for _ in range(1000):  # inverse-sinus sums
        m = int(rng.integers(1, 4097))
        a = int(rng.integers(0, 2 * m + 2))
        b = float(rng.uniform(-m, m))
        U = float(rng.uniform(0.5, 10 ** 7))
        violations += not an.sinus_sum_checks(a, m, b, U).single_ok

    record_criterion(3, "explicit analytic bounds (6 sweeps x 1000)",
                     violations == 0, f"{violations} violations")


def test_criterion_04_condition_checks():
    start = time.perf_counter()
    results = {}
    for name in ("rudin-shapiro", "thue-morse"):
        f = dq.preset(name)
        ctx = fx.make_context(f, AlphaVector((1, 1), 2), 12)
        samples = fx.stratified_samples(2 ** (12 + f.m - 1), 1 << 10)
        r1 = fx.check_condition1(ctx, h_samples=samples, lam=12)
        r2 = fx.check_condition2(ctx, h_samples=samples, lam=12)
        results[name] = (r1, r2)
        assert r1.c0 == pytest.approx(float(f.q) ** (-3 * ctx.m0()) / 2)
        assert r2.eta == pytest.approx(
            4 * math.sin(math.pi / (2 * f.m_prime)) ** 2
            * float(f.q) ** (-3 * ctx.m1_pair()))
    elapsed = time.perf_counter() - start
    ok = all(r1.ok and r2.ok for r1, r2 in results.values()) and elapsed <= 120.0
    worst = min(min(r1.worst_margin, r2.worst_margin)
                for r1, r2 in results.values())
    record_criterion(4, "row-norm conditions at lam=12, 2^10 h samples",
                     ok, f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05a_prop2_saving_thue_morse():
    # Block length m1 = 2, every delta < 4, 2^8 z grid.  The witness pairs
    # overlap for k = 1, so the proven saving is the chain constant
    # eta3 = 3 - sqrt(5 + 4 cos(pi/2)) and the bound q^m1 - eta3 = 1 + sqrt 5
    # (docs/DECISIONS.md).  The grid maximum is only a lower bound on the
    # supremum 16/(3 sqrt 3) = 3.0792, so the certified upper bound must
    # clear the bound as well.
    ctx = fx.make_context(dq.preset("thue-morse"), AlphaVector((1,), 2), 10)
    rep = fx.prop2_saving_sweep(ctx, grid=256)
    assert rep.m1 == 2 and rep.deltas_checked == 4
    assert rep.bound == pytest.approx(1 + math.sqrt(5), abs=1e-12)
    record_criterion(
        "5a", "block-norm saving, Thue-Morse k=1 at m1=2",
        rep.ok and rep.certified_upper <= rep.bound,
        f"worst norm {rep.worst_norm:.6f} vs bound {rep.bound:.6f}, "
        f"certified upper {rep.certified_upper:.6f}")


def test_criterion_05b_prop2_saving_rudin_shapiro():
    ctx = fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 0), 2), 12)
    deltas = fx.stratified_samples(2 ** 12, 1 << 6)
    rep = fx.prop2_saving_sweep(ctx, deltas=deltas, grid=256)
    record_criterion("5b", "block-norm saving, Rudin-Shapiro k=2 at m1=12",
                     rep.ok,
                     f"worst norm {rep.worst_norm:.1f} vs bound {rep.bound:.1f}")


def test_criterion_06_witness_construction():
    rng = seeded()
    cases = []
    for f, nums in [
        (dq.preset("thue-morse"), (1,)),
        (dq.preset("thue-morse"), (1, 0)),
        (dq.preset("thue-morse"), (0, 1)),
        (dq.preset("thue-morse"), (1, 1, 1)),
        (dq.preset("rudin-shapiro"), (1, 0)),
        (dq.preset("rudin-shapiro"), (0, 1)),
        (dq.preset("digit-sum", q=3, m_prime=3), (1,)),
        (dq.preset("digit-sum", q=3, m_prime=3), (1, 1)),
    ]:
        alpha = AlphaVector(nums, f.m_prime)
        assert not alpha.is_integer_K
        cases.append(fx.make_context(f, alpha, 8))

    verified = 0
    total = 0
    combos = sum(len(c.index_vectors()) for c in cases)
    per_case = -(-1000 // combos)  # ceil, so the sweep reaches 10^3 cases
    for ctx in cases:
        m1 = ctx.m1_single()
        for I in ctx.index_vectors():
            for _ in range(per_case):
                delta = int(rng.integers(0, ctx.q ** min(m1, 16)))
                rec = fx.find_saving_witness(ctx, I, delta)
                total += 1
                verified += rec.verified
    witness_ok = verified == total and total >= 1000

    # exhaustive collapse and path identities
    path_ok = True
    for (q, m), f in identity_functions().items():
        for k in range(1, 5):
            ctx = fx.make_context(f, AlphaVector((1,) * k, f.m_prime), 6)
            full, _ = fx.enumerate_index_sets(q, m, k)
            zero = (0,) * k
            m0 = ctx.m0()
            path_ok &= all(fx.transform_T(ctx, I, 0, 0, m0) == zero
                           for I in full)
            cap = q ** (m - 1)
            n1 = fx._ilog_floor(q, k) + m
            for n0 in range(k):
                I0 = tuple([cap - 1] * (n0 + 1) + [cap] * (k - n0 - 1))
                path_ok &= fx.transform_T(ctx, zero, q ** n1 - n0 - 1, 1, n1) == I0
    record_criterion(6, "saving witnesses + collapse/path identities",
                     witness_ok and path_ok,
                     f"{verified}/{total} witnesses verified")


def test_criterion_07_empirical_normality():
    start = time.perf_counter()
    ok = True
    details = []
    for name in ("rudin-shapiro", "thue-morse"):
        f = dq.preset(name)
        values = dq.stream(f, dq.SQUARE, 0, 10 ** 6 + 7)
        for k in range(1, 9):
            hist = dq.block_histogram(values[:10 ** 6 + k - 1], k)
            rep = dq.normality_deviation(hist, 2)
            if k <= 4:
                ok &= rep.max_deviation <= 0.01
                details.append(f"{name[:2]} k={k} dev {rep.max_deviation:.4f}")
            ok &= rep.missing_blocks == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 60.0
    record_criterion(7, "block frequencies along squares at N=10^6",
                     ok, f"{elapsed:.1f}s")


def test_criterion_08_exponential_sum_decay():
    grid = [2 ** e for e in range(10, 21)]
    slopes = {}
    for label, f, nums in [
        ("thue-morse k=1", dq.preset("thue-morse"), (1,)),
        ("rudin-shapiro k=2 a=(1,1)", dq.preset("rudin-shapiro"), (1, 1)),
        ("rudin-shapiro k=2 a=(1,0)", dq.preset("rudin-shapiro"), (1, 0)),
    ]:
        fit = dq.decay_exponent(f, AlphaVector(nums, 2), grid)
        slopes[label] = fit.slope
    zero = dq.decay_exponent(dq.preset("thue-morse"), AlphaVector((0,), 2), grid)
    ok = all(s <= 0.98 for s in slopes.values()) and \
        abs(zero.slope - 1.0) <= 0.001
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    record_criterion(8, "log-log decay slopes over N=2^10..2^20", ok,
                     detail + f", zero-alpha {zero.slope:.4f}")


def test_criterion_09_carry_constants():
    f = dq.preset("rudin-shapiro")
    worst = 0.0
    cells = 0
    for rho in (0, 2):
        for lam in (18, 20):
            for r in range(0, min(2 ** rho, 7) + 1):  # all legal r, capped at 8
                ce = an.carry_exception_count(f, 16, lam, rho, r)
                worst = max(worst, ce.constant)
                cells += 1
    record_criterion(9, "carry exception constants at nu=16",
                     worst <= 16.0, f"{cells} cells, worst C = {worst:.3f}")


def test_criterion_10_generation_performance():
    f = dq.preset("rudin-shapiro")
    # one full-size warm-up run pays the table build and first-touch
    # allocation costs, so the timings below see steady-state throughput
    values = dq.stream(f, dq.SQUARE, 0, 10 ** 7)
    assert values.size == 10 ** 7

    def seconds(count):
        t0 = time.perf_counter()
        dq.stream(f, dq.SQUARE, 0, count)
        return time.perf_counter() - t0

    # best of 5 each, the sizes alternating, so that load from another
    # process lands on both sides of the ratio rather than on one
    small, big = zip(*((seconds(10 ** 6), seconds(10 ** 7)) for _ in range(5)))
    t_small, t_big = min(small), min(big)
    ratio = t_big / t_small
    ok = t_big <= 5.0 and ratio <= 15.0
    record_criterion(10, "10^7 symbols along squares",
                     ok, f"{t_big:.2f}s, scaling ratio {ratio:.1f}")
