"""Index sets, T/v, the H/G Fourier terms, transfer matrices, witnesses."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import digitseq as dq
from digitseq import fourier as fx
from digitseq.budget import BudgetExceededError
from digitseq.normality import AlphaVector
from digitseq.phases import e_frac, frac_norm


@pytest.fixture(scope="module")
def rs_ctx():
    return fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 1), 2), 10)


@pytest.fixture(scope="module")
def rs_half_ctx():
    return fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 0), 2), 10)


@pytest.fixture(scope="module")
def tm_ctx():
    return fx.make_context(dq.preset("thue-morse"), AlphaVector((1,), 2), 10)


def brute_H(ctx, I, h, d, lam):
    """H by per-term scalar evaluation, no tables, no rolls."""
    period = ctx.q ** (lam + ctx.m - 1)
    total = 0j
    for u in range(period):
        phase = sum(num * dq.eval_b_truncated(ctx.f, u + ell * d + i, lam)
                    for ell, (i, num) in enumerate(zip(I, ctx.alpha.numerators)))
        total += e_frac(phase * period - h * u * ctx.m_prime, ctx.m_prime * period)
    return total / period


def brute_G(ctx, I, h, d, lam):
    n = ctx.q ** lam
    shift = ctx.q ** (ctx.m - 1)
    total = 0j
    for u in range(n):
        phase = sum(num * dq.eval_b_truncated(ctx.f, shift * (u + ell * d) + i, lam)
                    for ell, (i, num) in enumerate(zip(I, ctx.alpha.numerators)))
        total += e_frac(phase * n - h * u * ctx.m_prime, ctx.m_prime * n)
    return total / n


# ----------------------------------------------------------------------
# index sets


def test_index_set_cardinalities():
    full, start = fx.enumerate_index_sets(2, 2, 2)
    assert len(full) == 6 and len(start) == 2
    assert fx.index_set_size(2, 2, 2) == 6
    full, _ = fx.enumerate_index_sets(2, 1, 4)
    assert len(full) == 2 ** 3
    for q, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        full, _ = fx.enumerate_index_sets(q, m, 1)
        assert len(full) == q ** (m - 1)


def test_index_sets_lexicographic_and_valid():
    full, start = fx.enumerate_index_sets(2, 2, 3)
    assert full == sorted(full)
    assert all(fx.is_index_vector(I, 2, 2) for I in full)
    assert all(fx.is_start_index_vector(I) for I in start)
    assert set(start) <= set(full)
    assert full[0] == (0, 0, 0)


def test_index_set_budget():
    with pytest.raises(BudgetExceededError):
        fx.enumerate_index_sets(2, 5, 5)


# ----------------------------------------------------------------------
# T and v


def test_T_collapse_and_path_identities():
    # T^{m0}_{0,0}(I) = 0 for every I; the block shift with eps =
    # q^{n1}-n0-1, delta = 1 reaches the distinguished vector I0 whose
    # first n0+1 coordinates sit one below the rest.
    presets = {(2, 1): dq.preset("thue-morse"),
               (2, 2): dq.preset("rudin-shapiro"),
               (3, 1): dq.preset("digit-sum", q=3, m_prime=2)}
    for (q, m), f in presets.items():
        for k in range(1, 5):
            ctx = fx.make_context(f, AlphaVector((1,) * k, 2), 6)
            full, _ = fx.enumerate_index_sets(q, m, k)
            m0 = ctx.m0()
            zero = (0,) * k
            assert all(fx.transform_T(ctx, I, 0, 0, m0) == zero for I in full)
            cap = q ** (m - 1)
            n1 = fx._ilog_floor(q, k) + m
            for n0 in range(k):
                I0 = tuple([cap - 1] * (n0 + 1) + [cap] * (k - n0 - 1))
                got = fx.transform_T(ctx, zero, q ** n1 - n0 - 1, 1, n1)
                assert got == I0, (q, m, k, n0)


def test_T_stays_in_index_set_and_composes(rng, rs_ctx):
    full = rs_ctx.index_vectors()
    for _ in range(10_000):
        I = full[int(rng.integers(0, len(full)))]
        j1 = int(rng.integers(0, 5))
        j2 = int(rng.integers(0, 5))
        e1 = int(rng.integers(0, 2 ** j1)) if j1 else 0
        d1 = int(rng.integers(0, 2 ** j1)) if j1 else 0
        e2 = int(rng.integers(0, 2 ** j2)) if j2 else 0
        d2 = int(rng.integers(0, 2 ** j2)) if j2 else 0
        mid = fx.transform_T(rs_ctx, I, e1, d1, j1)
        assert fx.is_index_vector(mid, 2, 2)
        two_step = fx.transform_T(rs_ctx, mid, e2, d2, j2)
        combined = fx.transform_T(rs_ctx, I, e2 * 2 ** j1 + e1,
                                  d2 * 2 ** j1 + d1, j1 + j2)
        assert two_step == combined


def test_T_identity_at_j0(rs_ctx):
    for I in rs_ctx.index_vectors():
        assert fx.transform_T(rs_ctx, I, 0, 0, 0) == I


def test_T_rejects_bad_vector(rs_ctx):
    with pytest.raises(ValueError):
        fx.transform_T(rs_ctx, (5, 0), 0, 0, 1)


def test_weight_v_examples(rs_ctx):
    f = rs_ctx.f
    expected = (dq.eval_b_truncated(f, 6, 2) + dq.eval_b_truncated(f, 8, 2)) % 2
    assert fx.weight_v_phase(rs_ctx, (0, 0), 3, 1, 2) == expected
    assert fx.weight_v_phase(rs_ctx, (0, 1), 0, 0, 0) == 0
    assert abs(fx.weight_v(rs_ctx, (1, 2), 3, 2, 3)) == pytest.approx(1.0)


def test_weight_v_zero_alpha(tm_ctx):
    ctx = fx.make_context(tm_ctx.f, AlphaVector((0,), 2), 6)
    assert fx.weight_v(ctx, (0,), 3, 1, 2) == 1 + 0j


# ----------------------------------------------------------------------
# H and G


def test_H_zero_alpha_geometric(rudin_shapiro):
    ctx = fx.make_context(rudin_shapiro, AlphaVector((0, 0), 2), 6)
    period = 2 ** 7
    assert fx.fourier_H(ctx, (0, 0), 0, 3, 6) == pytest.approx(1.0)
    assert fx.fourier_H(ctx, (0, 0), period, 3, 6) == pytest.approx(1.0)
    assert abs(fx.fourier_H(ctx, (0, 0), 5, 3, 6)) == pytest.approx(0.0, abs=1e-12)


def test_H_thue_morse_example(tm_ctx):
    # depth 3, h = d = 0: the balanced sum of (-1)^popcount over 0..7
    assert fx.fourier_H(tm_ctx, (0,), 0, 0, 3) == pytest.approx(0.0, abs=1e-12)


def test_H_G_match_bruteforce(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        full = ctx.index_vectors()
        start = ctx.start_vectors()
        for _ in range(8):
            lam = int(rng.integers(1, 6))
            h = int(rng.integers(0, ctx.q ** (lam + ctx.m - 1)))
            d = int(rng.integers(0, 64))
            I = full[int(rng.integers(0, len(full)))]
            Ip = start[int(rng.integers(0, len(start)))]
            assert fx.fourier_G(ctx, I, h, d, lam) == pytest.approx(
                brute_G(ctx, I, h, d, lam), abs=1e-12)
            assert fx.fourier_H(ctx, Ip, h, d, lam) == pytest.approx(
                brute_H(ctx, Ip, h, d, lam), abs=1e-12)


def test_G_reformulation_via_v(rng, rs_ctx):
    # G equals the v-weighted Fourier sum with eps running over one period
    for _ in range(10):
        lam = int(rng.integers(1, 7))
        h = int(rng.integers(0, 2 ** lam))
        d = int(rng.integers(0, 2 ** lam))
        I = rs_ctx.index_vectors()[int(rng.integers(0, 6))]
        n = 2 ** lam
        direct = sum(fx.weight_v(rs_ctx, I, u, d, lam) * e_frac(-h * u, n)
                     for u in range(n)) / n
        assert fx.fourier_G(rs_ctx, I, h, d, lam) == pytest.approx(direct, abs=1e-10)


def test_H_recursion(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        for _ in range(12):
            lam = int(rng.integers(1, 9))
            h = int(rng.integers(0, ctx.q ** (lam + ctx.m - 1)))
            d = int(rng.integers(0, 2 ** 10))
            delta = int(rng.integers(0, ctx.q ** (ctx.m - 1)))
            Ip = ctx.start_vectors()[int(rng.integers(0, len(ctx.start_vectors())))]
            assert fx.h_recursion_residual(ctx, Ip, h, d, delta, lam) <= 1e-9


def test_G_recursion(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        for _ in range(12):
            lam = int(rng.integers(1, 9))
            j = int(rng.integers(1, lam + 1))
            h = int(rng.integers(0, ctx.q ** lam))
            d = int(rng.integers(0, 2 ** 10))
            delta = int(rng.integers(0, ctx.q ** j))
            I = ctx.index_vectors()[int(rng.integers(0, len(ctx.index_vectors())))]
            assert fx.g_recursion_residual(ctx, I, h, d, j, delta, lam) <= 1e-9


def test_parseval(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        for _ in range(20):
            lam = int(rng.integers(1, 10))
            d = int(rng.integers(0, 2 ** lam))
            I = ctx.index_vectors()[int(rng.integers(0, len(ctx.index_vectors())))]
            assert fx.parseval_sum(ctx, I, d, lam) == pytest.approx(1.0, abs=1e-9)


def test_G_all_h_matches_single(rng, rs_ctx):
    lam, d = 6, 37
    spec = fx.fourier_G_all_h(rs_ctx, (0, 1), d, lam)
    for h in [0, 1, 17, 63]:
        assert spec[h] == pytest.approx(fx.fourier_G(rs_ctx, (0, 1), h, d, lam),
                                        abs=1e-12)


def test_G_all_h_rejects_invalid_vector(rs_ctx):
    # (7, 99) is no offset vector for q = 2, m = 2; fourier_G already refuses it
    with pytest.raises(ValueError):
        fx.fourier_G(rs_ctx, (7, 99), 0, 3, 4)
    with pytest.raises(ValueError):
        fx.fourier_G_all_h(rs_ctx, (7, 99), 3, 4)
    with pytest.raises(ValueError):
        fx.parseval_sum(rs_ctx, (7, 99), 3, 4)


def test_H_rejects_non_start_vector(rs_ctx):
    with pytest.raises(ValueError):
        fx.fourier_H(rs_ctx, (1, 2), 0, 0, 4)


def reference_phases(ctx, I, d, lam, stride, n):
    """sum_l num_l b_lam(stride (u + l d) + i_l) mod m' by %-indexed gathers."""
    big = ctx.q ** (lam + ctx.m - 1)
    d %= big
    tab = ctx.band_table(lam)
    I = np.asarray(I, dtype=np.int64)[..., None]
    u = np.arange(n, dtype=np.int64)
    ph = np.zeros(I.shape[:-2] + (n,), dtype=np.int64)
    for ell, num in enumerate(ctx.alpha.numerators):
        if num:
            ph += num * tab[(stride * (u + ell * d) + I[..., ell, :]) % big]
    return ph % ctx.m_prime


def reference_fourier_sum(ctx, I, h, d, lam, stride, n):
    """The H/G sum with an np.exp kernel per term, in slices of _STACK_TERMS."""
    u = np.arange(n, dtype=np.int64)
    kernel = np.exp(-2j * np.pi * (((h % n) * u) % n) / n)
    I = np.asarray(I, dtype=np.int64)
    flat, rows = I.reshape(-1, I.shape[-1]), max(1, fx._STACK_TERMS // n)
    sums = [(ctx.roots[reference_phases(ctx, flat[s:s + rows], d, lam, stride, n)] * kernel)
            .sum(axis=-1) for s in range(0, len(flat), rows)]
    return np.concatenate(sums).reshape(I.shape[:-1]) / n


def _pair_function(q):
    """Count of "11" blocks in base q, mod 2: like Rudin-Shapiro, m = 2."""
    F = [0] * q ** 2
    F[q + 1] = 1
    return dq.make_digital_function(q, 2, F, 2)


_SUM_CASES = {(2, 1): dq.preset("thue-morse"), (2, 2): dq.preset("rudin-shapiro"),
              (3, 1): dq.preset("digit-sum", q=3, m_prime=3), (3, 2): _pair_function(3),
              (10, 1): dq.preset("digit-sum", q=10, m_prime=3), (10, 2): _pair_function(10)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("qm", list(_SUM_CASES), ids=str)
def test_fourier_sums_match_reference_bit_for_bit(qm, k, rng):
    # the cached kernel and rotated band slices give the same bits as an
    # np.exp kernel and %-indexed gathers, for h < 0, h >= n, h > 2^63 and
    # d at and past the period q^(lam+m-1)
    f = _SUM_CASES[qm]
    nums = [int(v) for v in rng.integers(1, f.m_prime, k)]
    nums[-1] *= k != 2  # one zero coefficient among the k = 2 cases
    ctx = fx.make_context(f, AlphaVector(nums, f.m_prime), 4)
    q, m, shift = f.q, f.m, f.q ** (f.m - 1)
    Is, starts = ctx.index_vectors(), ctx.start_vectors()
    for lam in range(4 if q < 10 else 2):
        big, n = q ** (lam + m - 1), q ** lam
        for h in (0, 1, -3, big + 5, 2 ** 64 + 3, -(2 ** 70) - 1,
                  int(rng.integers(0, 2 ** 40))):
            for d in (0, 5, 3 * big + 2, 2 ** 66 + 1, -7):
                Ip, I = starts[-1], Is[int(rng.integers(0, len(Is)))]
                assert fx.fourier_H(ctx, Ip, h, d, lam) == complex(
                    reference_fourier_sum(ctx, Ip, h, d, lam, 1, big))
                assert fx.fourier_G(ctx, I, h, d, lam) == complex(
                    reference_fourier_sum(ctx, I, h, d, lam, shift, n))
                stack = [Is[:64], Is[::-1][:64]]
                assert np.array_equal(fx._G(ctx, stack, h, d, lam),
                                      reference_fourier_sum(ctx, stack, h, d, lam, shift, n))
        for d in (0, 5, 2 ** 66 + 1):
            want = np.fft.fft(ctx.roots[reference_phases(ctx, Is[-1], d, lam, shift, n)]) / n
            assert np.array_equal(fx.fourier_G_all_h(ctx, Is[-1], d, lam), want)
    held = fx._kernel_table
    assert held.held == sum(map(len, held.tables.values())) <= held.terms


def test_fourier_sum_stack_past_stack_terms_bit_for_bit():
    # 1,100 rows of 2^10 terms cross _STACK_TERMS = 2^20, so the stack is
    # summed in two slices
    ctx = fx.make_context(dq.preset("thue-morse"), AlphaVector((1, 1), 2), 10)
    stack = np.array(ctx.index_vectors() * 550).reshape(2, 550, 2)
    assert stack[..., 0].size * 2 ** 10 > fx._STACK_TERMS
    for h, d in ((3, 7), (2 ** 64 + 9, -(2 ** 65))):
        assert np.array_equal(fx._G(ctx, stack, h, d, 10),
                              reference_fourier_sum(ctx, stack, h, d, 10, 1, 2 ** 10))


@pytest.mark.parametrize("f,k,lams", [
    (_pair_function(3), 3, (1, 2, 3)),          # 48 offset vectors, short rows
    (dq.preset("rudin-shapiro"), 3, (9, 10)),   # rows of 2^9 to 2^11 terms
    (dq.preset("thue-morse"), 2, (10, 11)),
], ids=["q3-m2-k3", "rs-k3", "tm-k2"])
def test_phases_match_reference_on_shared_and_long_rows(f, k, lams):
    # stacks of more than 32 rows and rows of 2^10 terms or more, each c
    # held by several rows, give the %-indexed gather's phases exactly
    ctx = fx.make_context(f, AlphaVector([1] * (k - 1) + [f.m_prime - 1], f.m_prime), 1)
    Is = list(ctx.index_vectors())
    stack = (Is + Is[::-1]) * (1 + 32 // len(Is))
    assert len(stack) > 32
    for lam in lams:
        big = f.q ** (lam + f.m - 1)
        for stride in (1, f.q ** (f.m - 1)):
            n = big // stride
            for d in (0, 3, big + 1, 2 ** 65 - 1):
                want = reference_phases(ctx, stack, d, lam, stride, n)
                got = fx._phases(ctx, stack, d, lam, stride)
                assert (got % f.m_prime == want).all() and got.max() < len(ctx.phase_roots)


def test_phase_tables_grow_linearly_in_m_prime():
    # each coefficient's band is reduced mod m' first, so a phase sums k
    # terms below m' and the wrapped roots table has k (m' - 1) + 1 entries
    mp = 10 ** 5
    ctx = fx.make_context(dq.preset("digit-sum", q=3, m_prime=mp),
                          AlphaVector((mp // 2, 1, mp - 1), mp), 6)
    assert len(ctx.phase_roots) == 3 * (mp - 1) + 1
    assert sorted(ctx.times) == [mp // 2, mp - 1]
    assert all(len(t) == mp for t in ctx.times.values())
    Is = ctx.index_vectors()
    for lam, h, d in ((6, 12345, 77), (3, -5, 2 ** 64 + 1)):
        assert fx.fourier_H(ctx, Is[0], h, d, lam) == complex(
            reference_fourier_sum(ctx, Is[0], h, d, lam, 1, 3 ** lam))
        ph = fx._phases(ctx, Is, d, lam, 1)
        assert ph.max() < len(ctx.phase_roots)
        assert np.array_equal(ph % mp, reference_phases(ctx, Is, d, lam, 1, 3 ** lam))


def test_kernel_tables_stay_within_their_bound():
    tables = fx._KernelTables(1000)
    for n in list(range(1, 200)) + [600, 3, 300, 1500]:
        tab = tables(n)
        assert np.array_equal(tab, np.exp(-2j * np.pi * np.arange(n) / n))
        assert tables.held == sum(map(len, tables.tables.values())) <= 1000
    # a table past the bound is not kept; the least recently used go first
    assert list(tables.tables) == [600, 3, 300]
    assert tables(600) is tables.tables[600]
    tables(200)
    assert list(tables.tables) == [600, 200] and tables.held == 800


# ----------------------------------------------------------------------
# transfer matrices


def test_transfer_row_sums_bounded(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        for _ in range(500):
            beta = float(rng.uniform())
            M = fx.build_transfer_matrix(ctx, beta)
            assert M.row_sums().max() <= 1.0 + 1e-12


def test_transfer_path_counts(rs_ctx):
    M = fx.build_transfer_matrix(rs_ctx, (1, 8))
    assert np.all(M.path_counts.sum(axis=1) == rs_ctx.q ** 3)
    # entries are dominated by path counts / q^3
    assert np.all(np.abs(M.entries) <= M.path_counts / rs_ctx.q ** 3 + 1e-12)
    # multi-step path counts keep the total mass q^{3j}
    three = M.path_counts @ M.path_counts @ M.path_counts
    assert np.all(three.sum(axis=1) == rs_ctx.q ** 9)


def phi_bruteforce(ctx, I, I2, h, lam, lam_prime):
    """avg_{d < q^lam'} G_lam^I(h,d) conj(G_lam^I2(h,d)) by direct sum."""
    n = ctx.q ** lam_prime
    return sum(fx.fourier_G(ctx, I, h, d, lam) * np.conj(fx.fourier_G(ctx, I2, h, d, lam))
               for d in range(n)) / n


def test_phi_matrix_vs_bruteforce(rng, rs_ctx, tm_ctx):
    for ctx in (rs_ctx, tm_ctx):
        Is = ctx.index_vectors()
        nI = len(Is)
        for _ in range(4):
            lam = int(rng.integers(2, 7))
            lam_p = int(rng.integers(1, lam + 1))
            h = int(rng.integers(0, ctx.q ** lam))
            psi = fx.psi_vector(ctx, h, lam, lam_p)
            ra = int(rng.integers(0, nI))
            rb = int(rng.integers(0, nI))
            want = phi_bruteforce(ctx, Is[ra], Is[rb], h, lam, lam_p)
            assert psi[ra * nI + rb] == pytest.approx(want, abs=1e-9)


def test_condition1_rudin_shapiro(rs_ctx):
    rep = fx.check_condition1(rs_ctx, h_samples=fx.stratified_samples(2 ** 11, 128))
    assert rep.ok and rep.window == 3
    assert rep.c0 == pytest.approx(2.0 ** -9 / 2)


def test_condition1_thue_morse():
    ctx = fx.make_context(dq.preset("thue-morse"), AlphaVector((1, 1), 2), 10)
    rep = fx.check_condition1(ctx, h_samples=fx.stratified_samples(2 ** 10, 128))
    assert rep.ok and rep.window == 2


def test_condition1_rejects_zero_alpha(rudin_shapiro):
    ctx = fx.make_context(rudin_shapiro, AlphaVector((0, 0), 2), 8)
    with pytest.raises(ValueError):
        fx.check_condition1(ctx)


def test_condition2_rudin_shapiro(rs_ctx):
    rep = fx.check_condition2(rs_ctx, h_samples=fx.stratified_samples(2 ** 11, 64))
    assert rep.ok and rep.window == 8
    assert rep.eta == pytest.approx(4 * math.sin(math.pi / 4) ** 2 * 2.0 ** -24)


def test_condition_checks_reject_empty_h_samples(rs_ctx):
    for check in (fx.check_condition1, fx.check_condition2):
        with pytest.raises(ValueError, match="h_samples"):
            check(rs_ctx, h_samples=[])


def test_default_h_samples_distinct_mod_q_lam(monkeypatch):
    # a window depends on h mod q^lam only, so no two default h may share it;
    # for RS (m = 2) a spread over q^(lam+m-1) repeats every residue twice
    drawn, spread = [], fx.stratified_samples

    def recording(total, cap):
        drawn.append(spread(total, cap))
        return drawn[-1]

    monkeypatch.setattr(fx, "stratified_samples", recording)
    for lam in (8, 12):
        ctx = fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 1), 2), lam)
        for check in (fx.check_condition1, fx.check_condition2):
            rep = check(ctx)
            hs = drawn.pop()
            assert rep.h_count == len(hs) == min(2 ** lam, 1 << 10)
            assert len({h % 2 ** lam for h in hs}) == len(hs)


def test_condition_checks_take_h_of_any_size():
    # a window depends on h mod q^lam only, so shifting every h by a
    # multiple of q^(lam+m-1) far past int64 changes nothing but the h echoed
    for name, nums, lam, check in (("rudin-shapiro", (1, 1), 10, fx.check_condition1),
                                   ("digit-sum:3,2", (1, 1), 8, fx.check_condition2)):
        f = dq.parse_preset(name)
        ctx = fx.make_context(f, AlphaVector(nums, f.m_prime), lam)
        period = ctx.q ** (lam + ctx.m - 1)
        hs = fx.stratified_samples(period, 64)
        shift = 2 ** 70 * period
        small = check(ctx, h_samples=hs)
        big = check(ctx, h_samples=[h + shift for h in hs])
        assert big.worst_margin == small.worst_margin
        assert big.worst_at == (small.worst_at[0] + shift,) + small.worst_at[1:]
        assert [v[1:] for v in big.violations] == [v[1:] for v in small.violations]
        assert [v[0] for v in big.violations] == [v[0] + shift for v in small.violations]
        assert big.windows_checked == small.windows_checked
    assert small.violations  # the digit-sum case has rows to compare


def test_digit_matrices_depend_on_the_rational_only():
    # windows are keyed by beta = g/q^lam; the same phase written over a
    # finer power of q must give the same digit matrices, bit for bit
    f = dq.parse_preset("digit-sum:3,3")
    ctx = fx.make_context(f, AlphaVector((1, 2), f.m_prime), 8)
    nums = -np.arange(3 ** 6)
    assert np.array_equal(fx._digit_matrices_at(ctx, nums, 3 ** 6),
                          fx._digit_matrices_at(ctx, nums * 9, 3 ** 8))


def test_condition1_memory_bounded_by_window_cap():
    # RS k = 3: each window matrix is 1.7 MB, so _WINDOW_BYTES admits one
    ctx = fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 1, 0), 2), 10)
    ctx.transfer_parts()
    hs = fx.stratified_samples(2 ** 11, 64)
    tracemalloc.start()
    try:
        rep = fx.check_condition1(ctx, h_samples=hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.windows_checked == 64 * 8
    assert peak < 8 << 20


def test_condition2_wrong_branch(rs_half_ctx):
    rep = fx.check_condition2(rs_half_ctx)
    assert rep.wrong_branch and not rep.ok


def test_prop1_profile(rs_ctx):
    prof = fx.prop1_decay_profile(rs_ctx, (0, 0), 0, range(4, 11))
    values = [r.h_avg for r in prof.rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    # halves whenever the averaging depth increments; never increases
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < values[0] / 4
    assert prof.max_matrix_residual <= 1e-9


def test_prop1_profile_matches_scalar_sums():
    # each row's stacked H and G sums give the averages of one scalar call
    # per d, added in d order, to the bit
    cases = [(dq.preset("rudin-shapiro"), (1, 1), (0, 1), 5, range(1, 8)),
             (dq.preset("thue-morse"), (1, 1, 0), (0, 1, 1), 2 ** 64 + 3, [0, 3, 6]),
             (_pair_function(3), (1, 1), (0, 0), -4, [1, 2, 3])]
    for f, nums, Ip, h, grid in cases:
        ctx = fx.make_context(f, AlphaVector(nums, f.m_prime), 4)
        prof = fx.prop1_decay_profile(ctx, Ip, h, grid)
        for row in prof.rows:
            n = f.q ** row.lam_prime
            h_avg = g_avg = 0.0
            for d in range(n):
                h_avg += abs(fx.fourier_H(ctx, Ip, h, d, row.lam)) ** 2
                g_avg += abs(fx.fourier_G(ctx, Ip, h, d, row.lam)) ** 2
            assert (row.h_avg, row.g_avg) == (h_avg / n, g_avg / n)
        assert prof.max_matrix_residual <= 1e-9


def test_decay_checks_reject_empty_grids(rs_ctx, tm_ctx):
    with pytest.raises(ValueError, match="lambda_grid must not be empty"):
        fx.prop1_decay_profile(rs_ctx, (0, 0), 0, [])
    with pytest.raises(ValueError, match="L_grid must not be empty"):
        fx.prop2_decay_check(tm_ctx, (0,), 5, 123, [])


def test_prop1_profile_wrong_branch(rs_half_ctx):
    with pytest.raises(ValueError):
        fx.prop1_decay_profile(rs_half_ctx, (0, 0), 0, [4, 6])


# ----------------------------------------------------------------------
# single-index matrices and the saving


def test_small_matrix_identity_at_j0(tm_ctx):
    M = fx.small_matrix_M(tm_ctx, 0, 0, 1j)
    assert np.allclose(M.entries, np.eye(len(tm_ctx.index_vectors())))
    assert M.norm_inf() == pytest.approx(1.0)


def test_small_matrix_norm_bounded(rng, rs_half_ctx):
    for _ in range(10):
        j = int(rng.integers(1, 7))
        delta = int(rng.integers(0, 2 ** j))
        z = np.exp(2j * np.pi * rng.uniform())
        M = fx.small_matrix_M(rs_half_ctx, j, delta, z)
        assert M.norm_inf() <= 2.0 ** j + 1e-9


def test_small_matrix_factorization(rng, rs_half_ctx):
    # the recursion composes: applying j1 then j2 blocks with twisted z
    # arguments equals the single (j1+j2)-block matrix
    ctx = rs_half_ctx
    for _ in range(6):
        j1 = int(rng.integers(1, 4))
        j2 = int(rng.integers(1, 4))
        d1 = int(rng.integers(0, 2 ** j1))
        d2 = int(rng.integers(0, 2 ** j2))
        z = np.exp(2j * np.pi * rng.uniform())
        combined = fx.small_matrix_M(ctx, j1 + j2, d2 * 2 ** j1 + d1,
                                     z).entries
        left = fx.small_matrix_M(ctx, j1, d1, z).entries
        right = fx.small_matrix_M(ctx, j2, d2, z ** (2 ** j1)).entries
        assert np.allclose(left @ right, combined, atol=1e-9)


def test_small_matrix_reproduces_G_recursion(rng, rs_half_ctx):
    # the stacked G values obey G_lam(h, q^j d + delta)
    #   = q^-j M^j_delta(e(-h/q^lam)) G_{lam-j}(h, d)
    # tying the matrix construction to the scalar transforms directly
    ctx = rs_half_ctx
    Is = ctx.index_vectors()
    for _ in range(6):
        lam = int(rng.integers(3, 8))
        j = int(rng.integers(1, 4))
        h = int(rng.integers(0, 2 ** lam))
        d = int(rng.integers(0, 64))
        delta = int(rng.integers(0, 2 ** j))
        M = fx.small_matrix_M(ctx, j, delta, e_frac(-h, 2 ** lam)).entries
        low = np.array([fx.fourier_G(ctx, J, h, d, lam - j) for J in Is])
        lhs = np.array([fx.fourier_G(ctx, I, h, 2 ** j * d + delta, lam)
                        for I in Is])
        assert np.allclose(lhs, M @ low / 2 ** j, atol=1e-9)


def test_big_range_recursions_stay_exact(tm_ctx):
    # one case at the full 2^16 summation range
    assert fx.g_recursion_residual(tm_ctx, (0,), 12345, 67, 5, 21, 16) <= 1e-9
    assert fx.parseval_sum(tm_ctx, (0,), 999, 16) == pytest.approx(1.0, abs=1e-9)


def test_small_matrix_grid_norms_match_direct(rs_half_ctx):
    norms = fx.small_matrix_norms_on_root_grid(rs_half_ctx, 3, 5, 16)
    for t in range(16):
        z = np.exp(2j * np.pi * t / 16)
        direct = fx.small_matrix_M(rs_half_ctx, 3, 5, z).norm_inf()
        assert norms[t] == pytest.approx(direct, abs=1e-9)


def test_saving_sweep_rudin_shapiro(rs_half_ctx):
    rep = fx.prop2_saving_sweep(rs_half_ctx,
                                deltas=fx.stratified_samples(2 ** 12, 16),
                                grid=64)
    assert rep.ok and rep.m1 == 12


def test_saving_sweep_true_norm_thue_morse(tm_ctx):
    # the exact supremum of the single-entry matrix at block length 2 is
    # 16/(3 sqrt(3)), realized by (1-z)^2(1+z) on the unit circle; it
    # exceeds the two-pair saving bound because the constructed pairs
    # overlap for k = 1, and stays below the chain bound 1 + sqrt(5)
    norms = fx.small_matrix_norms_on_root_grid(tm_ctx, 2, 0, 256)
    assert norms.max() == pytest.approx(16 / (3 * math.sqrt(3)), abs=1e-4)
    assert norms.max() <= 2.0 ** 2  # the unconditional row-norm cap
    assert norms.max() > 4 - 8 * math.sin(math.pi / 8) ** 2
    assert norms.max() <= 1 + math.sqrt(5)


def test_saving_sweep_certified_upper_covers_supremum(tm_ctx):
    # the grid maximum undershoots the supremum; the Lipschitz slack
    # pi/G * sum_{eps < 4} eps must lift it back above, at every grid
    sup = 16 / (3 * math.sqrt(3))
    for grid in (4, 8, 16, 64, 256):
        rep = fx.prop2_saving_sweep(tm_ctx, grid=grid)
        assert rep.worst_norm <= sup + 1e-12
        assert rep.certified_upper >= sup
        assert rep.certified_upper == pytest.approx(
            min(rep.worst_norm + 6 * math.pi / grid, 4.0))


def test_saving_sweep_digit_sum_chain_bound():
    # binary digit sum mod 3 overlaps its witness pairs like Thue-Morse;
    # its norm breaks the two-pair bound but clears the chain bound, and
    # at G = 1024 the certified upper bound clears it too
    f = dq.preset("digit-sum", q=2, m_prime=3)
    ctx = fx.make_context(f, AlphaVector((1,), 3), 10)
    rep = fx.prop2_saving_sweep(ctx, grid=1024)
    assert rep.m1 == 2 and rep.deltas_checked == 4
    assert rep.bound == pytest.approx(1 + math.sqrt(7), abs=1e-12)
    assert rep.ok and rep.certified_upper <= rep.bound
    assert rep.worst_norm > 4 - 8 * math.sin(math.pi / 12) ** 2


def test_saving_sweep_counts_distinct_deltas(rs_half_ctx):
    # 5, 5 and 4101 are one delta mod 2^12: one M^m1_delta is checked
    rep = fx.prop2_saving_sweep(rs_half_ctx, deltas=[5, 5, 4101], grid=16)
    assert rep.deltas_checked == 1
    assert rep == fx.prop2_saving_sweep(rs_half_ctx, deltas=[5], grid=16)


def test_saving_sweep_wrong_branch(rs_ctx):
    with pytest.raises(ValueError):
        fx.prop2_saving_sweep(rs_ctx, deltas=[0])


def test_empty_delta_lists_raise(rs_half_ctx):
    # nothing checked must not read as a passed check with worst norm 0
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="deltas must not be empty"):
            fx.prop2_saving_sweep(rs_half_ctx, deltas=empty)
    with pytest.raises(ValueError, match="deltas must not be empty"):
        fx.small_matrix_norms_on_root_grid(rs_half_ctx, 3, [], 16)


def test_root_grid_rejects_bad_grid(rs_half_ctx):
    for grid in (0, -3):
        with pytest.raises(ValueError, match=f"grid must be >= 1, got {grid}"):
            fx.prop2_saving_sweep(rs_half_ctx, deltas=[1], grid=grid)
        with pytest.raises(ValueError, match=f"grid must be >= 1, got {grid}"):
            fx.small_matrix_norms_on_root_grid(rs_half_ctx, 3, 5, grid)


def test_saving_sweep_memory_bounded_by_window_cap():
    # every delta < 2^12 at a 256-point grid: all products at once would take
    # 4096 x 256 x 6^2 complex (604 MB); chunks stay near _WINDOW_BYTES
    ctx = fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 0), 2), 12)
    ctx.transfer_parts()
    tracemalloc.start()
    try:
        rep = fx.prop2_saving_sweep(ctx, grid=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.deltas_checked == 2 ** 12
    assert peak < 12 << 20


# ----------------------------------------------------------------------
# witnesses


def _partition_at(keys, q, x):
    """Group offset positions by key mod q^x; canonical sorted form."""
    p = q ** x
    classes = {}
    for ell, key in enumerate(keys):
        classes.setdefault(key % p, []).append(ell)
    return tuple(sorted(tuple(v) for v in classes.values()))


def reference_saving_witness(ctx, I, delta):
    """The witness built from sorted partitions compared level by level."""
    if not fx.is_index_vector(I, ctx.q, ctx.m):
        raise ValueError(f"{I} is not a valid offset vector")
    q, m, k, mp = ctx.q, ctx.m, ctx.k, ctx.m_prime
    m1 = ctx.m1_single()
    step = 4 * m - 2
    dd = int(delta) % q ** m1
    shift = q ** (m - 1)

    keys = [I[ell] // shift + dd * ell for ell in range(k)]

    x0 = None
    for x in range(step * (k - 1) + 1):
        if _partition_at(keys, q, x) == _partition_at(keys, q, x + step):
            x0 = x
            break
    if x0 is None:
        raise RuntimeError("partition chain failed to stabilize")

    classes = {}
    for ell, key in enumerate(keys):
        classes.setdefault(key % q ** x0, []).append(ell)
    beta_nums = {c: sum(ctx.alpha.numerators[ell] for ell in members) % mp
                 for c, members in classes.items()}
    c0 = min((c for c, b in beta_nums.items() if b != 0), default=None)
    if c0 is None:
        raise RuntimeError("no class with non-integral coefficient mass; "
                           "K should be non-integral")
    beta_num = beta_nums[c0]
    c0_plus = keys[classes[c0][0]] % q ** (x0 + step)

    e1, e2, d = dq.find_difference_witness(ctx.f, beta_num)

    m1p = x0 + step
    pm1p = q ** m1p
    eps = [(q ** (x0 + m - 1) * (e + 1) - c0_plus - 1) % pm1p for e in (e1, e2)]
    wrapped = any(e + 1 == pm1p for e in eps)

    delta_red = int(delta) % pm1p
    clause_T = all(
        fx._T(ctx, I, e, delta_red, m1p) == fx._T(ctx, I, (e + 1) % pm1p, delta_red, m1p)
        for e in eps
    )

    ph = [(fx.weight_v_phase(ctx, I, e, delta_red, m1p),
           fx.weight_v_phase(ctx, I, (e + 1) % pm1p, delta_red, m1p))
          for e in eps]
    xi = [(b - a) % mp for a, b in ph]
    xi_gap = (xi[0] - xi[1]) % mp

    zg = np.exp(2j * np.pi * np.arange(256) / 256)
    gap = (eps[1] - eps[0]) % pm1p
    if gap in (1, pm1p - 1):
        argument = "chain"
        eta_p = fx.eta_chain(mp)
        first = 0 if gap == 1 else 1
        (v0, v1), (_, v2) = ph[first], ph[1 - first]
        chain = ctx.roots[v0] + zg * ctx.roots[v1] + zg ** 2 * ctx.roots[v2]
        max_pair = float(np.abs(chain).max())
        bounded = eps[first] + 2 < pm1p and max_pair <= 3.0 - eta_p + fx._TOL
    else:
        argument = "two-pair"
        eta_p = fx.eta_pair_witness(mp)
        pair_sums = sum(
            np.abs(ctx.roots[a] + zg * ctx.roots[b]) for a, b in ph
        )
        max_pair = float(pair_sums.max())
        bounded = max_pair <= 4.0 - eta_p + fx._TOL
    clause_v = xi_gap != 0 and bounded

    return fx.WitnessRecord(
        I=tuple(I), delta=int(delta), d_key=dd, x0=x0, c0=c0, c0_plus=c0_plus,
        e1=e1, e2=e2, d=d, eps1=eps[0], eps2=eps[1], m1_prime=m1p,
        beta_c0_num=beta_num, eta_prime=eta_p, xi_gap_num=xi_gap,
        max_pair_sum=max_pair, clause_T_ok=clause_T, clause_v_ok=clause_v,
        wrapped=wrapped, argument=argument,
    )


_WITNESS_CASES = [("thue-morse", k) for k in (1, 2, 3)] \
    + [("rudin-shapiro", k) for k in (1, 2, 3)] + [("digit-sum:3,3", k) for k in (1, 2, 3)]


@pytest.mark.parametrize("preset,k", _WITNESS_CASES)
def test_witness_matches_reference(preset, k):
    # every non-integer-K alpha, every index vector, deltas spread over
    # [0, q^m1) and its first 24: the class-count walk gives the records
    # of the sorted-partition walk, field for field
    f = dq.parse_preset(preset)
    for nums in itertools.product(range(f.m_prime), repeat=k):
        alpha = AlphaVector(nums, f.m_prime)
        if alpha.is_integer_K:
            continue
        ctx = fx.make_context(f, alpha, 1)
        p = f.q ** ctx.m1_single()
        deltas = sorted(set(range(min(p, 24))) | set(fx.stratified_samples(p, 24)))
        for I in ctx.index_vectors():
            for delta in deltas:
                assert fx.find_saving_witness(ctx, I, delta).to_dict() \
                    == reference_saving_witness(ctx, I, delta).to_dict()


def test_witness_thue_morse(tm_ctx):
    # eps1 = 0 and eps2 = 1 share eps 1: the record certifies the chain
    # 0, 1, 2 and its saving eta3 = 3 - sqrt(5), not eta' = 8 sin^2(pi/8)
    eta3 = 3 - math.sqrt(5)
    assert tm_ctx.eta_single() == pytest.approx(eta3, abs=1e-15)
    for delta in range(4):
        rec = fx.find_saving_witness(tm_ctx, (0,), delta)
        assert rec.verified and rec.clause_T_ok and rec.clause_v_ok
        assert (rec.d * rec.beta_c0_num) % 2 == 1
        assert rec.xi_gap_num != 0
        assert rec.m1_prime == 2
        assert rec.argument == "chain" and (rec.eps1, rec.eps2) == (0, 1)
        assert rec.eta_prime == pytest.approx(eta3, abs=1e-15)
        assert rec.max_pair_sum <= 3 - rec.eta_prime + 1e-9
        norms = fx.small_matrix_norms_on_root_grid(tm_ctx, rec.m1_prime,
                                                   delta, 1024)
        assert norms.max() <= 2.0 ** rec.m1_prime - rec.eta_prime


def test_chain_saving_is_the_three_term_maximum():
    # max over |w| = 1 of |1 + w + w^2 e(g)| is sqrt(5 + 4|cos(pi g)|),
    # largest at g = +-1/m' among the nonzero multiples of 1/m'
    w = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for mp in range(2, 8):
        worst = max(np.abs(1 + w + w ** 2 * np.exp(2j * np.pi * j / mp)).max()
                    for j in range(1, mp))
        assert worst <= 3 - fx.eta_chain(mp) + 1e-12
        assert worst == pytest.approx(3 - fx.eta_chain(mp), abs=1e-6)
        assert 0 < fx.eta_chain(mp) < fx.eta_pair_witness(mp)


def test_witness_rudin_shapiro_half(rs_half_ctx):
    eta_p = 8 * math.sin(math.pi / 8) ** 2
    assert rs_half_ctx.eta_single() == eta_p
    for delta in (0, 1, 77, 4095):
        rec = fx.find_saving_witness(rs_half_ctx, (1, 3), delta)
        assert rec.verified
        assert rec.x0 <= (4 * 2 - 2) * (2 - 1)
        assert rec.e1 < 8 and rec.e2 < 8
        assert rec.argument == "two-pair" and rec.eta_prime == eta_p


def test_witness_T_collision_clause_explicit(rs_half_ctx):
    rec = fx.find_saving_witness(rs_half_ctx, (0, 2), 5)
    for eps in (rec.eps1, rec.eps2):
        a = fx.transform_T(rs_half_ctx, (0, 2), eps, 5, rec.m1_prime)
        b = fx.transform_T(rs_half_ctx, (0, 2), eps + 1, 5, rec.m1_prime)
        assert a == b


def test_witness_bound_realized_at_witness_level(rs_half_ctx):
    # where the constructed pairs are disjoint (m >= 2), the certificate
    # really does cap the matrix norm at its own block length m1':
    # ||M^{m1'}_delta(z)|| <= q^m1' - eta' on the z grid, for every I
    ctx = rs_half_ctx
    for delta in (0, 1, 9, 37, 63):
        rec = fx.find_saving_witness(ctx, (1, 2), delta)
        norms = fx.small_matrix_norms_on_root_grid(ctx, rec.m1_prime, delta, 64)
        assert norms.max() <= 2.0 ** rec.m1_prime - rec.eta_prime + 1e-9


def test_witness_wrong_branch(rs_ctx):
    with pytest.raises(ValueError):
        fx.find_saving_witness(rs_ctx, (0, 0), 0)


def test_witness_deterministic(rs_half_ctx):
    a = fx.find_saving_witness(rs_half_ctx, (1, 2), 9)
    b = fx.find_saving_witness(rs_half_ctx, (1, 2), 9)
    assert a == b


# ----------------------------------------------------------------------
# uniform decay and the phase-pair inequality


def test_prop2_decay_check(tm_ctx):
    rep = fx.prop2_decay_check(tm_ctx, (0,), 5, 123, [0, 2, 4, 6, 8, 10])
    assert rep.rows[0].ratio <= 1.0 + 1e-9  # L = 0 is the recursion bound
    assert rep.empirical_constant <= 4.0
    assert all(r.h_abs <= 1.0 + 1e-12 for r in rep.rows)


def test_prop2_decay_check_rejects_zero_and_integer_K(rudin_shapiro):
    with pytest.raises(ValueError):
        ctx = fx.make_context(rudin_shapiro, AlphaVector((0, 0), 2), 8)
        fx.prop2_decay_check(ctx, (0, 0), 0, 0, [0])
    with pytest.raises(ValueError):
        ctx = fx.make_context(rudin_shapiro, AlphaVector((1, 1), 2), 8)
        fx.prop2_decay_check(ctx, (0, 0), 0, 0, [0])


def pair_sum_bound(x1, x2, xi1, xi2):
    """(lhs, rhs) of |e(x1)+e(x1+xi1)| + |e(x2)+e(x2+xi2)| <= rhs.

    rhs = 4 - 8 sin^2(pi ||xi1 - xi2|| / 4); the gap between the two
    phase shifts alone forces the saving.
    """
    def pair(x, xi):
        return abs(np.exp(2j * np.pi * x) + np.exp(2j * np.pi * (x + xi)))

    lhs = pair(x1, xi1) + pair(x2, xi2)
    rhs = 4.0 - 8.0 * math.sin(math.pi * frac_norm(xi1 - xi2) / 4.0) ** 2
    return lhs, rhs


def test_pair_sum_inequality(rng):
    for _ in range(10000):
        x1, x2, xi1, xi2 = rng.uniform(-2, 2, 4)
        lhs, rhs = pair_sum_bound(x1, x2, xi1, xi2)
        assert lhs <= rhs + 1e-12


def test_pair_sum_tightness():
    lhs, rhs = pair_sum_bound(0.0, 0.0, 0.25, 0.75)
    assert rhs == pytest.approx(4 - 8 * math.sin(math.pi / 8) ** 2)


def test_stratified_samples():
    assert fx.stratified_samples(10, 20) == list(range(10))
    s = fx.stratified_samples(1 << 13, 1 << 10)
    assert len(s) == 1 << 10 and s == sorted(s) and s[0] == 0
    assert all(0 <= v < 1 << 13 for v in s)


def test_context_budget():
    with pytest.raises(BudgetExceededError):
        fx.make_context(dq.preset("thue-morse"), AlphaVector((1,), 2), 40)


def test_context_requires_normalized():
    f = dq.make_digital_function(2, 2, [0, 3, 1, 0], 2)
    with pytest.raises(ValueError):
        fx.make_context(f, AlphaVector((1, 1), 2), 6)
