"""Transfer matrices and condition checks against per-step references.

The reference builds M(beta) one one-digit step pair (I, I', delta, e1,
e2) at a time from the public transform_T and weight_v, and forms each
condition window as a dense product of such matrices.  Single-index
matrices M^j_delta(z) and the right-hand side of the G recursion are
summed directly over eps < q^j.  The package derives all of these from
one-digit matrices instead (Kronecker sums and digit products), so the
two sides share no code.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import digitseq as dq
from digitseq import fourier as fx
from digitseq.normality import AlphaVector
from digitseq.phases import e_frac

# (preset, alpha numerators, lam, h count for the condition checks)
CASES = (
    ("rudin-shapiro", (1, 1), 12, 6),
    ("rudin-shapiro", (1, 1, 0), 10, 2),
    ("thue-morse", (1,), 8, 6),
    ("thue-morse", (1, 1), 10, 6),
    ("block-ones:3", (1, 1), 12, 1),
    ("digit-sum:3,3", (1, 2), 8, 6),
)


def _context(name, nums, lam):
    f = dq.parse_preset(name)
    return fx.make_context(f, AlphaVector(nums, f.m_prime), lam)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}{c[1]}")
def case(request):
    name, nums, lam, h_count = request.param
    ctx = _context(name, nums, lam)
    return ctx, Reference(ctx), h_count


class Reference:
    """M(beta) by the per-step loop, cached per exact beta."""

    def __init__(self, ctx):
        self.ctx = ctx
        Is = ctx.index_vectors()
        pos = {I: r for r, I in enumerate(Is)}
        # steps[r][delta] = [(column, eps, v^1(I, eps, delta)) for eps < q]
        self.steps = [[[(pos[fx.transform_T(ctx, I, eps, delta, 1)], eps,
                         fx.weight_v(ctx, I, eps, delta, 1))
                        for eps in range(ctx.q)]
                       for delta in range(ctx.q)]
                      for I in Is]
        self.cache = {}

    def matrix(self, beta):
        """(M(beta), path counts); beta a float or an exact (num, den)."""
        if beta in self.cache:
            return self.cache[beta]
        q = self.ctx.q
        nI = len(self.steps)
        if isinstance(beta, tuple):
            z = {t: e_frac(-t * beta[0], beta[1]) for t in range(-q + 1, q)}
        else:
            z = {t: cmath.exp(-2j * cmath.pi * t * beta) for t in range(-q + 1, q)}
        M = np.zeros((nI * nI, nI * nI), dtype=np.complex128)
        N = np.zeros((nI * nI, nI * nI), dtype=np.int64)
        for ra in range(nI):
            for rb in range(nI):
                row = ra * nI + rb
                for delta in range(q):
                    for ca, e1, v1 in self.steps[ra][delta]:
                        for cb, e2, v2 in self.steps[rb][delta]:
                            M[row, ca * nI + cb] += z[e1 - e2] * v1 * v2.conjugate() / q ** 3
                            N[row, ca * nI + cb] += 1
        self.cache[beta] = (M, N)
        return M, N

    def window(self, h, ell_hi, width):
        out = None
        for ell in range(ell_hi, ell_hi - width, -1):
            M = self.matrix((h, self.ctx.q ** ell))[0]
            out = M if out is None else out @ M
        return out

    def condition1_margins(self, h, ell_hi):
        m0 = self.ctx.m0()
        W = self.window(h, ell_hi, m0)
        eta = float(self.ctx.q) ** (-3 * m0)
        return np.maximum(np.abs(W[:, 0]) - eta / 2,
                          (1.0 - eta) - np.abs(W).sum(axis=1))

    def condition2_margins(self, h, ell_hi):
        W = self.window(h, ell_hi, self.ctx.m1_pair())
        return np.array([(1.0 - self.ctx.eta_pair()) - np.abs(W[0]).sum()])

    def report(self, margins_of, hs, lam, width):
        """(worst, windows, violations, margin of every window) like the checks."""
        worst, windows, violations, table = math.inf, 0, [], {}
        for h in hs:
            for ell_hi in range(lam, width - 1, -1):
                margins = margins_of(h, ell_hi)
                table[h, ell_hi] = margins
                lo = float(margins.min())
                windows += 1
                worst = min(worst, lo)
                if lo < -1e-12 and len(violations) < 16:
                    violations.append((h, ell_hi, int(margins.argmin()), lo))
        return worst, windows, violations, table


def _assert_report_matches(rep, want):
    worst, windows, violations, table = want
    assert rep.worst_margin == pytest.approx(worst, abs=1e-12)
    assert rep.windows_checked == windows
    assert [v[:3] for v in rep.violations] == [v[:3] for v in violations]
    for got, ref in zip(rep.violations, violations):
        assert got[3] == pytest.approx(ref[3], abs=1e-12)
    h, ell_hi, row = rep.worst_at
    assert table[h, ell_hi][row] == pytest.approx(worst, abs=1e-12)


def test_transfer_matrix_matches_reference(case, rng):
    ctx, ref, _ = case
    for beta in [float(rng.uniform()), 0.0, 0.5]:
        M = fx.build_transfer_matrix(ctx, beta)
        want, counts = ref.matrix(beta)
        assert np.abs(M.entries - want).max() <= 1e-13
        assert np.array_equal(M.path_counts, counts)
    for num, den in [(1, 8), (5, ctx.q ** ctx.lam), (-3, 7), (2 ** 40 + 1, 3 ** 20)]:
        M = fx.build_transfer_matrix(ctx, (num, den))
        want, counts = ref.matrix((num, den))
        assert np.abs(M.entries - want).max() <= 1e-13
        assert np.array_equal(M.path_counts, counts)
    assert M.index == ctx.pair_labels()


def _h_samples(ctx, h_count, rng):
    """Spread h plus random ones, so that the set is not closed under -h."""
    period = ctx.q ** (ctx.lam + ctx.m - 1)
    return (fx.stratified_samples(period, h_count)
            + [int(h) for h in rng.integers(0, period, h_count)])


def test_condition1_matches_reference(case, rng):
    ctx, ref, h_count = case
    lam = ctx.lam
    hs = _h_samples(ctx, h_count, rng)
    rep = fx.check_condition1(ctx, h_samples=hs)
    _assert_report_matches(rep, ref.report(ref.condition1_margins, hs, lam, ctx.m0()))


def full_window_margins(ctx, A):
    """Condition 1's margins from each whole nI^2 x nI^2 window, one GEMM X^T conj(X)
    a key and strided row sums: the formula the row-block path replaced."""
    m0 = ctx.m0()
    eta = float(ctx.q) ** (-3 * m0)
    P = fx._digit_products(ctx, A, fx._low_digits_first(ctx.q, m0, range(ctx.q ** m0)))
    X = P.reshape(P.shape[:-3] + (-1, P.shape[-1] ** 2))
    G = np.abs(X.swapaxes(-1, -2) @ X.conj()).reshape(P.shape[:-3] + P.shape[-1:] * 4)
    G *= eta
    return np.maximum(G[:, :, 0, :, 0] - eta / 2.0,
                      (1.0 - eta) - G.sum(axis=(2, 4))).reshape(len(G), -1)


def _condition1_batches(ctx, hs, monkeypatch):
    """(report, [(factors, margins) of every key batch]) of one condition 1 check."""
    batches, report = [], fx._window_report

    def recording(*args):
        *head, margins_of = args

        def recorded(A):
            batches.append((A, margins_of(A)))
            return batches[-1][1]

        return report(*head, recorded)

    with monkeypatch.context() as m:
        m.setattr(fx, "_window_report", recording)
        return fx.check_condition1(ctx, h_samples=hs), batches


def test_condition1_row_blocks_match_full_windows(case, rng, monkeypatch):
    # every window's margins against the whole-window formula; rows (i, k) and
    # (k, i) carry conjugate entries, so one margin serves both, and the
    # reported row is the one with i <= k
    ctx, _, h_count = case
    nI = len(ctx.index_vectors())
    rep, batches = _condition1_batches(ctx, _h_samples(ctx, h_count, rng), monkeypatch)
    for A, margins in batches:
        assert np.abs(margins - full_window_margins(ctx, A)).max() <= 1e-15
        square = margins.reshape(-1, nI, nI)
        assert np.array_equal(square, square.swapaxes(1, 2))
    i, k = divmod(rep.worst_at[2], nI)
    assert i <= k


def test_condition1_report_does_not_depend_on_the_byte_cap(case, rng, monkeypatch):
    # one row a GEMM, one key a batch, or every key at once: the factors and
    # GEMMs round alike in any batch, so the reports are equal; each GEMM's
    # output stays within the cap unless one row alone passes it
    ctx, _, h_count = case
    if ctx.m0() == 1:  # numpy forms a one-row stack without GEMM, rounding otherwise
        pytest.skip("one key of one factor is a one-row stack")
    nI = len(ctx.index_vectors())
    hs = _h_samples(ctx, h_count, rng)
    want = fx.check_condition1(ctx, h_samples=hs)
    kron_sum, sizes = fx._kron_sum, []

    def sizing(*args):
        out = kron_sum(*args)
        sizes.append(out.nbytes)
        return out

    for cap in (1, 16 * nI ** 2 * 3, 16 * nI ** 3, 1 << 40):
        with monkeypatch.context() as m:
            m.setattr(fx, "_WINDOW_BYTES", cap)
            m.setattr(fx, "_kron_sum", sizing)
            sizes.clear()
            assert fx.check_condition1(ctx, h_samples=hs) == want
            assert max(sizes) <= max(cap, 16 * nI ** 2)


def _reach_by_steps(ctx, ref, w):
    """Per row, the set of columns some w-step path of transform_T reaches."""
    reach = [{r} for r in range(len(ref.steps))]
    for _ in range(w):
        reach = [{c for r in cols for delta in ref.steps[r] for c, _, _ in delta}
                 for cols in reach]
    return reach


# (preset, alpha numerators): columns a row of P_s can reach, of nI
REACH_WIDTHS = {("rudin-shapiro", (1, 1)): (6, 6), ("rudin-shapiro", (1, 1, 0)): (14, 18),
                ("rudin-shapiro", (1, 1, 0, 1)): (30, 54), ("thue-morse", (1,)): (1, 1),
                ("thue-morse", (1, 1)): (2, 2), ("block-ones:3", (1, 1)): (20, 20),
                ("digit-sum:3,3", (1, 2)): (2, 2)}


@pytest.mark.parametrize("name,nums", list(REACH_WIDTHS), ids=str)
def test_reach_columns_width(name, nums):
    ctx = _context(name, nums, 8)
    cols = ctx.reach_columns(ctx.m0())
    assert cols.shape[::-1] == REACH_WIDTHS[name, nums]
    assert ctx.reach_columns(ctx.m0()) is cols


def test_digit_products_vanish_off_the_reach_columns(case, rng):
    # column 0 first, then the columns transform_T reaches in m0 steps, padded
    # with columns the row never reaches; every P_s is an exact zero off them
    ctx, ref, _ = case
    m0, nI = ctx.m0(), len(ctx.index_vectors())
    cols = ctx.reach_columns(m0)
    assert np.all(cols[:, 0] == 0)
    for row, reach in zip(cols.tolist(), _reach_by_steps(ctx, ref, m0)):
        n = len(reach | {0})
        assert len(set(row)) == len(row) and set(row[:n]) == reach | {0}
        assert not reach & set(row[n:])
    keys = rng.integers(0, ctx.q ** ctx.lam, 16)
    A = fx._digit_matrices_at(ctx, -keys, ctx.q ** ctx.lam, m0)
    P = fx._digit_products(ctx, A, fx._low_digits_first(ctx.q, m0, range(ctx.q ** m0)))
    off = np.ones((nI, nI), dtype=bool)
    np.put_along_axis(off, cols, False, axis=1)
    assert np.all(P[..., off] == 0)


def test_condition1_reach_columns_move_only_dropped_ones(case, rng, monkeypatch):
    # with every column listed the check takes the P_s as they are; where no
    # column is dropped that is the check itself, so reports are ==, and where
    # columns are dropped the margins regroup only, within 2.2e-16, on a tie
    # of worst_at the row (i, k) with i <= k
    ctx, _, h_count = case
    nI = len(ctx.index_vectors())
    hs = _h_samples(ctx, h_count, rng)
    rep, batches = _condition1_batches(ctx, hs, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(ctx, "reach_columns", lambda w: np.tile(np.arange(nI), (nI, 1)))
        every, full = _condition1_batches(ctx, hs, monkeypatch)
    if ctx.reach_columns(ctx.m0()).shape[1] == nI:
        assert rep == every
        return
    eps = np.finfo(float).eps
    for (A, margins), (A_every, margins_every) in zip(batches, full):
        assert np.array_equal(A, A_every)
        assert np.abs(margins - margins_every).max() <= eps
        assert np.abs(margins - full_window_margins(ctx, A)).max() <= eps
    assert abs(rep.worst_margin - every.worst_margin) <= eps
    assert rep.windows_checked == every.windows_checked
    assert [v[:3] for v in rep.violations] == [v[:3] for v in every.violations]
    i, k = divmod(rep.worst_at[2], nI)
    assert i <= k


def test_condition2_matches_reference(case, rng):
    ctx, ref, h_count = case
    lam = ctx.lam
    hs = _h_samples(ctx, h_count, rng)
    rep = fx.check_condition2(ctx, h_samples=hs)
    if not ctx.alpha.is_integer_K:
        assert rep.wrong_branch and rep.windows_checked == 0
        return
    _assert_report_matches(rep, ref.report(ref.condition2_margins, hs, lam,
                                           ctx.m1_pair()))


def test_condition2_violations_match_reference():
    # base-3 digit sum mod 2 at alpha = (1/2, 1/2) breaks condition 2 in
    # several windows, so the violation lists are compared entry by entry;
    # 512 h break it in more windows than the 16 a report keeps
    ctx = _context("digit-sum:3,2", (1, 1), 8)
    ref = Reference(ctx)
    for count in (64, 512):
        hs = fx.stratified_samples(3 ** 8, count)
        rep = fx.check_condition2(ctx, h_samples=hs)
        want = ref.report(ref.condition2_margins, hs, 8, ctx.m1_pair())
        assert len(rep.violations) == len(want[2]) >= 2 and not rep.ok
        _assert_report_matches(rep, want)
    assert len(rep.violations) == 16


def test_psi_vector_matches_reference(case, rng):
    ctx, ref, _ = case
    Is = ctx.index_vectors()
    for _ in range(3):
        lam = int(rng.integers(2, 7))
        lam_p = int(rng.integers(0, lam + 1))
        h = int(rng.integers(0, ctx.q ** lam))
        base = np.array([fx.fourier_G(ctx, I, h, 0, lam - lam_p) for I in Is])
        want = np.outer(base, base.conjugate()).reshape(-1)
        for ell in range(lam - lam_p + 1, lam + 1):
            want = ref.matrix((h, ctx.q ** ell))[0] @ want
        assert np.abs(fx.psi_vector(ctx, h, lam, lam_p) - want).max() <= 1e-13


def test_condition_windows_formed_once_per_beta(monkeypatch):
    # every h < q^(lam+m-1) at every top: 2^8 h x 7 or 5 tops, but at most
    # q^lam distinct beta, so at most q^lam windows of `width` factors each
    ctx = _context("thue-morse", (1, 1), 8)
    ref = Reference(ctx)
    formed, digit_matrices_at = [], fx._digit_matrices_at

    def counting(ctx, nums, den, j):
        A = digit_matrices_at(ctx, nums, den, j)
        formed.append(math.prod(A.shape[:-3]))
        return A

    monkeypatch.setattr(fx, "_digit_matrices_at", counting)
    hs = list(range(ctx.q ** (ctx.lam + ctx.m - 1)))
    for check, margins_of, width in (
            (fx.check_condition1, ref.condition1_margins, ctx.m0()),
            (fx.check_condition2, ref.condition2_margins, ctx.m1_pair())):
        formed.clear()
        rep = check(ctx, h_samples=hs)
        assert sum(formed) <= ctx.q ** ctx.lam * width
        _assert_report_matches(rep, ref.report(margins_of, hs, ctx.lam, width))


_CONTRACT = r"^exact beta needs 0 < q \|den\| <= 2\^53, got den = {}$"


@pytest.mark.parametrize("name,nums,lam", [("digit-sum:3,3", (1, 2), 33),
                                          ("digit-sum:3,3", (1, 2), 40),
                                          ("rudin-shapiro", (1, 1), 53),
                                          ("rudin-shapiro", (1, 1), 64)], ids=str)
def test_condition_checks_refuse_depths_past_the_phase_contract(name, nums, lam):
    # q^(lam+1) > 2^53: a window's phases would round or wrap in int64 and
    # float64, so the checks refuse the depth instead of reporting on it
    ctx = _context(name, nums, 8)
    for check in (fx.check_condition1, fx.check_condition2):
        for hs in ([1], None):
            with pytest.raises(ValueError, match=_CONTRACT.format(ctx.q ** lam)):
                check(ctx, h_samples=hs, lam=lam)


@pytest.mark.parametrize("name,nums,lam", [("digit-sum:3,3", (1, 2), 32),
                                          ("rudin-shapiro", (1, 1), 52)], ids=str)
def test_condition_checks_at_the_phase_contract_match_reference(name, nums, lam):
    # the deepest lam inside the contract; for a fixed h the window at top ell
    # is the one at beta = h/q^ell for every lam, so its margins do not move
    ctx = _context(name, nums, 8)
    ref = Reference(ctx)
    hs = [1, 2, 5]
    for check, margins_of, width in (
            (fx.check_condition1, ref.condition1_margins, ctx.m0()),
            (fx.check_condition2, ref.condition2_margins, ctx.m1_pair())):
        rep = check(ctx, h_samples=hs, lam=lam)
        _assert_report_matches(rep, ref.report(margins_of, hs, lam, width))
        low = check(ctx, h_samples=hs, lam=8)
        if rep.worst_at[1] <= 8:
            assert (rep.worst_margin, rep.worst_at) == (low.worst_margin, low.worst_at)
        assert rep.worst_margin <= low.worst_margin


def test_psi_vector_refuses_depths_past_the_phase_contract():
    # a shallow seed keeps the G sum in budget, but the lam' factors need
    # the phases h/q^ell up to ell = lam
    ctx = _context("rudin-shapiro", (1, 1), 8)
    ref = Reference(ctx)
    with pytest.raises(ValueError, match=_CONTRACT.format(2 ** 53)):
        fx.psi_vector(ctx, 3, 53, 50)
    Is = ctx.index_vectors()
    base = np.array([fx.fourier_G(ctx, I, 3, 0, 2) for I in Is])
    want = np.outer(base, base.conjugate()).reshape(-1)
    for ell in range(3, 53):
        want = ref.matrix((3, 2 ** ell))[0] @ want
    assert np.abs(fx.psi_vector(ctx, 3, 52, 50) - want).max() <= 1e-13


def test_worst_at_locates_the_worst_margin():
    ctx = _context("rudin-shapiro", (1, 1), 10)
    hs = [3, 100, 517]
    ref = Reference(ctx)
    for check, margins_of in ((fx.check_condition1, ref.condition1_margins),
                              (fx.check_condition2, ref.condition2_margins)):
        rep = check(ctx, h_samples=hs)
        h, ell_hi, row = rep.worst_at
        assert h in hs and rep.window <= ell_hi <= 10
        assert margins_of(h, ell_hi)[row] == pytest.approx(rep.worst_margin, abs=1e-12)
        assert rep.to_dict()["worst_at"] == [h, ell_hi, row]
    half = _context("rudin-shapiro", (1, 0), 10)
    wrong = fx.check_condition2(half)
    assert wrong.worst_at is None and wrong.to_dict()["worst_at"] is None


def reference_block(ctx, j, delta, z):
    """M^j_delta(z) by the direct sum over eps < q^j."""
    Is = ctx.index_vectors()
    pos = {I: r for r, I in enumerate(Is)}
    M = np.zeros((len(Is), len(Is)), dtype=np.complex128)
    for r, I in enumerate(Is):
        for eps in range(ctx.q ** j):
            M[r, pos[fx.transform_T(ctx, I, eps, delta, j)]] += (
                z ** eps * fx.weight_v(ctx, I, eps, delta, j))
    return M


def test_single_index_matrices_match_reference(case, rng):
    ctx, _, _ = case
    for j in (1, 2, 3, 5):
        delta = int(rng.integers(0, ctx.q ** j))
        z = cmath.exp(2j * cmath.pi * float(rng.uniform()))
        want = reference_block(ctx, j, delta, z)
        for d in (delta, delta + ctx.q ** j, delta - ctx.q ** j):
            got = fx.small_matrix_M(ctx, j, d, z).entries
            assert np.abs(got - want).max() <= 1e-12
        norms = fx.small_matrix_norms_on_root_grid(ctx, j, delta, 16)
        for t in range(16):
            block = reference_block(ctx, j, delta, e_frac(t, 16))
            assert norms[t] == pytest.approx(np.abs(block).sum(axis=1).max(), abs=1e-12)


def reference_block_product(ctx, A, delta):
    """prod_t A[..., t, delta_t] over the base-q digits of delta, one factor at a time."""
    out = np.zeros(A.shape[:-4] + A.shape[-2:], dtype=np.complex128)
    out += np.eye(A.shape[-1])
    for t in range(A.shape[-4]):
        out = out @ A[..., t, (delta // ctx.q ** t) % ctx.q, :, :]
    return out


def _product_tol(ctx, j):
    """Rounding bound for a product of j one-digit matrices, entries <= q^j."""
    return 2 * j * len(ctx.index_vectors()) * np.finfo(float).eps * ctx.q ** j


def _random_factors(ctx, batch, j, rng):
    # one schedule step per factor, so the j factors are independent
    den = ctx.q ** ctx.lam
    return fx._digit_matrices_at(ctx, rng.integers(0, den, batch + (j,)), den, 1)[..., 0, :, :, :]


@pytest.mark.parametrize("batch", [(), (16,), (3, 2)], ids=str)
def test_digit_products_match_block_product(case, batch, rng):
    # deltas unsorted, repeated, negative and >= q^j.  One delta at a time the
    # kernel takes the reference's GEMMs, so the two agree bit for bit; a list
    # stacks shared prefixes into larger GEMMs, which may round differently
    ctx, _, _ = case
    nI = len(ctx.index_vectors())
    for j in sorted({0, 1, 3, ctx.lam}):
        A = _random_factors(ctx, batch, j, rng)
        deltas = [int(d) for d in rng.integers(-ctx.q ** j, 3 * ctx.q ** j, 12)]
        deltas += deltas[:3]
        want = np.stack([reference_block_product(ctx, A, d) for d in deltas], axis=-3)
        for i, d in enumerate(deltas):
            assert np.array_equal(fx._digit_products(ctx, A, [d])[..., 0, :, :],
                                  want[..., i, :, :])
        got = fx._digit_products(ctx, A, deltas)
        assert got.shape == batch + (len(deltas), nI, nI)
        assert np.abs(got - want).max() <= _product_tol(ctx, j)


def test_digit_products_keep_tree_order(case, rng):
    # every delta low digits first, the order condition 1 sums the products
    # in, is the order the levels build them: first digit slowest, nothing
    # pruned or reordered
    ctx, _, _ = case
    q = ctx.q
    for j in (1, 2, 4):
        A = _random_factors(ctx, (4,), j, rng)
        tree = [sum(s // q ** (j - 1 - t) % q * q ** t for t in range(j)) for s in range(q ** j)]
        assert fx._low_digits_first(q, j, range(q ** j)) == tree
        got = fx._digit_products(ctx, A, tree)
        assert got.shape == (4, q ** j) + A.shape[-2:]
        want = np.stack([reference_block_product(ctx, A, d) for d in tree], axis=-3)
        assert np.abs(got - want).max() <= _product_tol(ctx, j)


@pytest.mark.parametrize("name,nums", [("rudin-shapiro", (1, 0)), ("digit-sum:3,3", (1,))],
                         ids=str)
def test_saving_sweep_matches_per_delta_norms(name, nums, rng, monkeypatch):
    # random deltas, neither stratified nor sorted, some repeated or past q^m1,
    # in one chunk and in chunks of two
    ctx = _context(name, nums, 8)
    p, grid = ctx.q ** ctx.m1_single(), 64
    deltas = [int(d) for d in rng.integers(-p, 2 * p, 40)] + [5, 5]
    per = np.stack([fx.small_matrix_norms_on_root_grid(ctx, ctx.m1_single(), d, grid)
                    for d in deltas], axis=1)
    together = fx.small_matrix_norms_on_root_grid(ctx, ctx.m1_single(), deltas, grid)
    assert together.shape == (grid, len(deltas))
    assert np.allclose(together, per, rtol=1e-13, atol=0)
    worst = per.max(axis=0)
    for cap in (fx._WINDOW_BYTES, 2 * 16 * grid * len(ctx.index_vectors()) ** 2):
        monkeypatch.setattr(fx, "_WINDOW_BYTES", cap)
        rep = fx.prop2_saving_sweep(ctx, deltas=deltas, grid=grid)
        assert rep.deltas_checked == len({d % p for d in deltas})
        assert rep.worst_norm == pytest.approx(worst.max(), rel=1e-13)
        for i in range(len(deltas) - 2):  # every delta counts, wherever it sorts
            rep = fx.prop2_saving_sweep(ctx, deltas=deltas[i:i + 3], grid=grid)
            assert rep.worst_norm == pytest.approx(worst[i:i + 3].max(), rel=1e-13)


def per_point_norms(ctx, j, deltas, grid):
    """Root-grid norms as the per-point loop formed them: every point's own j
    factors (grid x j x q x nI^2 values), multiplied point by point in chunks of
    deltas whose products fit _WINDOW_BYTES, low digits first: the loop that
    grouping the grid by factor value replaced."""
    q, nI = ctx.q, len(ctx.index_vectors())
    keys, inv = np.unique(np.array(deltas) % q ** j, return_inverse=True)
    A = fx._digit_matrices_at(ctx, np.arange(grid), grid, j)
    order = fx._low_digits_first(q, j, keys.tolist())
    fit = max(1, fx._WINDOW_BYTES // (16 * grid * nI * nI))
    out = np.empty((grid, keys.size))
    for c in range(0, len(order), fit):
        pos = order[c:c + fit]
        out[:, pos] = np.abs(fx._digit_products(ctx, A, keys[pos])).sum(axis=-1).max(axis=-1)
    return out[:, inv]


@pytest.mark.parametrize("grid", [1, 16, 35, 64, 256])
def test_root_grid_norms_match_per_point_loop(case, grid, rng, monkeypatch):
    # each grouped GEMM takes the per-point GEMMs' dot products with more rows,
    # so every norm is the per-point loop's, bit for bit, in one block or in
    # blocks of at most 5 points (the last one short where 5 does not divide the
    # grid); 35 is prime to q, where every point is its own class.  Deltas
    # unsorted, repeated and negative
    ctx, _, _ = case
    q, nI = ctx.q, len(ctx.index_vectors())
    for j in (0, 1, 4, 9):
        deltas = [int(d) for d in rng.integers(-q ** j, 2 * q ** j, 10)]
        deltas += deltas[:2]
        for cap in (fx._WINDOW_BYTES, 16 * nI * nI * 5):
            with monkeypatch.context() as m:
                m.setattr(fx, "_WINDOW_BYTES", cap)
                got = fx.small_matrix_norms_on_root_grid(ctx, j, deltas, grid)
                assert np.array_equal(got, per_point_norms(ctx, j, deltas, grid))


def _grid_batches(ctx, j, deltas, grid, monkeypatch):
    """[(points, level factor stacks)] of every batch of one root-grid pass."""
    stacks, products = [], fx._digit_products

    def recording(ctx, A, deltas):
        stacks.append(A)
        return products(ctx, A, deltas)

    with monkeypatch.context() as m:
        m.setattr(fx, "_digit_products", recording)
        points = [p for p, *_ in fx._grid_row_sums(ctx, j, deltas, grid)]
    return list(zip(points, stacks))


@pytest.mark.parametrize("name,nums", [("rudin-shapiro", (1, 0)), ("digit-sum:3,3", (1,)),
                                       ("digit-sum:10,3", (1,))], ids=str)
@pytest.mark.parametrize("grid", [1, 7, 64, 243, 256, 1000])
def test_root_grid_factors_constant_on_class_blocks(name, nums, grid, monkeypatch):
    # level t's factor A_delta(e(g q^t/grid)) depends on g mod s_t only: each
    # class is one contiguous run of its block, and the run's one factor is every
    # point's own factor as the per-point loop formed it, bit for bit, also in a
    # block of one point.  In one block or in blocks of at most 5 points, every
    # point lands in exactly one block
    ctx = _context(name, nums, 4)
    q, nI = ctx.q, len(ctx.index_vectors())
    for j in (0, 1, 3, 6):
        for cap in (fx._WINDOW_BYTES, 16 * nI * nI * 5):
            monkeypatch.setattr(fx, "_WINDOW_BYTES", cap)
            seen, every = [], fx._digit_matrices_at(ctx, np.arange(grid), grid, j)
            for points, A in _grid_batches(ctx, j, [5], grid, monkeypatch):
                seen += points.tolist()
                own = every[points]
                assert len(A) == j
                for t, At in enumerate(A):
                    assert len(At) == min(len(points), grid // math.gcd(grid, q ** t))
                    run = len(points) // len(At)
                    phases = points * q ** t % grid
                    assert (phases.reshape(-1, run) == phases[::run, None]).all()
                    assert np.array_equal(np.repeat(At, run, axis=0), own[:, t])
            assert sorted(seen) == list(range(grid))


def test_root_grid_at_8192_in_bounded_memory(monkeypatch):
    # route B's grid (G >= 4,550 for RS k = 2): one delta's products pass the cap,
    # so the grid runs in blocks of 2,048 consecutive points, each forming its
    # sum_t min(2048, s_t) = 8,188 distinct factors in place of 2,048 x 12; past
    # those factors no batch forms more than 2 x _WINDOW_BYTES
    ctx = _context("rudin-shapiro", (1, 0), 8)
    q, nI, j, grid = ctx.q, len(ctx.index_vectors()), ctx.m1_single(), 8192
    stack = sum(min(2048, grid >> t) for t in range(j)) * q * nI * nI
    sizes, products = [], fx._digit_products

    def recording(ctx, A, deltas):
        sizes.append(sum(At.size for At in A))
        return products(ctx, A, deltas)

    monkeypatch.setattr(fx, "_digit_products", recording)
    ctx.transfer_parts()
    tracemalloc.start()
    try:
        rep = fx.prop2_saving_sweep(ctx, deltas=[0, 1, 2049, 4095], grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.deltas_checked == 4 and sizes == [stack] * (4 * 4)
    assert peak <= 16 * stack + 2 * fx._WINDOW_BYTES


def reference_g_rhs(ctx, I, h, d, j, delta, lam):
    """q^-j sum_eps e(-h eps/q^lam) v^j(I,eps,delta) G_{lam-j}^{T(I)}(h, d), per eps."""
    total = 0j
    for eps in range(ctx.q ** j):
        total += (e_frac(-h * eps, ctx.q ** lam) * fx.weight_v(ctx, I, eps, delta, j)
                  * fx.fourier_G(ctx, fx.transform_T(ctx, I, eps, delta, j), h, d, lam - j))
    return total / ctx.q ** j


def test_g_recursion_matches_reference(case, rng):
    # the package takes the right-hand side as row I of M^j_delta(z) times
    # the stacked depth-(lam - j) G; the per-eps sum shares none of that
    ctx, _, _ = case
    lam = 4 if ctx.q == 2 else 3
    Is = ctx.index_vectors()
    for j in sorted({1, int(rng.integers(1, lam + 1)), lam}):  # j = lam: depth-0 G
        h = int(rng.integers(0, ctx.q ** (lam + ctx.m - 1)))
        d = int(rng.integers(0, ctx.q ** (lam + 2)))
        for I in sorted({Is[0], Is[-1], Is[int(rng.integers(0, len(Is)))]}):
            for delta in range(ctx.q ** j):
                lhs = fx.fourier_G(ctx, I, h, ctx.q ** j * d + delta, lam)
                want = reference_g_rhs(ctx, I, h, d, j, delta, lam)
                assert abs(lhs - want) <= 1e-12
                assert fx.g_recursion_residual(ctx, I, h, d, j, delta, lam) <= 1e-12


def _worst_g_residual(ctx, lam):
    Is = ctx.index_vectors()
    return max(fx.g_recursion_residual(ctx, I, h, 5, j, delta, lam)
               for I in Is for h in (1, 3) for j in (1, 2) for delta in range(ctx.q ** j))


@pytest.mark.parametrize("name,nums", [("rudin-shapiro", (1, 1)), ("thue-morse", (1,)),
                                       ("digit-sum:3,3", (1, 2))], ids=lambda v: str(v))
def test_g_recursion_residual_detects_perturbed_tables(name, nums):
    lam = 4
    assert _worst_g_residual(_context(name, nums, lam), lam) <= 1e-12
    # one phase of the cached one-digit step table (delta = 0, eps = 1)
    ctx = _context(name, nums, lam)
    ctx.transfer_parts()[0][0, 1] *= 1j
    assert _worst_g_residual(ctx, lam) > 1e-3
    # the depth-(lam - j) band table behind the right-hand side only
    for j in (1, 2):
        ctx = _context(name, nums, lam)
        tab = ctx.band_table(lam - j)
        tab[:] = np.roll(tab, 1)
        assert _worst_g_residual(ctx, lam) > 1e-3


def test_stacked_G_matches_single(case, rng, monkeypatch):
    ctx, _, _ = case
    Is = ctx.index_vectors()
    for lam in (0, 1, 3, 6):
        h = int(rng.integers(0, ctx.q ** (lam + ctx.m - 1)))
        d = int(rng.integers(0, 2 ** 20))
        want = [fx.fourier_G(ctx, I, h, d, lam) for I in Is]
        assert fx._G(ctx, Is, h, d, lam).tolist() == want
        stack = np.array([Is, Is[::-1]])  # (2, nI, k)
        assert fx._G(ctx, stack, h, d, lam).tolist() == [want, want[::-1]]
        monkeypatch.setattr(fx, "_STACK_TERMS", 2)  # slices of one or two vectors
        assert fx._G(ctx, Is, h, d, lam).tolist() == want
        monkeypatch.undo()
