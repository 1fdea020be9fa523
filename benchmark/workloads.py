"""The benchmark's workloads, built from sections of checked digitseq calls.

A section is one group of calls into the package's public API: stream
generation, block statistics, condition checks and so on.  A workload
names the sections it is about and runs them at full size; every other
section runs at a small probe size, so that each end-to-end metric
exists on every workload while the workload's cost stays with its own
sections.  Inputs are drawn from the seed; sizes never depend on it.

Criterion 5a (Thue-Morse saving at block length 2) is left out on
purpose: its stated bound is below the true supremum, so it fails by
design and would make every run read as incorrect.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np

import digitseq as dq
from digitseq import analytic as an
from digitseq import cli
from digitseq import fourier as fx
from digitseq.normality import AlphaVector

import checks

WORKLOADS = {
    "squares-stats": ("stream", "wide", "stats", "expsum", "cli"),
    "transfer-checks": ("cond1", "cond2", "cond1_k3", "sweep"),
    "fourier-identities": ("identity", "toolbox"),
}
SECTIONS = tuple(s for group in WORKLOADS.values() for s in group)
TIERS = ("full", "probe", "tiny")

# (full, probe, tiny) size of each section; the unit is in the comment.
SIZES = {
    "stream": (10, 1, 1),                     # calls per function
    "wide": (200_000, 10_000, 200),           # symbols
    "stats": (10 ** 6, 10 ** 5, 2_000),       # prefix length per function
    "expsum": (22, 18, 12),                   # log2 of the largest N
    "cli": (10 ** 6, 10 ** 5, 2_000),         # symbols per command
    "cond1": (256, 64, 2),                    # h per function
    "cond2": (256, 64, 2),                    # h per function
    "cond1_k3": (8, 1, 1),                    # h
    "sweep": (64, 8, 1),                      # deltas
    "identity": (10, 1, 1),                   # rounds
    "toolbox": ((10, 14), (1, 1), (1, 1)),    # (rounds, carry cells)
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "stream_ns_per_symbol": "ns/symbol",
    "wide_stream_ns_per_symbol": "ns/symbol",
    "stats_s": "s", "expsum_s": "s", "cli_s": "s",
    "cond1_ms_per_h": "ms/h", "cond2_ms_per_h": "ms/h",
    "cond1_k3_ms_per_h": "ms/h", "saving_sweep_s": "s",
    "identity_suite_s": "s", "toolbox_s": "s",
}

PER_LAYER = {
    "digital.eval_b_many.ns_per_symbol": "ns/symbol",
    "digital.eval_b_band_many.ns_per_symbol": "ns/symbol",
    "digital.eval_b_band_many.digits_per_symbol": "digits",
    "digital.eval_b.us_per_call": "us/call",
    "digital.check_recursion.us_per_call": "us/call",
    "seqgen.stream.ns_per_symbol": "ns/symbol",
    "seqgen.stream.wide_ns_per_symbol": "ns/symbol",
    "seqgen.stream.overhead_ns_per_symbol": "ns/symbol",
    "seqgen.stream.bytes_out": "bytes",
    "normality.block_histogram.s": "s",
    "normality.normality_deviation.s": "s",
    "normality.subword_complexity.s": "s",
    "normality.decay_exponent.s": "s",
    "fourier.g_recursion_residual.s": "s",
    "fourier.g_recursion_residual.calls": "count",
    "fourier.g_recursion_residual.G_terms": "count",
    "fourier.h_recursion_residual.s": "s",
    "fourier.parseval_sum.s": "s",
    "fourier.find_saving_witness.us_per_call": "us/call",
    "fourier.band_table.s": "s",
    "fourier.transfer_parts.s": "s",
    "fourier.build_transfer_matrix.us_per_call_36pairs": "us/call",
    "fourier.build_transfer_matrix.us_per_call_324pairs": "us/call",
    "fourier.check_condition1.windows": "count",
    "fourier.check_condition1.ms_per_window": "ms/window",
    "fourier.check_condition1.gflop_computed": "GFLOP",
    "fourier.check_condition1.gflops": "GFLOP/s",
    "fourier.check_condition2.windows": "count",
    "fourier.check_condition2.ms_per_window": "ms/window",
    "fourier.check_condition2.gflop_computed": "GFLOP",
    "fourier.check_condition2.gflops": "GFLOP/s",
    "fourier.prop2_saving_sweep.ms_per_delta": "ms/delta",
    "analytic.vaaler.ms_per_case": "ms/case",
    "analytic.gauss_sum.us_per_call": "us/call",
    "analytic.sinus_sum_checks.us_per_call": "us/call",
    "analytic.carry_exception_count.ms_per_cell": "ms/cell",
    "budget.cap.ns_per_call": "ns/call",
    "cli.generate.s": "s",
    "cli.generate.format_s": "s",
    "cli.stats.s": "s",
    "cli.bytes_written": "bytes",
    "digital.self_s": "s",
    "seqgen.self_s": "s",
    "normality.self_s": "s",
    "fourier.self_s": "s",
    "analytic.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

CHECK_POSITIONS = 64        # scalar eval_b checks per stream call
STREAM_PRESETS = ("rudin-shapiro", "thue-morse", "digit-sum:10,7")
# Symbols per stream call.  One 10^7-symbol call's time depended on how
# its 80 MB output landed in memory: 22 against 42 ns/symbol in two
# processes on the same host.  Calls of 10^6 reuse heap memory.
STREAM_CALL = 10 ** 6
WIDE_START = 1 << 40        # squares past 2^62 take the big-integer path
COND_LAM, K3_LAM = 12, 10
CARRY_BOUND = 16.0          # criterion 9: carry constants at nu = 16
VAALER_GRID = np.arange(1 << 10) / (1 << 10)
# Criterion 6 contexts: (preset, alpha numerators), all non-integer K.
WITNESS_CASES = (
    ("thue-morse", (1,)), ("thue-morse", (1, 0)), ("thue-morse", (0, 1)),
    ("thue-morse", (1, 1, 1)), ("rudin-shapiro", (1, 0)),
    ("rudin-shapiro", (0, 1)), ("digit-sum:3,3", (1,)),
    ("digit-sum:3,3", (1, 1)),
)
IDENTITY_PRESETS = ("thue-morse", "rudin-shapiro", "digit-sum:3,3")
# Criterion 9 cells: (rho, lam, r) for the shift n -> n + r at nu = 16.
CARRY_CELLS = tuple((rho, lam, r) for rho in (0, 2) for lam in (18, 20)
                    for r in range(min(2 ** rho, 7) + 1))


def section_size(workload: str, section: str, tiny: bool = False):
    tier = "tiny" if tiny else "full" if section in WORKLOADS[workload] else "probe"
    return SIZES[section][TIERS.index(tier)]


def clear_caches() -> None:
    """Drop the package's memo caches so that a set-up repeat starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "digitseq" or name.startswith("digitseq."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _seeded_shift(rng, samples, period):
    """Evenly spread samples of [0, period), rotated by a seeded offset."""
    off = int(rng.integers(0, period))
    return sorted((s + off) % period for s in samples)


def _gflop(windows: int, width: int, pairs: int) -> float:
    """Computed flops of the dense products: (width-1) complex matmuls a window."""
    return windows * (width - 1) * 8 * pairs ** 3 / 1e9


# ----------------------------------------------------------------------
# squares-stats sections


def inputs_stream(rng, calls, symbols=STREAM_CALL):
    """Each function streams calls * symbols consecutive squares."""
    return {"calls": calls, "symbols": symbols,
            "starts": [int(s) for s in rng.integers(0, 10 ** 6, 3)],
            "positions": [rng.integers(0, symbols, (calls, CHECK_POSITIONS))
                          for _ in STREAM_PRESETS]}


def stream_symbols(inp) -> int:
    return len(STREAM_PRESETS) * inp["calls"] * inp["symbols"]


def setup_stream(inp, rec):
    fs = [dq.parse_preset(p) for p in STREAM_PRESETS]
    for f, start in zip(fs, inp["starts"]):
        with rec.span("seqgen.stream", symbols=1024):  # builds the block table
            dq.stream(f, dq.SQUARE, start, 1024)
    return {"functions": fs}


def _checked_stream(chk, rec, f, start, count, positions):
    with chk.op("stream") as op:
        with rec.span("seqgen.stream", symbols=count):
            values = dq.stream(f, dq.SQUARE, start, count)
        op.expect(values.size == count, "length")
        op.expect(checks.stream_mismatches(f, start, values, positions) == 0,
                  "differs from scalar eval_b")


def run_stream(inp, state, rec, chk):
    n = inp["symbols"]
    for f, start, pos in zip(state["functions"], inp["starts"], inp["positions"]):
        for call in range(inp["calls"]):
            _checked_stream(chk, rec, f, start + call * n, n, pos[call])


def inputs_wide(rng, symbols):
    return {"symbols": symbols,
            "start": WIDE_START + int(rng.integers(0, 1 << 20)),
            "positions": rng.integers(0, symbols, CHECK_POSITIONS)}


def setup_wide(inp, rec):
    return {"f": dq.preset("rudin-shapiro")}


def run_wide(inp, state, rec, chk):
    _checked_stream(chk, rec, state["f"], inp["start"], inp["symbols"],
                    inp["positions"])


def inputs_stats(rng, prefix):
    starts = [int(s) for s in rng.integers(0, 10 ** 6, 2)]
    values = [dq.stream(dq.preset(name), dq.SQUARE, start, prefix)
              for name, start in zip(("rudin-shapiro", "thue-morse"), starts)]
    return {"prefix": prefix, "values": values}


def setup_stats(inp, rec):
    return {}


def run_stats(inp, state, rec, chk):
    for values in inp["values"]:
        blocks = {}
        for k in range(1, 9):
            with chk.op("block_histogram") as op:
                with rec.span("normality.block_histogram"):
                    hist = dq.block_histogram(values, k)
                with rec.span("normality.normality_deviation"):
                    report = dq.normality_deviation(hist, 2)
                total = values.size - k + 1
                op.expect(hist.total == total == sum(hist.counts.values()),
                          "counts do not sum to the window count")
                op.expect(report.missing_blocks == 2 ** k - len(hist.counts),
                          "missing-block count")
                if k == 1:
                    op.expect([hist.counts.get((s,), 0) for s in (0, 1)]
                              == np.bincount(values, minlength=2).tolist(),
                              "k=1 counts differ from bincount")
                blocks[k] = len(hist.counts)
        with chk.op("subword_complexity") as op:
            with rec.span("normality.subword_complexity"):
                comp = dq.subword_complexity(values, 8)
            op.expect(comp == [blocks.get(k) for k in range(1, 9)],
                      "complexity differs from distinct histogram blocks")


def inputs_expsum(rng, log_top):
    grid = [2 ** e for e in range(10, log_top + 1)]
    cases = [("rudin-shapiro", (1, 0)), ("rudin-shapiro", (1, 1)),
             ("thue-morse", (1,))]
    refs = []
    for name, nums in cases:  # S0(2^10) from scalar eval_b
        f = dq.preset(name)
        bsq = [dq.eval_b(f, n * n) % 2 for n in range(grid[0] + len(nums))]
        phases = [sum(a * bsq[n + ell] for ell, a in enumerate(nums)) % 2
                  for n in range(grid[0])]
        refs.append(complex(sum((-1) ** p for p in phases)))
    return {"grid": grid, "cases": cases, "refs": refs}


def setup_expsum(inp, rec):
    cases = [(dq.preset(name), AlphaVector(nums, 2)) for name, nums in inp["cases"]]
    for f, alpha in cases:
        with rec.span("normality.decay_exponent"):
            dq.decay_exponent(f, alpha, [2, 4])
    return {"cases": cases}


def run_expsum(inp, state, rec, chk):
    for (f, alpha), ref in zip(state["cases"], inp["refs"]):
        with chk.op("decay_exponent") as op:
            with rec.span("normality.decay_exponent", N=inp["grid"][-1]):
                fit = dq.decay_exponent(f, alpha, inp["grid"])
            op.expect([r.N for r in fit.rows] == inp["grid"], "grid rows")
            op.expect(abs(fit.rows[0].value - ref) <= checks.RESIDUAL_TOL,
                      "S0(2^10) differs from the scalar sum")
            op.expect(math.isfinite(fit.slope), "slope")


def inputs_cli(rng, symbols):
    start = int(rng.integers(0, 10 ** 6))
    values = dq.stream(dq.preset("rudin-shapiro"), dq.SQUARE, start, symbols)
    return {"symbols": symbols, "start": start,
            "raw": checks.format_raw(values)}


def setup_cli(inp, rec):
    return {}


def run_cli(inp, state, rec, chk):
    n = inp["symbols"]
    with tempfile.TemporaryDirectory(dir=inp["workdir"]) as tmp:
        path = os.path.join(tmp, "generate.txt")
        with chk.op("cli generate") as op:
            with rec.span("cli.generate", symbols=n) as counts:
                code = cli.dispatch(["generate", "--preset", "rudin-shapiro",
                                     "--map", "square", "--start",
                                     str(inp["start"]), "--count", str(n),
                                     "--out", path])
                counts["bytes"] = os.path.getsize(path) if code == 0 else 0
            op.expect(code == 0, f"exit code {code}")
            with open(path, "rb") as fh:
                written = fh.read()
            op.expect(written == inp["raw"], "--out bytes differ from stream")
        path = os.path.join(tmp, "stats.json")
        with chk.op("cli stats") as op:
            with rec.span("cli.stats", symbols=n) as counts:
                code = cli.dispatch(["stats", "--preset", "thue-morse",
                                     "--map", "square", "-N", str(n),
                                     "-k", "8", "--out", path])
                counts["bytes"] = os.path.getsize(path) if code == 0 else 0
            op.expect(code == 0, f"exit code {code}")
            with open(path, "rb") as fh:
                written = fh.read()
            report = json.loads(written)
            total = report["normality"]["total"]
            op.expect(total == n - 7 == sum(report["blocks"].values()),
                      "block counts")


# ----------------------------------------------------------------------
# transfer-checks sections


def _cond_inputs(rng, h_count, cases, lam):
    out = []
    for name, nums in cases:
        f = dq.preset(name)
        period = f.q ** (lam + f.m - 1)
        out.append({"preset": name, "nums": nums,
                    "h": _seeded_shift(rng, fx.stratified_samples(period, h_count),
                                       period)})
    return {"lam": lam, "cases": out, "h_count": h_count}


def _cond_setup(inp, rec):
    contexts = []
    for case in inp["cases"]:
        f = dq.preset(case["preset"])
        ctx = fx.make_context(f, AlphaVector(case["nums"], f.m_prime), inp["lam"])
        with rec.span("fourier.transfer_parts"):
            ctx.transfer_parts()
        contexts.append(ctx)
    return {"contexts": contexts}


def _cond_windows(case, lam, condition):
    """(windows, window width, pairs) a condition check walks for one case."""
    f = dq.preset(case["preset"])
    ctx = fx.make_context(f, AlphaVector(case["nums"], f.m_prime), lam)
    width = ctx.m0() if condition == 1 else ctx.m1_pair()
    pairs = len(ctx.index_vectors()) ** 2
    return len(case["h"]) * (lam - width + 1), width, pairs


def _cond_run(inp, state, rec, chk, condition):
    name = f"fourier.check_condition{condition}"
    check = fx.check_condition1 if condition == 1 else fx.check_condition2
    for case, ctx in zip(inp["cases"], state["contexts"]):
        windows, width, pairs = _cond_windows(case, inp["lam"], condition)
        with chk.op(name) as op:
            with rec.span(name, h=len(case["h"]), windows=windows,
                          gflop=_gflop(windows, width, pairs)):
                report = check(ctx, h_samples=case["h"], lam=inp["lam"])
            op.expect(report.ok, f"worst margin {report.worst_margin}")
            op.expect(report.windows_checked == windows, "window count")


def inputs_cond_k2(rng, h_count):
    cases = (("rudin-shapiro", (1, 1)), ("thue-morse", (1, 1)))
    return _cond_inputs(rng, h_count, cases, COND_LAM)


def run_cond1(inp, state, rec, chk):
    _cond_run(inp, state, rec, chk, 1)


def run_cond2(inp, state, rec, chk):
    _cond_run(inp, state, rec, chk, 2)


def inputs_cond1_k3(rng, h_count):
    return _cond_inputs(rng, h_count, (("rudin-shapiro", (1, 1, 0)),), K3_LAM)


def inputs_sweep(rng, count):
    period = 2 ** COND_LAM
    return {"deltas": _seeded_shift(rng, fx.stratified_samples(period, count),
                                    period)}


def setup_sweep(inp, rec):
    ctx = fx.make_context(dq.preset("rudin-shapiro"), AlphaVector((1, 0), 2),
                          COND_LAM)
    with rec.span("fourier.band_table"):
        ctx.band_table(ctx.m1_single())
    return {"ctx": ctx}


def run_sweep(inp, state, rec, chk):
    deltas = inp["deltas"]
    with chk.op("prop2_saving_sweep") as op:
        with rec.span("fourier.prop2_saving_sweep", deltas=len(deltas)):
            report = fx.prop2_saving_sweep(state["ctx"], deltas=deltas, grid=256)
        op.expect(report.ok, f"worst norm {report.worst_norm} > {report.bound}")
        op.expect(report.deltas_checked == len(deltas), "delta count")


# ----------------------------------------------------------------------
# fourier-identities sections


def _j_cap(q: int) -> int:
    """Largest j with q^j <= 32: the eps loop of one G-recursion check."""
    j = 0
    while q ** (j + 1) <= 32:
        j += 1
    return j


def inputs_identity(rng, rounds):
    fs = [dq.parse_preset(p) for p in IDENTITY_PRESETS]
    recursion = []
    for i in range(200 * rounds):  # split recursion, fixed (alpha, lam) schedule
        f = fs[i % 3]
        alpha = i % 7
        recursion.append((i % 3, int(rng.integers(0, 2 ** 16)),
                          int(rng.integers(0, f.q ** alpha)), alpha,
                          alpha + 1 + i % 5))
    contexts = [(p, tuple(int(v) for v in rng.integers(1, f.m_prime, k)))
                for p, f in zip(IDENTITY_PRESETS, fs) for k in (1, 2, 3)]
    gh = []
    for r in range(rounds):
        for c, (p, nums) in enumerate(contexts):
            f = fs[c // 3]
            q, m, k = f.q, f.m, len(nums)
            n_full = fx.index_set_size(q, m, k)
            n_start = 2 ** (k - 1)
            for lam in range(1, 11):
                # j sets the eps-loop length q^j, so it follows a fixed
                # schedule; the seed draws only the values.
                j = 1 + (lam + r) % min(lam, _j_cap(q))
                gh.append({"ctx": c, "lam": lam, "j": j,
                           "h": int(rng.integers(0, q ** (lam + m - 1))),
                           "d": int(rng.integers(0, q ** lam)),
                           "delta": int(rng.integers(0, q ** j)),
                           "I": int(rng.integers(0, n_full)),
                           "Ip": int(rng.integers(0, n_start)),
                           "dsmall": int(rng.integers(0, q ** (m - 1)))})
    parseval = []
    for i in range(30 * rounds):
        c = i % len(contexts)
        f = fs[c // 3]
        lam = 1 + i % 10
        parseval.append((c, lam, int(rng.integers(0, f.q ** lam)),
                         int(rng.integers(0, fx.index_set_size(
                             f.q, f.m, len(contexts[c][1]))))))
    witness = []
    for w, (p, nums) in enumerate(WITNESS_CASES):
        f = dq.parse_preset(p)
        ctx = fx.make_context(f, AlphaVector(nums, f.m_prime), 8)
        high = f.q ** min(ctx.m1_single(), 16)
        for I in range(len(ctx.index_vectors())):
            for _ in range(4 * rounds):
                witness.append((w, I, int(rng.integers(0, high))))
    return {"recursion": recursion, "contexts": contexts, "gh": gh,
            "parseval": parseval, "witness": witness}


def setup_identity(inp, rec):
    fs = [dq.parse_preset(p) for p in IDENTITY_PRESETS]
    contexts = [fx.make_context(fs[c // 3], AlphaVector(nums, fs[c // 3].m_prime), 10)
                for c, (_, nums) in enumerate(inp["contexts"])]
    witness = []
    for p, nums in WITNESS_CASES:
        f = dq.parse_preset(p)
        witness.append(fx.make_context(f, AlphaVector(nums, f.m_prime), 8))
    for ctx, top in [(c, 10) for c in contexts] + [(c, c.m1_single()) for c in witness]:
        with rec.span("fourier.band_table", depths=top):
            for depth in range(1, top + 1):
                ctx.band_table(depth)
    return {"functions": fs, "contexts": contexts, "witness": witness}


def run_identity(inp, state, rec, chk):
    fs, contexts = state["functions"], state["contexts"]
    for fi, n1, n2, alpha, lam in inp["recursion"]:
        with chk.op("check_recursion") as op:
            with rec.span("digital.check_recursion"):
                result = dq.check_recursion(fs[fi], n1, n2, alpha, lam)
            op.expect(result == (0, 0), f"residuals {result}")
    for case in inp["gh"]:
        ctx = contexts[case["ctx"]]
        with chk.op("g_recursion_residual") as op:
            with rec.span("fourier.g_recursion_residual",
                          G_terms=ctx.q ** case["j"] + 1):
                res = fx.g_recursion_residual(
                    ctx, ctx.index_vectors()[case["I"]], case["h"], case["d"],
                    case["j"], case["delta"], case["lam"])
            op.expect(checks.residual_ok(res), f"residual {res}")
        with chk.op("h_recursion_residual") as op:
            with rec.span("fourier.h_recursion_residual"):
                res = fx.h_recursion_residual(
                    ctx, ctx.start_vectors()[case["Ip"]], case["h"], case["d"],
                    case["dsmall"], case["lam"])
            op.expect(checks.residual_ok(res), f"residual {res}")
    for c, lam, d, I in inp["parseval"]:
        ctx = contexts[c]
        with chk.op("parseval_sum") as op:
            with rec.span("fourier.parseval_sum"):
                total = fx.parseval_sum(ctx, ctx.index_vectors()[I], d, lam)
            op.expect(checks.residual_ok(abs(total - 1.0)), f"sum {total}")
    for w, I, delta in inp["witness"]:
        ctx = state["witness"][w]
        with chk.op("find_saving_witness") as op:
            with rec.span("fourier.find_saving_witness"):
                record = fx.find_saving_witness(ctx, ctx.index_vectors()[I], delta)
            op.expect(record.verified, "not verified")


def inputs_toolbox(rng, size):
    rounds, cells = size
    gauss, vaaler, sinsum = [], [], []
    for i in range(20 * rounds):
        # m and H set the work per call, so they follow a fixed schedule.
        m = 1 + (i * 997) % 4096
        gauss.append((int(rng.integers(-m, m + 1)), int(rng.integers(-m, m + 1)), m))
        vaaler.append((float(rng.uniform(0, 1)), 1 + i % 64))
        sinsum.append((int(rng.integers(0, 2 * m + 2)), m,
                       float(rng.uniform(-m, m)), float(rng.uniform(0.5, 1e7))))
    return {"gauss": gauss, "vaaler": vaaler, "sinsum": sinsum,
            "carry": CARRY_CELLS[:cells]}


def setup_toolbox(inp, rec):
    f = dq.preset("rudin-shapiro")
    with rec.span("analytic.carry_exception_count"):  # builds the block table
        an.carry_exception_count(f, 4, 8, 0, 1)
    return {"f": f}


def run_toolbox(inp, state, rec, chk):
    for a, b, m in inp["gauss"]:
        with chk.op("gauss_sum") as op:
            with rec.span("analytic.gauss_sum"):
                res = an.gauss_sum(a, b, m)
            op.expect(res.ok, f"margin {res.margin}")
    for alpha, H in inp["vaaler"]:
        with chk.op("vaaler") as op:
            with rec.span("analytic.vaaler"):
                polys = an.vaaler_build(alpha, H)
                defect = float(polys.defect(VAALER_GRID).max())
            a_margin, b_margin = polys.coefficient_margins()
            op.expect(defect <= checks.RESIDUAL_TOL, f"defect {defect}")
            op.expect(min(a_margin.min(), b_margin.min()) >= -1e-12,
                      "coefficient bound")
    for a, m, b, U in inp["sinsum"]:
        with chk.op("sinus_sum_checks") as op:
            with rec.span("analytic.sinus_sum_checks"):
                res = an.sinus_sum_checks(a, m, b, U)
            op.expect(res.single_ok, "single-sum bound")
    for rho, lam, r in inp["carry"]:
        with chk.op("carry_exception_count") as op:
            with rec.span("analytic.carry_exception_count", cells=1):
                res = an.carry_exception_count(state["f"], 16, lam, rho, r)
            op.expect(res.constant <= CARRY_BOUND, f"constant {res.constant}")


# ----------------------------------------------------------------------
# workloads


def _no_setup(inp, rec):
    return {}


SECTION_FUNCS = {  # section: (inputs, setup, run)
    "stream": (inputs_stream, setup_stream, run_stream),
    "wide": (inputs_wide, setup_wide, run_wide),
    "stats": (inputs_stats, _no_setup, run_stats),
    "expsum": (inputs_expsum, setup_expsum, run_expsum),
    "cli": (inputs_cli, _no_setup, run_cli),
    "cond1": (inputs_cond_k2, _cond_setup, run_cond1),
    "cond2": (inputs_cond_k2, _cond_setup, run_cond2),
    "cond1_k3": (inputs_cond1_k3, _cond_setup, run_cond1),
    "sweep": (inputs_sweep, setup_sweep, run_sweep),
    "identity": (inputs_identity, setup_identity, run_identity),
    "toolbox": (inputs_toolbox, setup_toolbox, run_toolbox),
}


class Workload:
    """One workload's seeded inputs, its set-up state and its passes."""

    def __init__(self, name: str, seed: int, workdir, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.sizes = {s: section_size(name, s, tiny) for s in SECTIONS}
        self.inputs = {
            s: SECTION_FUNCS[s][0](np.random.default_rng([seed, i]), self.sizes[s])
            for i, s in enumerate(SECTIONS)
        }
        self.inputs["cli"]["workdir"] = str(workdir)  # --out files go here
        self.state = None

    def setup(self, rec) -> None:
        """Contexts, transfer parts, band and block tables, warm-up."""
        state = {}
        for s in SECTIONS:
            with rec.section(s):
                state[s] = SECTION_FUNCS[s][1](self.inputs[s], rec)
        self.state = state

    def run_pass(self, rec, chk, between) -> None:
        """Every section once, own sections at full size.

        `between` runs before each section and after the last one.
        """
        with rec.span("pass"):
            for s in SECTIONS:
                between()
                with rec.section(s):
                    SECTION_FUNCS[s][2](self.inputs[s], self.state[s], rec, chk)
        between()

    def counts(self) -> dict:
        """Work counts computed from the inputs alone (identical across seeds)."""
        inp = self.inputs
        out = {
            "stream_symbols": stream_symbols(inp["stream"]),
            "wide_symbols": inp["wide"]["symbols"],
            "stats_symbols": 2 * inp["stats"]["prefix"],
            "expsum_N": inp["expsum"]["grid"][-1],
            "cli_symbols": 2 * inp["cli"]["symbols"],
            "G_terms": sum(
                dq.parse_preset(IDENTITY_PRESETS[c["ctx"] // 3]).q ** c["j"] + 1
                for c in inp["identity"]["gh"]),
            "check_recursion_calls": len(inp["identity"]["recursion"]),
            "parseval_calls": len(inp["identity"]["parseval"]),
            "witness_calls": len(inp["identity"]["witness"]),
            "saving_deltas": len(inp["sweep"]["deltas"]),
            "toolbox_calls": sum(len(inp["toolbox"][k])
                                 for k in ("gauss", "vaaler", "sinsum", "carry")),
        }
        for s in ("cond1", "cond2", "cond1_k3"):
            condition = 2 if s == "cond2" else 1
            out[f"{s}_windows"] = sum(
                _cond_windows(case, inp[s]["lam"], condition)[0]
                for case in inp[s]["cases"])
        return out


def end_to_end(rec, wl) -> dict:
    """The per-section end-to-end metrics of one untraced pass."""
    inp = wl.inputs
    busy = rec.seconds

    h = {s: sum(len(c["h"]) for c in inp[s]["cases"])
         for s in ("cond1", "cond2", "cond1_k3")}
    return {
        "stream_ns_per_symbol": busy("stream", "seqgen.stream") * 1e9
        / stream_symbols(inp["stream"]),
        "wide_stream_ns_per_symbol": busy("wide", "seqgen.stream") * 1e9
        / inp["wide"]["symbols"],
        "stats_s": busy("stats"),
        "expsum_s": busy("expsum"),
        "cli_s": busy("cli"),
        "cond1_ms_per_h": busy("cond1") * 1e3 / h["cond1"],
        "cond2_ms_per_h": busy("cond2") * 1e3 / h["cond2"],
        "cond1_k3_ms_per_h": busy("cond1_k3") * 1e3 / h["cond1_k3"],
        "saving_sweep_s": busy("sweep"),
        "identity_suite_s": busy("identity"),
        "toolbox_s": busy("toolbox"),
    }

