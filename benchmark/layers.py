"""Per-layer metrics of a traced run.

Most figures come from the spans the traced passes recorded around each
call into a module.  A few are direct microbenchmarks of one layer on
the workload's own arguments: the digit-scan kernels, the scalar path
on 126-bit arguments, budget.cap, and single transfer matrices.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import digitseq as dq
from digitseq import budget
from digitseq import fourier as fx
from digitseq.digital import eval_b_band_many, eval_b_many

from spans import self_times
from workloads import stream_symbols

LAYERS = ("digital", "seqgen", "normality", "fourier", "analytic", "cli", "bench")
CARRY_NU, CARRY_DEPTH = 16, 17  # the carry cells' band: lam 18 minus m - 1


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def microbench(wl, seed: int) -> dict:
    """Direct single-layer timings on the workload's own arguments."""
    inp, state = wl.inputs, wl.state
    out = {}

    count = inp["stream"]["symbols"]  # one stream call's arguments
    kernel = stream = 0.0
    for f, start in zip(state["stream"]["functions"], inp["stream"]["starts"]):
        ts = np.arange(start, start + count, dtype=np.int64)
        squares = ts * ts
        kernel += _median_time(lambda: eval_b_many(f, squares), 5)
        stream += _median_time(lambda: dq.stream(f, dq.SQUARE, start, count), 5)
    out["digital.eval_b_many.ns_per_symbol"] = kernel * 1e9 / (3 * count)
    out["seqgen.stream.overhead_ns_per_symbol"] = (stream - kernel) * 1e9 / (3 * count)

    rs = dq.preset("rudin-shapiro")
    n = np.arange(2 ** CARRY_NU, dtype=np.int64)
    squares = n * n
    band = _median_time(lambda: eval_b_band_many(rs, squares, 0, CARRY_DEPTH), 5)
    out["digital.eval_b_band_many.ns_per_symbol"] = band * 1e9 / squares.size
    out["digital.eval_b_band_many.digits_per_symbol"] = CARRY_DEPTH

    rng = np.random.default_rng([seed, 99])
    wide = [(1 << 125) | int.from_bytes(rng.bytes(16), "little") % (1 << 125)
            for _ in range(64)]
    scalar = _median_time(lambda: [dq.eval_b(rs, x) for x in wide], 5)
    out["digital.eval_b.us_per_call"] = scalar * 1e6 / len(wide)

    calls = 20_000
    cap = _median_time(lambda: [budget.cap("sum") for _ in range(calls)], 3)
    out["budget.cap.ns_per_call"] = cap * 1e9 / calls

    for key, ctx, calls in (("36pairs", state["cond1"]["contexts"][0], 200),
                            ("324pairs", state["cond1_k3"]["contexts"][0], 10)):
        beta = (inp["cond1"]["cases"][0]["h"][0], ctx.q ** ctx.lam)
        t = _median_time(
            lambda: [fx.build_transfer_matrix(ctx, beta) for _ in range(calls)], 3)
        out[f"fourier.build_transfer_matrix.us_per_call_{key}"] = t * 1e6 / calls

    cli_in = inp["cli"]
    out["cli_stream_s"] = _median_time(
        lambda: dq.stream(rs, dq.SQUARE, cli_in["start"], cli_in["symbols"]), 3)
    return out


def layer_metrics(wl, traced, setups, micro, traced_s, untraced_s) -> dict:
    """Every per-layer metric: medians over traced passes and set-ups."""

    def med(fn, recs=traced):
        return statistics.median(fn(r) for r in recs)

    def total(name, key="s"):
        return lambda r: r.by_name(name).get(key, 0)

    def per_call(name, scale):
        return lambda r: r.by_name(name)["s"] * scale / r.by_name(name)["calls"]

    inp = wl.inputs
    m = {k: v for k, v in micro.items() if k != "cli_stream_s"}
    m["digital.check_recursion.us_per_call"] = med(per_call("digital.check_recursion", 1e6))
    m["seqgen.stream.ns_per_symbol"] = med(
        lambda r: r.seconds("stream", "seqgen.stream") * 1e9
        / stream_symbols(inp["stream"]))
    m["seqgen.stream.wide_ns_per_symbol"] = med(
        lambda r: r.seconds("wide", "seqgen.stream") * 1e9 / inp["wide"]["symbols"])
    # streams return int64 symbols
    m["seqgen.stream.bytes_out"] = med(lambda r: 8 * r.by_name("seqgen.stream")["symbols"])
    for name in ("block_histogram", "normality_deviation", "subword_complexity",
                 "decay_exponent"):
        m[f"normality.{name}.s"] = med(total(f"normality.{name}"))
    g = "fourier.g_recursion_residual"
    m[g + ".s"] = med(total(g))
    m[g + ".calls"] = med(total(g, "calls"))
    m[g + ".G_terms"] = med(total(g, "G_terms"))
    m["fourier.h_recursion_residual.s"] = med(total("fourier.h_recursion_residual"))
    m["fourier.parseval_sum.s"] = med(total("fourier.parseval_sum"))
    m["fourier.find_saving_witness.us_per_call"] = med(
        per_call("fourier.find_saving_witness", 1e6))
    m["fourier.band_table.s"] = med(total("fourier.band_table"), setups)
    m["fourier.transfer_parts.s"] = med(total("fourier.transfer_parts"), setups)
    for c in (1, 2):
        name = f"fourier.check_condition{c}"
        m[name + ".windows"] = med(total(name, "windows"))
        m[name + ".ms_per_window"] = med(
            lambda r: r.by_name(name)["s"] * 1e3 / r.by_name(name)["windows"])
        m[name + ".gflop_computed"] = med(total(name, "gflop"))
        m[name + ".gflops"] = med(
            lambda r: r.by_name(name)["gflop"] / r.by_name(name)["s"])
    m["fourier.prop2_saving_sweep.ms_per_delta"] = med(
        lambda r: r.by_name("fourier.prop2_saving_sweep")["s"] * 1e3
        / r.by_name("fourier.prop2_saving_sweep")["deltas"])
    m["analytic.vaaler.ms_per_case"] = med(per_call("analytic.vaaler", 1e3))
    m["analytic.gauss_sum.us_per_call"] = med(per_call("analytic.gauss_sum", 1e6))
    m["analytic.sinus_sum_checks.us_per_call"] = med(
        per_call("analytic.sinus_sum_checks", 1e6))
    m["analytic.carry_exception_count.ms_per_cell"] = med(
        per_call("analytic.carry_exception_count", 1e3))
    m["cli.generate.s"] = med(total("cli.generate"))
    m["cli.generate.format_s"] = m["cli.generate.s"] - micro["cli_stream_s"]
    m["cli.stats.s"] = med(total("cli.stats"))
    m["cli.bytes_written"] = med(
        lambda r: r.by_name("cli.generate")["bytes"] + r.by_name("cli.stats")["bytes"])
    selfs = [self_times(r.spans) for r in traced]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = statistics.median(s.get(layer, 0.0) for s in selfs)
    m["trace.run_s"] = statistics.median(traced_s)
    m["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return m
