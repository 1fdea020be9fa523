"""Command-line entry point.

Subcommands: generate, stats, expsum, fourier, toolbox, bench.  Reports
are JSON (schema 1) or CSV with headers; identical invocations produce
byte-identical output unless --timing is given.  Exit codes: 0 success,
1 a checked bound or identity failed, 2 usage or budget error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import analytic, fourier, normality, seqgen
from .budget import BudgetExceededError, check as budget_check
from .digital import (
    FunctionSpecError,
    WitnessNotFoundError,
    load_function_spec,
    normalize,
)
from .normality import AlphaVector

SCHEMA = 1
DEFAULT_SEED = 1729


class CheckFailure(Exception):
    """A verified bound or identity did not hold (exit code 1)."""


def _load_function(args):
    if getattr(args, "preset", None) and getattr(args, "spec_file", None):
        raise ValueError("give either --preset or --spec-file, not both")
    if getattr(args, "preset", None):
        f = seqgen.parse_preset(args.preset)
    elif getattr(args, "spec_file", None):
        f = load_function_spec(args.spec_file)
    else:
        raise ValueError("one of --preset or --spec-file is required")
    return normalize(f)


def _emit(args, text) -> None:
    """Write text, or each text of an iterable, to --out or stdout."""
    out = getattr(args, "out", None)
    with open(out, "w", encoding="ascii") if out else nullcontext(sys.stdout) as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _emit_json(args, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# generate


def _raw_text(values) -> str:
    """Digits in lines of 64, each line ended by a newline.  Chunks of 2^16
    fill whole lines, so their texts join into the text of the stream."""
    rows, rest = -(-values.size // 64), values.size % 64
    text = np.full((rows, 65), ord("\n"), dtype=np.uint8)
    np.add(values[:values.size - rest].reshape(-1, 64), ord("0"),
           out=text[:values.size // 64, :64], casting="unsafe")
    text[-1, :rest] = values[values.size - rest:] + ord("0")
    return text.tobytes()[:values.size + rows].decode("ascii")


def _cmd_generate(args) -> int:
    f = _load_function(args)
    index_map = seqgen.parse_index_map(args.map)
    chunks = seqgen._chunks(f, index_map, args.start, args.count,
                            threads=args.threads)
    if args.format == "raw":
        if f.m_prime > 10:
            raise ValueError("raw output needs m_prime <= 10; use --format csv")
        _emit(args, map(_raw_text, chunks))
        return 0

    def lines():
        t = args.start
        yield "t,n,value\n"
        for values in chunks:
            yield "".join(f"{t + i},{index_map(t + i)},{v}\n"
                          for i, v in enumerate(values.tolist()))
            t += values.size

    _emit(args, lines())
    return 0


# ----------------------------------------------------------------------
# stats


def _decimal(values, width: int) -> np.ndarray:
    """Each row of values >= 0 as one row of ASCII digits, each zero-padded."""
    digits = values[..., None] // 10 ** np.arange(width - 1, -1, -1) % 10
    return (digits + ord("0")).astype(np.uint8).reshape(len(values), -1)


def _cmd_stats(args) -> int:
    f = _load_function(args)
    index_map = seqgen.parse_index_map(args.map)

    def chunks():
        return seqgen._chunks(f, index_map, 0, args.N, threads=args.threads)

    chunks()  # the stream's own checks come first
    # complexity needs a prefix longer than the window; N = 1 has none
    hist, comp = normality._window_statistics(chunks, f.m_prime, args.k, args.N,
                                              min(args.k, args.N - 1))
    report = normality.normality_deviation(hist, f.m_prime)
    # the codes ascend; padded to one width, the labels ascend as strings too
    n, step, width = hist.codes.size, 1 << 16, len(str(f.m_prime - 1))

    def rows(lo):  # "label,count\n" for up to 2^16 blocks, counts unpadded
        tally = hist.tallies[lo:lo + step, None]
        count = _decimal(tally, len(str(tally.max())))
        count[:, :-1] *= np.logical_or.accumulate(count[:, :-1] != ord("0"), axis=1)
        sep = np.full((len(count), 1), ord(","), np.uint8)
        text = np.hstack([_decimal(hist.blocks(lo, lo + step), width), sep, count, sep])
        text[:, -1] = ord("\n")
        return text[text > 0].tobytes().decode("ascii")  # leading zeros were set to NUL

    if args.report == "json":
        label = _decimal(hist.blocks(), width) if n <= 1 << 12 else None
        _emit_json(args, {
            "inputs": {"map": index_map.describe(), "N": args.N, "k": args.k},
            "normality": report.to_dict(),
            "subword_complexity": comp,
            "blocks": None if label is None else dict(zip(
                label.view(f"S{label.shape[1]}")[:, 0].astype(str).tolist(),
                hist.tallies.tolist())),
        })
    else:
        _emit(args, itertools.chain(["block,count\n"], map(rows, range(0, n, step))))
    return 0


# ----------------------------------------------------------------------
# expsum


def _cmd_expsum(args) -> int:
    f = _load_function(args)
    alpha = AlphaVector.parse(args.alpha, f.m_prime)
    grid = seqgen.parse_ints(args.grid, "--grid")
    fit = normality.decay_exponent(f, alpha, grid)
    if args.report == "csv":
        lines = ["N,re,im,abs,log_ratio"]
        for row in fit.rows:
            d = row.to_dict()
            lines.append(f"{d['N']},{d['re']!r},{d['im']!r},{d['abs']!r},{d['log_ratio']!r}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, {
            "inputs": {"alpha": list(alpha.numerators), "m_prime": f.m_prime,
                       "grid": grid},
            "fit": fit.to_dict(),
        })
    return 0


# ----------------------------------------------------------------------
# fourier


def _fourier_check_recursion(ctx, rng, samples):
    worst = 0.0
    q, m = ctx.q, ctx.m
    for _ in range(samples):
        lam = int(rng.integers(2, ctx.lam + 1))
        h = int(rng.integers(0, q ** (lam + m - 1)))
        d = int(rng.integers(0, q ** lam))
        j = int(rng.integers(1, lam + 1))
        delta = int(rng.integers(0, q ** j))
        I = ctx.index_vectors()[int(rng.integers(0, len(ctx.index_vectors())))]
        worst = max(worst, fourier.g_recursion_residual(ctx, I, h, d, j, delta, lam))
        Ip = ctx.start_vectors()[int(rng.integers(0, len(ctx.start_vectors())))]
        dsmall = int(rng.integers(0, q ** (m - 1)))
        worst = max(worst, fourier.h_recursion_residual(ctx, Ip, h, d, dsmall, lam))
    return {"worst_residual": worst, "tolerance": 1e-9, "ok": worst <= 1e-9}


def _fourier_check_parseval(ctx, rng, samples):
    worst = 0.0
    for _ in range(samples):
        lam = int(rng.integers(1, ctx.lam + 1))
        d = int(rng.integers(0, ctx.q ** lam))
        I = ctx.index_vectors()[int(rng.integers(0, len(ctx.index_vectors())))]
        worst = max(worst, abs(fourier.parseval_sum(ctx, I, d, lam) - 1.0))
    return {"worst_defect": worst, "tolerance": 1e-9, "ok": worst <= 1e-9}


def _fourier_check_prop1(ctx, rng, samples):
    h = int(rng.integers(0, ctx.q ** (ctx.lam + ctx.m - 1)))
    grid = list(range(2, ctx.lam + 1, 2))
    profile = fourier.prop1_decay_profile(ctx, (0,) * ctx.k, h, grid)
    return {"h": h, "profile": profile.to_dict(),
            "ok": profile.max_matrix_residual <= 1e-9}


def _fourier_check_prop2(ctx, rng, samples):
    h = int(rng.integers(0, ctx.q ** (ctx.lam + ctx.m - 1)))
    d = int(rng.integers(0, ctx.q ** ctx.lam))
    grid = list(range(0, ctx.lam + 1, 2))
    report = fourier.prop2_decay_check(ctx, (0,) * ctx.k, h, d, grid)
    # the uniform-decay constant is reported, not asserted: no "ok" key
    return {"h": h, "d": d, "report": report.to_dict()}


def _fourier_check_witness(ctx, rng, samples):
    records = []
    ok = True
    Is = ctx.index_vectors()
    high = ctx.q ** min(ctx.m1_single(), 16)  # reduced mod q^m1 inside anyway
    for _ in range(samples):
        I = Is[int(rng.integers(0, len(Is)))]
        delta = int(rng.integers(0, high))
        rec = fourier.find_saving_witness(ctx, I, delta)
        ok = ok and rec.verified
        records.append(rec.to_dict())
    return {"witnesses": records, "ok": ok}


_FOURIER_CHECKS = {
    "recursion": _fourier_check_recursion, "parseval": _fourier_check_parseval,
    "prop1": _fourier_check_prop1, "prop2": _fourier_check_prop2,
    "cond1": lambda ctx, rng, samples: fourier.check_condition1(ctx).to_dict(),
    "cond2": lambda ctx, rng, samples: fourier.check_condition2(ctx).to_dict(),
    "witness": _fourier_check_witness,
}


def _cmd_fourier(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.check == "recursion" and args.lam < 2:
        # the check draws its depths from [2, lambda]
        raise ValueError(f"--check recursion needs --lambda >= 2, got {args.lam}")
    if args.check == "prop1" and args.lam < 4:
        # the fitted rate needs two depths from the even ones in [2, lambda]
        raise ValueError(f"--check prop1 needs --lambda >= 4, got {args.lam}")
    f = _load_function(args)
    alpha = AlphaVector.parse(args.alpha, f.m_prime)
    ctx = fourier.make_context(f, alpha, args.lam)
    rng = np.random.default_rng(args.seed)
    body = _FOURIER_CHECKS[args.check](ctx, rng, args.samples)
    if body.get("wrong_branch"):  # only condition 2 has a wrong branch
        raise ValueError("condition 2 needs integral K; this alpha is wrong-branch")
    _emit_json(args, {
        "inputs": {"alpha": list(alpha.numerators), "m_prime": f.m_prime,
                   "lam": args.lam, "check": args.check, "seed": args.seed},
        "result": body,
    })
    if not body.get("ok", True):
        raise CheckFailure(f"fourier --check {args.check} failed")
    return 0


# ----------------------------------------------------------------------
# toolbox


def _toolbox_report(args, inputs, value, bound, margin, constant, **extra):
    _emit_json(args, {"inputs": inputs, "value": value, "bound": bound,
                      "margin": margin, "constant": constant, **extra})


def _cmd_toolbox(args) -> int:
    sub = args.tool
    if sub == "gauss":
        if args.count is None:
            res = analytic.gauss_sum(args.a, args.b, args.m)
            inputs = {"a": args.a, "b": args.b, "m": args.m}
        else:
            res = analytic.incomplete_gauss_sum(args.a, args.b, args.m,
                                                args.n0, args.count)
            inputs = {"a": args.a, "b": args.b, "m": args.m,
                      "n0": args.n0, "count": args.count}
        _toolbox_report(args, inputs, res.magnitude, res.bound, res.margin,
                        None, re=res.value.real, im=res.value.imag, ok=res.ok)
        if not res.ok:
            raise CheckFailure("Gauss bound violated")
    elif sub == "vaaler":
        if args.grid < 1:
            raise ValueError(f"--grid must be >= 1, got {args.grid}")
        vp = analytic.vaaler_build(args.alpha, args.H)
        # the evaluation's own check, before the grid is built
        budget_check("sum", args.grid * (args.H + 1), "Vaaler evaluation")
        xs = np.arange(args.grid) / args.grid
        defect = float(vp.defect(xs).max())
        a_margin, b_margin = vp.coefficient_margins()
        worst = min(float(a_margin.min()), float(b_margin.min()))
        _toolbox_report(args,
                        {"alpha": args.alpha, "H": args.H, "grid": args.grid},
                        defect, 0.0, -defect, None, coefficient_margin=worst)
        if defect > 1e-9 or worst < -1e-12:
            raise CheckFailure("Vaaler bound violated")
    elif sub == "vdc":
        f = _load_function(args)
        alpha = AlphaVector.parse(args.alpha, f.m_prime)
        if len(alpha.numerators) != 1:
            raise ValueError(f"vdc takes one --alpha numerator, got {args.alpha!r}")
        budget_check("sum", args.N, "Van der Corput sequence")
        phases = seqgen.stream(f, seqgen.SQUARE, 0, args.N)
        z = np.exp(2j * np.pi * alpha.numerators[0] * phases / f.m_prime)
        lhs, rhs = analytic.van_der_corput_check(z, args.Q, args.R)
        _toolbox_report(args, {"N": args.N, "Q": args.Q, "R": args.R},
                        lhs, rhs, rhs - lhs, None)
        if lhs > rhs + 1e-6:
            raise CheckFailure("Van der Corput inequality violated")
    elif sub == "carry":
        f = _load_function(args)
        if args.variant == "shift":
            inputs = {"nu": args.nu, "lam": args.lam, "rho": args.rho,
                      "r": args.r}
            res = analytic.carry_exception_count(f, **inputs)
            value = float(max(res.digit_exceptions, res.band_exceptions))
        else:
            inputs = {"nu": args.nu, "mu": args.mu, "lam": args.lam,
                      "rho_prime": args.rho_prime, "ell": args.ell,
                      "s": args.s, "r": args.r}
            res = analytic.carry_decomposition_check(f, **inputs)
            value = float(res.exceptions)
        counts = {key: v for key, v in res.to_dict().items()
                  if key not in inputs and key != "constant"}
        _toolbox_report(args, inputs, value, float(res.expected_power),
                        None, res.constant, **counts)
    else:  # sinsum
        res = analytic.sinus_sum_checks(args.a, args.m, args.b, args.U, args.A)
        _toolbox_report(args,
                        {"a": args.a, "m": args.m, "b": args.b,
                         "U": args.U, "A": args.A},
                        res.single_sum, res.single_bound,
                        res.single_bound - res.single_sum,
                        res.shape_constant, **res.to_dict())
        if not res.single_ok:
            raise CheckFailure("inverse-sinus sum bound violated")
    return 0


# ----------------------------------------------------------------------
# bench


def _cmd_bench(args) -> int:
    f = _load_function(args)
    index_map = seqgen.parse_index_map(args.map)
    payload = {"inputs": {"map": index_map.describe(), "count": args.count}}

    def run(count):
        """Seconds to stream and sum count symbols, the sum and the head."""
        start, total, head = time.perf_counter(), 0, []
        for values in seqgen._chunks(f, index_map, 0, count, threads=args.threads):
            total += int(values.sum())
            head += values[:16 - len(head)].tolist()
        return time.perf_counter() - start, total, head

    elapsed, payload["checksum"], payload["head"] = run(args.count)
    if args.timing:
        elapsed_small = run(max(args.count // 10, 1))[0]
        payload["seconds"] = elapsed
        payload["rate_per_s"] = args.count / elapsed if elapsed > 0 else None
        payload["scaling_ratio"] = elapsed / elapsed_small if elapsed_small > 0 else None
    _emit_json(args, payload)
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitseq",
        description="digital sequences along squares: generation, "
                    "statistics and verification toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several commands, each declared once
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--preset", help="named function, e.g. rudin-shapiro, "
                                         "thue-morse, digit-sum:10,5, block-ones:3")
    source.add_argument("--spec-file", help="path to a function-spec text file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("generate", parents=[source, out, threads],
                       help="stream sequence symbols")
    p.add_argument("--map", default="id")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("raw", "csv"), default="raw")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", parents=[source, out, threads],
                       help="block frequencies of a stream prefix")
    p.add_argument("--map", default="id")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--report", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("expsum", parents=[source, out],
                       help="square-correlation sum over an N grid")
    p.add_argument("--alpha", required=True, help="numerators, e.g. 1,0")
    p.add_argument("--grid", required=True, help="N values, e.g. 1024,4096")
    p.add_argument("--report", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("fourier", parents=[source, out],
                       help="Fourier-term and transfer-matrix checks")
    p.add_argument("--alpha", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--check", required=True, choices=tuple(_FOURIER_CHECKS))
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("toolbox", help="analytic toolbox checks")
    tool = p.add_subparsers(dest="tool", required=True)

    t = tool.add_parser("gauss", parents=[out])
    t.add_argument("-a", type=int, required=True)
    t.add_argument("-b", type=int, required=True)
    t.add_argument("-m", type=int, required=True)
    t.add_argument("--n0", type=int, default=0)
    t.add_argument("--count", type=int, default=None,
                   help="incomplete sum length (omit for the full period)")
    t.set_defaults(func=_cmd_toolbox)

    t = tool.add_parser("vaaler", parents=[out])
    t.add_argument("--alpha", type=float, required=True)
    t.add_argument("--H", type=int, required=True)
    t.add_argument("--grid", type=int, default=1 << 12)
    t.set_defaults(func=_cmd_toolbox)

    t = tool.add_parser("vdc", parents=[source, out])
    t.add_argument("--alpha", default="1")
    t.add_argument("--N", type=int, default=512)
    t.add_argument("--Q", type=int, default=1)
    t.add_argument("--R", type=int, default=4)
    t.set_defaults(func=_cmd_toolbox)

    t = tool.add_parser("carry", parents=[source, out])
    t.add_argument("--variant", choices=("shift", "decomposition"),
                   default="shift")
    t.add_argument("--nu", type=int, required=True)
    t.add_argument("--lambda", dest="lam", type=int, required=True)
    t.add_argument("--rho", type=int, default=0)
    t.add_argument("--mu", type=int, default=0)
    t.add_argument("--rho-prime", type=int, default=0)
    t.add_argument("--ell", type=int, default=1)
    t.add_argument("-s", type=int, default=1)
    t.add_argument("-r", type=int, required=True)
    t.set_defaults(func=_cmd_toolbox)

    t = tool.add_parser("sinsum", parents=[out])
    t.add_argument("-a", type=int, required=True)
    t.add_argument("-m", type=int, required=True)
    t.add_argument("-b", type=float, default=0.0)
    t.add_argument("-U", type=float, required=True)
    t.add_argument("-A", type=int, default=1)
    t.set_defaults(func=_cmd_toolbox)

    p = sub.add_parser("bench", parents=[source, out, threads],
                       help="throughput benchmark")
    p.add_argument("--map", default="square")
    p.add_argument("--count", type=int, default=10_000_000)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings in the report")
    p.set_defaults(func=_cmd_bench)

    return parser


def dispatch(argv) -> int:
    """Run one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, FunctionSpecError,
            BudgetExceededError, WitnessNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
