"""Run one digitseq benchmark workload and print its metrics.

    python3 benchmark/run.py --workload squares-stats --seed 1 --seconds 30 --trace 0

Workloads: squares-stats, transfer-checks, fourier-identities (see
benchmark/README.md).  The run imports the package from ``src/`` of
the checkout, sets up several times (reporting the median), then runs
passes of the workload until ``--seconds`` have elapsed and reports
medians over the passes, scaled to a nominal host speed (speed.py).
Every operation's output is checked; failed checks are counted, not
raised.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, the metrics are the
per-layer ones, and the spans go to ``.bench_runs/`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5
# One BLAS thread: with the default two, a k=3 condition check sometimes
# ran 2.3x slower when both cores were contended.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("squares-stats", "transfer-checks", "fourier-identities")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "digitseq" / "__init__.py").is_file():
        print(f"error: no digitseq package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    start = time.perf_counter()
    import digitseq
    import workloads
    import_s = time.perf_counter() - start
    if Path(digitseq.__file__).resolve().parent != SRC / "digitseq":
        print(f"error: imported digitseq from {digitseq.__file__}", file=sys.stderr)
        return 2
    import layers
    import speed
    from checks import Checker
    from spans import Recorder, self_times, write_jsonl

    RUNS.mkdir(exist_ok=True)
    wl = workloads.Workload(args.workload, args.seed, RUNS, tiny=args.tiny)
    tracing = bool(args.trace)
    speed.sample()  # the first sample is cold
    reference = [speed.sample()]
    setup_s, setups = [], []
    for _ in range(SETUP_REPEATS):
        workloads.clear_caches()
        rec = Recorder(tracing=tracing)
        t0 = time.perf_counter()
        wl.setup(rec)
        setup_s.append(time.perf_counter() - t0)
        reference.append(speed.sample())
        setups.append(rec)
    setup_reference = list(reference)

    chk = Checker()
    passes = []  # (traced, seconds, recorder, reference samples)
    deadline = time.perf_counter() + args.seconds
    while len(passes) < 1 + tracing or time.perf_counter() < deadline:
        rec = Recorder(tracing=tracing and len(passes) % 2 == 1)
        samples = []
        t0 = time.perf_counter()
        wl.run_pass(rec, chk, between=lambda: samples.append(speed.sample()))
        seconds = time.perf_counter() - t0 - sum(samples)
        passes.append((rec.tracing, seconds, rec, samples))
        reference += samples
    untraced = [p[1:] for p in passes if not p[0]]
    traced = [p[1:] for p in passes if p[0]]

    env = environment()
    if tracing:
        micro = layers.microbench(wl, args.seed)
        metrics = layers.layer_metrics(
            wl, [p[1] for p in traced], setups, micro,
            [p[0] for p in traced], [p[0] for p in untraced])
        units = workloads.PER_LAYER
        path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans = [s for rec in setups[-1:] + [p[1] for p in traced] for s in rec.spans]
        write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                           "env": env, "passes": len(traced)}, spans)
        print(f"# spans: {path.relative_to(ROOT)}")
        by_name = self_times([s for p in traced for s in p[1].spans], key=str)
        print("# self_s by span name, all traced passes: " + json.dumps(
            {k: round(v, 6) for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])}))
    else:
        per_pass = [{k: speed.scale(v, samples) for k, v in
                     dict(workloads.end_to_end(rec, wl), run_s=seconds).items()}
                    for seconds, rec, samples in untraced]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["setup_s"] = speed.scale(import_s + statistics.median(setup_s),
                                         setup_reference)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = workloads.END_TO_END

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"# env {json.dumps(env)}")
    print(f"# host: reference median {statistics.median(reference) * 1e3:.2f} ms, "
          f"nominal {speed.NOMINAL_S * 1e3:.2f} ms; end-to-end times are scaled "
          "to the nominal speed")
    print(f"# counts {json.dumps(wl.counts())}")
    for failure in chk.failures:
        print(f"# failed: {failure}")
    print(f"failed_ops_frac = {chk.failed_frac:.6g} ({chk.failed}/{chk.attempted})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
