"""Tests of the benchmark itself: metric names, checks, seeds, bare runs.

    python3 -m pytest -q benchmark/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import digitseq as dq  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name, seed=3):
    wl = workloads.Workload(name, seed, ROOT / ".bench_runs", tiny=True)
    wl.setup(Recorder())
    return wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert math.isfinite(value)
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_benchmark_json_lists_the_code_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_corrupted_stream_value_is_counted(monkeypatch):
    wl = _tiny("squares-stats")
    inp = wl.inputs["stream"]
    flip = int(inp["positions"][0][0][0])
    real = dq.stream

    def corrupted(f, index_map, start, count, **kw):
        values = real(f, index_map, start, count, **kw)
        values[flip] = (values[flip] + 1) % f.m_prime
        return values

    monkeypatch.setattr(dq, "stream", corrupted)
    chk = checks.Checker()
    workloads.run_stream(inp, wl.state["stream"], Recorder(), chk)
    assert chk.attempted == 3 * inp["calls"]
    assert chk.failed >= 1 and chk.failed_frac > 0


def test_validator_finds_one_flipped_symbol():
    f = dq.preset("rudin-shapiro")
    start = 2 ** 40 + 17  # the big-integer path
    values = dq.stream(f, dq.SQUARE, start, 50)
    assert checks.stream_mismatches(f, start, values, range(50)) == 0
    values[7] ^= 1
    assert checks.stream_mismatches(f, start, values, range(50)) == 1


def test_corrupted_residual_is_counted(monkeypatch):
    wl = _tiny("fourier-identities")
    monkeypatch.setattr(workloads.fx, "g_recursion_residual", lambda *a: 1e-6)
    chk = checks.Checker()
    workloads.run_identity(wl.inputs["identity"], wl.state["identity"], Recorder(), chk)
    assert chk.failed == len(wl.inputs["identity"]["gh"])
    assert chk.failed_frac > 0
    assert not checks.residual_ok(float("nan"))


def test_exception_in_an_operation_is_a_failure():
    chk = checks.Checker()
    with chk.op("boom") as op:
        raise ValueError("boom")
    with chk.op("fine") as op:
        op.expect(True, "never")
    assert (chk.attempted, chk.failed) == (2, 1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_do_not_depend_on_the_seed(workload):
    a = workloads.Workload(workload, 1, ROOT / ".bench_runs")
    b = workloads.Workload(workload, 2, ROOT / ".bench_runs")
    assert a.counts() == b.counts()
    assert a.inputs["stream"]["starts"] != b.inputs["stream"]["starts"]
    assert a.inputs["identity"]["gh"] != b.inputs["identity"]["gh"]


def test_self_time_subtracts_children():
    rec = Recorder(tracing=True)
    with rec.section("s"):
        with rec.span("digital.x"):
            pass
    selfs = self_times(rec.spans)
    total = rec.spans[0]["end"] - rec.spans[0]["start"]
    assert selfs["bench"] + selfs["digital"] == pytest.approx(total)


def test_format_raw_matches_the_cli():
    values = dq.stream(dq.preset("thue-morse"), dq.SQUARE, 3, 130)
    rows = ["".join(map(str, values[i:i + 64].tolist())) for i in range(0, 130, 64)]
    assert checks.format_raw(values) == ("\n".join(rows) + "\n").encode()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "squares-stats", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
