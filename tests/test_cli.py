"""End-to-end command-line behaviour: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mpmath
import pytest

import digitseq as dq
from digitseq import analytic as an, normality
from digitseq.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_raw(capsys):
    code, out = run(capsys, "generate", "--preset", "rudin-shapiro",
                    "--map", "square", "--count", "16")
    assert code == 0
    want = "".join(str(v) for v in dq.stream(
        dq.preset("rudin-shapiro"), dq.SQUARE, 0, 16).tolist())
    assert out == want + "\n"


def test_generate_wraps_lines_every_64(capsys):
    code, out = run(capsys, "generate", "--preset", "thue-morse",
                    "--count", "130")
    lines = out.strip("\n").split("\n")
    assert [len(s) for s in lines] == [64, 64, 2]


def reference_raw(values):
    """Raw text joined one 64-symbol line at a time."""
    chunks = []
    for i in range(0, values.size, 64):
        chunks.append("".join(map(str, values[i:i + 64].tolist())))
    return "\n".join(chunks) + ("\n" if values.size else "")


@pytest.mark.parametrize("preset", ["rudin-shapiro", "digit-sum:10"])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 1000, 10 ** 6])
def test_generate_raw_matches_line_join(tmp_path, preset, count):
    target = tmp_path / "raw.txt"
    code = dispatch(["generate", "--preset", preset, "--map", "square",
                     "--start", "7", "--count", str(count),
                     "--out", str(target)])
    assert code == 0
    values = dq.stream(dq.parse_preset(preset), dq.SQUARE, 7, count)
    assert target.read_bytes() == reference_raw(values).encode("ascii")


def test_generate_csv(capsys):
    code, out = run(capsys, "generate", "--preset", "thue-morse",
                    "--map", "square", "--count", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["t,n,value", "0,0,0", "1,1,1", "2,4,1"]


def test_generate_rejects_wide_alphabet_raw(capsys):
    code, _ = run(capsys, "generate", "--preset", "digit-sum:16,16",
                  "--count", "4")
    assert code == 2


def test_byte_identical_reruns(capsys):
    args = ("stats", "--preset", "rudin-shapiro", "--map", "square",
            "-N", "4096", "-k", "3")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_stats_json(capsys):
    code, out = run(capsys, "stats", "--preset", "rudin-shapiro",
                    "--map", "square", "-N", "4096", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["normality"]["missing_blocks"] == 0
    assert sum(doc["blocks"].values()) == 4096 - 2 + 1


def test_stats_csv(capsys):
    code, out = run(capsys, "stats", "--preset", "thue-morse",
                    "-N", "64", "-k", "1", "--report", "csv")
    assert code == 0
    assert out.splitlines()[0] == "block,count"
    assert len(out.splitlines()) == 3


def test_expsum_json_and_csv(capsys):
    code, out = run(capsys, "expsum", "--preset", "thue-morse",
                    "--alpha", "1", "--grid", "1024,2048,4096")
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"]["slope"] < 1.0
    code, out = run(capsys, "expsum", "--preset", "thue-morse",
                    "--alpha", "1", "--grid", "1024,2048", "--report", "csv")
    assert out.splitlines()[0] == "N,re,im,abs,log_ratio"


def test_fourier_parseval_exit_zero(capsys):
    code, out = run(capsys, "fourier", "--preset", "thue-morse",
                    "--alpha", "1", "--lambda", "6", "--check", "parseval",
                    "--samples", "8")
    assert code == 0
    assert json.loads(out)["result"]["ok"]


def test_fourier_cond1(capsys):
    code, out = run(capsys, "fourier", "--preset", "thue-morse",
                    "--alpha", "1,1", "--lambda", "8", "--check", "cond1")
    assert code == 0
    assert json.loads(out)["result"]["ok"]


def test_fourier_cond_reports_worst_at(capsys):
    for check in ("cond1", "cond2"):
        code, out = run(capsys, "fourier", "--preset", "thue-morse",
                        "--alpha", "1,1", "--lambda", "8", "--check", check)
        assert code == 0
        result = json.loads(out)["result"]
        h, ell_hi, row = result["worst_at"]
        assert result["window"] <= ell_hi <= 8 and 0 <= row < 4
        assert 0 <= h < 2 ** 8


def test_fourier_witness(capsys):
    code, out = run(capsys, "fourier", "--preset", "rudin-shapiro",
                    "--alpha", "1,0", "--lambda", "8", "--check", "witness",
                    "--samples", "4")
    assert code == 0
    doc = json.loads(out)
    assert all(w["verified"] for w in doc["result"]["witnesses"])


def test_toolbox_gauss(capsys):
    code, out = run(capsys, "toolbox", "gauss", "-a", "1", "-b", "0", "-m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2.8284271247461903)
    assert doc["bound"] == pytest.approx(2.8284271247461903)
    assert (doc["re"], doc["im"]) == (pytest.approx(2.0), pytest.approx(2.0))
    assert doc["ok"]
    assert set(doc) >= {"inputs", "value", "bound", "margin", "constant"}


def test_toolbox_vaaler(capsys):
    code, out = run(capsys, "toolbox", "vaaler", "--alpha", "0.5", "--H", "16")
    assert code == 0
    assert json.loads(out)["margin"] >= -1e-9


def test_toolbox_vaaler_value_matches_mpmath(capsys):
    code, out = run(capsys, "toolbox", "vaaler", "--alpha", "0.3", "--H", "16",
                    "--grid", "64")
    assert code == 0
    vp = an.vaaler_build(0.3, 16)
    hs = range(-16, 17)
    with mpmath.workdps(40):
        defects = []
        for g in range(64):
            x = mpmath.mpf(g) / 64
            A, B = (mpmath.re(mpmath.fsum(mpmath.mpc(c) * mpmath.expjpi(2 * h * x)
                                          for h, c in zip(hs, cs)))
                    for cs in (vp.a_coeffs, vp.b_coeffs))
            defects.append(abs(float(an.chi_indicator(0.3, g / 64)) - A) - B)
        want = float(max(defects))
    assert abs(json.loads(out)["value"] - want) <= 1e-15


def test_toolbox_vaaler_over_budget(capsys):
    # 2^22 grid points x (H + 1) terms; refused before any large allocation
    assert dispatch(["toolbox", "vaaler", "--alpha", "0.3", "--H", "64",
                     "--grid", str(1 << 22)]) == 2
    assert "budget" in capsys.readouterr().err


def test_toolbox_gauss_count_over_budget(capsys):
    # m bins and m^2 residues: refused before anything of size m is built
    assert dispatch(["toolbox", "gauss", "-a", "1", "-b", "0",
                     "-m", "3000000000", "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


def test_fourier_recursion_rejects_lambda_below_two(capsys):
    # the check draws its depths from [2, lambda]
    for lam in ("1", "0"):
        assert dispatch(["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1",
                         "--lambda", lam, "--check", "recursion"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --check recursion needs --lambda >= 2, got {lam}\n"


def test_fourier_prop1_rejects_lambda_below_four(capsys):
    # the fitted rate needs two of the even depths in [2, lambda]; one row
    # would print a NaN rate, which strict JSON parsers reject
    argv = ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1", "--check", "prop1"]
    for lam in ("3", "1", "0"):
        assert dispatch(argv + ["--lambda", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --check prop1 needs --lambda >= 4, got {lam}\n"

    def strict(name):
        raise ValueError(f"{name} is not JSON")

    code, out = run(capsys, *argv, "--lambda", "4")
    assert code == 0
    profile = json.loads(out, parse_constant=strict)["result"]["profile"]
    assert [r["lam"] for r in profile["rows"]] == [2, 4]
    assert math.isfinite(profile["fitted_rate"])


def test_toolbox_vdc_rejects_several_numerators(capsys):
    assert dispatch(["toolbox", "vdc", "--preset", "rudin-shapiro",
                     "--alpha", "1,1", "--N", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vdc takes one --alpha numerator, got '1,1'\n"


def test_toolbox_vdc(capsys):
    code, out = run(capsys, "toolbox", "vdc", "--preset", "thue-morse",
                    "--N", "256", "--Q", "2", "--R", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] <= doc["bound"]


def test_toolbox_carry(capsys):
    code, out = run(capsys, "toolbox", "carry", "--preset", "rudin-shapiro",
                    "--nu", "10", "--lambda", "14", "--rho", "2", "-r", "3")
    assert code == 0
    assert json.loads(out)["constant"] <= 16


def test_toolbox_sinsum(capsys):
    code, out = run(capsys, "toolbox", "sinsum", "-a", "5", "-m", "64",
                    "-U", "100")
    assert code == 0
    assert json.loads(out)["single_ok"]


def test_bench_deterministic_without_timing(capsys):
    args = ("bench", "--preset", "rudin-shapiro", "--count", "10000")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert "seconds" not in doc


def test_bench_with_timing(capsys):
    code, out = run(capsys, "bench", "--preset", "rudin-shapiro",
                    "--count", "10000", "--timing")
    assert code == 0
    assert json.loads(out)["seconds"] > 0


def test_exit_codes(capsys):
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["generate", "--count", "4"]) == 2           # no source
    assert dispatch(["generate", "--preset", "thue-morse",
                     "--preset2", "x"]) == 2                     # bad flag
    assert dispatch(["fourier", "--preset", "thue-morse", "--alpha", "1",
                     "--lambda", "99", "--check", "parseval"]) == 2  # budget
    capsys.readouterr()


def test_stats_single_symbol(capsys):
    code, out = run(capsys, "stats", "--preset", "thue-morse", "-N", "1", "-k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["subword_complexity"] == [] and doc["blocks"] == {"0": 1}


def test_vaaler_rejects_empty_grid(capsys):
    for grid in ("0", "-3"):
        assert dispatch(["toolbox", "vaaler", "--alpha", "0.5", "--H", "4",
                         "--grid", grid]) == 2
        assert capsys.readouterr().err == f"error: --grid must be >= 1, got {grid}\n"


def test_fourier_rejects_samples_below_one(capsys):
    # zero samples would check nothing and still report "ok": true
    for check, alpha in (("recursion", "1,1"), ("parseval", "1,1"), ("witness", "1,0")):
        for samples in ("0", "-1"):
            assert dispatch(["fourier", "--preset", "rudin-shapiro", "--alpha", alpha,
                             "--lambda", "6", "--check", check,
                             "--samples", samples]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --samples must be >= 1, got {samples}\n"


def test_threads_below_one_rejected(capsys):
    for argv in (["generate", "--preset", "thue-morse", "--count", "4"],
                 ["stats", "--preset", "thue-morse", "-N", "8", "-k", "1"],
                 ["bench", "--preset", "thue-morse", "--count", "8"]):
        for threads in ("0", "-2"):
            assert dispatch(argv + ["--threads", threads]) == 2
            err = capsys.readouterr().err
            assert err == f"error: threads must be >= 1, got {threads}\n"


def test_threads_give_identical_output(capsys, monkeypatch):
    monkeypatch.setattr(dq.seqgen.os, "cpu_count", lambda: 2)
    for argv in (["generate", "--preset", "rudin-shapiro", "--map", "square",
                  "--count", str(3 * 2 ** 16 + 5)],
                 ["generate", "--preset", "digit-sum:3", "--map", "square",
                  "--count", str(2 ** 16 + 70), "--format", "csv"],
                 ["stats", "--preset", "thue-morse", "--map", "square",
                  "-N", str(3 * 2 ** 16 + 5), "-k", "8"],
                 ["bench", "--preset", "rudin-shapiro", "--count", str(3 * 2 ** 16)]):
        outs = [run(capsys, *argv, "--threads", threads) for threads in ("1", "2")]
        assert outs[0] == outs[1] and outs[0][0] == 0


# run one command in a child process and print its own peak RSS in kB.
# ru_maxrss would not do: Linux carries it over fork and exec, so a child
# of this test process reports at least the test process's own peak.
PEAK_RSS = ("import sys\n"
            "from digitseq.cli import dispatch\n"
            "code = dispatch(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
            "sys.exit(code)\n")


@pytest.mark.parametrize("argv,limit_mb", [
    (["stats", "--preset", "rudin-shapiro", "--map", "square", "-N", "10000000", "-k", "8"], 64),
    (["generate", "--preset", "rudin-shapiro", "--map", "square", "--count", "10000000"], 64),
    (["stats", "--preset", "digit-sum:10", "--map", "square", "-N", "1000000", "-k", "7",
      "--report", "csv"], 115),
], ids=["stats", "generate", "stats-large-alphabet"])
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_long_prefixes_in_bounded_memory(argv, limit_mb):
    # a whole int64 prefix of 10^7 symbols alone is 80 MB; stats and
    # generate held it and peaked at 204 MB and 138 MB; importing takes 32.
    # 238,343 distinct 7-blocks of digit sums took 124 MB with a tuple dict
    # and a label string per block
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv],
                            env={**os.environ, "PYTHONPATH": path}, timeout=300,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stderr.split()[-1]) < limit_mb * 1024


def test_spec_file_source(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("q=2 m=2 mod=2\nF 0 0 0 1\n")
    code, out = run(capsys, "generate", "--spec-file", str(path), "--count", "8")
    assert code == 0
    assert out.strip() == "00010010"
    bad = tmp_path / "bad.txt"
    bad.write_text("q=2 m=2 mod=2\nF 0 0 1\n")
    assert dispatch(["generate", "--spec-file", str(bad), "--count", "8"]) == 2
    capsys.readouterr()


def test_weight_sums_past_int64_exit_2(tmp_path, capsys):
    # b(3) = 2^63 would wrap in int64; 2^63 itself does not convert at all
    for weight in (2 ** 62, 2 ** 63):
        spec = tmp_path / "wide.txt"
        spec.write_text(f"q=2 m=1 mod=3\nF 0 {weight}\n")
        assert dispatch(["generate", "--spec-file", str(spec),
                         "--start", "3", "--count", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a sum of 2 table weights or the modulus "
                              "could pass 2^63 - 1"), err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, _ = run(capsys, "generate", "--preset", "thue-morse",
                  "--count", "8", "--out", str(target))
    assert code == 0
    assert target.read_text().strip() == "01101001"


GRID_2E10_2E16 = ",".join(str(2 ** e) for e in range(10, 17))
GOLDEN = [
    ("stats_rs_square_N100000_k8.json",
     ["stats", "--preset", "rudin-shapiro", "--map", "square",
      "-N", "100000", "-k", "8", "--report", "json"]),
    ("stats_rs_square_N100000_k8.csv",
     ["stats", "--preset", "rudin-shapiro", "--map", "square",
      "-N", "100000", "-k", "8", "--report", "csv"]),
    ("stats_digitsum10_square_N100000_k7.json",   # "blocks" is null here
     ["stats", "--preset", "digit-sum:10", "--map", "square",
      "-N", "100000", "-k", "7", "--report", "json"]),
    ("expsum_rs_10_grid2e10_2e16.csv",
     ["expsum", "--preset", "rudin-shapiro", "--alpha", "1,0",
      "--grid", GRID_2E10_2E16, "--report", "csv"]),
    ("expsum_rs_10_grid2e10_2e16.json",
     ["expsum", "--preset", "rudin-shapiro", "--alpha", "1,0",
      "--grid", GRID_2E10_2E16, "--report", "json"]),
    ("fourier_cond1_rs_11_lam8.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1",
      "--lambda", "8", "--check", "cond1"]),
    ("fourier_cond2_rs_11_lam10.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1",
      "--lambda", "10", "--check", "cond2"]),
    ("fourier_witness_rs_10_lam8_s8.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,0",
      "--lambda", "8", "--check", "witness", "--samples", "8"]),
    ("fourier_recursion_rs_11_lam6_s16.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1",
      "--lambda", "6", "--check", "recursion", "--samples", "16"]),
    ("fourier_parseval_rs_10_lam8_s16.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,0",
      "--lambda", "8", "--check", "parseval", "--samples", "16"]),
    ("fourier_prop1_rs_11_lam8.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1",
      "--lambda", "8", "--check", "prop1"]),
    ("fourier_prop2_rs_10_lam8.json",
     ["fourier", "--preset", "rudin-shapiro", "--alpha", "1,0",
      "--lambda", "8", "--check", "prop2"]),
    ("toolbox_carry_shift_rs.json",
     ["toolbox", "carry", "--preset", "rudin-shapiro", "--nu", "10",
      "--lambda", "14", "--rho", "2", "-r", "3"]),
    ("toolbox_carry_decomposition_rs.json",
     ["toolbox", "carry", "--preset", "rudin-shapiro",
      "--variant", "decomposition", "--nu", "10", "--mu", "4",
      "--lambda", "14", "--rho-prime", "1", "-r", "3"]),
    ("toolbox_sinsum_a5_m64_A8.json",
     ["toolbox", "sinsum", "-a", "5", "-m", "64", "-U", "100", "-A", "8"]),
    ("toolbox_gauss_count_a5_m701.json",
     ["toolbox", "gauss", "-a", "5", "-b", "2", "-m", "701",
      "--n0", "1000000", "--count", "300"]),
    ("toolbox_vdc_tm_N256.json",
     ["toolbox", "vdc", "--preset", "thue-morse", "--N", "256",
      "--Q", "2", "--R", "4"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_statistics_match_golden_bytes(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    golden = Path(__file__).parent / "data" / name
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize("argv", [argv for _, argv in GOLDEN] + [
    ["generate", "--preset", "rudin-shapiro", "--map", "square", "--count", "1000"],
    ["generate", "--preset", "digit-sum:12", "--count", "100", "--format", "csv"],
    ["bench", "--preset", "digit-sum:10,7", "--count", "1000"],
    ["toolbox", "vaaler", "--alpha", "0.5", "--H", "16"],
], ids=[g[0] for g in GOLDEN] + ["generate-raw", "generate-csv", "bench", "vaaler"])
def test_out_file_holds_the_printed_bytes(tmp_path, capsys, argv):
    code, printed = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "")
    assert target.read_bytes() == printed.encode("ascii")


def test_stats_labels_past_ten_symbols(capsys):
    # m' = 12: symbols take two characters each, or (1, 11) and (11, 1) share "111"
    argv = ["stats", "--preset", "digit-sum:12", "--map", "square",
            "-N", "100000", "-k", "2"]
    vals = dq.stream(dq.parse_preset("digit-sum:12"), dq.SQUARE, 0, 100000).tolist()
    want = Counter(f"{a:02d}{b:02d}" for a, b in zip(vals, vals[1:]))
    code, out = run(capsys, *argv)
    assert code == 0
    blocks = json.loads(out)["blocks"]
    assert blocks == want and sum(blocks.values()) == 99999
    code, out = run(capsys, *argv, "--report", "csv")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [label for label, _ in rows] == sorted(want)
    assert {label: int(c) for label, c in rows} == want


@pytest.mark.parametrize("preset,N,k", [("digit-sum:12", 20000, 3), ("digit-sum:10", 100000, 4)],
                         ids=["two-digit-symbols", "over-4096-blocks"])
def test_stats_works_on_arrays_alone(capsys, monkeypatch, preset, N, k):
    # labels built per block from the count dict, as stats once did
    f = dq.parse_preset(preset)
    hist = normality._window_statistics(lambda: [dq.stream(f, dq.SQUARE, 0, N)],
                                        f.m_prime, k, N, 0)[0]
    width = len(str(f.m_prime - 1))
    want = "".join(f"{''.join(str(s).zfill(width) for s in block)},{c}\n"
                   for block, c in hist.counts.items())

    def unread(self):
        raise AssertionError("stats read BlockHistogram.counts")

    monkeypatch.setattr(normality.BlockHistogram, "counts", property(unread))
    argv = ["stats", "--preset", preset, "--map", "square", "-N", str(N), "-k", str(k)]
    code, out = run(capsys, *argv, "--report", "csv")
    assert code == 0 and out == "block,count\n" + want
    code, out = run(capsys, *argv)
    blocks = json.loads(out)["blocks"]
    assert code == 0
    if len(hist.codes) > 1 << 12:
        assert blocks is None
    else:
        assert blocks == {label: int(c) for label, c in
                          (line.split(",") for line in want.split())}


@pytest.mark.parametrize("argv,message", [
    (["generate", "--preset", "digit-sum:x", "--count", "4"],
     "preset 'digit-sum': expected comma-separated integers, got 'x'"),
    (["generate", "--preset", "thue-morse", "--map", "affine:1,x", "--count", "4"],
     "affine map: expected comma-separated integers, got '1,x'"),
    (["expsum", "--preset", "thue-morse", "--alpha", "1", "--grid", "10,x"],
     "--grid: expected comma-separated integers, got '10,x'"),
    (["expsum", "--preset", "thue-morse", "--alpha", "1,x", "--grid", "10,20"],
     "alpha: expected comma-separated integers, got '1,x'"),
    (["fourier", "--preset", "rudin-shapiro", "--alpha", "1,x", "--lambda", "4",
      "--check", "parseval"],
     "alpha: expected comma-separated integers, got '1,x'"),
    (["toolbox", "vdc", "--preset", "thue-morse", "--alpha", "1,x"],
     "alpha: expected comma-separated integers, got '1,x'"),
], ids=["preset", "map", "grid", "expsum-alpha", "fourier-alpha", "vdc-alpha"])
def test_non_integer_text_names_its_input(capsys, argv, message):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["toolbox", "sinsum", "-a", "5", "-m", "64", "-U", "nan"],
     "U and b must be finite, got U=nan, b=0.0"),
    (["toolbox", "sinsum", "-a", "5", "-m", "64", "-U", "inf"],
     "U and b must be finite, got U=inf, b=0.0"),
    (["toolbox", "sinsum", "-a", "5", "-m", "64", "-U", "100", "-b", "nan"],
     "U and b must be finite, got U=100.0, b=nan"),
    (["toolbox", "vaaler", "--alpha", "0.3", "--H", "64", "--grid", str(10 ** 15)],
     "Vaaler evaluation needs 65000000000000000 > budget 4194304 "
     "(override with DIGITSEQ_BUDGET, hard limit 67108864)"),
    (["toolbox", "vdc", "--preset", "thue-morse", "--N", "5000000"],
     "Van der Corput sequence needs 5000000 > budget 4194304 "
     "(override with DIGITSEQ_BUDGET, hard limit 67108864)"),
    (["toolbox", "vdc", "--preset", "thue-morse", "--N", "65536", "--R", "65536"],
     "Van der Corput cross sums needs 4294901760 > budget 4194304 "
     "(override with DIGITSEQ_BUDGET, hard limit 67108864)"),
    (["generate", "--preset", "rudin-shapirox:1", "--count", "4"],
     "unknown preset 'rudin-shapirox'"),
    (["fourier", "--preset", "rudin-shapiro", "--alpha", "1,1", "--lambda", "4",
      "--check", "parseval", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["generate", "--preset", "thue-morse", "--spec-file", "spec.txt", "--count", "4"],
     "give either --preset or --spec-file, not both"),
    (["fourier", "--preset", "rudin-shapiro", "--alpha", "1,0", "--lambda", "12",
      "--check", "cond2"],
     "condition 2 needs integral K; this alpha is wrong-branch"),
], ids=["sinsum-U-nan", "sinsum-U-inf", "sinsum-b-nan", "vaaler-grid", "vdc-N",
        "vdc-cross-sums", "preset-name", "seed", "preset-and-spec-file", "cond2-non-integer-K"])
def test_bad_input_exits_2_naming_its_fault(capsys, monkeypatch, argv, message):
    # our own message, not a numpy one, and not a check read as failed or passed
    monkeypatch.delenv("DIGITSEQ_BUDGET", raising=False)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# ROADMAP's negative control: condition 2 fails at lambda = 3 for digit-sum 3,2
NEGATIVE_CONTROL = ["fourier", "--preset", "digit-sum:3,2", "--alpha", "1,1",
                    "--lambda", "3", "--check", "cond2"]


def test_failed_check_exits_1_and_still_reports(capsys):
    assert dispatch(NEGATIVE_CONTROL) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: fourier --check cond2 failed\n"
    result = json.loads(captured.out)["result"]
    assert result["ok"] is False and result["worst_at"] == [0, 3, 0]
    assert len(result["violations"]) == 1
    assert result["worst_margin"] == pytest.approx(-1.016e-4, rel=1e-3)


def test_stats_rejects_windows_too_wide_to_encode(capsys):
    assert dispatch(["stats", "--preset", "digit-sum:10", "-N", "100", "-k", "19"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alphabet^k too large to encode windows\n"


def test_console_entry_point_exit_codes():
    # python -m digitseq.cli runs main(), which hands dispatch's code to sys.exit
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for argv, code in ((["generate", "--preset", "thue-morse", "--count", "8"], 0),
                       (NEGATIVE_CONTROL, 1),
                       (["generate", "--preset", "no-such-preset", "--count", "8"], 2)):
        result = subprocess.run([sys.executable, "-m", "digitseq.cli", *argv],
                                env={**os.environ, "PYTHONPATH": path}, timeout=120,
                                capture_output=True, text=True)
        assert result.returncode == code, result.stderr
    assert result.stderr == "error: unknown preset 'no-such-preset'\n"
