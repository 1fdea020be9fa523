"""End-to-end command-line behaviour: formats, exit codes, determinism."""

import json
import math
from pathlib import Path

import mpmath
import pytest

import digitseq as dq
from digitseq import analytic as an
from digitseq.cli import dispatch


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
