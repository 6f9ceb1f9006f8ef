"""Command-line interface: output formats, exit codes, round trips."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mkpolar import load_code
from mkpolar.cli import MAX_SNR_POINTS, _snr_arg, _wilson_interval, run

PAPER_TABLE = """\
N,s,kernels,llr_prop,llr_naive,ps_prop,ps_naive,total_bits_q6
12,3,2x2x3,22,48,15,36,159
72,5,2x2x2x3x3,139,432,102,360,1008
144,6,2x2x2x2x3x3,283,1008,210,864,2052
384,8,2x2x2x2x2x2x2x3,766,3456,573,3072,5553
972,7,2x2x3x3x3x3x3,1822,7776,1335,6804,13239
"""

DIGITS_223 = """\
i,0,1,2,3,4,5,6,7,8,9,10,11
b1,0,0,0,0,0,0,1,1,1,1,1,1
b2,0,0,0,1,1,1,0,0,0,1,1,1
b3,0,1,2,0,1,2,0,1,2,0,1,2
"""

DIGITS_32 = """\
i,0,1,2,3,4,5
b1,0,0,1,1,2,2
b2,0,1,0,1,0,1
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_code_file(capsys, tmp_path, k=6, kernels="2,2,3"):
    path = tmp_path / "code.txt"
    status, out, err = invoke(
        capsys, "construct", "--kernels", kernels, "--k", str(k),
        "--snr", "1.0", "--frames", "50", "--seed", "5", "--out", str(path),
    )
    assert status == 0, err
    return path


def test_meminfo_paper_table(capsys):
    status, out, _ = invoke(capsys, "meminfo", "--paper-table")
    assert status == 0
    assert out == PAPER_TABLE


def test_meminfo_single_config_and_q(capsys):
    status, out, _ = invoke(capsys, "meminfo", "--kernels", "2,2,3", "--q", "4")
    assert status == 0
    assert out.splitlines()[0].endswith("total_bits_q4")
    assert out.splitlines()[1] == "12,3,2x2x3,22,48,15,36," + str(4 * 22 + 15 + 12)


def test_meminfo_requires_a_config(capsys):
    status, _, err = invoke(capsys, "meminfo")
    assert status == 1
    assert "error" in err


def test_digits_table(capsys):
    status, out, _ = invoke(capsys, "digits", "--kernels", "2,2,3")
    assert status == 0
    assert out == DIGITS_223
    # kernel order is significant: the ternary digit leads here
    status, out, _ = invoke(capsys, "digits", "--kernels", "3,2")
    assert status == 0
    assert out == DIGITS_32


def test_outputs_are_reproducible(capsys):
    first = invoke(capsys, "meminfo", "--paper-table")
    second = invoke(capsys, "meminfo", "--paper-table")
    assert first == second
    a = invoke(capsys, "construct", "--kernels", "2,2,3", "--k", "6",
               "--snr", "1.0", "--frames", "50", "--seed", "5")
    b = invoke(capsys, "construct", "--kernels", "2,2,3", "--k", "6",
               "--snr", "1.0", "--frames", "50", "--seed", "5")
    assert a == b and a[0] == 0


def test_construct_writes_valid_code_file(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    code = load_code(path)
    assert code.bases == (2, 2, 3) and code.K == 6


def test_construct_encode_decode_round_trip(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    message = "101101"
    status, out, _ = invoke(capsys, "encode", "--code", str(path), "--in", message)
    assert status == 0
    codeword = out.strip()
    assert len(codeword) == 12 and set(codeword) <= {"0", "1"}
    llr_path = tmp_path / "llrs.txt"
    llr_path.write_text(
        " ".join("5.0" if c == "0" else "-5.0" for c in codeword) + "\n"
    )
    for mode in ("exact", "minsum"):
        status, out, _ = invoke(
            capsys, "decode", "--code", str(path), "--llrs", str(llr_path),
            "--mode", mode,
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == message
        assert lines[1] == "i,u_hat,llr"
        assert len(lines) == 2 + 12
        fields = lines[2].split(",")
        assert fields[0] == "0" and fields[1] in "01"
        float(fields[2])


def test_encode_accepts_hex_message(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path, k=4)
    status_hex, out_hex, _ = invoke(capsys, "encode", "--code", str(path), "--in", "0xA")
    status_bits, out_bits, _ = invoke(capsys, "encode", "--code", str(path), "--in", "1010")
    assert status_hex == status_bits == 0
    assert out_hex == out_bits


def test_encode_rejects_bad_inputs(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    code = load_code(path)
    status, _, err = invoke(capsys, "encode", "--code", str(path), "--in", "10119")
    assert status == 1 and "error" in err
    status, _, err = invoke(capsys, "encode", "--code", str(path), "--in", "10101")
    assert status == 1
    # full-length input with a one on a frozen position
    full = ["0"] * 12
    full[code.frozen[0]] = "1"
    status, _, err = invoke(capsys, "encode", "--code", str(path), "--in", "".join(full))
    assert status == 1


def test_decode_file_errors(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    status, _, err = invoke(
        capsys, "decode", "--code", str(path), "--llrs", str(tmp_path / "nope.txt")
    )
    assert status == 2
    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0\n")
    assert invoke(capsys, "decode", "--code", str(path), "--llrs", str(short))[0] == 2
    bad = tmp_path / "nan.txt"
    bad.write_text(" ".join(["nan"] + ["1.0"] * 11) + "\n")
    assert invoke(capsys, "decode", "--code", str(path), "--llrs", str(bad))[0] == 2
    # a byte that is not ASCII is a file error, not an internal one
    llrs = tmp_path / "latin1_llrs.txt"
    llrs.write_bytes(b"1.0 " * 11 + b"\xe9\n")
    code = tmp_path / "latin1_code.txt"
    code.write_bytes(path.read_bytes() + b"\xe9\n")
    for argv in (("decode", "--code", str(path), "--llrs", str(llrs)),
                 ("decode", "--code", str(code), "--llrs", str(short)),
                 ("encode", "--code", str(code), "--in", "101010")):
        status, _, err = invoke(capsys, *argv)
        assert status == 2 and err.startswith("error:")


def test_decode_saturates_infinite_llrs(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    inf = tmp_path / "inf.txt"
    inf.write_text(" ".join(["inf", "-inf"] + ["2.5"] * 10) + "\n")
    status, out, _ = invoke(capsys, "decode", "--code", str(path), "--llrs", str(inf))
    assert status == 0
    assert len(out.strip().split("\n")) == 14


def test_simulate_sweep(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    args = (
        "simulate", "--code", str(path), "--snr", "0:2:4",
        "--max-frames", "60", "--target-errors", "10", "--seed", "1",
    )
    status, out, _ = invoke(capsys, *args)
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "ebn0_db,frames,frame_errors,bit_errors,fer,ber"
    assert [row.split(",")[0] for row in lines[1:]] == ["0.0", "2.0", "4.0"]
    again = invoke(capsys, *args)
    assert again[1] == out


@pytest.mark.parametrize("errors,frames,low,high", [
    (0, 10, 0.0, 0.27753279986288915),
    (100, 405, 0.20742501751160505, 0.29115812375952754),
])
def test_wilson_interval(errors, frames, low, high):
    got = _wilson_interval(errors, frames)
    assert got == pytest.approx((low, high), abs=1e-12)
    # each end p solves (errors / frames - p)^2 = z^2 p (1 - p) / frames
    z2 = 1.959963984540054 ** 2
    for p in got:
        assert (errors / frames - p) ** 2 == pytest.approx(z2 * p * (1 - p) / frames, abs=1e-15)


def test_simulate_reports_each_point_on_stderr(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    args = ("simulate", "--code", str(path), "--snr", "0,3",
            "--max-frames", "400", "--target-errors", "20", "--seed", "2")
    status, out, err = invoke(capsys, *args)
    assert status == 0
    rows = [row.split(",") for row in out.strip().split("\n")[1:]]
    lines = err.strip().split("\n")
    assert len(lines) == len(rows) == 2
    for row, line in zip(rows, lines):
        fields = dict(item.split("=") for item in line.split())
        assert list(fields) == ["ebn0_db", "frames", "decoded_frames", "batches", "elapsed_s", "draw_s",
                                "encode_s", "decode_s", "generator_frames", "frames_per_s", "fer_ci95"]
        assert fields["ebn0_db"] == row[0] and fields["frames"] == row[1]
        # frames past the stop are decoded, not counted
        assert int(row[1]) <= int(fields["decoded_frames"]) <= 2 * int(row[1])
        assert 1 <= int(fields["batches"]) <= int(fields["decoded_frames"])
        # at N = 12 most frames' noise comes from the batch's raw words, the rest from their generators
        assert 0 < int(fields["generator_frames"]) < int(fields["decoded_frames"]) / 2
        assert float(fields["elapsed_s"]) > 0 and float(fields["frames_per_s"]) > 0
        # the parts of a batch's time: seeds, message words and channel; encode; decode
        parts = [float(fields[name]) for name in ("draw_s", "encode_s", "decode_s")]
        assert all(part > 0 for part in parts) and sum(parts) <= float(fields["elapsed_s"]) + 2e-6  # printed to 1e-6
        low, high = map(float, fields["fer_ci95"].split(","))
        assert low < float(row[4]) < high
    # stdout does not depend on the timing that stderr reports
    assert invoke(capsys, *args)[1] == out


def test_simulate_snr_comma_list_and_noiseless(capsys, tmp_path):
    path = make_code_file(capsys, tmp_path)
    status, out, _ = invoke(
        capsys, "simulate", "--code", str(path), "--snr", "1,3",
        "--max-frames", "20", "--noiseless",
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[2] == "0" and float(fields[4]) == 0.0


def test_bad_arguments_exit_one(capsys, tmp_path):
    assert invoke(capsys)[0] == 1
    assert invoke(capsys, "meminfo", "--kernels", "2,4")[0] == 1
    assert invoke(capsys, "meminfo", "--kernels", "")[0] == 1
    assert invoke(capsys, "construct", "--kernels", "2,2,3", "--k", "13",
                  "--snr", "1.0")[0] == 1
    path = make_code_file(capsys, tmp_path)
    assert invoke(capsys, "simulate", "--code", str(path), "--snr", "4:0:8")[0] == 1
    assert invoke(capsys, "simulate", "--code", str(path), "--snr", "4:1:2")[0] == 1
    assert invoke(capsys, "simulate", "--code", str(path), "--snr", "4:1:3.5")[0] == 1
    assert invoke(capsys, "simulate", "--code", str(path), "--snr", "abc")[0] == 1


def test_non_finite_snr_exits_one(capsys, tmp_path):
    # NaN LLRs used to make the genie pass count no error at all, so
    # construct froze the first N - K indices and exited 0.
    for snr in ("nan", "inf", "-inf"):
        status, out, err = invoke(capsys, "construct", "--kernels", "2,2,3", "--k", "6",
                                  f"--snr={snr}", "--frames", "10")
        assert status == 1 and out == "" and "finite" in err
    path = make_code_file(capsys, tmp_path)
    for spec in ("nan", "0,nan", "inf", "0:nan:4", "0:1:inf"):
        status, out, _ = invoke(capsys, "simulate", "--code", str(path), "--snr", spec)
        assert status == 1 and out == ""


def test_extreme_finite_snr_exits_two(capsys, tmp_path):
    # finite, but with no finite noise variance: this used to exit 3 with
    # "internal error:"
    path = make_code_file(capsys, tmp_path)
    for snr in ("4000", "-4000", "-3230"):
        status, out, err = invoke(capsys, "construct", "--kernels", "2,2,3", "--k", "6",
                                  f"--snr={snr}", "--frames", "10")
        assert status == 2 and out == "" and err.startswith("error:") and "finite" in err
        status, out, err = invoke(capsys, "simulate", "--code", str(path), f"--snr=0,{snr}")
        assert status == 2 and out == "" and err.startswith("error:") and "finite" in err


def test_snr_sweep_is_capped(capsys, tmp_path):
    assert MAX_SNR_POINTS == 1000
    points = _snr_arg("0:1:999")
    assert len(points) == 1000 and points[-1] == 999.0
    for spec in ("0:1:1000", "0:0.001:10", "-1e308:1e-300:1e308"):
        with pytest.raises(argparse.ArgumentTypeError):
            _snr_arg(spec)
    # the overflowing spec used to escape run() as an OverflowError
    path = make_code_file(capsys, tmp_path)
    for spec in ("0:1:1000", "-1e308:1e-300:1e308"):
        status, out, err = invoke(capsys, "simulate", "--code", str(path),
                                  f"--snr={spec}", "--max-frames", "1")
        assert status == 1 and out == "" and err.startswith("error:")


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "simulate", "--help")[0] == 0


def test_console_entry_point():
    # the subprocess finds the package in this checkout's src, installed or not
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "mkpolar.cli", "meminfo", "--paper-table"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert proc.stdout == PAPER_TABLE
