"""The command line interface: envelopes, determinism, exit codes, formats."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from lzero.cli import build_parser, main


ENVELOPE_KEYS = {"command", "version", "params", "towers", "records", "summary", "status"}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_prop1_envelope(capsys):
    from fractions import Fraction

    code, out, err = run_cli(["prop1", "--fmax", "9", "--pmax", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["command"] == "prop1"
    assert doc["status"] == "ok"
    assert doc["params"] == {"fmax": 9, "pmax": 5, "precision": 16}
    assert doc["summary"]["records"] == len(doc["records"])
    # valuations travel as exact fraction strings
    bad = [r for r in doc["records"] if Fraction(r["valuation"]) < 0]
    assert {(r["p"], r["modulus"]) for r in bad} == {(3, 3), (3, 9), (5, 5)}
    nine = [r for r in bad if r["modulus"] == 9]
    assert all(Fraction(r["valuation"]) == Fraction(-1, 2) for r in nine)


def test_lvalue_exact_coordinates(capsys):
    code, out, _ = run_cli(["lvalue", "-f", "5", "--chi", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    (rec,) = doc["records"]
    assert rec["l0"] == ["3/5", "1/5"]
    assert rec["b1"] == ["-3/5", "-1/5"]
    assert rec["k"] == 4 and rec["odd"] is True


def test_lvalue_with_padic_verdict(capsys):
    code, out, _ = run_cli(["lvalue", "-f", "3", "--chi", "1", "-p", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    (rec,) = doc["records"]
    assert rec["valuation"] == "-1"
    assert rec["omega_inverse"] is True
    assert rec["tower"]["p"] == 3


def test_hminus(capsys):
    code, out, _ = run_cli(["hminus", "-p", "23"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["h_minus"] == 3


def test_irregular(capsys):
    code, out, _ = run_cli(["irregular", "--pmax", "150"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert [(r["p"], r["k"]) for r in doc["records"]] == [
        (37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22), (149, 130),
    ]


def test_kummer_single_and_scan(capsys):
    code, out, _ = run_cli(["kummer", "-p", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["equal"] for r in doc["records"])
    code, out, _ = run_cli(["kummer", "--pmax", "13"], capsys)
    assert code == 0


def test_deligne_ribet_modes(capsys):
    code, out, _ = run_cli(["deligne-ribet", "--fmax", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["integral"] for r in doc["records"])
    code, out, _ = run_cli(["deligne-ribet", "-f", "5", "--chi", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["w"] == 10


def test_remark2(capsys):
    code, out, _ = run_cli(["remark2", "-p", "3", "--rmax", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(r["equal"] for r in doc["records"])
    assert len(doc["records"]) == 1 + 2 + 6


def test_star(capsys):
    code, out, _ = run_cli(["star", "-p", "37"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["h_minus"] == 37
    assert doc["summary"]["product_identity"] is True


def test_congruence(capsys):
    code, out, _ = run_cli(["congruence", "--fmax", "20", "-p", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert all(r["equal"] for r in doc["records"])


def test_corollary1(capsys):
    code, out, _ = run_cli(["corollary1", "-p", "3", "-q", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["untwisted_valuation"] == "-1"
    assert doc["summary"]["question2_zero"] in (True, False)


# ---------------------------------------------------------------------------
# exit codes


def test_input_error_exit_2(capsys):
    code, _, err = run_cli(["hminus", "-p", "4"], capsys)
    assert code == 2
    assert err.strip()


def test_no_order_p_character_exit_2(capsys):
    code, _, err = run_cli(["corollary1", "-p", "5", "-q", "7"], capsys)
    assert code == 2


def test_imprimitive_lvalue_exit_2(capsys):
    # chi mod 9 with exponents 3 has conductor 3
    code, _, err = run_cli(["lvalue", "-f", "9", "--chi", "3"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["lvalue", "-f", "5", "--chi", "1", "-p", "5", "--precision", "1024"],
    ["star", "-p", "7", "--precision", "600"],
    ["star", "-p", "7", "--precision", "0"],
])
def test_precision_outside_the_ladder_exit_2(argv, capsys):
    # a starting rung above N_CAP leaves the ladder nothing to run
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--precision" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["prop1", "--fmax", "9", "--pmax", "5", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_clamped_to_cpu_count():
    # parsing only: no pool is started
    args = build_parser().parse_args(["prop1", "--fmax", "9", "--pmax", "5", "--jobs", "4096"])
    assert args.jobs == (os.cpu_count() or 1)


def test_even_character_lvalue_reports_zero(capsys):
    code, out, _ = run_cli(["lvalue", "-f", "5", "--chi", "2"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["odd"] is False
    assert rec["l0"] == ["0/1"]


# ---------------------------------------------------------------------------
# output formats and determinism


def test_csv_output(capsys):
    code, out, _ = run_cli(["prop1", "--fmax", "7", "--pmax", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert "valuation" in header and "modulus" in header
    assert len(data) >= 3


def test_byte_determinism_same_args(capsys):
    a = run_cli(["prop1", "--fmax", "12", "--pmax", "7"], capsys)
    b = run_cli(["prop1", "--fmax", "12", "--pmax", "7"], capsys)
    assert a == b


def test_jobs_flag_does_not_change_bytes(capsys):
    a = run_cli(["prop1", "--fmax", "12", "--pmax", "5", "--jobs", "1"], capsys)
    b = run_cli(["prop1", "--fmax", "12", "--pmax", "5", "--jobs", "4"], capsys)
    assert a == b


def test_cache_does_not_change_bytes(tmp_path, capsys):
    cold = run_cli(["lvalue", "-f", "7", "--chi", "1"], capsys)
    warm_args = ["lvalue", "-f", "7", "--chi", "1", "--cache-dir", str(tmp_path)]
    first = run_cli(warm_args, capsys)
    second = run_cli(warm_args, capsys)
    assert cold == first == second


def test_strict_flag_turns_anomalies_into_failure(capsys):
    # a clean run stays exit 0 under --strict
    code, out, _ = run_cli(["congruence", "--fmax", "12", "-p", "3", "--strict"], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# process-level entry points


def test_public_names_resolve():
    import lzero

    missing = [name for name in lzero.__all__ if not hasattr(lzero, name)]
    assert not missing
    namespace = {}
    exec("from lzero import *", namespace)
    assert set(lzero.__all__) <= set(namespace)


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "lzero", "irregular", "--pmax", "40"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["records"][0]["p"] == 37


def test_console_script_if_installed():
    from shutil import which

    exe = which("lzero")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "hminus", "-p", "3"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["summary"]["h_minus"] == 1


def test_cache_env_variable(tmp_path):
    env = dict(os.environ, LZERO_CACHE_DIR=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-m", "lzero", "lvalue", "-f", "11", "--chi", "1"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert list(tmp_path.iterdir()), "the env-var cache directory should be used"
    plain = subprocess.run(
        [sys.executable, "-m", "lzero", "lvalue", "-f", "11", "--chi", "1"],
        capture_output=True, text=True,
    )
    assert out.stdout == plain.stdout
