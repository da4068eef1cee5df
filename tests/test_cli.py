"""The command line interface: envelopes, determinism, exit codes, formats."""

import contextlib
import csv
import dataclasses
import enum
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lzero import (
    ClassificationViolation,
    DirichletChar,
    __version__,
    build_tower,
    cyclo_valuation,
    l_value_at_zero,
)
from lzero import cli, set_cache_dir
from lzero.bernoulli import b1_cache
from lzero.cli import _JsonWriter, _emit, build_parser, main

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("argv,want", [
    (["remark2", "-p", "3", "--rmax", "2"], [(2, 2), (6, 2)]),
    (["star", "-p", "5"], [(4, 2)]),
], ids=["remark2", "star"])
def test_towers_are_those_the_ladder_used(argv, want, capsys):
    # at --precision 1 the ladder judges these L-values at N = 2, and the
    # envelope lists the towers (k, N) they were judged in
    code, out, _ = run_cli([*argv, "--precision", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    p = doc["params"]["p"]
    assert doc["towers"] == [build_tower(p, k, n).descriptor() for k, n in want]
    for rec in doc["records"]:
        chars = ([(5, exps) for exps, _v in rec["factors"]] if "factors" in rec
                 else [(rec["modulus"], rec["exponents"])])
        for f, exps in chars:
            lv = l_value_at_zero(DirichletChar(f, tuple(exps))).l_at_zero
            assert cyclo_valuation(lv, p, 1)[1].precision == 2


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


@pytest.mark.parametrize("argv", [
    ["lvalue", "-f", "100003", "--chi", "1"],
    ["lvalue", "-f", str(cli.MAX_MODULUS + 1), "--chi", "1"],
    ["prop1", "--fmax", "40000", "--pmax", "5"],
    ["deligne-ribet", "--fmax", "100003"],
    ["deligne-ribet", "-f", "100003", "--chi", "1"],
    ["congruence", "--fmax", "100003", "-p", "5"],
    ["hminus", "-p", "100003"],
])
def test_modulus_above_the_limit_rejected(argv, capsys):
    # parsing only: the value is never computed
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"at most {cli.MAX_MODULUS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["remark2", "-p", "3", "--rmax", "10"],
    ["remark2", "-p", "3", "--rmax", "1000000000"],
    ["corollary1", "-p", "5", "-q", "32441"],
])
def test_derived_modulus_above_the_limit_exit_2(argv, capsys):
    # p^rmax and pq are checked before any character is built
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "exceeds the largest modulus" in err


def test_moduli_up_to_the_limit_accepted():
    parse = build_parser().parse_args
    assert parse(["lvalue", "-f", "30011", "--chi", "1"]).f == 30011
    assert parse(["prop1", "--fmax", str(cli.MAX_MODULUS), "--pmax", "5"]).fmax == cli.MAX_MODULUS
    assert f"limited to {cli.MAX_MODULUS}" in build_parser().format_help()


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


def test_poisoned_cache_line_is_recomputed(tmp_path, capsys):
    # a plausible entry with no checksum: right order and length, wrong value
    (tmp_path / "b1chi.jsonl").write_text(
        '{"f":7,"chi":[1],"k":6,"b1":["5/1","0/1"]}\n', encoding="ascii")
    cold = run_cli(["lvalue", "-f", "7", "--chi", "1"], capsys)
    try:
        poisoned = run_cli(["lvalue", "-f", "7", "--chi", "1", "--cache-dir", str(tmp_path)],
                           capsys)
        assert b1_cache().rejects == 1
    finally:
        set_cache_dir(None)
    assert poisoned == cold
    assert json.loads(cold[1])["records"][0]["l0"] != ["-5/1", "0/1"]


def test_strict_flag_turns_anomalies_into_failure(capsys):
    # a clean run stays exit 0 under --strict
    code, out, _ = run_cli(["congruence", "--fmax", "12", "-p", "3", "--strict"], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps


@dataclasses.dataclass(frozen=True)
class _Record:
    valuation: object
    exponents: object
    notes: object = ""


def _ref(obj):
    """A JSON-safe copy of obj: dataclasses and dicts to dicts with str keys,
    tuples to lists, a Fraction to its "a/b" string."""
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: _ref(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref(v) for v in obj]
    raise TypeError(type(obj).__name__)


class _Level(enum.IntEnum):  # an int subclass: written as its int
    LOW = -1
    HIGH = 2**70


_DESCRIPTORS = [build_tower(p, k, n).descriptor()
                for p, k, n in [(3, 2, 16), (5, 4, 16), (3, 18, 16), (5, 4, 32)]]
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10**400, max_value=10**400)
            | st.fractions() | st.text() | st.sampled_from([*_Level, *_DESCRIPTORS]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3) | st.integers(-20, 20), inner, max_size=4)
                   | st.builds(_Record, inner, inner, inner)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(obj):
    parts = []
    _JsonWriter().dump(obj, parts.append)
    assert "".join(parts) == json.dumps(_ref(obj), sort_keys=True, indent=2) + "\n"
    assert _JsonWriter().dumps(obj) == json.dumps(_ref(obj), sort_keys=True, indent=2)
    assert (_JsonWriter(compact=True).dumps(obj)
            == json.dumps(_ref(obj), sort_keys=True, separators=(",", ":")))


def _csv_reference(records) -> str:
    """The CSV projection as csv plus compact json.dumps write it."""
    records = _ref(records)
    buf = io.StringIO()
    if records:
        keys = sorted({k for rec in records for k in rec})
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for rec in records:
            row = []
            for k in keys:
                v = rec.get(k)
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                row.append("" if v is None else v)
            writer.writerow(row)
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.builds(_Record, _VALUES, _VALUES, _VALUES)
                | st.dictionaries(st.sampled_from(["p", "k", "tower", "notes"]), _VALUES),
                max_size=4))
def test_csv_projection_matches_reference(records):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit({"records": records}, "csv")
    assert out.getvalue() == _csv_reference(records)


@pytest.mark.parametrize("value", [1.5, {1, 2}, object(), [complex(1, 1)], {"a": b"x"}])
def test_writer_rejects_unknown_types(value):
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        with pytest.raises(TypeError):
            writer.dumps(value)
        with pytest.raises(TypeError):
            writer.dump({"records": [value]}, lambda text: None)
    with pytest.raises(TypeError):
        _emit({"records": [{"cell": value}]}, "csv")


def test_violation_envelope_exit_1(monkeypatch, capsys):
    def violate(*args):
        raise ClassificationViolation("count law fails at p=3, d=1")

    monkeypatch.setattr(cli, "nonintegral_locus_scan", violate)
    code, out, _ = run_cli(["prop1", "--fmax", "20", "--pmax", "11"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    assert doc["records"] == [] and doc["towers"] == []
    want = {
        "command": "prop1",
        "version": __version__,
        "params": {"fmax": 20, "pmax": 11, "precision": 16},
        "towers": [],
        "records": [],
        "summary": {"error": "ClassificationViolation: count law fails at p=3, d=1"},
        "status": "violation",
    }
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"
    code, out, _ = run_cli(["prop1", "--fmax", "20", "--pmax", "11", "--format", "csv"], capsys)
    assert code == 1 and out == ""


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_envelope_is_written_one_record_at_a_time(monkeypatch):
    golden = (GOLDEN / "prop1.out").read_text()
    records = json.loads(golden)["records"]
    # a record as it stands in the document: the separator and line break
    # before it, and its lines indented two levels
    largest = max(len(",\n" + textwrap.indent(json.dumps(r, sort_keys=True, indent=2), "    "))
                  for r in records)
    stdout = _Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["prop1", "--fmax", "20", "--pmax", "11"]) == 0
    assert "".join(stdout.writes) == golden
    assert len(stdout.writes) > len(records)
    assert max(map(len, stdout.writes)) <= largest


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


_WATCH_ATTACH = textwrap.dedent("""
    import sys

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "attach":
            if code.co_filename.endswith("cache.py"):
                print("attach", frame.f_locals["directory"], file=sys.stderr, flush=True)

    sys.setprofile(watch)
    import lzero
    print("imported", file=sys.stderr, flush=True)
    from lzero.cli import main
    code = main(sys.argv[1:])
    sys.setprofile(None)
    print("exit", code, file=sys.stderr)
""")


def _attaches(argv, env):
    """The directories B1Cache.attach was called on, in the parent and in
    any forked worker, for one CLI run; checks that importing lzero binds no
    cache and that the run exits 0."""
    out = subprocess.run([sys.executable, "-c", _WATCH_ATTACH, *argv],
                         capture_output=True, text=True, env=env)
    lines = out.stderr.splitlines()
    assert lines[-1] == "exit 0", out.stderr
    assert lines[0] == "imported", out.stderr
    return [line.split(" ", 1)[1] for line in lines if line.startswith("attach ")]


def test_cache_env_variable_attaches_once(tmp_path):
    # the JSONL file is parsed on every attach, so a run attaches one time
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    env = dict(os.environ, LZERO_CACHE_DIR=str(env_dir))
    for _ in range(2):  # a fresh directory, then one holding entries
        assert _attaches(["deligne-ribet", "--fmax", "20"], env) == [str(env_dir)]
    assert (env_dir / "b1chi.jsonl").stat().st_size > 0
    # --cache-dir wins, and the directory the environment names is never opened
    for _ in range(2):
        argv = ["deligne-ribet", "--fmax", "20", "--cache-dir", str(flag_dir)]
        assert _attaches(argv, env) == [str(flag_dir)]
    assert (flag_dir / "b1chi.jsonl").stat().st_size > 0
    # the scan binds the cache before it forks, so no worker attaches again
    for _ in range(2):
        argv = ["prop1", "--fmax", "12", "--pmax", "5", "--jobs", "2"]
        assert _attaches(argv, env) == [str(env_dir)]
