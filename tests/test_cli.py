"""The command line interface: envelopes, determinism, exit codes, formats."""

import contextlib
import csv
import enum
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from lzero import (
    BoundRecord,
    ClassificationViolation,
    DirichletChar,
    PadicTower,
    VerdictRecord,
    __version__,
    build_tower,
    cyclo_valuation,
    deligne_ribet_check,
    galois_orbits,
    integrality_verdict,
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
    got = [PadicTower(**dict(tower, factor=tuple(tower["factor"]))) for tower in doc["towers"]]
    assert got == [build_tower(p, k, n) for k, n in want]
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


def test_deligne_ribet_scan_with_f_exit_2(capsys):
    # -f belongs to --chi; a scan would otherwise report it in params unused
    code, out, err = run_cli(["deligne-ribet", "--fmax", "5", "-f", "7"], capsys)
    assert code == 2
    assert out == ""
    assert "-f requires --chi" in err


@pytest.mark.parametrize("rmax", ["0", "-3", "two"])
def test_rmax_below_one_rejected(rmax, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["remark2", "-p", "3", "--rmax", rmax])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--rmax" in err


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
    ["lvalue", "-f", "5", "--chi", "1", "-p", "40009"],
    ["prop1", "--fmax", "9", "--pmax", "40000"],
])
def test_modulus_above_the_limit_rejected(argv, capsys):
    # parsing only: the value is never computed
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"at most {cli.MAX_MODULUS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hminus", "-p", "2503"],
    ["star", "-p", "2503"],
    ["star", "-p", "32749"],
])
def test_class_number_prime_above_the_cap_rejected(argv, capsys):
    # parsing only: the norms are never taken
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"at most {cli.MAX_CLASS_NUMBER_PRIME} " in capsys.readouterr().err
    cap = cli.MAX_CLASS_NUMBER_PRIME
    assert build_parser().parse_args([argv[0], "-p", str(cap)]).p == cap


@pytest.mark.parametrize("argv", [
    ["kummer", "-p"],
    ["kummer", "--pmax"],
    ["irregular", "--pmax"],
])
def test_bernoulli_prime_above_the_cap_rejected(argv, capsys):
    # parsing only: no Bernoulli number is computed
    cap = cli.MAX_BERNOULLI_PRIME
    for value in [cap + 1, 1999, 100003]:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, str(value)])
        assert exc.value.code == 2
        assert f"at most {cap}, got {value}" in capsys.readouterr().err
    args = build_parser().parse_args([*argv, str(cap)])
    assert getattr(args, argv[-1].lstrip("-")) == cap


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
    assert parse(["lvalue", "-f", "5", "--chi", "1", "-p", "32749"]).p == 32749
    assert parse(["prop1", "--fmax", "9", "--pmax", str(cli.MAX_MODULUS)]).pmax == cli.MAX_MODULUS
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


class _Record(NamedTuple):
    valuation: object
    exponents: object
    notes: object = ""


def _ref(obj):
    """A JSON-safe copy of obj: named tuples and dicts to dicts with str keys,
    other tuples to lists, a Fraction to its "a/b" string."""
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: _ref(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): _ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref(v) for v in obj]
    raise TypeError(type(obj).__name__)


class _Level(enum.IntEnum):  # an int subclass: written as its int
    LOW = -1
    HIGH = 2**70


_TOWERS = [build_tower(p, k, n) for p, k, n in [(3, 2, 16), (5, 4, 16), (3, 18, 16), (5, 4, 32)]]
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10**400, max_value=10**400)
            | st.fractions() | st.text() | st.sampled_from([*_Level, *_TOWERS]))
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


def test_named_tuple_renders_as_an_object_and_a_tuple_as_a_list():
    obj = [_Record(Fraction(-1, 2), (3, 1), notes=None), (3, 1)]
    assert _JsonWriter(compact=True).dumps(obj) == (
        '[{"exponents":[3,1],"notes":null,"valuation":"-1/2"},[3,1]]')
    assert _JsonWriter().dumps(obj) == json.dumps(
        [{"valuation": "-1/2", "exponents": [3, 1], "notes": None}, [3, 1]],
        sort_keys=True, indent=2)


# notes that json.dumps must escape: quotes, backslashes, control and
# non-ASCII characters, astral ones included
_NOTES = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11ea ')
                 | st.characters(), max_size=8)
_VERDICTS = st.builds(
    VerdictRecord,
    modulus=st.integers(1, 10**6),
    exponents=st.lists(st.integers(0, 10**4), max_size=3).map(tuple),
    p=st.integers(2, 10**6),
    tower=st.sampled_from(_TOWERS),
    valuation=st.fractions(max_denominator=50) | st.just(Fraction(0)),
    global_integral=st.booleans(),
    omega_inverse=st.booleans(),
    classification_consistent=st.booleans(),
    question2_zero=st.none() | st.booleans(),
    notes=_NOTES,
)


@settings(max_examples=100, deadline=None)
@given(_VERDICTS, st.lists(_VERDICTS, max_size=3))
def test_verdict_renderer_matches_json_dumps(record, records):
    # the record at the root, then one and two levels down in one document,
    # so one writer writes each tower at several depths of indentation
    for obj in (record, {"records": records, "first": record, "towers": [record.tower]}):
        ref = _ref(obj)
        writer = _JsonWriter()
        parts = []
        writer.dump(obj, parts.append)
        assert "".join(parts) == json.dumps(ref, sort_keys=True, indent=2) + "\n"
        assert writer.dumps(obj) == json.dumps(ref, sort_keys=True, indent=2)
        compact = _JsonWriter(compact=True)
        parts = []
        compact.dump(obj, parts.append)
        assert "".join(parts) == json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n"
        assert compact.dumps(obj) == json.dumps(ref, sort_keys=True, separators=(",", ":"))


def test_verdict_renderer_writes_every_field_in_sorted_order():
    record = integrality_verdict(DirichletChar(9, (1,)), 3)
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        keys = list(json.loads(writer.dumps(record)))
        assert keys == sorted(VerdictRecord._fields)
    assert cli._VERDICT_KEYS == tuple(sorted(VerdictRecord._fields))


@pytest.mark.parametrize("field, value", [
    ("tower", {"p": 3, "k": 2, "precision": 16}),
    ("valuation", -1),
    ("omega_inverse", "yes"),
    ("question2_zero", 2),
    ("notes", None),
    ("exponents", (1.5,)),
    # 1 == True and 0 == False: an int flag is not a bool
    ("omega_inverse", 1),
    ("classification_consistent", 0),
    ("global_integral", 1),
    ("question2_zero", 0),
    ("exponents", (True,)),
    ("exponents", [1]),
])
def test_verdict_renderer_rejects_other_field_types(field, value):
    record = integrality_verdict(DirichletChar(9, (1,)), 3)._replace(**{field: value})
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        with pytest.raises(TypeError):
            writer.dumps(record)
        with pytest.raises(TypeError):
            writer.dump({"records": [record]}, lambda text: None)


def test_verdict_renderer_rejects_a_bool_exponent_after_its_int_twin():
    """(True,) == (1,), so the text a writer keeps for the exponents (1,)
    must not be reused for (True,)."""
    record = integrality_verdict(DirichletChar(9, (1,)), 3)
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        writer.dumps(record)
        with pytest.raises(TypeError):
            writer.dumps(record._replace(exponents=(True,)))


_BOUNDS = st.builds(
    BoundRecord,
    modulus=st.integers(1, 10**6) | st.integers(10**6, 10**200),
    exponents=st.lists(st.integers(0, 10**4) | st.integers(-10**30, 10**30),
                       max_size=3).map(tuple),
    w=st.integers(2, 10**6) | st.integers(10**6, 10**200),
    integral=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(_BOUNDS, st.lists(_BOUNDS, max_size=3))
@example(BoundRecord(10**120, (), 10**90, False), [BoundRecord(5, (), 2, True)])
def test_bound_renderer_matches_json_dumps(record, records):
    # the record at the root, then one and two levels down in one document
    for obj in (record, {"records": records, "first": record, "nested": [[record]]}):
        ref = _ref(obj)
        for writer, kwargs in ((_JsonWriter(), {"indent": 2}),
                               (_JsonWriter(compact=True), {"separators": (",", ":")})):
            parts = []
            writer.dump(obj, parts.append)
            assert "".join(parts) == json.dumps(ref, sort_keys=True, **kwargs) + "\n"
            assert writer.dumps(obj) == json.dumps(ref, sort_keys=True, **kwargs)


def test_bound_renderer_writes_every_field_in_sorted_order():
    record = deligne_ribet_check(DirichletChar(7, (1,)))
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        assert list(json.loads(writer.dumps(record))) == sorted(BoundRecord._fields)
    assert cli._BOUND_KEYS == tuple(sorted(BoundRecord._fields))


@pytest.mark.parametrize("field, value", [
    ("w", "2"),
    ("modulus", True),
    ("integral", 1),
    ("integral", None),
    ("exponents", (1.5,)),
    ("exponents", (True,)),
    ("exponents", [1]),
])
def test_bound_renderer_rejects_other_field_types(field, value, monkeypatch, capsys):
    record = deligne_ribet_check(DirichletChar(7, (1,)))._replace(**{field: value})
    for writer in (_JsonWriter(), _JsonWriter(compact=True)):
        with pytest.raises(TypeError):
            writer.dumps(record)
        with pytest.raises(TypeError):
            writer.dump({"records": [record]}, lambda text: None)
    # a bad record is a render failure, not a violation
    monkeypatch.setattr(cli, "deligne_ribet_scan", lambda f_max: [record])
    code, _, err = run_cli(["deligne-ribet", "--fmax", "7"], capsys)
    assert code == cli.EXIT_RENDER_FAILED
    assert err.startswith("lzero deligne-ribet: cannot render the report: ")


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


def test_an_int_of_any_size_renders(monkeypatch, capsys):
    # str() of an int past 4300 digits raises by default; h_minus(p) has
    # that many from p ~ 7600 on
    monkeypatch.setattr(cli, "minus_class_number", lambda p: 10**5000)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["hminus", "-p", "5"], capsys)
    assert code == 0 and err == ""
    assert out.count('"h_minus": 1' + "0" * 5000 + "\n") == 1
    assert out.count('"h_minus": 1' + "0" * 5000 + ",\n") == 1
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(["hminus", "-p", "5", "--format", "csv"], capsys)
    assert code == 0
    assert out == "h_minus,p\n1" + "0" * 5000 + ",5\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_render_failure_is_not_a_violation(fmt, monkeypatch, capsys):
    monkeypatch.setattr(cli, "minus_class_number", lambda p: object())
    code, _, err = run_cli(["hminus", "-p", "5", "--format", fmt], capsys)
    assert code == cli.EXIT_RENDER_FAILED == 3
    assert err.startswith("lzero hminus: cannot render the report: ")


def test_a_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "lzero", "prop1", "--fmax", "60", "--pmax", "13"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE_CLOSED == 141
    assert err == b""


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


def test_module_entry_point_writes_what_main_writes(tmp_path, capsys):
    # python -m lzero ends with os._exit once the report is flushed: stdout
    # and the cache file it appended to must be whole
    argv = ["deligne-ribet", "--fmax", "12"]
    out = subprocess.run(
        [sys.executable, "-m", "lzero", *argv, "--cache-dir", str(tmp_path / "proc")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    try:
        code, want, _ = run_cli([*argv, "--cache-dir", str(tmp_path / "main")], capsys)
    finally:
        set_cache_dir(None)
    assert code == 0
    assert out.stdout == want
    lines = (tmp_path / "main" / "b1chi.jsonl").read_text()
    assert lines.count("\n") == len(galois_orbits(12))
    assert (tmp_path / "proc" / "b1chi.jsonl").read_text() == lines


def test_module_entry_point_exits_2_on_input_errors():
    out = subprocess.run(
        [sys.executable, "-m", "lzero", "lvalue", "-f", "9", "--chi", "9"],
        capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "lzero lvalue: exponent out of range for generator order\n"


def test_module_entry_point_version_exits_through_argparse():
    out = subprocess.run([sys.executable, "-m", "lzero", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == f"lzero {__version__}\n"


def test_prop1_jobs_leaves_no_worker_or_thread(capsys):
    # what run()'s os._exit relies on: once main returns, no process or
    # thread is left that a normal interpreter exit would wait for
    import multiprocessing
    import threading

    code, out, _ = run_cli(["prop1", "--fmax", "20", "--pmax", "11", "--jobs", "2"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only prop1 --jobs N > 1 forks; every other start-up skips the import
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lzero.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_importing_the_cli_leaves_dataclasses_inspect_and_csv_unloaded():
    # records are named tuples, and csv is imported only for --format csv
    code = "import sys, lzero.cli; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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


# cache directories no run can use, under tmp_path: a file, a path under a
# file, and a directory whose b1chi.jsonl is itself a directory
_UNUSABLE_CACHE_DIRS = {"file": "file", "under_a_file": "file/sub",
                        "jsonl_is_a_directory": "dir"}


@pytest.mark.parametrize("how", ["flag", "env"])
@pytest.mark.parametrize("case", sorted(_UNUSABLE_CACHE_DIRS))
def test_unusable_cache_dir_is_an_input_error(tmp_path, monkeypatch, capsys, case, how):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "b1chi.jsonl").mkdir(parents=True)
    bad = str(tmp_path / _UNUSABLE_CACHE_DIRS[case])
    argv = ["lvalue", "-f", "7", "--chi", "1"]
    if how == "flag":
        monkeypatch.delenv("LZERO_CACHE_DIR", raising=False)
        flag = ["--cache-dir", bad]
    else:
        monkeypatch.setenv("LZERO_CACHE_DIR", bad)
        flag = []
    try:
        code, out, err = run_cli([*argv, *flag], capsys)
    finally:
        set_cache_dir(None)
    # exit 2, not a traceback and exit 1: one line that names the directory
    assert (code, out) == (2, "")
    assert err.startswith(f"lzero lvalue: cannot use the cache directory {bad}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    # --cache-dir wins, and the directory the environment names is never opened
    monkeypatch.setenv("LZERO_CACHE_DIR", bad)
    good = tmp_path / "good"
    try:
        code, out, err = run_cli([*argv, "--cache-dir", str(good)], capsys)
    finally:
        set_cache_dir(None)
    assert (code, err) == (0, "")
    assert (good / "b1chi.jsonl").stat().st_size > 0


@pytest.mark.parametrize("argv", [
    ["prop1", "--fmax", "30", "--pmax", "13"],
    ["lvalue", "-f", "9", "--chi", "1", "-p", "3"],
    ["remark2", "-p", "3", "--rmax", "3"],
    ["star", "-p", "37"],
], ids=lambda argv: argv[0])
def test_judging_builds_no_dlog_table(capsys, argv):
    """The omega^(-1) test reads chi on the generators from its weights, so
    these commands take no discrete logarithm."""
    from lzero.characters import _dlog_table

    _dlog_table.cache_clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert _dlog_table.cache_info().currsize == 0
