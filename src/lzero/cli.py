"""Command-line interface: deterministic machine-readable reports.

Every subcommand prints a single JSON envelope to standard output with the
keys command, version, params, towers, records, summary and status.  JSON
is the source of truth; ``--format csv`` is a lossy projection of the
records for spreadsheet use.  Outputs are byte-identical for identical
inputs: records are canonically sorted, valuations are exact "a/b" strings
and nothing timestamped enters the body.

The envelope is written while it is walked (``_JsonWriter``).  Its bytes are
those of ``json.dumps(envelope, sort_keys=True, indent=2)``, but records are
read in place and go to standard output one at a time, so the document is
never held whole, and each tower descriptor is rendered once and its text
reused for every record that carries it.

Exit codes: 0 all checks passed; 1 a proved statement failed to verify
(which would mean a bug) or, under ``--strict``, a conjecture-level anomaly
was found; 2 invalid input, a modulus above MAX_MODULUS included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction
from itertools import repeat

from . import __version__
from .bernoulli import irregular_pairs, l_value_at_zero, minus_class_number, set_cache_dir
from .cache import CACHE_ENV_VAR
from .characters import DirichletChar, is_odd
from .errors import (
    IncompatibleOrders,
    ImprimitiveInput,
    NonIntegralResult,
    NoOrderPCharacter,
    PrecisionExhausted,
    TheoremViolation,
)
from .nt import is_prime
from .padic import N_CAP, N_START, TowerDescriptor
from .scans import (
    _odd_product_identity,
    _pole_depths,
    deligne_ribet_check,
    deligne_ribet_scan,
    integrality_verdict,
    kummer_check,
    kummer_scan,
    nonintegral_locus_scan,
    residue_congruence_scan,
    twisted_pair_witness,
)

_INPUT_ERRORS = (ImprimitiveInput, IncompatibleOrders, NoOrderPCharacter, ValueError)

# The largest modulus of a character a command may build: -f, --fmax, and
# p, p^rmax or pq where a command builds characters mod those.  It bounds the
# value order k < modulus too.  The costliest single value below it,
# `lvalue -f 32603 --chi 1` (k = 32602), is a long division by Phi_k of about
# 2.7e8 multiply-subtracts; f = 100003 would take 1.3e9.
MAX_MODULUS = 32768


_ESCAPE = json.encoder.encode_basestring_ascii  # json.dumps's escaping under ensure_ascii
# JSON text of a scalar, by type; a subclass takes its first base listed here
_SCALAR_TEXT = {
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    str: _ESCAPE,
    type(None): lambda _: "null",
    Fraction: lambda q: f'"{q}"',
}


def _scalar_text(obj) -> str | None:
    for cls in type(obj).__mro__:
        if cls in _SCALAR_TEXT:
            return _SCALAR_TEXT[cls](obj)
    return None


class _JsonWriter:
    """JSON text of records, as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it, or with ``compact`` as ``separators=(",", ":")`` writes it.

    Records are read where they stand: dataclass fields in place, dict keys
    as ``str(key)``, tuples as lists and a Fraction as its "a/b" string; any
    other type raises TypeError.  A tower descriptor is rendered once per
    (p, k, precision) and indentation, and its text reused.  Not
    ``json.JSONEncoder(sort_keys=True, indent=2).iterencode``: an indent runs
    the pure-Python encoder, 0.5 s of CPU against 0.1 s on the scan envelope.
    """

    def __init__(self, compact: bool = False):
        self._step = "" if compact else "  "
        self._colon = ":" if compact else ": "
        self._fields = {}  # dataclass type -> (field names, their rendered keys), sorted
        self._towers = {}  # (p, k, precision, line break + indentation) -> text

    def dumps(self, obj) -> str:
        out = []
        self._walk(obj, "\n" if self._step else "", out)
        return "".join(out)

    def dump(self, obj, write) -> None:
        """write(...) the text of obj and a newline.  Each item of a container
        directly under the root, one record of an envelope's "records" say,
        goes out in one write with the separator before it, so at most one
        such item is held as text."""
        self._stream(obj, "\n", "", write, 2)
        write("\n")

    def _stream(self, obj, nl, prefix, write, levels):
        container = self._container(obj) if levels and _scalar_text(obj) is None else None
        if container is None or not container[3]:
            out = [prefix]
            self._walk(obj, nl, out)
            write("".join(out))
            return
        opening, closing, keys, values = container
        inner = nl + self._step
        sep = prefix + opening + inner
        for key, value in zip(keys, values):
            self._stream(value, inner, sep + key, write, levels - 1)
            sep = "," + inner
        write(nl + closing)

    def _walk(self, obj, nl, out):
        render = _SCALAR_TEXT.get(type(obj))
        if render is not None:
            out.append(render(obj))
        elif type(obj) is TowerDescriptor:
            key = (obj["p"], obj["k"], obj["precision"], nl)
            text = self._towers.get(key)
            if text is None:
                part = []
                self._walk_container(self._container(obj), nl, part)
                text = self._towers[key] = "".join(part)
            out.append(text)
        else:
            text = _scalar_text(obj)
            if text is None:
                self._walk_container(self._container(obj), nl, out)
            else:
                out.append(text)

    def _walk_container(self, container, nl, out):
        opening, closing, keys, values = container
        if not values:
            out.append(opening + closing)
            return
        inner = nl + self._step
        comma = "," + inner
        sep = opening + inner
        for key, value in zip(keys, values):
            out.append(sep + key)
            self._walk(value, inner, out)
            sep = comma
        out.append(nl + closing)

    def _container(self, obj):
        """(opening, closing, rendered keys, values) of a container; raises
        TypeError for a type with no JSON form."""
        cls = type(obj)
        if cls is tuple or cls is list:
            return "[", "]", repeat(""), obj
        if cls in self._fields:
            names, keys = self._fields[cls]
            return "{", "}", keys, [getattr(obj, n) for n in names]
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            names = sorted(f.name for f in dataclasses.fields(obj))
            self._fields[cls] = (names, [_ESCAPE(n) + self._colon for n in names])
            return self._container(obj)
        if isinstance(obj, dict):
            items = sorted({str(k): v for k, v in obj.items()}.items())
            return "{", "}", [_ESCAPE(k) + self._colon for k, _ in items], [v for _, v in items]
        if isinstance(obj, (list, tuple)):
            return "[", "]", repeat(""), obj
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(value, writer: _JsonWriter):
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    return writer.dumps(value)


def _csv_row(record) -> dict:
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return {str(k): v for k, v in record.items()}


def _emit(envelope: dict, fmt: str) -> None:
    if fmt == "json":
        _JsonWriter().dump(envelope, sys.stdout.write)
        return
    # CSV: records only, scalars kept, nested values packed as compact JSON
    records = envelope["records"]
    if not records:
        return
    keys = sorted({k for rec in records for k in _csv_row(rec)})
    cells = _JsonWriter(compact=True)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        row = _csv_row(rec)
        writer.writerow([_csv_cell(row.get(k), cells) for k in keys])


def _envelope(command: str, params: dict, towers: list, records: list, summary: dict,
              status: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": params,
        "towers": towers,
        "records": records,
        "summary": summary,
        "status": status,
    }


def _sorted_towers(descriptors) -> list:
    uniq = {(d["p"], d["k"], d["precision"]): d for d in descriptors}
    return [uniq[key] for key in sorted(uniq)]


def _parse_chi(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--chi expects comma-separated integers, got {text!r}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None


def _precision(text: str) -> int:
    """--precision: the ladder starts here, so it must be a rung it can run."""
    n = _int_arg(text)
    if not 1 <= n <= N_CAP:
        raise argparse.ArgumentTypeError(f"must lie in 1..{N_CAP}, got {n}")
    return n


def _modulus(text: str) -> int:
    """-f, --fmax, and -p or -q where characters are built mod p or q."""
    n = _int_arg(text)
    if n > MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_MODULUS}, got {n}")
    return n


def _require_modulus(n: int, what: str) -> None:
    if n > MAX_MODULUS:
        raise ValueError(f"{what} = {n} exceeds the largest modulus, {MAX_MODULUS}")


def _jobs(text: str) -> int:
    """--jobs: at least one worker, and no more workers than CPUs."""
    n = _int_arg(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return min(n, os.cpu_count() or 1)


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"-p must be an odd prime, got {p}")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (records, towers, summary, status)

def _cmd_prop1(args):
    records = nonintegral_locus_scan(args.fmax, args.pmax, args.precision, args.jobs)
    neg = sum(1 for r in records if r.valuation < 0)
    probes = [r for r in records if r.question2_zero is not None]
    summary = {
        "records": len(records),
        "nonintegral": neg,
        "question2_probes": len(probes),
        "question2_zero": sum(1 for r in probes if r.question2_zero),
    }
    return records, _sorted_towers(r.tower for r in records), summary, "ok"


def _cmd_lvalue(args):
    chi = DirichletChar(args.f, _parse_chi(args.chi))
    lv = l_value_at_zero(chi)
    record = {
        "f": chi.modulus,
        "chi": list(chi.exponents),
        "k": chi.value_order,
        "odd": is_odd(chi),
        "b1": list(lv.b1chi.coord_strings()),
        "l0": list(lv.l_at_zero.coord_strings()),
    }
    towers = []
    if args.p is not None:
        _require_odd_prime(args.p)
        verdict = integrality_verdict(chi, args.p, args.precision)
        record.update(
            p=verdict.p,
            valuation=verdict.valuation,
            global_integral=verdict.global_integral,
            omega_inverse=verdict.omega_inverse,
            tower=verdict.tower,
        )
        towers = [verdict.tower]
    return [record], towers, {"k": chi.value_order}, "ok"


def _cmd_hminus(args):
    _require_odd_prime(args.p)
    h = minus_class_number(args.p)
    return [{"p": args.p, "h_minus": h}], [], {"h_minus": h}, "ok"


def _cmd_irregular(args):
    pairs = irregular_pairs(args.pmax)
    records = [{"p": p, "k": k} for p, k in pairs]
    return records, [], {"pairs": len(pairs)}, "ok"


def _cmd_kummer(args):
    if args.p is not None:
        _require_odd_prime(args.p)
        rows = kummer_check(args.p)
    else:
        rows = kummer_scan(args.pmax)
    return rows, [], {"rows": len(rows), "violations": 0}, "ok"


def _cmd_deligne_ribet(args):
    if args.chi is not None:
        if args.f is None:
            raise ValueError("--chi requires -f")
        rows = [deligne_ribet_check(DirichletChar(args.f, _parse_chi(args.chi)))]
    else:
        rows = deligne_ribet_scan(args.fmax)
    return rows, [], {"checked": len(rows), "violations": 0}, "ok"


def _cmd_remark2(args):
    _require_odd_prime(args.p)
    # p >= 3, so p^r > MAX_MODULUS once r reaches its bit length
    _require_modulus(args.p ** min(args.rmax, MAX_MODULUS.bit_length()), "p^rmax")
    rows, towers = _pole_depths(args.p, args.rmax, args.precision)
    return rows, _sorted_towers(t.descriptor() for t in towers), {"rows": len(rows)}, "ok"


def _cmd_star(args):
    _require_odd_prime(args.p)
    rep, towers = _odd_product_identity(args.p, args.precision)
    summary = {
        "h_minus": rep.h_minus,
        "unique_pole": rep.unique_pole,
        "product_identity": rep.product_identity,
    }
    return [rep], _sorted_towers(t.descriptor() for t in towers), summary, "ok"


def _cmd_congruence(args):
    _require_odd_prime(args.p)
    rep = residue_congruence_scan(args.fmax, args.p, args.precision)
    anomalies = sum(1 for pr in rep.pairs if not pr.equal)
    summary = {
        "classes": rep.n_classes,
        "excluded": rep.n_excluded,
        "singletons": rep.n_singletons,
        "pairs": len(rep.pairs),
        "anomalies": anomalies,
    }
    status = "anomalies" if anomalies else "ok"
    return rep.pairs, [], summary, status


def _cmd_corollary1(args):
    _require_odd_prime(args.p)
    _require_modulus(args.p * args.q, "p*q")
    untwisted, twisted = twisted_pair_witness(args.p, args.q, args.precision)
    towers = _sorted_towers([untwisted.tower, twisted.tower])
    summary = {
        "untwisted_valuation": untwisted.valuation,
        "twisted_valuation": twisted.valuation,
        "question2_zero": twisted.question2_zero,
    }
    return [untwisted, twisted], towers, summary, "ok"


_HANDLERS = {
    "prop1": _cmd_prop1,
    "lvalue": _cmd_lvalue,
    "hminus": _cmd_hminus,
    "irregular": _cmd_irregular,
    "kummer": _cmd_kummer,
    "deligne-ribet": _cmd_deligne_ribet,
    "remark2": _cmd_remark2,
    "star": _cmd_star,
    "congruence": _cmd_congruence,
    "corollary1": _cmd_corollary1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzero",
        description="Exact Dirichlet L-values at s=0 and their p-adic integrality. "
                    "JSON output is the source of truth; CSV is a lossy projection. "
                    f"Moduli are limited to {MAX_MODULUS}: -f, --fmax, and a modulus p, "
                    "p^rmax or pq built from -p and -q beyond it exit 2.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def common(sp, *, precision=True, cache=True):
        if precision:
            sp.add_argument("--precision", type=_precision, default=N_START, metavar="N",
                            help=f"starting p-adic working precision, 1..{N_CAP} "
                                 f"(default {N_START})")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json; csv drops nesting)")
        if cache:
            sp.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="directory for the JSONL B1 cache "
                                 f"(default: ${CACHE_ENV_VAR} if set)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 1 if a conjecture-level anomaly is reported")

    sp = sub.add_parser("prop1", help="scan the non-integrality classification")
    sp.add_argument("--fmax", type=_modulus, required=True,
                    help=f"largest conductor (at most {MAX_MODULUS})")
    sp.add_argument("--pmax", type=int, required=True, help="largest prime")
    sp.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes (at least 1; more than the CPU count are capped)")
    common(sp)

    sp = sub.add_parser("lvalue", help="exact L(0, chi), optionally judged at p")
    sp.add_argument("-f", type=_modulus, required=True,
                    help=f"conductor (at most {MAX_MODULUS})")
    sp.add_argument("--chi", required=True, metavar="E1,E2,...",
                    help="exponents of chi on the canonical unit-group basis")
    sp.add_argument("-p", type=int, default=None, help="odd prime for a verdict")
    common(sp)

    sp = sub.add_parser("hminus", help="minus class number from the L-value product")
    sp.add_argument("-p", type=_modulus, required=True,
                    help=f"odd prime (at most {MAX_MODULUS})")
    common(sp, precision=False)

    sp = sub.add_parser("irregular", help="irregular pairs (p, k) with p <= pmax")
    sp.add_argument("--pmax", type=int, required=True)
    common(sp, precision=False, cache=False)

    sp = sub.add_parser("kummer", help="Kummer congruences for B_{1,omega^n}")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-p", type=int, default=None, help="single odd prime")
    group.add_argument("--pmax", type=int, default=None, help="all odd primes up to this")
    common(sp, precision=False, cache=False)

    sp = sub.add_parser("deligne-ribet", help="w * L(0, chi) integrality bound")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--fmax", type=_modulus, default=None,
                       help=f"scan conductors up to this (at most {MAX_MODULUS})")
    group.add_argument("--chi", default=None, metavar="E1,E2,...",
                       help="single character (requires -f)")
    sp.add_argument("-f", type=_modulus, default=None,
                    help=f"conductor for --chi (at most {MAX_MODULUS})")
    common(sp, precision=False)

    sp = sub.add_parser("remark2", help="pole depths at conductor p^r")
    sp.add_argument("-p", type=_modulus, required=True,
                    help=f"odd prime (p^rmax at most {MAX_MODULUS})")
    sp.add_argument("--rmax", type=int, default=2, help="largest exponent r (default 2)")
    common(sp)

    sp = sub.add_parser("star", help="unique pole and the class-number product mod p")
    sp.add_argument("-p", type=_modulus, required=True, help=f"odd prime (at most {MAX_MODULUS})")
    common(sp)

    sp = sub.add_parser("congruence", help="residue congruences between L-values (evidence)")
    sp.add_argument("--fmax", type=_modulus, required=True,
                    help=f"largest conductor (at most {MAX_MODULUS})")
    sp.add_argument("-p", type=_modulus, required=True, help=f"odd prime (at most {MAX_MODULUS})")
    common(sp)

    sp = sub.add_parser("corollary1", help="twisting away the pole: witness pair")
    sp.add_argument("-p", type=_modulus, required=True, help="odd prime")
    sp.add_argument("-q", type=_modulus, required=True,
                    help=f"prime with q = 1 mod p (pq at most {MAX_MODULUS})")
    common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # without --cache-dir, lzero.bernoulli binds the cache named by the
    # environment on first use
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        set_cache_dir(cache_dir)
    # only the mathematical inputs belong in the report; execution details
    # (jobs, cache, format) must not break byte-for-byte determinism
    semantic = ("fmax", "pmax", "p", "q", "f", "chi", "rmax", "precision")
    params = {k: v for k, v in sorted(vars(args).items())
              if k in semantic and v is not None}
    try:
        records, towers, summary, status = _HANDLERS[args.command](args)
    except (TheoremViolation, NonIntegralResult, PrecisionExhausted) as exc:
        envelope = _envelope(args.command, params, [], [],
                             {"error": f"{type(exc).__name__}: {exc}"}, "violation")
        _emit(envelope, getattr(args, "format", "json"))
        return 1
    except _INPUT_ERRORS as exc:
        print(f"lzero {args.command}: {exc}", file=sys.stderr)
        return 2
    envelope = _envelope(args.command, params, towers, records, summary, status)
    _emit(envelope, getattr(args, "format", "json"))
    if status != "ok" and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
