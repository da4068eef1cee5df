"""Command-line interface: deterministic machine-readable reports.

Every subcommand prints a single JSON envelope to standard output with the
keys command, version, params, towers, records, summary and status.  JSON
is the source of truth; ``--format csv`` is a lossy projection of the
records for spreadsheet use.  Outputs are byte-identical for identical
inputs: records are canonically sorted, valuations are exact "a/b" strings
and nothing timestamped enters the body.

Exit codes: 0 all checks passed; 1 a proved statement failed to verify
(which would mean a bug) or, under ``--strict``, a conjecture-level anomaly
was found; 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bernoulli import irregular_pairs, l_value_at_zero, minus_class_number, set_cache_dir
from .characters import DirichletChar, is_odd
from .errors import (
    IncompatibleOrders,
    ImprimitiveInput,
    NonIntegralResult,
    NoOrderPCharacter,
    NotPrimePower,
    PrecisionExhausted,
    TheoremViolation,
)
from .nt import is_prime
from .padic import N_CAP, N_START, build_tower
from .scans import (
    deligne_ribet_check,
    deligne_ribet_scan,
    integrality_verdict,
    kummer_check,
    kummer_scan,
    nonintegral_locus_scan,
    odd_product_identity_check,
    pole_depth_check,
    residue_congruence_scan,
    twisted_pair_witness,
)

_INPUT_ERRORS = (ImprimitiveInput, IncompatibleOrders, NoOrderPCharacter, NotPrimePower,
                 ValueError)


def _jsonable(obj):
    """Recursively convert records to JSON-safe values; Fractions go to 'a/b'."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(envelope: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        return
    # CSV: records only, scalars kept, nested values packed as compact JSON
    records = envelope["records"]
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
    sys.stdout.write(buf.getvalue())


def _envelope(command: str, params: dict, towers: list, records: list, summary: dict,
              status: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": _jsonable(params),
        "towers": _jsonable(towers),
        "records": _jsonable(records),
        "summary": _jsonable(summary),
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
    rows = pole_depth_check(args.p, args.rmax, args.precision)
    towers = _sorted_towers(
        build_tower(args.p, DirichletChar(r.modulus, r.exponents).value_order,
                    args.precision).descriptor()
        for r in rows
    )
    return rows, towers, {"rows": len(rows)}, "ok"


def _cmd_star(args):
    _require_odd_prime(args.p)
    rep = odd_product_identity_check(args.p, args.precision)
    towers = _sorted_towers(
        build_tower(args.p, DirichletChar(args.p, exps).value_order,
                    args.precision).descriptor()
        for exps, _v in rep.factors
    )
    summary = {
        "h_minus": rep.h_minus,
        "unique_pole": rep.unique_pole,
        "product_identity": rep.product_identity,
    }
    return [rep], towers, summary, "ok"


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
                    "JSON output is the source of truth; CSV is a lossy projection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def common(sp, *, precision=True, fmt=True, cache=True):
        if precision:
            sp.add_argument("--precision", type=_precision, default=N_START, metavar="N",
                            help=f"starting p-adic working precision, 1..{N_CAP} "
                                 f"(default {N_START})")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json",
                            help="output format (default json; csv drops nesting)")
        if cache:
            sp.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="directory for the JSONL B1 cache "
                                 "(default: $LZERO_CACHE_DIR if set)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 1 if a conjecture-level anomaly is reported")

    sp = sub.add_parser("prop1", help="scan the non-integrality classification")
    sp.add_argument("--fmax", type=int, required=True, help="largest conductor")
    sp.add_argument("--pmax", type=int, required=True, help="largest prime")
    sp.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes (at least 1; more than the CPU count are capped)")
    common(sp)

    sp = sub.add_parser("lvalue", help="exact L(0, chi), optionally judged at p")
    sp.add_argument("-f", type=int, required=True, help="conductor")
    sp.add_argument("--chi", required=True, metavar="E1,E2,...",
                    help="exponents of chi on the canonical unit-group basis")
    sp.add_argument("-p", type=int, default=None, help="odd prime for a verdict")
    common(sp)

    sp = sub.add_parser("hminus", help="minus class number from the L-value product")
    sp.add_argument("-p", type=int, required=True, help="odd prime")
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
    group.add_argument("--fmax", type=int, default=None, help="scan conductors up to this")
    group.add_argument("--chi", default=None, metavar="E1,E2,...",
                       help="single character (requires -f)")
    sp.add_argument("-f", type=int, default=None, help="conductor for --chi")
    common(sp, precision=False)

    sp = sub.add_parser("remark2", help="pole depths at conductor p^r")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--rmax", type=int, default=2, help="largest exponent r (default 2)")
    common(sp)

    sp = sub.add_parser("star", help="unique pole and the class-number product mod p")
    sp.add_argument("-p", type=int, required=True)
    common(sp)

    sp = sub.add_parser("congruence", help="residue congruences between L-values (evidence)")
    sp.add_argument("--fmax", type=int, required=True)
    sp.add_argument("-p", type=int, required=True)
    common(sp)

    sp = sub.add_parser("corollary1", help="twisting away the pole: witness pair")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-q", type=int, required=True, help="prime with q = 1 mod p")
    common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get("LZERO_CACHE_DIR")
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
