"""Command-line interface: deterministic machine-readable reports.

Every subcommand prints a single JSON envelope to standard output with the
keys command, version, params, towers, records, summary and status.  JSON
is the source of truth; ``--format csv`` is a lossy projection of the
records for spreadsheet use.  Outputs are byte-identical for identical
inputs: records are canonically sorted, valuations are exact "a/b" strings
and nothing timestamped enters the body.

The envelope is written while it is walked (``_JsonWriter``).  Its bytes are
those of ``json.dumps(envelope, sort_keys=True, indent=2)``, but records,
immutable named tuples, are read in place and go to standard output one at
a time, so the document is never held whole.  The two records written by
the thousand, prop1's ``VerdictRecord`` and deligne-ribet's ``BoundRecord``,
each have a dedicated renderer, a fixed template of its sorted keys; every
other type goes through the generic walk.  Each tower is rendered once and
its text reused for every record that carries it.

A process started as ``python -m lzero`` or through the ``lzero`` script
runs ``run()``: ``main()``, then a flush of stdout and stderr and
``os._exit``, which skips the interpreter's teardown (see ``run``).

Exit codes: 0 all checks passed; 1 a proved statement failed to verify
(which would mean a bug) or, under ``--strict``, a conjecture-level anomaly
was found; 2 invalid input, a modulus above MAX_MODULUS or a cache
directory that cannot be used included; 3 the report could not be rendered
(a bug; stdout holds a partial document); 141 standard output was closed
before the report was written (``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import repeat
from typing import NoReturn

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
from .padic import N_CAP, N_START, PadicTower
from .scans import (
    BoundRecord,
    VerdictRecord,
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
# 2.7e8 multiply-subtracts; f = 100003 would take 1.3e9.  It also bounds a
# prime p at which towers are built (lvalue -p, prop1 --pmax): choosing the
# factor of Phi_k' mod p walks F_p once per split (padic.residue_factor).
MAX_MODULUS = 32768

# The largest p for hminus and star.  h_minus(p) is a product of orbit norms
# (bernoulli.minus_class_number), and the norm of an L-value of value order
# k costs O(log phi(k)) products in Q(zeta_k) whose coefficients grow to
# about phi(k) times the digits of the value.  The costliest p are those
# with phi(p - 1) near p/2, the safe primes 2q + 1: on a shared 2-core VM,
# hminus takes 1.9 s at p = 1019, 17.6 s at 2099, 25-31 s at 2459 and 178 s
# at 4079.  Up to this cap, hminus and star stay within README's bound of
# 60 s and 100 MB.
MAX_CLASS_NUMBER_PRIME = 2500

# The largest prime for kummer (-p and --pmax) and irregular (--pmax).  Both
# run the exact Bernoulli recurrence up to B_{p-1}, and kummer checks each
# admissible n against a sum of p Teichmuller powers mod p^2, O(p^2) powers
# per prime, so the costliest accepted input is kummer --pmax at the cap.
# On a shared 2-core VM it takes 30.5 s at 1000 and 42.8 s at 1100
# (22 MB), and 56.4 s at 1200, too near the bound on a machine whose speed
# drifts by a quarter; kummer -p 1999 took 66.5 s and irregular --pmax 2000
# 74 s.  Up to this cap, both commands stay within README's bound of 60 s
# and 100 MB.
MAX_BERNOULLI_PRIME = 1100

EXIT_RENDER_FAILED = 3
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by the signal


_ESCAPE = json.encoder.encode_basestring_ascii  # json.dumps's escaping under ensure_ascii
_LITERAL = {True: "true", False: "false", None: "null"}
# JSON text of a scalar, by type; a subclass takes its first base listed here
_SCALAR_TEXT = {
    bool: _LITERAL.__getitem__,
    int: int.__repr__,
    str: _ESCAPE,
    type(None): _LITERAL.__getitem__,
    Fraction: lambda q: f'"{q}"',
}

# the keys of a VerdictRecord in the order its text lists them
_VERDICT_KEYS = ("classification_consistent", "exponents", "global_integral", "modulus",
                 "notes", "omega_inverse", "p", "question2_zero", "tower", "valuation")
# the keys of a BoundRecord in the order its text lists them
_BOUND_KEYS = ("exponents", "integral", "modulus", "w")


def _scalar_text(obj) -> str | None:
    for cls in type(obj).__mro__:
        if cls in _SCALAR_TEXT:
            return _SCALAR_TEXT[cls](obj)
    return None


class _JsonWriter:
    """JSON text of records, as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it, or with ``compact`` as ``separators=(",", ":")`` writes it.

    Two records have dedicated renderers, each a fixed template of its
    sorted keys joined with the record's values: ``scans.VerdictRecord``,
    of which prop1 writes thousands (``_verdict_text``, which keeps and
    reuses the text of each distinct exponent tuple), and
    ``scans.BoundRecord``, of which deligne-ribet writes thousands
    (``_bound_text``).  Every other value goes through the
    generic walk, which reads it where it stands: a named tuple as an object
    of its ``_fields``, dict keys as ``str(key)``, other tuples as lists and
    a Fraction as its "a/b" string; any other type raises TypeError.  A
    PadicTower is walked once per (p, k, precision), its text re-indented
    once for each other depth, and both paths reuse it.  Not
    ``json.JSONEncoder(sort_keys=True, indent=2).iterencode``: an indent
    runs the pure-Python encoder, and it would need a copy of each record
    as a dict.
    """

    def __init__(self, compact: bool = False):
        self._step = "" if compact else "  "
        self._colon = ":" if compact else ": "
        self._root = "" if compact else "\n"  # line break of the root
        self._fields = {}  # named tuple type -> (field indices, their rendered keys), by name
        self._towers = {}  # (p, k, precision) -> {line break + indentation: text}
        self._verdicts = {}  # line break + indentation -> (*_layout(...), exponents -> text)
        self._bounds = {}  # line break + indentation -> _layout(_BOUND_KEYS, ...)

    def dumps(self, obj) -> str:
        return self._text(obj, self._root)

    def dump(self, obj, write) -> None:
        """write(...) the text of obj and a newline.  Each item of a container
        directly under the root, one record of an envelope's "records" say,
        goes out in one write with the separator before it, so at most one
        such item is held as text."""
        self._stream(obj, self._root, "", write, 2)
        write("\n")

    def _stream(self, obj, nl, prefix, write, levels):
        container = self._container(obj) if levels and _scalar_text(obj) is None else None
        if container is None or not container[3]:
            write(prefix + self._text(obj, nl))
            return
        opening, closing, keys, values = container
        inner = nl + self._step
        sep = prefix + opening + inner
        for key, value in zip(keys, values):
            self._stream(value, inner, sep + key, write, levels - 1)
            sep = "," + inner
        write(nl + closing)

    def _text(self, obj, nl) -> str:
        # prop1 and deligne-ribet write thousands of these: skip the walk's list
        if type(obj) is VerdictRecord:
            return self._verdict_text(obj, nl)
        if type(obj) is BoundRecord:
            return self._bound_text(obj, nl)
        out = []
        self._walk(obj, nl, out)
        return "".join(out)

    def _walk(self, obj, nl, out):
        render = _SCALAR_TEXT.get(type(obj))
        if render is not None:
            out.append(render(obj))
        elif type(obj) is VerdictRecord:
            out.append(self._verdict_text(obj, nl))
        elif type(obj) is BoundRecord:
            out.append(self._bound_text(obj, nl))
        elif type(obj) is PadicTower:
            out.append(self._tower_text(obj, nl))
        else:
            text = _scalar_text(obj)
            if text is None:
                self._walk_container(self._container(obj), nl, out)
            else:
                out.append(text)

    def _tower_text(self, tower, nl) -> str:
        key = tower[:3]  # (p, k, precision)
        texts = self._towers.get(key)
        if texts is None:
            texts = self._towers[key] = {}
        text = texts.get(nl)
        if text is None:
            if texts:
                # JSON text breaks a line only to indent the next one, so the
                # text at nl is the text at another depth with each break
                # re-indented
                other, other_text = next(iter(texts.items()))
                text = other_text.replace(other, nl)
            else:
                part = []
                self._walk_container(self._container(tower), nl, part)
                text = "".join(part)
            texts[nl] = text
        return text

    def _verdict_text(self, record, nl) -> str:
        """The text of a VerdictRecord whose fields have the types that
        scans.integrality_verdict gives them.  A tower that is not a
        PadicTower, a valuation that is not a Fraction, a flag that is not a
        bool (question2_zero may also be None), or exponents that are not a
        tuple of ints (a bool included), raises TypeError."""
        (modulus, exponents, p, tower, valuation, global_integral, omega_inverse,
         consistent, question2_zero, notes) = record
        layout = self._verdicts.get(nl)
        if layout is None:
            layout = self._verdicts[nl] = (*self._layout(_VERDICT_KEYS, nl), {})
        heads, inner, lists = layout
        # 1 == True and (1,) == (True,), so the literals and the texts kept
        # by exponents would render an int flag or a bool exponent wrongly
        if (type(tower) is not PadicTower or type(valuation) is not Fraction
                or type(consistent) is not bool or type(global_integral) is not bool
                or type(omega_inverse) is not bool
                or (question2_zero is not None and type(question2_zero) is not bool)
                or type(exponents) is not tuple or any(type(e) is not int for e in exponents)):
            raise TypeError(f"cannot serialize a VerdictRecord with fields of types "
                            f"{', '.join(type(v).__name__ for v in record)}")
        exponents_text = lists.get(exponents)
        if exponents_text is None:
            exponents_text = lists[exponents] = self._text(exponents, inner)
        return "".join((
            heads[0], _LITERAL[consistent],
            heads[1], exponents_text,
            heads[2], _LITERAL[global_integral],
            heads[3], int.__repr__(modulus),
            heads[4], _ESCAPE(notes),
            heads[5], _LITERAL[omega_inverse],
            heads[6], int.__repr__(p),
            heads[7], _LITERAL[question2_zero],
            heads[8], self._tower_text(tower, inner),
            heads[9], '"', str(valuation), '"', nl, "}",
        ))

    def _bound_text(self, record, nl) -> str:
        """The text of a BoundRecord whose fields have the types that
        scans.deligne_ribet_check gives them.  A modulus, w or exponent that
        is not an int (a bool included), exponents that are not a tuple, or
        an integral that is not a bool, raises TypeError."""
        modulus, exponents, w, integral = record
        layout = self._bounds.get(nl)
        if layout is None:
            layout = self._bounds[nl] = self._layout(_BOUND_KEYS, nl)
        heads, inner = layout
        if (type(modulus) is not int or type(w) is not int or type(integral) is not bool
                or type(exponents) is not tuple or any(type(e) is not int for e in exponents)):
            raise TypeError(f"cannot serialize a BoundRecord with fields of types "
                            f"{', '.join(type(v).__name__ for v in record)}")
        if exponents:
            item = inner + self._step
            exponents_text = ("[" + item + ("," + item).join(map(int.__repr__, exponents))
                              + inner + "]")
        else:
            exponents_text = "[]"
        return "".join((
            heads[0], exponents_text,
            heads[1], _LITERAL[integral],
            heads[2], int.__repr__(modulus),
            heads[3], int.__repr__(w), nl, "}",
        ))

    def _layout(self, keys, nl):
        """(the text before each value, the indentation of the fields) of a
        record whose text lists keys, at line break and indentation nl."""
        inner = nl + self._step
        heads = tuple(("," if i else "{") + inner + _ESCAPE(key) + self._colon
                      for i, key in enumerate(keys))
        return heads, inner

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
            order, keys = self._fields[cls]
            return "{", "}", keys, [obj[i] for i in order]
        if isinstance(obj, tuple) and hasattr(cls, "_fields"):
            names = cls._fields
            order = sorted(range(len(names)), key=names.__getitem__)
            self._fields[cls] = (order, [_ESCAPE(names[i]) + self._colon for i in order])
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
    if isinstance(record, tuple) and hasattr(record, "_asdict"):
        return record._asdict()
    return {str(k): v for k, v in record.items()}


def _emit(envelope: dict, fmt: str) -> None:
    if fmt == "json":
        _JsonWriter().dump(envelope, sys.stdout.write)
        return
    # CSV: records only, scalars kept, nested values packed as compact JSON
    records = envelope["records"]
    if not records:
        return
    import csv  # only here: a JSON start-up need not load it

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


def _sorted_towers(towers) -> list:
    uniq = {tower[:3]: tower for tower in towers}  # by (p, k, precision)
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
    """-f, --fmax, -p or -q where characters are built mod p or q, and -p or
    --pmax where towers are built at p."""
    n = _int_arg(text)
    if n > MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_MODULUS}, got {n}")
    return n


def _class_number_prime(text: str) -> int:
    """-p of hminus and star: a modulus, and at most MAX_CLASS_NUMBER_PRIME."""
    n = _modulus(text)
    if n > MAX_CLASS_NUMBER_PRIME:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_CLASS_NUMBER_PRIME} for the class number, got {n}")
    return n


def _bernoulli_prime(text: str) -> int:
    """-p and --pmax of kummer and irregular: at most MAX_BERNOULLI_PRIME."""
    n = _int_arg(text)
    if n > MAX_BERNOULLI_PRIME:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BERNOULLI_PRIME}, got {n}")
    return n


def _positive(text: str) -> int:
    """An integer of at least 1: --rmax, and --jobs before its cap."""
    n = _int_arg(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _require_modulus(n: int, what: str) -> None:
    if n > MAX_MODULUS:
        raise ValueError(f"{what} = {n} exceeds the largest modulus, {MAX_MODULUS}")


def _jobs(text: str) -> int:
    """--jobs: at least one worker, and no more workers than CPUs."""
    return min(_positive(text), os.cpu_count() or 1)


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"-p must be an odd prime, got {p}")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (records, towers, summary, status)

def _cmd_prop1(args):
    records = nonintegral_locus_scan(args.fmax, args.pmax, args.precision, args.jobs)
    neg = sum(1 for r in records if r.valuation.numerator < 0)
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
        if args.f is not None:
            raise ValueError("-f requires --chi; --fmax scans every conductor up to it")
        rows = deligne_ribet_scan(args.fmax)
    return rows, [], {"checked": len(rows), "violations": 0}, "ok"


def _cmd_remark2(args):
    _require_odd_prime(args.p)
    # p >= 3, so p^r > MAX_MODULUS once r reaches its bit length
    _require_modulus(args.p ** min(args.rmax, MAX_MODULUS.bit_length()), "p^rmax")
    rows, towers = _pole_depths(args.p, args.rmax, args.precision)
    return rows, _sorted_towers(towers), {"rows": len(rows)}, "ok"


def _cmd_star(args):
    _require_odd_prime(args.p)
    rep, towers = _odd_product_identity(args.p, args.precision)
    summary = {
        "h_minus": rep.h_minus,
        "unique_pole": rep.unique_pole,
        "product_identity": rep.product_identity,
    }
    return [rep], _sorted_towers(towers), summary, "ok"


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
                    f"Moduli are limited to {MAX_MODULUS}: -f, --fmax, a prime p at which "
                    "towers are built (-p, --pmax), and a modulus p, p^rmax or pq built "
                    "from -p and -q beyond it exit 2, and so does a -p of hminus or star "
                    f"above {MAX_CLASS_NUMBER_PRIME}.",
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
    sp.add_argument("--pmax", type=_modulus, required=True,
                    help=f"largest prime (at most {MAX_MODULUS})")
    sp.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes (at least 1; more than the CPU count are capped)")
    common(sp)

    sp = sub.add_parser("lvalue", help="exact L(0, chi), optionally judged at p")
    sp.add_argument("-f", type=_modulus, required=True,
                    help=f"conductor (at most {MAX_MODULUS})")
    sp.add_argument("--chi", required=True, metavar="E1,E2,...",
                    help="exponents of chi on the canonical unit-group basis")
    sp.add_argument("-p", type=_modulus, default=None,
                    help=f"odd prime for a verdict (at most {MAX_MODULUS})")
    common(sp)

    sp = sub.add_parser("hminus", help="minus class number from the L-value product")
    sp.add_argument("-p", type=_class_number_prime, required=True,
                    help=f"odd prime (at most {MAX_CLASS_NUMBER_PRIME})")
    common(sp, precision=False)

    sp = sub.add_parser("irregular", help="irregular pairs (p, k) with p <= pmax")
    sp.add_argument("--pmax", type=_bernoulli_prime, required=True,
                    help=f"largest prime (at most {MAX_BERNOULLI_PRIME})")
    common(sp, precision=False, cache=False)

    sp = sub.add_parser("kummer", help="Kummer congruences for B_{1,omega^n}")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-p", type=_bernoulli_prime, default=None,
                       help=f"single odd prime (at most {MAX_BERNOULLI_PRIME})")
    group.add_argument("--pmax", type=_bernoulli_prime, default=None,
                       help=f"all odd primes up to this (at most {MAX_BERNOULLI_PRIME})")
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
    sp.add_argument("--rmax", type=_positive, default=2,
                    help="largest exponent r, at least 1 (default 2)")
    common(sp)

    sp = sub.add_parser("star", help="unique pole and the class-number product mod p")
    sp.add_argument("-p", type=_class_number_prime, required=True,
                    help=f"odd prime (at most {MAX_CLASS_NUMBER_PRIME})")
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
    # a command with --cache-dir binds its cache before any work, so that a
    # directory that cannot be used is an input error; --cache-dir wins, and
    # then the directory the environment names is never opened
    cache_dir = None
    if hasattr(args, "cache_dir"):
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if cache_dir:
        try:
            set_cache_dir(cache_dir)
        except OSError as exc:
            where = f" ({exc.filename})" if exc.filename not in (None, cache_dir) else ""
            print(f"lzero {args.command}: cannot use the cache directory {cache_dir}: "
                  f"{exc.strerror or exc}{where}", file=sys.stderr)
            return 2
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
        code = 1
    except _INPUT_ERRORS as exc:
        print(f"lzero {args.command}: {exc}", file=sys.stderr)
        return 2
    else:
        envelope = _envelope(args.command, params, towers, records, summary, status)
        code = 1 if status != "ok" and args.strict else 0
    return _report(envelope, getattr(args, "format", "json"), args.command) or code


def _report(envelope: dict, fmt: str, command: str) -> int:
    """_emit the envelope and flush: 0, or the exit code of a failed write.

    Ints render at any size: the interpreter's cap on int-to-str digits
    (4300 by default, from Python 3.10.7 on) guards parsing untrusted text,
    and every int here was computed.  A render error is a bug, not a
    violation, so it is not exit 1.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(envelope, fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at /dev/null so that the flush at
        # exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except (TypeError, ValueError) as exc:
        print(f"lzero {command}: cannot render the report: {exc}", file=sys.stderr)
        return EXIT_RENDER_FAILED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def run() -> NoReturn:
    """The process entry point (``python -m lzero``, the ``lzero`` script):
    main(), a flush of stdout and stderr, then os._exit with main's code.

    os._exit skips the interpreter's teardown, about 8 ms of CPU per run
    once the report is written, and nothing here needs it: the B1 cache
    appends through an unbuffered handle, one write per line, and closes
    its compaction files in with blocks; prop1 --jobs N leaves its Pool's
    with block, which terminates and joins the workers, before main
    returns; and lzero registers no atexit handler and starts no thread.
    An exception, argparse's SystemExit (--help, --version, a usage error)
    included, propagates and ends the process as usual.  In-process
    callers call main() and keep their interpreter.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code or 0)


if __name__ == "__main__":
    run()
