"""Disk-backed memo cache for generalized Bernoulli numbers.

One JSONL file, one entry per line:

    {"chi":[1],"den":5,"f":5,"format":3,"k":4,"nums":[-3,-1],"crc32":"4b982b6b"}

The value is stored as ``CycloElt`` holds it: the integer power-basis
numerators ``nums`` in Q(zeta_k) over one positive denominator ``den``, so a
round trip is bit-exact.  A line is the canonical text of its record (keys
sorted, no spaces, ``format`` tagging the layout) with one key appended last:
``crc32``, the CRC-32 of that canonical text.  A line is loaded only if the
checksum of the text before it matches, the tag is current and the value is
well formed (``den`` a positive integer, phi(k) integer ``nums``), so a line
cut short, edited by hand, malformed or written by an older layout is a
reject: it is counted in ``B1Cache.rejects``, and its value is recomputed on
demand and appended again.  The checksum guards against damage, not
forgery; the cache directory is trusted.  (CRC-32, not a hash from hashlib: zlib is
loaded anyway, while hashlib maps OpenSSL, 3.5 MB of resident memory.)

Memory holds the values loaded from the file and those ``put`` with
``keep`` (the bucket sums).  A value ``put`` without it, the conjugate
sigma_j(B_{1,chi}) of an orbit's first member, goes to the file only: it
is one ``galois_conj`` of a held value away, and an orbit of p = 2459
holds 1228 values of 1228 coordinates each.

Appends are idempotent: a key this process loaded or appended is not
written again, and duplicate lines (e.g. from parallel workers) are
harmless because every writer computes the same exact value.  Each process
appends through one handle of its own, one write per line.

A load that finds rejects or duplicate keys compacts the file before any
append: the first good line of each key, in file order, goes to a temporary
file in the same directory, which then replaces the cache by ``os.replace``.
A clean file is never rewritten.  A line that another process appends to the
old file while it is being replaced is lost; that only costs a recompute.
"""
from __future__ import annotations

import json
import os
import zlib

from lzero.cyclo import CycloElt

CACHE_ENV_VAR = "LZERO_CACHE_DIR"
_FILENAME = "b1chi.jsonl"
_FORMAT = 3


def _tail(canonical: str) -> str:
    """What follows the canonical text, less its closing brace, on a line."""
    return f',"crc32":"{zlib.crc32(canonical.encode("ascii")):08x}"}}'


_TAIL_LEN = len(_tail("{}"))


class B1Cache:
    def __init__(self, directory: str | None = None):
        self._mem: dict[tuple[int, tuple[int, ...]], CycloElt] = {}
        self._spilled: set[tuple[int, tuple[int, ...]]] = set()  # appended, not held
        self._path: str | None = None
        self._midline = False
        self._out = None  # append handle, opened by the process in _out_pid
        self._out_pid = None
        self.rejects = 0  # lines of the file that failed the check on load
        if directory:
            self.attach(directory)

    def attach(self, directory: str) -> None:
        """Bind to a directory, loading every entry that passes the check.

        A line that fails it (a write cut short, say) is skipped and counted
        as a reject; its value is recomputed on demand and appended again on
        a fresh line.  If the file holds a reject or a key twice, it is
        rewritten with the first good line of each key.
        """
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, _FILENAME)
        self.close()
        if not os.path.exists(self._path):
            return
        kept: dict[tuple[int, tuple[int, ...]], str] = {}
        dirty = False
        with open(self._path, "r", encoding="ascii", errors="replace") as fh:
            line = ""
            for line in fh:
                entry = _parse(line)
                if entry is None:
                    if line.strip():
                        self.rejects += 1
                        dirty = True
                elif entry[0] in kept:
                    dirty = True
                else:
                    kept[entry[0]] = line
                    self._mem[entry[0]] = entry[1]
        self._midline = bool(line) and not line.endswith("\n")
        if dirty:
            tmp = f"{self._path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="ascii") as out:
                out.writelines(text if text.endswith("\n") else text + "\n"
                               for text in kept.values())
            os.replace(tmp, self._path)
            self._midline = False

    def get(self, f: int, chi: tuple[int, ...]) -> CycloElt | None:
        return self._mem.get((f, chi))

    def put(self, f: int, chi: tuple[int, ...], b1: CycloElt, keep: bool = True) -> None:
        """Append b1 as the value of (f, chi) to the file, if one is bound,
        and with keep hold it in memory too."""
        key = (f, chi)
        if key in self._mem:
            return
        appended = key in self._spilled
        if keep:
            self._mem[key] = b1
            self._spilled.discard(key)
        elif self._path:
            self._spilled.add(key)
        if self._path and not appended:
            rec = {"chi": list(chi), "den": b1.den, "f": f, "format": _FORMAT,
                   "k": b1.order, "nums": list(b1.nums)}
            canonical = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            line = canonical[:-1] + _tail(canonical) + "\n"
            if self._midline:
                line = "\n" + line
                self._midline = False
            self._append(line)

    def close(self) -> None:
        """Close the append handle, if one is open; a later put reopens it."""
        if self._out is not None:
            self._out.close()
            self._out = None

    def _append(self, line: str) -> None:
        # a forked worker opens its own handle rather than share its parent's
        if self._out is None or self._out_pid != os.getpid():
            self._out = open(self._path, "ab", buffering=0)
            self._out_pid = os.getpid()
        self._out.write(line.encode("ascii"))


def _parse(line: str):
    """((f, chi), value) of a line that passes the check, else None."""
    line = line.rstrip("\n")
    canonical = line[:-_TAIL_LEN] + "}"
    try:
        if line[-_TAIL_LEN:] != _tail(canonical):
            return None
        rec = json.loads(canonical)
        f, chi, k, nums, den = rec["f"], rec["chi"], rec["k"], rec["nums"], rec["den"]
        # a JSON true loads as a bool, which is an int to isinstance
        if (rec["format"] != _FORMAT or type(chi) is not list or type(nums) is not list
                or any(type(n) is not int for n in (f, k, den, *chi, *nums))
                or k < 1 or den < 1):
            return None
        return (f, tuple(chi)), CycloElt(k, nums, den)  # ValueError unless phi(k) nums
    except (ValueError, KeyError, TypeError):
        return None
