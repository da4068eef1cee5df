"""Disk-backed memo cache for generalized Bernoulli numbers.

One JSONL file, one entry per line:

    {"b1":["-3/5","-1/5"],"chi":[1],"f":5,"format":2,"k":4,"crc32":"e6461c41"}

Coordinates are exact "numerator/denominator" strings, so a round trip is
bit-exact.  A line is the canonical text of its record (keys sorted, no
spaces, ``format`` tagging the layout) with one key appended last:
``crc32``, the CRC-32 of that canonical text.  A line is loaded only if the
checksum of the text before it matches and the tag is current, so a line
cut short, edited by hand or written by an older layout is a reject: it is
counted in ``B1Cache.rejects``, and its value is recomputed on demand and
appended again.  The checksum guards against damage, not forgery; the
cache directory is trusted.  (CRC-32, not a hash from hashlib: zlib is
loaded anyway, while hashlib maps OpenSSL, 3.5 MB of resident memory.)

Appends are idempotent: re-adding a known key writes nothing, and duplicate
lines (e.g. from parallel workers) are harmless because every writer
computes the same exact value.  Each process appends through one handle of
its own, one write per line.
"""
from __future__ import annotations

import json
import os
import zlib

from lzero.cyclo import CycloElt

CACHE_ENV_VAR = "LZERO_CACHE_DIR"
_FILENAME = "b1chi.jsonl"
_FORMAT = 2


def _tail(canonical: str) -> str:
    """What follows the canonical text, less its closing brace, on a line."""
    return f',"crc32":"{zlib.crc32(canonical.encode("ascii")):08x}"}}'


_TAIL_LEN = len(_tail("{}"))


class B1Cache:
    def __init__(self, directory: str | None = None):
        self._mem: dict[tuple[int, tuple[int, ...]], CycloElt] = {}
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
        a fresh line.
        """
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, _FILENAME)
        self.close()
        if os.path.exists(self._path):
            with open(self._path, "r", encoding="ascii", errors="replace") as fh:
                line = ""
                for line in fh:
                    entry = _parse(line)
                    if entry is not None:
                        self._mem[entry[0]] = entry[1]
                    elif line.strip():
                        self.rejects += 1
            self._midline = bool(line) and not line.endswith("\n")

    def get(self, f: int, chi: tuple[int, ...]) -> CycloElt | None:
        return self._mem.get((f, chi))

    def put(self, f: int, chi: tuple[int, ...], b1: CycloElt) -> None:
        key = (f, chi)
        if key in self._mem:
            return
        self._mem[key] = b1
        if self._path:
            rec = {"b1": b1.coord_strings(), "chi": list(chi), "f": f, "format": _FORMAT,
                   "k": b1.order}
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
        if rec["format"] != _FORMAT:
            return None
        return (rec["f"], tuple(rec["chi"])), CycloElt.from_strings(rec["k"], rec["b1"])
    except (ValueError, KeyError, TypeError):
        return None
