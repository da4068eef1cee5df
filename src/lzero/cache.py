"""Disk-backed memo cache for generalized Bernoulli numbers.

One JSONL file, one entry per line:

    {"f": 5, "chi": [1], "k": 4, "b1": ["-3/5", "-1/5"]}

Coordinates are exact "numerator/denominator" strings, so a round trip is
bit-exact.  Appends are idempotent: re-adding a known key writes nothing,
and duplicate lines (e.g. from parallel workers) are harmless because every
writer computes the same exact value.
"""
from __future__ import annotations

import json
import os

from lzero.cyclo import CycloElt

CACHE_ENV_VAR = "LZERO_CACHE_DIR"
_FILENAME = "b1chi.jsonl"


class B1Cache:
    def __init__(self, directory: str | None = None):
        self._mem: dict[tuple[int, tuple[int, ...]], CycloElt] = {}
        self._path: str | None = None
        self._midline = False
        if directory:
            self.attach(directory)

    def attach(self, directory: str) -> None:
        """Bind to a directory, loading any existing entries.

        A line that does not parse (say, a write cut short) is skipped; its
        value is recomputed on demand and appended again on a fresh line.
        """
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, _FILENAME)
        if os.path.exists(self._path):
            with open(self._path, "r", encoding="ascii") as fh:
                line = ""
                for line in fh:
                    try:
                        rec = json.loads(line)
                        key = (rec["f"], tuple(rec["chi"]))
                        elt = CycloElt.from_strings(rec["k"], rec["b1"])
                    except (ValueError, KeyError, TypeError):
                        continue
                    self._mem[key] = elt
            self._midline = bool(line) and not line.endswith("\n")

    def get(self, f: int, chi: tuple[int, ...]) -> CycloElt | None:
        return self._mem.get((f, chi))

    def put(self, f: int, chi: tuple[int, ...], b1: CycloElt) -> None:
        key = (f, chi)
        if key in self._mem:
            return
        self._mem[key] = b1
        if self._path:
            rec = {"f": f, "chi": list(chi), "k": b1.order, "b1": b1.coord_strings()}
            line = json.dumps(rec, sort_keys=True) + "\n"
            if self._midline:
                line = "\n" + line
                self._midline = False
            with open(self._path, "a", encoding="ascii") as fh:
                fh.write(line)
