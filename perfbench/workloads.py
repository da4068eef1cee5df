"""The benchmark's workloads: fixed lzero CLI invocations.

Each workload is one subcommand with fixed parameters.  The seed only
permutes the order of the option pairs on the command line and, for
``global``, the line order of the prefilled cache file; neither may change
a byte of output, so every seed has the same pinned digest (see
``expected.json``) and the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CACHE_DIR = "{cache_dir}"  # placeholder, replaced by a fresh copy per op


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    options: tuple[tuple[str, ...], ...]
    # conductor bound of the cache prefilled during set-up (None: no cache)
    prefill_fmax: int | None = None

    def argv(self, rng: random.Random | None = None) -> list[str]:
        """The CLI arguments, option pairs in seed-chosen order if rng is given."""
        options = list(self.options)
        if rng is not None:
            rng.shuffle(options)
        return [self.command] + [part for pair in options for part in pair]


# Why each workload was chosen: README.md (and the "why" lines of BENCHMARK.json).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", "prop1", (("--fmax", "100"), ("--pmax", "31"), ("--jobs", "1"))),
        Workload("towers", "prop1", (("--fmax", "40"), ("--pmax", "150"),
                                     ("--precision", "128"), ("--jobs", "1"))),
        Workload("residues", "congruence", (("--fmax", "60"), ("-p", "13"))),
        Workload("global", "deligne-ribet", (("--fmax", "200"), ("--cache-dir", CACHE_DIR)),
                 prefill_fmax=100),
    )
}
