"""Fast self-test of the benchmark itself, on tiny parameters.

    python3 perfbench/selftest.py

It checks that
  * traced and untraced stdout are byte-identical;
  * the per-layer self times sum to no more than the traced wall time,
    and exactly to the time inside root spans;
  * every counter and span count repeats exactly across two traced runs
    with different seeds;
  * the tracer reaches every target at this commit, and reports a target
    that does not exist as absent instead of failing;
  * BENCHMARK.json names exactly the metrics run.py reports.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import CACHE_DIR, Workload

TINY = (
    Workload("tiny-scan", "prop1", (("--fmax", "12"), ("--pmax", "7"), ("--jobs", "1"))),
    Workload("tiny-residues", "congruence", (("--fmax", "24"), ("-p", "5"))),
    Workload("tiny-global", "deligne-ribet", (("--fmax", "30"), ("--cache-dir", CACHE_DIR)),
             prefill_fmax=15),
)

failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def traced_pair(workload: Workload, seed: int):
    """(untraced op, traced op, trace) for one fresh session."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        session = run.Session(workload, seed, tmp)
        session.set_up()
        plain = session.op()
        traced, trace = run.traced_op(session, plain.wall_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return plain, traced, trace


def counts(trace: run.Trace) -> dict:
    return {"counters": trace.counters, "calls": trace.calls}


def check_workload(workload: Workload) -> None:
    name = workload.name
    plain, traced, trace = traced_pair(workload, seed=1)
    check(f"{name}: exits 0 untraced and traced", plain.exit_code == traced.exit_code == 0,
          f"exit codes {plain.exit_code}, {traced.exit_code}")
    check(f"{name}: traced stdout is byte-identical",
          (plain.sha256, plain.stdout_bytes) == (traced.sha256, traced.stdout_bytes))
    total = sum(trace.self_s.values())
    check(f"{name}: self times sum within the traced wall", 0 < total <= trace.wall_s,
          f"{total:.4f} s of {trace.wall_s:.4f} s")
    check(f"{name}: self times add up to the root spans",
          abs(total - trace.spanned_s) <= 1e-6 * trace.spanned_s,
          f"{total:.6f} s against {trace.spanned_s:.6f} s")
    check(f"{name}: the CLI handler is traced once", trace.calls.get("cli.handler") == 1,
          f"calls {trace.calls.get('cli.handler')}")
    check(f"{name}: no target absent", not trace.absent, ", ".join(trace.absent))
    _p, again, trace2 = traced_pair(workload, seed=2)
    check(f"{name}: stdout repeats across seeds", again.sha256 == traced.sha256)
    check(f"{name}: counters repeat exactly", counts(trace) == counts(trace2),
          f"{counts(trace)} != {counts(trace2)}")
    if workload.prefill_fmax is not None:
        c = trace.counters
        check(f"{name}: cache loads, hits and writes are counted",
              c.get("cache.loaded", 0) > 0 and c.get("cache.hits", 0) > 0
              and c.get("cache.writes", 0) > 0, str(c))


def check_absent_targets() -> None:
    sys.path.insert(0, str(run.SRC))
    import tracer

    t = tracer.Tracer()
    for dotted in ("lzero.no_such_module.fn", "lzero.padic.no_such_function",
                   "lzero.cache.B1Cache.no_such_method"):
        t._patch(dotted, lambda fn: fn)
    check("tracer reports missing targets as absent", len(t.absent) == 3, str(t.absent))


def check_declared_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check("BENCHMARK.json end_to_end matches run.py", declared == list(run.END_TO_END),
          str(declared))
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    reported = [(name, unit) for name, unit, _fn in run.PER_LAYER]
    check("BENCHMARK.json per_layer matches run.py", declared == reported, str(declared))
    names = sorted(w["name"] for w in bench["workloads"])
    check("BENCHMARK.json workloads match workloads.py", names == sorted(run.WORKLOADS),
          str(names))


def main() -> int:
    for workload in TINY:
        check_workload(workload)
    check_absent_targets()
    check_declared_metrics()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
