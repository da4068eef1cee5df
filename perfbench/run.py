"""Closed-loop benchmark of the lzero command line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25   # every workload, both modes
    python3 perfbench/run.py --pin                         # re-record expected.json

One client runs one op at a time: an op is a fresh single-threaded
interpreter running ``python -m lzero <workload argv>`` against this
checkout's ``src``, with stdout captured, preceded by one run of
``reference.py``.  These pairs repeat until the next one would end past
``--seconds``.  Every op's stdout must match the sha256 and byte count
pinned in ``expected.json``.

``--trace 0`` reports the end-to-end metrics (medians over the ops of the
run; op timings relative to the reference job).  ``--trace 1`` runs one untraced op and then one op under
``tracer.py``, and reports the per-layer metrics.  A human-readable report
comes first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads
and for which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CACHE_DIR, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"
SPAWN = HERE / "spawn.py"
REFERENCE = HERE / "reference.py"
SETUP_REPS = 15  # fresh `lzero --version` runs per benchmark run; setup_s is their median


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout_bytes: int
    sha256: str
    exit_code: int
    ok: bool = False


@dataclass
class Trace:
    """Per-layer aggregates of one traced op."""

    wall_s: float
    overhead_s: float
    spanned_s: float  # total duration of the root spans
    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, int]
    absent: list[str]


def _self(layer):
    return lambda t: t.self_s.get(layer, 0.0)


def _calls(layer):
    return lambda t: t.calls.get(layer, 0)


def _counter(name):
    return lambda t: t.counters.get(name, 0)


def _embeds_per_value(t: Trace) -> float:
    values = t.calls.get("padic.ladder", 0)
    return t.calls.get("padic.embed", 0) / values if values else 0.0


# wall_rel and cpu_rel: the ops' median wall (cpu) time over the median wall
# (cpu) time of reference.py, run before each op; see README.md, Noise.
END_TO_END = (
    ("wall_rel", "ratio"),
    ("cpu_rel", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("stdout_bytes", "bytes"),
)

# (metric, unit, value from a Trace); layer names come from tracer.py
PER_LAYER = (
    ("padic.embed_s", "s", _self("padic.embed")),
    ("padic.embeds", "count", _calls("padic.embed")),
    ("padic.values", "count", _calls("padic.ladder")),
    ("padic.embeds_per_value", "embeds/value", _embeds_per_value),
    ("kernels.tower_mul.calls", "count", _counter("kernels.tower_mul.calls")),
    ("kernels.poly_mul_reduce.calls", "count", _counter("kernels.poly_mul_reduce.calls")),
    ("padic.residue_factor_s", "s", _self("padic.residue_factor")),
    ("padic.build_tower_s", "s", _self("padic.build_tower")),
    ("padic.towers_built", "count", _counter("padic.towers_built")),
    ("padic.tower_hits", "count", _counter("padic.tower_hits")),
    ("padic.escalations", "count", _counter("padic.escalations")),
    ("padic.valuation_s", "s", _self("padic.valuation")),
    ("padic.residue_s", "s", _self("padic.residue")),
    ("padic.omega_test_s", "s", _self("padic.omega_test")),
    ("bernoulli.b1_s", "s", _self("bernoulli.b1")),
    ("bernoulli.l_values", "count", _calls("bernoulli.l_value")),
    ("cache.load_s", "s", _self("cache.load")),
    ("cache.loaded", "count", _counter("cache.loaded")),
    ("cache.hits", "count", _counter("cache.hits")),
    ("cache.misses", "count", _counter("cache.misses")),
    ("cache.put_s", "s", _self("cache.put")),
    ("cache.writes", "count", _counter("cache.writes")),
    ("cyclo.mul_s", "s", _self("cyclo.mul")),
    ("scans.root_of_unity_order_s", "s", _self("scans.root_of_unity_order")),
    ("scans.checks_s", "s", _self("scans.checks")),
    ("cli.serialize_s", "s", _self("cli.serialize")),
    ("trace.wall_s", "s", lambda t: t.wall_s),
    ("trace.overhead_s", "s", lambda t: t.overhead_s),
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """Hermetic environment: no lzero settings, only this checkout's src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LZERO_") and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict[str, str]) -> Op:
    """Run one process to exit through spawn.py; wall time covers exec to exit.

    Stdout is hashed as it streams in.  The launcher leads its own process
    group, so an interrupted run can kill the op along with it.
    """
    digest = hashlib.sha256()
    size = 0
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(SPAWN), str(report_w), "--", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            pass_fds=(report_w,), start_new_session=True)
        os.close(report_w)
        try:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                size += len(chunk)
            report = b""
            while part := os.read(report_r, 4096):
                report += part
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    finally:
        os.close(report_r)
    if proc.returncode != 0 or not report:
        raise SetupError(f"launcher failed with exit code {proc.returncode}")
    wall, cpu, maxrss_kib, code = report.split()
    return Op(float(wall), float(cpu), int(maxrss_kib) / 1024.0, size,
              digest.hexdigest(), int(code))


def lzero(*args: str) -> list[str]:
    return [sys.executable, "-m", "lzero", *args]


def load_expected() -> dict:
    with open(EXPECTED, encoding="ascii") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Session:
    """Set-up state of one benchmark run: environment, scratch dir, cache."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.env = child_env()
        self.tmp = tmp
        self.argv = workload.argv(self.rng)
        self.prefill: Path | None = None
        self.setup_times: list[float] = []
        self.op_count = 0

    def set_up(self) -> None:
        # the first run writes bytecode caches; users pay that once, so it is
        # not part of the measured set-up
        for rep in range(SETUP_REPS + 1):
            op = run_child(lzero("--version"), self.env)
            if op.exit_code != 0:
                raise SetupError(f"`lzero --version` failed with exit code {op.exit_code}")
            if rep:
                self.setup_times.append(op.wall_s)
        if self.workload.prefill_fmax is not None:
            self.prefill = self.tmp / "prefill"
            op = run_child(lzero(self.workload.command, "--fmax",
                                 str(self.workload.prefill_fmax),
                                 "--cache-dir", str(self.prefill)), self.env)
            if op.exit_code != 0:
                raise SetupError(f"cache prefill failed with exit code {op.exit_code}")
            for path in sorted(self.prefill.iterdir()):
                lines = path.read_text(encoding="ascii").splitlines(keepends=True)
                self.rng.shuffle(lines)
                path.write_text("".join(lines), encoding="ascii")

    def _op_argv(self, cache_dir: Path | None) -> list[str]:
        return [str(cache_dir) if a == CACHE_DIR else a for a in self.argv]

    def op(self, prefix: list[str] | None = None) -> Op:
        """One op on a fresh copy of the prefilled cache, if the workload has one."""
        self.op_count += 1
        cache_dir = None
        if self.prefill is not None:
            cache_dir = self.tmp / f"cache-{self.op_count}"
            shutil.copytree(self.prefill, cache_dir)
        try:
            argv = (prefix or lzero()) + self._op_argv(cache_dir)
            return run_child(argv, self.env)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir)


def judge(op: Op, expected: dict) -> Op:
    op.ok = (op.exit_code == 0 and op.sha256 == expected["sha256"]
             and op.stdout_bytes == expected["bytes"])
    return op


def measure(session: Session, seconds: float, expected: dict) -> tuple[list[Op], list[Op]]:
    """Closed loop of (reference, op) pairs; the next pair starts only if it
    should end within the budget.  Returns (ops, reference runs)."""
    ops: list[Op] = []
    refs: list[Op] = []
    start = time.perf_counter()
    while True:
        ref = run_child([sys.executable, str(REFERENCE)], session.env)
        if ref.exit_code != 0:
            raise SetupError(f"reference.py failed with exit code {ref.exit_code}")
        refs.append(ref)
        ops.append(judge(session.op(), expected))
        elapsed = time.perf_counter() - start
        if elapsed + max(o.wall_s + r.wall_s for o, r in zip(ops, refs)) > seconds:
            return ops, refs


def end_to_end(ops: list[Op], refs: list[Op], setup: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_rel": med(o.wall_s for o in ops) / med(r.wall_s for r in refs),
        "cpu_rel": med(o.cpu_s for o in ops) / med(r.cpu_s for r in refs),
        "peak_rss_mb": med(o.peak_rss_mb for o in ops),
        "setup_s": med(setup),
        "stdout_bytes": med(o.stdout_bytes for o in ops),
    }


def analyse(doc: dict, wall_s: float, untraced_s: float) -> Trace:
    """Self time per layer: each span's duration minus its children's."""
    spans, layers = doc["spans"], doc["layers"]
    in_children = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            in_children[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    spanned = 0.0
    for i, (layer, start, end, parent) in enumerate(spans):
        name = layers[layer]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - in_children[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            spanned += end - start
    return Trace(wall_s, wall_s - untraced_s, spanned, self_s, calls, doc["counters"],
                 doc["absent"])


def traced_op(session: Session, untraced_s: float) -> tuple[Op, Trace]:
    spans_path = session.tmp / "spans.json"
    op = session.op([sys.executable, str(TRACER), str(spans_path), "--"])
    with open(spans_path, encoding="ascii") as fh:
        doc = json.load(fh)
    return op, analyse(doc, op.wall_s, untraced_s)


# ---------------------------------------------------------------------------
# reports


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) and not x.is_integer() else str(int(x))


def print_end_to_end(name: str, seed: int, ops: list[Op], refs: list[Op], setup: list[float],
                     values: dict[str, float]) -> None:
    failed = sum(not o.ok for o in ops)
    print(f"== {name}: {len(ops)} ops, seed {seed}, closed loop, 1 client, "
          f"one fresh interpreter per op")
    print(f"   {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    rows = [
        ("wall_s", "s", [o.wall_s for o in ops]),
        ("cpu_s", "s", [o.cpu_s for o in ops]),
        ("ref_wall_s", "s", [r.wall_s for r in refs]),
        ("ref_cpu_s", "s", [r.cpu_s for r in refs]),
        ("peak_rss_mb", "MB", [o.peak_rss_mb for o in ops]),
        ("setup_s", "s", setup),
        ("stdout_bytes", "bytes", [o.stdout_bytes for o in ops]),
    ]
    for metric, unit, series in rows:
        q1, med, q3 = quartiles(series)
        print(f"   {metric:<14} {unit:<6} {_fmt(med):>12} {_fmt(q1):>12} {_fmt(q3):>12} "
              f"{len(series):>4}")
    for metric in ("wall_rel", "cpu_rel"):
        print(f"   {metric:<14} {'ratio':<6} {_fmt(values[metric]):>12}")
    print(f"   {'failed_share':<14} {'1':<6} {_fmt(failed / len(ops)):>12} "
          f"({failed} of {len(ops)} ops failed or differed from the pinned stdout)")


def print_layers(name: str, trace: Trace, values: dict[str, float]) -> None:
    print(f"== {name}: traced op, layer self times (share of the traced wall "
          f"{trace.wall_s:.3f} s)")
    print(f"   {'layer':<28} {'calls':>8} {'self_s':>10} {'share':>7}")
    for layer, s in sorted(trace.self_s.items(), key=lambda kv: -kv[1]):
        print(f"   {layer:<28} {trace.calls[layer]:>8} {s:>10.4f} {s / trace.wall_s:>7.1%}")
    rest = trace.wall_s - sum(trace.self_s.values())
    print(f"   {'(outside spans: start-up, imports, tracer)':<37} {rest:>10.4f} "
          f"{rest / trace.wall_s:>7.1%}")
    for metric, unit, _fn in PER_LAYER:
        print(f"   {metric:<32} {_fmt(values[metric]):>14} {unit}")
    for dotted in trace.absent:
        print(f"   absent target: {dotted}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints its report and returns the result object."""
    workload = WORKLOADS[name]
    expected = load_expected()[name]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        session = Session(workload, seed, tmp)
        session.set_up()
        if not trace:
            ops, refs = measure(session, seconds, expected)
            values = end_to_end(ops, refs, session.setup_times)
            print_end_to_end(name, seed, ops, refs, session.setup_times, values)
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, unit in END_TO_END}
        else:
            untraced = judge(session.op(), expected)
            traced, tr = traced_op(session, untraced.wall_s)
            ops = [untraced, judge(traced, expected)]
            values = {metric: fn(tr) for metric, _unit, fn in PER_LAYER}
            print_layers(name, tr, values)
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, unit, _fn in PER_LAYER}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(not o.ok for o in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def pin() -> None:
    """Record each workload's stdout digest from one op of this checkout."""
    pins = {}
    for name, workload in WORKLOADS.items():
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            session = Session(workload, 0, tmp)
            session.set_up()
            op = session.op()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if op.exit_code != 0:
            raise SetupError(f"{name}: exit code {op.exit_code}")
        pins[name] = {"argv": " ".join(workload.argv()),
                      "sha256": op.sha256, "bytes": op.stdout_bytes}
        print(f"{name}: {op.stdout_bytes} bytes, sha256 {op.sha256}")
    EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="ascii")


def run_all(seed: int, seconds: float) -> None:
    """Every workload in both modes; the last line maps name -> mode -> result."""
    results = {name: {f"trace{t}": run_workload(name, seed, seconds, bool(t)) for t in (0, 1)}
               for name in WORKLOADS}
    print(json.dumps(results, sort_keys=True))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-record expected.json from this checkout")
    args = parser.parse_args(argv)
    if not (args.pin or args.workload):
        parser.error("--workload or --pin is required")
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "lzero" / "__init__.py").is_file():
        print(f"perfbench: no lzero sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        if args.workload == "all":
            run_all(args.seed, args.seconds)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
