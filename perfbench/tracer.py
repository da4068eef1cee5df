"""Outside-in tracer for one lzero CLI run.

Usage (in a fresh interpreter, with the checkout's ``src`` on PYTHONPATH):

    python perfbench/tracer.py SPANS.json -- prop1 --fmax 12 --pmax 7

It imports lzero, wraps the functions named in ``*_TARGETS`` from outside,
calls ``lzero.cli.main(argv)`` and, once it returns, writes the recorded
spans and counters to SPANS.json.  The program's stdout is left alone, so
a traced run must print exactly the bytes an untraced one does.

Targets are resolved by dotted name at run time.  Every ``lzero.*``
module attribute (and every dict held in one, such as the CLI's handler
table) that is bound to the same object is patched, because several
modules bind functions with ``from ... import``.  Methods are patched on
their class.  A target that no longer exists is reported as absent rather
than failing the run, so the same tracer can measure later refactors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (dotted name, layer).  Several targets may share a layer; a layer's self
# time is the sum over its spans of duration minus time in child spans.
SPAN_TARGETS = (
    ("lzero.cli.main", "cli.serialize"),
    ("lzero.cli._cmd_prop1", "cli.handler"),
    ("lzero.cli._cmd_congruence", "cli.handler"),
    ("lzero.cli._cmd_deligne_ribet", "cli.handler"),
    ("lzero.scans.nonintegral_locus_scan", "scans.checks"),
    ("lzero.scans._check_count_law", "scans.checks"),
    ("lzero.scans.integrality_verdict", "scans.checks"),
    ("lzero.scans.residue_congruence_scan", "scans.checks"),
    ("lzero.scans._truncated_residue", "scans.checks"),
    ("lzero.scans.deligne_ribet_scan", "scans.checks"),
    ("lzero.scans.deligne_ribet_check", "scans.checks"),
    ("lzero.scans.root_of_unity_order", "scans.root_of_unity_order"),
    ("lzero.bernoulli.l_value_at_zero", "bernoulli.l_value"),
    ("lzero.bernoulli._b1_sum", "bernoulli.b1"),
    ("lzero.cache.B1Cache.attach", "cache.load"),
    ("lzero.cache.B1Cache.get", "cache.get"),
    ("lzero.cache.B1Cache.put", "cache.put"),
    ("lzero.cyclo.CycloElt.__mul__", "cyclo.mul"),
    ("lzero.padic.cyclo_valuation", "padic.ladder"),
    ("lzero.padic.build_tower", "padic.build_tower"),
    ("lzero.padic.residue_factor", "padic.residue_factor"),
    ("lzero.padic.embed_padic", "padic.embed"),
    ("lzero.padic.padic_valuation", "padic.valuation"),
    ("lzero.padic.padic_residue", "padic.residue"),
    ("lzero.padic.char_is_omega_power_mod_p", "padic.omega_test"),
)

# Hot kernels are counted, not timed: a span per call would dominate them.
COUNT_TARGETS = (
    ("lzero._kernels.tower_mul", "kernels.tower_mul.calls"),
    ("lzero._kernels.poly_mul_reduce", "kernels.poly_mul_reduce.calls"),
)

# lru_cache'd targets whose cache_info() gives (hits, misses) counters.
CACHE_INFO_TARGETS = (
    ("lzero.padic.build_tower", "padic.tower_hits", "padic.towers_built"),
)


class _Absent(Exception):
    pass


def _resolve(dotted: str):
    """Return (owner, attribute name, object) for a dotted name."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise _Absent(dotted)
        attr = parts[-1]
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            raise _Absent(dotted)
        return owner, attr, raw
    raise _Absent(dotted)


def _patch_everywhere(owner, attr, obj, wrapper) -> None:
    """Rebind every lzero name that holds obj to wrapper.

    On a class that means the attribute and its aliases in the class body
    (``__rmul__ = __mul__``).  On a module it means every ``lzero.*``
    module attribute bound to obj, and every entry of a dict held in one.
    """
    if isinstance(owner, type):
        for key, value in list(owner.__dict__.items()):
            if value is obj:
                setattr(owner, key, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lzero" or name.startswith("lzero.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is obj:
                namespace[key] = wrapper
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is obj:
                        value[k] = wrapper


class Tracer:
    """Spans and counters for one process; written out once at the end."""

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []   # [layer index, start, end, parent index]
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._count_cells: list[tuple[str, list]] = []
        self._cache_infos: list[tuple] = []

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def span_wrapper(self, fn, layer: str, hook=None):
        before, after = hook or (None, None)
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            rec = [layer_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        cell = [0]
        self._count_cells.append((name, cell))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, dotted: str, make) -> None:
        try:
            owner, attr, obj = _resolve(dotted)
        except _Absent:
            self.absent.append(dotted)
            return
        _patch_everywhere(owner, attr, obj, make(obj))

    def install(self) -> None:
        for dotted, name in COUNT_TARGETS:
            self._patch(dotted, lambda fn, n=name: self.count_wrapper(fn, n))
        for dotted, hit_name, miss_name in CACHE_INFO_TARGETS:
            try:
                obj = _resolve(dotted)[2]
            except _Absent:
                continue
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                self._cache_infos.append((obj, hit_name, miss_name, info.hits, info.misses))
        for dotted, layer in SPAN_TARGETS:
            hook = _HOOKS.get(dotted)
            self._patch(dotted, lambda fn, la=layer, h=hook:
                        self.span_wrapper(fn, la, h and h(self, fn)))

    def dump(self, path: str) -> None:
        for name, cell in self._count_cells:
            self.counters[name] = cell[0]
        for obj, hit_name, miss_name, hits0, misses0 in self._cache_infos:
            info = obj.cache_info()
            self.counters[hit_name] = info.hits - hits0
            self.counters[miss_name] = info.misses - misses0
        doc = {
            "layers": self.layers,
            "spans": self.spans,
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# counters read off a call's arguments or result.  Each hook factory gets
# the tracer and the original function and returns (before, after):
# before(args, kwargs) -> state, after(state, args, kwargs, result).


def _ladder_hook(tracer, fn):
    """padic.escalations: each escalation doubles N from the starting rung."""
    sig = inspect.signature(fn)

    def after(state, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            start = bound.arguments["n_start"]
            reached = result[1].precision
        except (KeyError, TypeError, AttributeError, IndexError):
            return
        tracer.bump("padic.escalations", max(0, (reached // start).bit_length() - 1))

    return None, after


def _get_hook(tracer, fn):
    def after(state, args, kwargs, result):
        tracer.bump("cache.misses" if result is None else "cache.hits")

    return None, after


def _entries(cache) -> int:
    """Entries a B1Cache holds (its private ``_mem`` dict; 0 if that is gone)."""
    return len(getattr(cache, "_mem", ()))


def _attach_hook(tracer, fn):
    """cache.loaded: entries held after binding to a directory."""
    def after(state, args, kwargs, result):
        tracer.bump("cache.loaded", _entries(args[0]) - state)

    return (lambda args, kwargs: _entries(args[0])), after


def _put_hook(tracer, fn):
    """cache.writes: puts that stored a key the cache did not hold yet."""
    def after(state, args, kwargs, result):
        tracer.bump("cache.writes", _entries(args[0]) - state)

    return (lambda args, kwargs: _entries(args[0])), after


_HOOKS = {
    "lzero.padic.cyclo_valuation": _ladder_hook,
    "lzero.cache.B1Cache.get": _get_hook,
    "lzero.cache.B1Cache.attach": _attach_hook,
    "lzero.cache.B1Cache.put": _put_hook,
}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- LZERO-ARGS...", file=sys.stderr)
        return 2
    out_path, lzero_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import lzero.cli

    code = 1
    try:
        code = lzero.cli.main(lzero_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
