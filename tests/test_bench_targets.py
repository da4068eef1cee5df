"""Every function the benchmark tracer wraps still exists where it looks,
and the ones a workload's layers read are still called.

perfbench/tracer.py reports a target it cannot resolve as absent instead of
failing, so a function that moves or is renamed would silently drop out of
the per-layer metrics; a target that resolves but is no longer called reads
0 just as silently.  These tests load the tracer by path, resolve each of
its targets against this checkout, and count the calls of some of them in
one CLI run.
"""

import importlib.util
import inspect
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lzero import cli, galois_orbits, set_cache_dir

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
_TARGETS = [target[0] for target in (*tracer.SPAN_TARGETS, *tracer.COUNT_TARGETS,
                                      *tracer.CACHE_INFO_TARGETS)]


@pytest.mark.parametrize("dotted", _TARGETS)
def test_tracer_target_resolves(dotted):
    _owner, _attr, obj = tracer._resolve(dotted)
    assert callable(obj)


@pytest.mark.parametrize("dotted", [target[0] for target in tracer.CACHE_INFO_TARGETS])
def test_cache_info_target_is_lru_cached(dotted):
    assert hasattr(tracer._resolve(dotted)[2], "cache_info")


def test_ladder_hook_finds_n_start():
    """padic.escalations is read off cyclo_valuation's n_start argument."""
    fn = tracer._resolve("lzero.padic.cyclo_valuation")[2]
    assert "n_start" in inspect.signature(fn).parameters


def _install_counter(monkeypatch, dotted):
    """Count the calls of a tracer target, rebound wherever an lzero module
    holds it, as the tracer patches it; monkeypatch undoes it."""
    _owner, _attr, obj = tracer._resolve(dotted)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return obj(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lzero" or name.startswith("lzero.")):
            for key, value in list(vars(mod).items()):
                if value is obj:
                    monkeypatch.setattr(mod, key, counting)
    return calls


def test_deligne_ribet_reaches_its_tracer_targets(monkeypatch):
    """The global workload's layers: one root-of-unity order and one L-value
    per Galois orbit, and some bucket sums."""
    monkeypatch.delenv("LZERO_CACHE_DIR", raising=False)
    targets = ("lzero.scans.root_of_unity_order", "lzero.bernoulli.l_value_at_zero",
               "lzero.bernoulli._b1_sum")
    calls = {dotted: _install_counter(monkeypatch, dotted) for dotted in targets}
    set_cache_dir(None)  # an empty cache, so the sums are taken here
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["deligne-ribet", "--fmax", "30"]) == 0
    finally:
        set_cache_dir(None)
    reps = [orbit[0][1] for orbit in galois_orbits(30)]
    assert [args[0] for args in calls["lzero.scans.root_of_unity_order"]] == reps
    assert [args[0] for args in calls["lzero.bernoulli.l_value_at_zero"]] == reps
    assert len(calls["lzero.bernoulli._b1_sum"]) >= 1
