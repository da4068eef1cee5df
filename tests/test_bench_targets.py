"""Every function the benchmark tracer wraps still exists where it looks.

perfbench/tracer.py reports a target it cannot resolve as absent instead of
failing, so a function that moves or is renamed would silently drop out of
the per-layer metrics.  These tests load the tracer by path and resolve each
of its targets against this checkout.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

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
