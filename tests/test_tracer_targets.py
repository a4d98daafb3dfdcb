"""Every function the benchmark tracer wraps still exists under the name
its target table gives. A rename or an inlined function would otherwise
surface only when a benchmark runs with tracing on."""

import importlib.util
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,qualname,span", tracer.TARGETS, ids=[t[2] for t in tracer.TARGETS])
def test_target_resolves(module, qualname, span):
    fn = tracer.original_function(module, qualname)
    assert isinstance(fn, types.FunctionType), span
    assert fn.__module__ == module and fn.__qualname__ == qualname, (span, fn)
