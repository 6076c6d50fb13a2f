"""The benchmark tracer rebinds module-level names inside the package; a
binding dropped by a refactor would only surface as an AttributeError when the
benchmark runs with tracing on. Check every binding it names here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(short):
    return importlib.import_module(f"geosampler.{short}")


tracer = _tracer()


@pytest.mark.parametrize("span", sorted(tracer.WRAPPED))
def test_wrapped_binding_resolves_to_the_defining_function(span):
    defining, name = span.split(".")
    func = getattr(_module(defining), name)
    for caller in tracer.WRAPPED[span]:
        assert getattr(_module(caller), name, None) is func, f"geosampler.{caller}.{name}"


@pytest.mark.parametrize("counter", sorted(tracer.COUNTED))
def test_counted_binding_resolves(counter):
    module, name = tracer.COUNTED[counter]
    assert callable(getattr(_module(module), name, None)), f"geosampler.{module}.{name}"
