"""The benchmark tracer rebinds module-level names inside the package; a
binding dropped by a refactor would only surface as an AttributeError when the
benchmark runs with tracing on. Check every binding it names here instead."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _unused_imports():
    """(module, bound name) of every import in the package marked ``# noqa: F401``."""
    found = []
    for path in sorted((ROOT / "src" / "geosampler").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        found.append((path.stem, alias.asname or alias.name))
    return found


def test_every_unused_import_is_a_tracer_binding():
    # an import kept only so that the tracer can rebind it is marked unused;
    # any other marked import is dead code
    rebound = {(caller, span.split(".")[1])
               for span, callers in tracer.WRAPPED.items() for caller in callers}
    rebound |= set(tracer.COUNTED.values())
    unused = _unused_imports()
    assert unused
    assert [b for b in unused if b not in rebound] == []
