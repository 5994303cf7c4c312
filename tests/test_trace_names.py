"""Every name the benchmark's tracer reports must exist in the package.

``perfbench/tracing.py`` wraps package functions by (module, name) and
methods by (module, class, method).  A name that a refactor drops or
renames is not an error there: its metrics just read 0.  These tests load
the tracer by path and resolve each of its names, so such a refactor fails
here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _layer(name):
    assert name in tracing.LAYERS, f"{name} is not a traced layer"
    return importlib.import_module(f"cremona_kit.{name}")


def _method(layer, cls_name, meth):
    raw = vars(getattr(_layer(layer), cls_name)).get(meth)
    return getattr(raw, "__func__", raw)


@pytest.mark.parametrize("layer, name", sorted(set(tracing.REPORTED) | set(tracing._HOOKS)))
def test_reported_name_resolves(layer, name):
    if "." in name:
        cls_name, meth = name.split(".")
        assert (layer, cls_name, meth) in tracing.METHODS, f"{name} is reported but not traced"
        assert inspect.isfunction(_method(layer, cls_name, meth)), f"{layer}.{name} is gone"
    else:
        module = _layer(layer)
        fn = vars(module).get(name)
        assert inspect.isfunction(fn), f"{layer}.{name} is gone"
        # The tracer wraps only functions defined in the module it names,
        # and private ones only where another layer imports them.
        assert fn.__module__ == module.__name__
        others = [_layer(n) for n in tracing.LAYERS if n != layer]
        assert not name.startswith("_") or any(vars(m).get(name) is fn for m in others)


@pytest.mark.parametrize("layer, cls_name, meth", tracing.METHODS)
def test_traced_method_resolves(layer, cls_name, meth):
    assert inspect.isfunction(_method(layer, cls_name, meth)), f"{layer}.{cls_name}.{meth} is gone"
