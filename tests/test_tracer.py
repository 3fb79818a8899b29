"""The per-layer trace table of ``bench/tracer.py`` names live funwill objects.

``Tracer.install`` looks every traced name up on its layer module and, for
a class, wraps the ``__post_init__`` in the class's own ``__dict__``.  A
deleted name or an inherited ``__post_init__`` would break
``bench/run.py --trace``, so this test guards the table against both.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(layer, name) for layer, names in _load_tracer().TRACED.items() for name in names]


def test_the_table_traces_33_names():
    assert len(TRACED) == 33


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_name_resolves_on_its_layer(layer, name):
    target = getattr(importlib.import_module(f"funwill.{layer}"), name)
    if isinstance(target, type):
        assert "__post_init__" in vars(target)
    else:
        assert callable(target)
