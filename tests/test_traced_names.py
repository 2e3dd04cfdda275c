"""The benchmark's tracer names library functions as strings; each must exist.

``bench/tracer.py`` rebinds every ``(module, attribute)`` of its ``TRACED``
list at install time and raises on a missing one, so a renamed or removed
function would otherwise only show up in a full benchmark run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TRACED
    for module_name, attr, _hot, _observer in tracer.TRACED:
        owner = importlib.import_module(f"gridperc.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"gridperc.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"gridperc.{module_name}.{attr}"
