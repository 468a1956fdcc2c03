"""Every function the benchmark's tracer patches by name still exists.

`bench/tracer.py` lists (metric, module, attribute path) triples in SPANS,
LEAVES and COUNTERS and looks each one up in `trigvee.<module>` when a
traced run starts; a renamed or removed function would make that run fail.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS + tracer.LEAVES + tracer.COUNTERS


@pytest.mark.parametrize("name, module, path", traced_names())
def test_traced_name_resolves(name, module, path):
    mod = importlib.import_module(f"trigvee.{module}")
    target = functools.reduce(getattr, path.split("."), mod)
    assert callable(target), name
