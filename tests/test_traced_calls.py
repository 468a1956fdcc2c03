"""The functions the benchmark traces on the family path are still called.

`bench/tracer.py` wraps functions by name, and `test_tracer_names.py`
checks that each name resolves.  A name can resolve and still read 0 when
the code stops calling it, so here each function on the path of a
family check is wrapped the way the tracer wraps it (every reference in a
`trigvee` module, or the class attribute of a method) and its calls are
counted over the family verdicts of B2, Prop4 and Prop5.
"""

import functools
import sys

import pytest

from trigvee import constraints
from trigvee.multipoly import MultiPoly, RatFunc

from corpus import B2_SYMBOLS, B2_VECTORS, PROP4_VECTORS, PROP5_SYMBOLS, PROP5_VECTORS


def family_cases():
    """The B2, Prop4 and Prop5 families and a wrong relation for each:
    (vectors, symbols, parametrization, expected verdict)."""
    cases = []
    t = RatFunc.variable(("cm", "cp", "t"), "t")
    cases += [(B2_VECTORS, B2_SYMBOLS, {"c1": t, "c2": t}, True)]
    cases += [(B2_VECTORS, B2_SYMBOLS, {"c1": 3, "c2": 7}, False)]

    pv = ("c1", "c2", "u")
    c1, c2, u = (RatFunc.variable(pv, v) for v in pv)
    good = {"m1": c1, "m2": u * (c1 - c2) / (2 * c2), "m3": c2, "m4": u, "m5": u}
    prop4_symbols = ("m1", "m2", "m3", "m4", "m5")
    cases += [(PROP4_VECTORS, prop4_symbols, good, True)]
    cases += [(PROP4_VECTORS, prop4_symbols, dict(good, m2=u * (c1 - c2) / c2), False)]

    pv = ("s", "t")
    s, t = (RatFunc.variable(pv, v) for v in pv)
    good = {
        "c1": t * (3 * t - 2 * s) / (3 * t + 4 * s),
        "c2": 3 * t + 2 * s,
        "ct2": s,
        "ap": 3 * t,
        "am": 3 * t,
        "bp": t,
        "bm": t,
    }
    cases += [(PROP5_VECTORS, PROP5_SYMBOLS, good, True)]
    cases += [(PROP5_VECTORS, PROP5_SYMBOLS, dict(good, c1=t), False)]
    return cases


def count_calls(monkeypatch, counts, name, owner, attr):
    """Wrap owner.attr to count its calls: a method on its class, a function
    wherever a `trigvee` module refers to it."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, wrapper)
        return
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module_name == "trigvee" or module_name.startswith("trigvee."):
            for key, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, key, wrapper)


@pytest.fixture
def counts(monkeypatch):
    counts = dict.fromkeys(("substitute", "series_constraints", "verify_family"), 0)
    count_calls(monkeypatch, counts, "substitute", MultiPoly, "substitute")
    count_calls(monkeypatch, counts, "series_constraints", constraints, "series_constraints")
    count_calls(monkeypatch, counts, "verify_family", constraints, "verify_family")
    return counts


def test_family_run_calls_every_traced_function(counts):
    cases = family_cases()
    verdicts = [
        constraints.verify_family(vectors, par, symbols=symbols).passed
        for vectors, symbols, par, _expected in cases
    ]
    assert verdicts == [expected for *_case, expected in cases]
    assert all(counts.values()), counts
