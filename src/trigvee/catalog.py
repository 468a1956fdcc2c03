"""Built-in named configurations with exact expected results.

Expected couplings carry an origin note: "closed-form" values come from the
dedicated formulas for the three-, four- and five-covector planar families
(evaluated in exact arithmetic, independently of the tensor solve), while
"exact-search" values were found by the multiplicity search tool and then
certified by the exact series check and coupling solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .configuration import VConfiguration, build_configuration
from .errors import InvalidParams, UnknownName
from .exactnum import as_rational


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    cfg: VConfiguration
    params: dict[str, Fraction]
    expected_trig_vee: bool | None
    expected_lambda2: Fraction | None
    expected_lambda_status: str | None  # 'solved' / 'no_solution' / 'any_lambda'
    origin: str | None


# A builder maps the merged, nonzero parameters to (entries, expected): the
# `build_configuration` entries and the expected (trig_vee, lambda2, lambda
# status, origin), which `catalog_get` drops when the form is degenerate.


def _a_roots(n: int) -> list[tuple[int, ...]]:
    # positive covectors as consecutive sums in simple coordinates
    return [
        tuple(1 if i <= k <= j else 0 for k in range(n))
        for i in range(n)
        for j in range(i, n)
    ]


def _b_roots(n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    short = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    long_ = [
        tuple((1 if k == i else (sgn if k == j else 0)) for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        for sgn in (1, -1)
    ]
    return short, long_


def _a2(p):
    ca, cb, cc = p["ca"], p["cb"], p["cc"]
    lam2 = 4 * (ca * cb + ca * cc + cb * cc) ** 2 / (ca * cb * cc)
    entries = [((1, 0), ca, "a"), ((0, 1), cb, "b"), ((1, 1), cc, "a+b")]
    return entries, (True, lam2, "solved", "closed-form")


def _b2(p):
    c1, c2, cp, cm = p["c1"], p["c2"], p["cp"], p["cm"]
    entries = [
        ((1, 0), c1, "e1"), ((0, 1), c2, "e2"), ((1, 1), cp, "e1+e2"), ((1, -1), cm, "e1-e2")
    ]
    if c1 != c2:
        return entries, (False, None, None, "closed-form")
    denom = c1 * (4 * cp * cm + c1 * (cp + cm))
    if denom == 0:
        return entries, (True, None, None, "closed-form")
    lam2 = 4 * ((c1 + 2 * cp) * (c1 + 2 * cm)) ** 2 / denom
    return entries, (True, lam2, "solved", "closed-form")


def _prop4(p):
    c1, ct1, c2, cp, cm = p["c1"], p["ct1"], p["c2"], p["cp"], p["cm"]
    if cp != cm:
        raise InvalidParams("Prop4: requires cp = cm")
    if 2 * ct1 * c2 != cp * (c1 - c2):
        raise InvalidParams("Prop4: requires 2*ct1*c2 = cp*(c1 - c2)")
    entries = [
        ((1, 0), c1, "e1"),
        ((2, 0), ct1, "2e1"),
        ((0, 1), c2, "e2"),
        ((1, 1), cp, "e1+e2"),
        ((1, -1), cm, "e1-e2"),
    ]
    denom = (c2 + 2 * cp) * (c1 + 4 * ct1) * cp
    if denom == 0:
        return entries, (True, None, None, "closed-form")
    lam2 = 2 * ((c1 + 4 * ct1 + 2 * cp) * (c2 + 2 * cp)) ** 2 / denom
    return entries, (True, lam2, "solved", "closed-form")


def _prop5(p):
    t, s = p["t"], p["s"]
    if 3 * t + 4 * s == 0:
        raise InvalidParams("Prop5: the denominator 3t + 4s vanishes")
    c1 = t * (3 * t - 2 * s) / (3 * t + 4 * s)
    c2 = 3 * t + 2 * s
    for label, val in (("c2", c2), ("c1", c1)):
        if val == 0:
            raise InvalidParams(f"Prop5: parameters make multiplicity {label} vanish")
    half = Fraction(1, 2)
    entries = [
        ((1, 0), c1, "e1"),
        ((0, 1), c2, "e2"),
        ((0, 2), s, "2e2"),
        ((half, half), 3 * t, "(e1+e2)/2"),
        ((half, -half), 3 * t, "(e1-e2)/2"),
        ((half, 3 * half), t, "(e1+3e2)/2"),
        ((half, -3 * half), t, "(e1-3e2)/2"),
    ]
    return entries, (True, None, "solved", "closed-form")


_G2_VECTORS = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
_G2_SHORT = (0, 2, 3)  # (1,0), (1,1), (2,1)


def _g2_entries(p):
    return [
        (v, p["cs"] if i in _G2_SHORT else p["cl"], f"g{i}") for i, v in enumerate(_G2_VECTORS)
    ]


def _g2(p):
    return _g2_entries(p), (True, None, "solved", "construction")


def _g2_times_scaled_a2(p):
    # G2 plus the doubled short covectors; exact search found the family
    # short = 3 * long with the doubled multiplicity free
    if p["cs"] != 3 * p["cl"]:
        raise InvalidParams("G2timesScaledA2: requires cs = 3*cl")
    doubled = [
        ((2 * _G2_VECTORS[i][0], 2 * _G2_VECTORS[i][1]), p["cd"], f"2g{i}") for i in _G2_SHORT
    ]
    lam2 = Fraction(900, 7) if p == {"cs": 3, "cl": 1, "cd": 1} else None
    return _g2_entries(p) + doubled, (True, lam2, "solved", "exact-search")


_TEN_VECTORS = [
    (1, 0),
    (2, 0),
    (0, 1),
    (0, 2),
    (1, 1),
    (1, -1),
    (1, 2),
    (1, -2),
    (2, 1),
    (2, -1),
]
# certified by the exact series check after the multiplicity search
_TEN_MULTS = [12, 3, 12, 3, 8, 8, 2, 2, 2, 2]


def _ten_vector(p):
    t = p["scale"]
    entries = [(v, t * m, f"t{i}") for i, (v, m) in enumerate(zip(_TEN_VECTORS, _TEN_MULTS))]
    return entries, (True, 450 * t, "solved", "exact-search")


def _orthogonal_pair(p):
    entries = [((1, 0), p["c1"], "e1"), ((0, 1), p["c2"], "e2")]
    return entries, (True, None, "no_solution", "construction")


def _a_n(n: int):
    def builder(p):
        status = "any_lambda" if n == 1 else "solved"
        return [(r, p["c"]) for r in _a_roots(n)], (True, None, status, "construction")

    return builder


def _b_n(n: int):
    def builder(p):
        short, long_ = _b_roots(n)
        entries = [(r, p["cs"]) for r in short] + [(r, p["cl"]) for r in long_]
        return entries, (True, None, "solved", "construction")

    return builder


_CATALOG = [
    ("A2", "three covectors a, b, a+b in the plane", {"ca": 1, "cb": 1, "cc": 1}, _a2),
    (
        "B2",
        "covectors e1, e2, e1+-e2; a vee-system iff c1 = c2",
        {"c1": 1, "c2": 1, "cp": 1, "cm": 1},
        _b2,
    ),
    (
        "Prop4",
        "five covectors e1, 2e1, e2, e1+-e2 with the coupling relations",
        {"c1": 3, "ct1": 1, "c2": 1, "cp": 1, "cm": 1},
        _prop4,
    ),
    (
        "Prop5",
        "seven covectors e1, e2, 2e2, (e1+-e2)/2, (e1+-3e2)/2, parametrized by (t, s)",
        {"t": 1, "s": 1},
        _prop5,
    ),
    ("G2", "the six positive covectors of the G2 root system", {"cs": 1, "cl": 1}, _g2),
    (
        "G2timesScaledA2",
        "G2 together with its doubled short covectors; multiplicities from exact search",
        {"cs": 3, "cl": 1, "cd": 1},
        _g2_times_scaled_a2,
    ),
    (
        "TenVector",
        "ten covectors e1, 2e1, e2, 2e2, e1+-e2, e1+-2e2, 2e1+-e2; multiplicities from exact search",
        {"scale": 1},
        _ten_vector,
    ),
    (
        "OrthogonalPair",
        "two orthogonal covectors; vee-system with no coupling",
        {"c1": 1, "c2": 1},
        _orthogonal_pair,
    ),
    ("A1", "a single covector on the line", {"c": 1}, _a_n(1)),
    ("A3", "positive root covectors of A3 in simple coordinates", {"c": 1}, _a_n(3)),
    ("A4", "positive root covectors of A4 in simple coordinates", {"c": 1}, _a_n(4)),
    ("B3", "positive root covectors of B3 with orbit multiplicities", {"cs": 1, "cl": 1}, _b_n(3)),
    ("B4", "positive root covectors of B4 with orbit multiplicities", {"cs": 1, "cl": 1}, _b_n(4)),
]

_ENTRIES = {name: rest for name, *rest in _CATALOG}


def catalog_list() -> list[tuple[str, str]]:
    """Stable (name, description) listing of all built-in configurations."""
    return [(name, desc) for name, desc, _, _ in _CATALOG]


def catalog_get(name: str, params: Mapping[str, object] | None = None) -> CatalogEntry:
    """The entry `name` at its defaults overridden by `params`; every
    parameter must be nonzero, and a degenerate form carries no expectation."""
    if name not in _ENTRIES:
        raise UnknownName(f"no catalog entry named {name!r}")
    desc, defaults, builder = _ENTRIES[name]
    p = {key: Fraction(val) for key, val in defaults.items()}
    for key, val in (params or {}).items():
        if key not in defaults:
            raise InvalidParams(f"{name}: unknown parameter {key!r}")
        p[key] = as_rational(val)
    for key, val in p.items():
        if val == 0:
            raise InvalidParams(f"{name}: parameter {key} must be nonzero")
    entries, expected = builder(p)
    cfg = build_configuration(len(entries[0][0]), entries)
    if cfg.gram_det == 0:
        expected = (None, None, None, None)
    return CatalogEntry(name, desc, cfg, p, *expected)
