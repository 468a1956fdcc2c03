"""Substitution on integers against the frozen Fraction expansions.

`MultiPoly.substitute` clears the coefficients and the images to integers
once and makes one Fraction per output term; it must give the result of
`reference_substitute` term for term, in insertion order.  `verify_family`
merges the symbols with equal images on integers; its residual numerators
must be those of `reference_merged_substitution`, a fixed copy of the
Fraction merge it replaced, term for term and in order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigvee.constraints import series_constraints, verify_family
from trigvee.errors import DegenerateParametrization
from trigvee.multipoly import MultiPoly, RatFunc

from corpus import PROP4_VECTORS, ROOT_SYSTEMS, fractions, nonzero_fractions, polys
from test_exact_reference import items, reference_substitute

PARAMS = ("s", "t")
B2, B3 = ROOT_SYSTEMS["B2"], ROOT_SYSTEMS["B3"]


def reference_merged_substitution(symbols, images):
    """The numerator of `poly.substitute(images)` with the symbols of equal
    images merged, the merge summed in Fractions."""
    groups = {}
    for k, sym in enumerate(symbols):
        groups.setdefault((images[sym].num, images[sym].den), []).append(k)
    members = list(groups.values())
    group_of = [0] * len(symbols)
    for g, ks in enumerate(members):
        for k in ks:
            group_of[k] = g
    names = tuple(symbols[ks[0]] for ks in members)
    merged_images = {name: images[name] for name in names}
    one = MultiPoly.const(merged_images[names[0]].vars, 1)

    def substitute(poly):
        terms = {}
        for expo, coef in poly.terms.items():
            key = [0] * len(members)
            for k, e in enumerate(expo):
                key[group_of[k]] += e
            key = tuple(key)
            terms[key] = terms.get(key, 0) + coef
        merged = MultiPoly(names, terms)
        if merged.is_zero():
            return MultiPoly.zero(one.vars)
        numerator = reference_substitute(merged, merged_images).num
        degrees = [max(col) for col in zip(*poly.terms)]
        merged_degrees = [max(col) for col in zip(*merged.terms)]
        for ks, name, top in zip(members, names, merged_degrees):
            den = merged_images[name].den
            extra = sum(degrees[k] for k in ks) - top
            if extra and den != one:
                numerator = numerator * den**extra
        return numerator

    return substitute


# -- strategies ---------------------------------------------------------

@st.composite
def ratfuncs(draw, nonzero=False):
    """A constant, a polynomial or a quotient over PARAMS; the denominator is
    1, a constant other than 1, or a polynomial."""
    kind = draw(st.sampled_from(("constant", "poly", "quotient")))
    if kind == "constant":
        value = draw(nonzero_fractions if nonzero else fractions)
        num = MultiPoly.const(PARAMS, value)
    else:
        num = draw(polys(PARAMS, 3, top=2))
    den = MultiPoly.const(PARAMS, 1)
    if kind == "quotient":
        constants = nonzero_fractions.map(lambda c: MultiPoly.const(PARAMS, c))
        den = draw(st.one_of(constants, polys(PARAMS, 2, top=2)))
    return RatFunc(num, den)


@st.composite
def image_maps(draw, symbols, nonzero=False):
    """One image per symbol, drawn from a pool smaller than the symbols so
    that images repeat."""
    pool = draw(st.lists(ratfuncs(nonzero), min_size=1, max_size=max(1, len(symbols) - 1)))
    return {s: draw(st.sampled_from(pool)) for s in symbols}


@st.composite
def substitutions(draw):
    variables = tuple(f"c{k}" for k in range(draw(st.integers(1, 4))))
    return draw(polys(variables, 8)), draw(image_maps(variables))


# -- MultiPoly.substitute -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_matches_frozen_expansion(case):
    poly, images = case
    got, ref = poly.substitute(images), reference_substitute(poly, images)
    assert items(got.num) == items(ref.num)
    assert items(got.den) == items(ref.den)


def test_substitute_on_constant_repeated_and_fractional_images():
    s, t = (RatFunc.variable(PARAMS, v) for v in PARAMS)
    terms = {(2, 1, 0): Fraction(-3, 4), (0, 1, 2): Fraction(5, 6), (1, 0, 0): 7}
    poly = MultiPoly(("a", "b", "c"), terms)
    third = RatFunc(MultiPoly.const(PARAMS, 1), MultiPoly.const(PARAMS, Fraction(1, 3)))
    shared = (s + Fraction(1, 2)) / (3 * t - Fraction(2, 5))
    cases = [
        {"a": shared, "b": shared, "c": shared},
        {"a": RatFunc.constant(PARAMS, Fraction(-2, 3)), "b": shared, "c": s / 4},
        {"a": RatFunc.constant(PARAMS, 0), "b": t, "c": third},
    ]
    for images in cases:
        got, ref = poly.substitute(images), reference_substitute(poly, images)
        assert items(got.num) == items(ref.num) and items(got.den) == items(ref.den)


# -- verify_family's merged substitution --------------------------------


def assert_residuals_match_frozen(vectors, symbols, images):
    """`images` maps every symbol to a RatFunc over PARAMS, so that they are
    the images `verify_family` substitutes."""
    cs = series_constraints(vectors, symbols)
    substitute = reference_merged_substitution(cs.symbols, images)
    if substitute(cs.nondegeneracy).is_zero():
        with pytest.raises(DegenerateParametrization):
            verify_family(vectors, images, symbols)
        return None
    expected = [(c, substitute(c.poly)) for c in cs.polynomials]
    expected = [(c, r) for c, r in expected if not r.is_zero()]
    verdict = verify_family(vectors, images, symbols)
    assert verdict.failing == tuple(c for c, _r in expected)
    assert [items(r) for r in verdict.residual_numerators] == [items(r) for _c, r in expected]
    return verdict


def test_family_residuals_match_frozen_merge():
    s, t = (RatFunc.variable(PARAMS, v) for v in PARAMS)
    one = RatFunc.constant(PARAMS, 1)
    b2 = ("c1", "c2", "cp", "cm")
    prop4 = ("m1", "m2", "m3", "m4", "m5")
    b3 = tuple(f"c{k}" for k in range(1, 10))
    shared = t / (t + 1)
    failing = 0
    for vectors, symbols, images in [
        (B2, b2, {"c1": t, "c2": t, "cp": s, "cm": s}),
        (B2, b2, {"c1": 1 / (t + 1), "c2": 2 / (t + 1), "cp": t, "cm": s}),
        (B2, b2, {"c1": shared, "c2": shared, "cp": shared, "cm": 3 * one}),
        (PROP4_VECTORS, prop4, {"m1": s, "m2": t * (s - 1) / (2 * s), "m3": one, "m4": t, "m5": t}),
        (PROP4_VECTORS, prop4, {"m1": s, "m2": t * (s - 1) / s, "m3": one, "m4": t, "m5": t}),
        (B3, b3, dict(dict.fromkeys(b3, one), c3=2 * one, c4=shared, c6=shared)),
        (B3, b3, dict(dict.fromkeys(b3, s / (s + t)), c1=t, c2=t, c3=t)),
    ]:
        verdict = assert_residuals_match_frozen(vectors, symbols, images)
        failing += verdict is not None and not verdict.passed
    assert failing >= 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_residuals_match_frozen_merge_on_drawn_images(data):
    cases = [(B2, ("c1", "c2", "cp", "cm")), (PROP4_VECTORS, ("m1", "m2", "m3", "m4", "m5"))]
    vectors, symbols = data.draw(st.sampled_from(cases))
    assert_residuals_match_frozen(vectors, symbols, data.draw(image_maps(symbols, nonzero=True)))
