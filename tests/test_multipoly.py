"""Sparse polynomial arithmetic, rational functions, expression parsing."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigvee.errors import ParseError
from trigvee.multipoly import MultiPoly, RatFunc, expression_variables, parse_expression

from test_exact_reference import items

F = Fraction
VARS = ("a", "b", "c")


def var(name):
    return MultiPoly.variable(VARS, name)


def test_arithmetic_and_normalization():
    a, b = var("a"), var("b")
    p = (a + b) * (a - b)
    q = a * a - b * b
    assert p == q
    assert (p - q).is_zero()
    assert not p.is_zero()
    # zero coefficients are never stored
    assert all(coef != 0 for coef in p.terms.values())


def test_power_and_degree():
    a, b = var("a"), var("b")
    p = (a + 2 * b) ** 3
    # the total degrees of the terms: homogeneous of degree 3, then not
    assert {sum(e) for e in p.terms} == {3}
    assert max(e[p.vars.index("b")] for e in p.terms) == 3
    assert {sum(e) for e in (p + 1).terms} == {0, 3}


def reference_mul(p, q):
    """The Fraction product loop that `MultiPoly.__mul__` replaced, kept as the reference."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
    return MultiPoly(p.vars, terms)


PQ = ("s", "t")
coefficients = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
polys = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6),
    st.dictionaries(st.just((0, 0)), coefficients, max_size=1),  # constants, 0 among them
).map(lambda t: MultiPoly(PQ, t))


def mirrored(p):
    """p(-s, t): its product with p is even in s, so the odd terms cancel."""
    return MultiPoly(PQ, {e: -c if e[0] % 2 else c for e, c in p.terms.items()})


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(polys, polys), polys.map(lambda p: (p, mirrored(p)))))
def test_product_matches_fraction_loop(pair):
    p, q = pair
    assert items(p * q) == items(reference_mul(p, q))


def test_product_cancellation_constants_and_zero():
    a, b = var("a"), var("b")
    half = MultiPoly.const(VARS, F(1, 2))
    cases = [(a + b, a - b), (half, a * b - F(2, 3)), (MultiPoly.zero(VARS), a), (a, half - half)]
    for p, q in cases:
        assert items(p * q) == items(reference_mul(p, q))
    assert list(((a + b) * (a - b)).terms) == [(2, 0, 0), (0, 2, 0)]


def test_evaluate_exact():
    a, b, c = var("a"), var("b"), var("c")
    p = 3 * a * b - c ** 2 + F(1, 2)
    value = p.evaluate({"a": F(1, 3), "b": F(3), "c": F(1, 2)})
    assert value == 3 * F(1, 3) * 3 - F(1, 4) + F(1, 2)


def test_string_form_graded_lex():
    a, b = var("a"), var("b")
    assert str(a * a + b - 1) == "a^2 + b - 1"
    assert str(MultiPoly.zero(VARS)) == "0"


def test_substitute_rational_functions():
    # p(a, b) = a*b - 1 under a = t/s, b = s/t vanishes identically
    p = var("a") * var("b") - 1
    pv = ("s", "t")
    t = RatFunc.variable(pv, "t")
    s = RatFunc.variable(pv, "s")
    image = p.substitute({"a": t / s, "b": s / t, "c": RatFunc.constant(pv, 1)})
    assert image.is_zero()
    q = var("a") + var("b")
    image2 = q.substitute({"a": t / s, "b": s / t, "c": RatFunc.constant(pv, 1)})
    assert not image2.is_zero()


def test_ratfunc_zero_denominator_rejected():
    pv = ("t",)
    with pytest.raises(ZeroDivisionError):
        RatFunc(MultiPoly.const(pv, 1), MultiPoly.zero(pv))
    with pytest.raises(ZeroDivisionError):
        RatFunc.constant(pv, 1) / RatFunc.constant(pv, 0)


class TestExpressionParser:
    def test_basic(self):
        f = parse_expression("t*(3*t - 2*s)/(3*t + 4*s)", ("s", "t"))
        num = f.num.evaluate({"s": F(1), "t": F(1)})
        den = f.den.evaluate({"s": F(1), "t": F(1)})
        assert num / den == F(1, 7)

    def test_powers_and_unary(self):
        f = parse_expression("-t^2 + 4", ("t",))
        assert f.num.evaluate({"t": F(3)}) / f.den.evaluate({"t": F(3)}) == -5

    def test_variables_discovery(self):
        assert expression_variables("3*t + u/(v - 1)") == {"t", "u", "v"}

    def test_power_size_bound(self):
        # at most 10000 bits: 2 bits per factor 2 or (1 + t), 1 per factor t
        assert parse_expression("2^5000", ("t",)).num.evaluate({"t": 0}) == 2**5000
        assert max(e[0] for e in parse_expression("t^10000", ("t",)).num.terms) == 10000
        for expr in ("2^5001", "(1 + t)^5001", "2^99999999"):
            with pytest.raises(ParseError, match="power too large"):
                parse_expression(expr, ("t",))

    def test_power_term_bound(self):
        # a t-term base to the k-th power: at most C(k+t-1, t-1) terms, 500 allowed
        assert len(parse_expression("(1 + s + t)^30", ("s", "t")).num.terms) == 496
        for expr in ("(1 + s + t)^31", "(1 + t)^500", "1/(s + t)^500", "(1 + s + t)^100"):
            start = time.process_time()
            with pytest.raises(ParseError, match=r"^power too large \(over 500 terms\)$"):
                parse_expression(expr, ("s", "t"))
            assert time.process_time() - start < 0.1

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_expression("t +", ("t",))
        with pytest.raises(ParseError):
            parse_expression("q + 1", ("t",))
        with pytest.raises(ParseError):
            parse_expression("t ^ s", ("s", "t"))
