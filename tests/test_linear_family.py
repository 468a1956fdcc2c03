"""Exact multiplicity families at a fixed form, and the search's exact stage.

`linear_family(vectors, N)` is compared with sympy's nullspace of the same
linear system, written here from the series split and sympy's own N^-1.
Random members are checked with the exact series check, and the searches that
the exact stage now answers are checked to certify without any float work.
One vee-system with no member at either form checks that the search still
reaches the descent.
"""

import random
from fractions import Fraction

import pytest
import sympy

import trigvee.constraints as constraints
from trigvee.catalog import catalog_get, catalog_list
from trigvee.configuration import build_configuration, relative_wedge_signs
from trigvee.constraints import find_multiplicities, linear_family
from trigvee.errors import (
    DegenerateForm,
    DimensionMismatch,
    InvalidParams,
    SingularMatrix,
    SpanDeficient,
)
from trigvee.exactnum import RatMatrix
from trigvee.veecheck import check_series_condition


def a_roots(n):
    return [tuple(int(i <= k <= j) for k in range(n)) for i in range(n) for j in range(i, n)]


def b_roots(n):
    short = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    long_ = [
        tuple(1 if k == i else s if k == j else 0 for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
    ]
    return short + long_


# every catalog entry, and the root systems of rank <= 5 it lacks (the
# catalog's A1..A4, B2, B3 and B4 are the others)
CASES = {name: list(catalog_get(name).cfg.covectors()) for name, _ in catalog_list()}
CASES["A5"] = a_roots(5)
CASES["B5"] = b_roots(5)


def unit_gram(vectors):
    n = len(vectors[0])
    return RatMatrix([[sum(Fraction(a[k]) * a[l] for a in vectors) for l in range(n)] for k in range(n)])


def forms(vectors):
    return {"G1": unit_gram(vectors), "I": RatMatrix.identity(len(vectors[0]))}


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def sympy_nullspace(vectors, form):
    """The nullspace of the series rows under A N^-1 A^T and of the entries
    of sum_a c_a a^T a - mu N, over (c, mu), all in sympy."""
    cfg = build_configuration(len(vectors[0]), [(v, 1) for v in vectors])
    a = sympy.Matrix([[rational(x) for x in v] for v in cfg.covectors()])
    n_mat = sympy.Matrix([[rational(x) for x in row] for row in form.entries])
    pairing = a * n_mat.inv() * a.T
    m, n = a.shape
    rows = set()
    for i in range(m):
        for series in cfg.series[i]:
            row = [0] * (m + 1)
            for j, r in zip(series.entry_indices(), relative_wedge_signs(series)):
                row[j] = r * pairing[i, j]
            rows.add(tuple(row))
    for k in range(n):
        for l in range(k, n):
            rows.add(tuple(a[j, k] * a[j, l] for j in range(m)) + (-n_mat[k, l],))
    return sympy.Matrix(sorted(rows, key=str)).nullspace()


@pytest.mark.parametrize("name", list(CASES))
def test_linear_family_spans_sympys_nullspace(name):
    vectors = CASES[name]
    for label, form in forms(vectors).items():
        basis = linear_family(vectors, form)
        want = sympy_nullspace(vectors, form)
        assert len(basis) == len(want), label
        if not basis:
            continue
        got = sympy.Matrix([[rational(x) for x in b] for b in basis])
        assert got.rank() == len(basis), label
        assert got.col_join(sympy.Matrix.hstack(*want).T).rank() == len(basis), label


@pytest.mark.parametrize("name", list(CASES))
def test_random_members_are_vee_systems(name):
    """A random rational member with mu and every c_a nonzero passes the exact
    series check, and its form is exactly mu N."""
    vectors = CASES[name]
    rng = random.Random(name)
    checked = 0
    for form in forms(vectors).values():
        basis = linear_family(vectors, form)
        if not basis or not all(any(col) for col in zip(*basis)):
            continue
        for _ in range(3):
            while True:
                t = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in basis]
                member = [sum(x * b[k] for x, b in zip(t, basis)) for k in range(len(basis[0]))]
                if all(member):
                    break
            *mults, mu = member
            cfg = build_configuration(len(vectors[0]), list(zip(vectors, mults)))
            assert cfg.gram == form.scale(mu)
            assert cfg.gram_det != 0
            assert check_series_condition(cfg).passed
            checked += 1
    # every case has a nondegenerate family at G(1, ..., 1) or at I
    assert checked


def no_float_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact stage should have certified")

    for name in ("series_constraints", "_compile_polynomials", "least_squares"):
        monkeypatch.setattr(constraints, name, forbidden)


B2_VECTORS = [(1, 0), (0, 1), (1, 1), (1, -1)]
B2_SYMBOLS = ("c1", "c2", "cp", "cm")


@pytest.mark.parametrize(
    "name, fix, symbols",
    [
        ("B3", None, None),
        ("TenVector", None, None),
        ("G2timesScaledA2", None, None),
        ("B2", "cp", B2_SYMBOLS),
        ("OrthogonalPair", None, None),
        ("A1", None, None),
    ],
)
def test_exact_stage_certifies_without_float_work(monkeypatch, name, fix, symbols):
    """B3 certified nothing by descent alone; OrthogonalPair and A1 have no
    constraint polynomial, which the exact stage covers."""
    vectors = CASES[name]
    no_float_search(monkeypatch)
    solutions = find_multiplicities(vectors, fix, seed=0, symbols=symbols, starts=12)
    assert solutions
    syms = symbols or tuple(f"c{i + 1}" for i in range(len(vectors)))
    for sol in solutions:
        assert tuple(sol) == syms
        assert sol[fix or syms[0]] == 1
        cfg = build_configuration(len(vectors[0]), [(v, sol[s]) for v, s in zip(vectors, syms)])
        assert cfg.gram_det != 0
        assert check_series_condition(cfg).passed


def test_identity_family_is_skipped_when_proportional(monkeypatch):
    """On B3, I and G(1, ..., 1) = 5 I give the same family: one member."""
    calls = []
    basis = constraints._family_basis
    monkeypatch.setattr(
        constraints, "_family_basis", lambda cfg, form: calls.append(form) or basis(cfg, form)
    )
    assert len(find_multiplicities(CASES["B3"])) == 1
    assert calls == [RatMatrix.identity(3).scale(5)]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda f: f([]), SpanDeficient, "empty vector set"),
        (lambda f: f([(1, 2), (2, 4)]), SpanDeficient, "vectors span only 1 of 2 dimensions"),
        (lambda f: f(B2_VECTORS, symbols=("a", "b")), ValueError, "need one symbol per vector"),
        (lambda f: f(B2_VECTORS, symbols="abca"), ValueError, "symbols must be distinct"),
    ],
    ids=["empty", "rank-deficient", "symbol-count", "repeated-symbols"],
)
def test_bad_vectors_and_symbols(call, error, message):
    """The same errors and messages from the search and from linear_family."""
    with pytest.raises(error, match=f"^{message}$"):
        call(find_multiplicities)
    with pytest.raises(error, match=f"^{message}$"):
        call(lambda vectors, symbols=None: linear_family(vectors, [[1, 0], [0, 1]], symbols))


def test_search_argument_errors_and_their_order():
    with pytest.raises(ValueError, match="^unknown symbol 'zz'$"):
        find_multiplicities(B2_VECTORS, fix_symbol="zz")
    with pytest.raises(ValueError, match="^unknown symbol 'c1'$"):
        find_multiplicities(B2_VECTORS, fix_symbol="c1", symbols="abcd")
    for starts in (0, -2):
        with pytest.raises(InvalidParams, match=f"^starts must be at least 1, got {starts}$"):
            find_multiplicities(B2_VECTORS, starts=starts)
    # the starts check comes first, then the vectors, then the symbols
    with pytest.raises(InvalidParams):
        find_multiplicities([], starts=0)
    with pytest.raises(SpanDeficient):
        find_multiplicities([], fix_symbol="zz", symbols=("a", "a"))
    with pytest.raises(ValueError, match="^need one symbol per vector$"):
        find_multiplicities(B2_VECTORS, fix_symbol="zz", symbols=("a",))


def test_readme_example_basis():
    """The basis printed in the README: A2 at N = [[2, 1], [1, 2]], c = mu (1, 1, 1)."""
    assert linear_family([(1, 0), (0, 1), (1, 1)], [[2, 1], [1, 2]]) == ((1, 1, 1, 1),)


# a vee-system whose forms are proportional to neither G(1, ..., 1) nor I
DESCENT_ONLY = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_search_falls_back_to_descent_when_no_family_certifies(monkeypatch):
    """L(N) = 0 at both forms, yet a vee-system exists, and the search
    reaches it only through the descent."""
    vectors = DESCENT_ONLY
    for form in forms(vectors).values():
        assert linear_family(vectors, form) == ()
    known = [1, 1, 2, Fraction(1, 2), Fraction(1, 5), Fraction(1, 2)]
    cfg = build_configuration(2, list(zip(vectors, known)))
    assert cfg.gram_det != 0 and check_series_condition(cfg).passed

    descents = []
    descent = constraints._descent_search
    monkeypatch.setattr(
        constraints, "_descent_search", lambda *args: descents.append(args) or descent(*args)
    )
    solutions = find_multiplicities(vectors, seed=0, starts=12)
    assert len(descents) == 1
    assert solutions
    for sol in solutions:
        assert sol["c1"] == 1
        cfg = build_configuration(2, [(v, sol[f"c{i + 1}"]) for i, v in enumerate(vectors)])
        assert cfg.gram_det != 0
        assert check_series_condition(cfg).passed


def test_linear_family_form_errors():
    with pytest.raises(DegenerateForm, match="symmetric"):
        linear_family(B2_VECTORS, [[1, 1], [0, 1]])
    with pytest.raises(SingularMatrix):
        linear_family(B2_VECTORS, [[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        linear_family(B2_VECTORS, RatMatrix.identity(3))
