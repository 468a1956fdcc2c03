"""Constraint polynomial extraction, family verification, multiplicity search."""

from fractions import Fraction

import pytest
import sympy

from trigvee import constraints
from trigvee.catalog import catalog_get
from trigvee.configuration import build_configuration
from trigvee.constraints import find_multiplicities, series_constraints, verify_family
from trigvee.errors import (
    DegenerateParametrization,
    DimensionMismatch,
    SpanDeficient,
    ZeroMultiplicity,
)
from trigvee.multipoly import MultiPoly, RatFunc
from trigvee.veecheck import check_series_condition

from conftest import rand_nonzero_fraction

F = Fraction

B2_VECTORS = [(1, 0), (0, 1), (1, 1), (1, -1)]
B2_SYMBOLS = ("c1", "c2", "cp", "cm")
A2_VECTORS = [(1, 0), (0, 1), (1, 1)]
PROP4_VECTORS = [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1)]
PROP5_VECTORS = [
    (1, 0),
    (0, 1),
    (0, 2),
    (F(1, 2), F(1, 2)),
    (F(1, 2), F(-1, 2)),
    (F(1, 2), F(3, 2)),
    (F(1, 2), F(-3, 2)),
]
PROP5_SYMBOLS = ("c1", "c2", "ct2", "ap", "am", "bp", "bm")
G2A2_VECTORS = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2), (2, 0), (2, 2), (4, 2)]
TEN_VECTORS = [
    (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1),
]
HALF3_VECTORS = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (F(1, 2), F(1, 2), 0),
    (F(1, 2), 0, F(-1, 2)),
    (0, F(1, 2), F(3, 2)),
    (F(1, 3), 1, F(-1, 2)),
]
# L(N) = 0 at both forms N: `find_multiplicities` falls back to the descent
DESCENT_ONLY_VECTORS = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
PARALLEL3_VECTORS = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
# dimension 3 and up, with the dimension
HIGHER_SYSTEMS = [
    (catalog_get("B3").cfg.covectors(), 3),
    (catalog_get("A3").cfg.covectors(), 3),
    (catalog_get("A4").cfg.covectors(), 4),
    (HALF3_VECTORS, 3),
    (PARALLEL3_VECTORS, 3),
]


def _sympy_rational(x) -> sympy.Rational:
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(poly: MultiPoly, syms) -> sympy.Expr:
    return sum(
        (
            _sympy_rational(coef) * sympy.Mul(*(s**e for s, e in zip(syms, expo)))
            for expo, coef in poly.terms.items()
        ),
        sympy.Integer(0),
    )


def _wedge(u, v) -> list:
    n = len(u)
    return [u[p] * v[q] - u[q] * v[p] for p in range(n) for q in range(p + 1, n)]


class TestExtraction:
    def test_b2_reduces_to_c1_equals_c2(self):
        cs = series_constraints(B2_VECTORS, symbols=B2_SYMBOLS)
        nonzero = [c for c in cs.polynomials if not c.poly.is_zero()]
        assert nonzero
        diff = MultiPoly.variable(B2_SYMBOLS, "c1") - MultiPoly.variable(B2_SYMBOLS, "c2")
        for c in nonzero:
            # each nonzero constraint is a polynomial multiple of (c1 - c2):
            # substituting c1 = c2 kills it
            sub = c.poly.substitute(
                {
                    "c1": RatFunc.variable(("c2", "cm", "cp"), "c2"),
                    "c2": RatFunc.variable(("c2", "cm", "cp"), "c2"),
                    "cp": RatFunc.variable(("c2", "cm", "cp"), "cp"),
                    "cm": RatFunc.variable(("c2", "cm", "cp"), "cm"),
                }
            )
            assert sub.is_zero()
        assert diff  # documentational: the locus is exactly c1 = c2

    def test_nondegeneracy_is_the_form_determinant(self):
        cs = series_constraints(B2_VECTORS, symbols=B2_SYMBOLS)
        expected = (
            MultiPoly.variable(B2_SYMBOLS, "c1") * MultiPoly.variable(B2_SYMBOLS, "c2")
            + (MultiPoly.variable(B2_SYMBOLS, "c1") + MultiPoly.variable(B2_SYMBOLS, "c2"))
            * (MultiPoly.variable(B2_SYMBOLS, "cp") + MultiPoly.variable(B2_SYMBOLS, "cm"))
            + 4 * MultiPoly.variable(B2_SYMBOLS, "cp") * MultiPoly.variable(B2_SYMBOLS, "cm")
        )
        assert cs.nondegeneracy == expected

    def test_a2_constraints_identically_zero(self):
        cs = series_constraints(A2_VECTORS)
        assert all(c.poly.is_zero() for c in cs.polynomials)

    def test_orthogonal_pair_constraints_vanish(self):
        cs = series_constraints([(1, 0), (0, 1)])
        assert all(c.poly.is_zero() for c in cs.polynomials)

    def test_homogeneity_degree_matches_dimension(self):
        # c_b times an adjugate entry: degree 1 + (n - 1) = n, squarefree
        planar = [(B2_VECTORS, 2), (PROP4_VECTORS, 2), (G2A2_VECTORS, 2)]
        for vectors, n in planar + HIGHER_SYSTEMS:
            cs = series_constraints(vectors)
            for p in [c.poly for c in cs.polynomials] + [cs.nondegeneracy]:
                if not p.is_zero():
                    assert p.homogeneous_degree() == n
                    assert all(e <= 1 for expo in p.terms for e in expo)

    def test_span_deficient_rejected(self):
        with pytest.raises(SpanDeficient):
            series_constraints([(1, 0), (2, 0)])

    @pytest.mark.parametrize(
        "vectors", [[(1, 0, 5), (0, 1), (1, 1)], [(1, 0), (0, 1, 1)]], ids=["long-first", "long-last"]
    )
    def test_ragged_vectors_rejected(self, vectors):
        with pytest.raises(DimensionMismatch):
            series_constraints(vectors)

    @pytest.mark.parametrize("vectors,n", HIGHER_SYSTEMS, ids=["B3", "A3", "A4", "half3", "parallel3"])
    def test_matches_sympy_adjugate_in_higher_dimension(self, vectors, n):
        # sum_{j in S} r_j c_j (A adj(G(c)) A^T)_ij and det G(c), expanded by sympy
        cs = series_constraints(vectors)
        m = len(vectors)
        syms = sympy.symbols(" ".join(cs.symbols))
        a = sympy.Matrix([[_sympy_rational(x) for x in v] for v in vectors])
        g = a.T * sympy.diag(*syms) * a
        # Berkowitz is division-free, and far faster than sympy's default here
        adj = g.adjugate(method="berkowitz")
        assert sympy.expand(_to_sympy(cs.nondegeneracy, syms) - g.det(method="berkowitz")) == 0
        for i in range(m):
            rows = [c for c in cs.polynomials if c.base_index == i]
            members = sorted(j for c in rows for j in c.member_indices)
            assert members == [j for j in range(m) if any(_wedge(a.row(i), a.row(j)))]
            for c in rows:
                w0 = _wedge(a.row(i), a.row(c.member_indices[0]))
                k = next(k for k, x in enumerate(w0) if x != 0)
                expected = 0
                for j in c.member_indices:
                    r = _wedge(a.row(i), a.row(j))[k] / w0[k]
                    assert r in (1, -1)
                    expected += r * syms[j] * (a.row(i) * adj * a.row(j).T)[0]
                assert sympy.expand(_to_sympy(c.poly, syms) - expected) == 0

    def test_consistency_with_exact_check(self, rng):
        # constraints vanish at a nondegenerate point <=> series check passes
        cs = series_constraints(B2_VECTORS, symbols=B2_SYMBOLS)
        for _ in range(12):
            assignment = {s: rand_nonzero_fraction(rng, -4, 4) for s in B2_SYMBOLS}
            if cs.nondegeneracy.evaluate(assignment) == 0:
                continue
            all_zero = all(c.poly.evaluate(assignment) == 0 for c in cs.polynomials)
            cfg = build_configuration(
                2, [(v, assignment[s]) for v, s in zip(B2_VECTORS, B2_SYMBOLS)]
            )
            assert all_zero == check_series_condition(cfg).passed


class TestVerifyFamily:
    def test_prop5_family_passes(self):
        pv = ("s", "t")
        t = RatFunc.variable(pv, "t")
        s = RatFunc.variable(pv, "s")
        par = {
            "bp": t,
            "bm": t,
            "ap": 3 * t,
            "am": 3 * t,
            "ct2": s,
            "c2": 3 * t + 2 * s,
            "c1": t * (3 * t - 2 * s) / (3 * t + 4 * s),
        }
        verdict = verify_family(PROP5_VECTORS, par, symbols=PROP5_SYMBOLS)
        assert verdict.passed

    def test_prop5_wrong_c1_fails(self):
        pv = ("s", "t")
        t = RatFunc.variable(pv, "t")
        s = RatFunc.variable(pv, "s")
        par = {
            "bp": t,
            "bm": t,
            "ap": 3 * t,
            "am": 3 * t,
            "ct2": s,
            "c2": 3 * t + 2 * s,
            "c1": t,
        }
        assert not verify_family(PROP5_VECTORS, par, symbols=PROP5_SYMBOLS).passed

    def test_prop4_family_passes(self):
        pv = ("c1", "c2", "u")
        c1 = RatFunc.variable(pv, "c1")
        c2 = RatFunc.variable(pv, "c2")
        u = RatFunc.variable(pv, "u")
        par = {
            "m1": c1,
            "m2": u * (c1 - c2) / (2 * c2),
            "m3": c2,
            "m4": u,
            "m5": u,
        }
        verdict = verify_family(
            PROP4_VECTORS, par, symbols=("m1", "m2", "m3", "m4", "m5")
        )
        assert verdict.passed

    def test_b4_two_parameter_family_passes(self):
        """B4 with short roots t and long roots s^2/(s+t): 16 symbols merged
        into two images before substituting."""
        short = [tuple(int(k == i) for k in range(4)) for i in range(4)]
        long_ = [
            tuple(1 if k == i else sg if k == j else 0 for k in range(4))
            for i in range(4)
            for j in range(i + 1, 4)
            for sg in (1, -1)
        ]
        pv = ("s", "t")
        t = RatFunc.variable(pv, "t")
        s = RatFunc.variable(pv, "s")
        par = {f"c{k + 1}": t if k < 4 else s * s / (s + t) for k in range(len(short + long_))}
        assert verify_family(short + long_, par).passed
        par["c1"] = 2 * t
        assert not verify_family(short + long_, par).passed

    def test_b2_equal_multiplicities_pass_fixed_fail(self):
        t_poly = MultiPoly.variable(("cm", "cp", "t"), "t")
        assert verify_family(
            B2_VECTORS, {"c1": t_poly, "c2": t_poly}, symbols=B2_SYMBOLS
        ).passed
        verdict = verify_family(B2_VECTORS, {"c1": 1, "c2": 2}, symbols=B2_SYMBOLS)
        assert not verdict.passed
        assert verdict.failing

    def test_degenerate_parametrization_detected(self):
        # forcing the form determinant to vanish identically must be rejected:
        # on the three-covector system, cc = -ca*cb/(ca+cb) kills it
        pv = ("ca", "cb")
        ca = RatFunc.variable(pv, "ca")
        cb = RatFunc.variable(pv, "cb")
        with pytest.raises(DegenerateParametrization):
            verify_family(
                A2_VECTORS,
                {"c1": ca, "c2": cb, "c3": -ca * cb / (ca + cb)},
                symbols=("c1", "c2", "c3"),
            )

    def test_identically_zero_multiplicity_rejected(self):
        # build_configuration refuses multiplicity 0, so no such family exists
        t = RatFunc.variable(("t",), "t")
        cases = [({"c1": 0}, "c1"), ({"c1": t - t, "c2": t}, "c1"), ({"c2": t, "cm": 0 * t}, "cm")]
        for par, zero in cases:
            with pytest.raises(ZeroMultiplicity, match=f"^multiplicity {zero} is identically 0$"):
                verify_family(B2_VECTORS, par, symbols=B2_SYMBOLS)

    def test_unknown_parametrization_keys_rejected(self):
        t = MultiPoly.variable(("cm", "cp", "t"), "t")
        with pytest.raises(ValueError, match="'C2'"):
            verify_family(B2_VECTORS, {"c1": t, "C2": t}, symbols=B2_SYMBOLS)
        with pytest.raises(ValueError, match="'zz'"):
            verify_family(B2_VECTORS, {"c1": t, "c2": t, "zz": 5}, symbols=B2_SYMBOLS)

    def test_deterministic_across_runs(self):
        results = {
            verify_family(B2_VECTORS, {"c1": 1, "c2": 2}, symbols=B2_SYMBOLS).passed
            for _ in range(3)
        }
        assert results == {False}


class TestSearch:
    def test_b2_recovers_equal_short_multiplicities(self):
        solutions = find_multiplicities(
            B2_VECTORS, fix_symbol="cp", symbols=B2_SYMBOLS, seed=3, starts=6
        )
        assert solutions
        for sol in solutions:
            assert sol["c1"] == sol["c2"]
            cfg = build_configuration(
                2, [(v, sol[s]) for v, s in zip(B2_VECTORS, B2_SYMBOLS)]
            )
            assert check_series_condition(cfg).passed

    def test_g2_union_doubled_short_roots(self):
        solutions = find_multiplicities(G2A2_VECTORS, seed=0, starts=12)
        assert solutions
        for sol in solutions:
            cfg = build_configuration(
                2, [(v, sol[f"c{i + 1}"]) for i, v in enumerate(G2A2_VECTORS)]
            )
            assert cfg.gram_det != 0
            assert check_series_condition(cfg).passed

    def test_ten_vector_system(self):
        solutions = find_multiplicities(TEN_VECTORS, seed=0, starts=12)
        assert solutions
        for sol in solutions:
            cfg = build_configuration(
                2, [(v, sol[f"c{i + 1}"]) for i, v in enumerate(TEN_VECTORS)]
            )
            assert cfg.gram_det != 0
            assert check_series_condition(cfg).passed

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_snap_value_is_not_refit(self, seed, monkeypatch):
        """Listing every snap bound twice repeats every snap value: a repeat
        is not refit, so the least_squares calls and the solutions stay."""
        calls = []
        least_squares = constraints.least_squares

        def counting(*args, **kwargs):
            calls.append(None)
            return least_squares(*args, **kwargs)

        monkeypatch.setattr(constraints, "least_squares", counting)
        found = find_multiplicities(DESCENT_ONLY_VECTORS, seed=seed, starts=12)
        once = len(calls)
        doubled = tuple(b for b in constraints._SNAP_BOUNDS for _ in range(2))
        monkeypatch.setattr(constraints, "_SNAP_BOUNDS", doubled)
        calls.clear()
        assert find_multiplicities(DESCENT_ONLY_VECTORS, seed=seed, starts=12) == found
        assert len(calls) == once
        assert found
