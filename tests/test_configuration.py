"""Configuration model: building, duals, series, positive systems, components."""

import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from trigvee import configuration, exactnum
from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import (
    Metric,
    check_series_with_metric,
    cms_to_vee,
    euclidean_metric,
    solve_capital_lambda,
    vee_form_metric,
)
from trigvee.configuration import (
    alpha_series,
    build_configuration,
    decompose_components,
    direct_sum,
    positive_system,
    signed_covectors,
    vee_product,
    wedge_coeffs,
)
from trigvee.errors import (
    DegenerateForm,
    DimensionMismatch,
    DuplicateCovector,
    FunctionalVanishes,
    ZeroCovector,
    ZeroMultiplicity,
)
from trigvee.constraints import find_multiplicities, series_constraints, verify_family
from trigvee.exactnum import RatMatrix, clear_denominators
from trigvee.veecheck import check_rational_vee, full_check

from conftest import rand_configuration, rand_fraction, rand_nonzero_fraction
from corpus import a2, a_roots, b2, b_roots, g2, prop4

F = Fraction


class TestBuild:
    def test_a2_gram(self):
        cfg = a2()
        assert cfg.gram == RatMatrix([[2, 1], [1, 2]])
        assert cfg.gram_det == 3

    def test_b2_gram(self):
        cfg = b2()
        assert cfg.gram == RatMatrix([[3, 0], [0, 3]])
        assert cfg.gram_det == 9

    def test_rank_one_builds_with_zero_det(self):
        cfg = build_configuration(2, [((1, 0), 1)])
        assert cfg.gram_det == 0

    def test_validation_errors(self):
        with pytest.raises(ZeroCovector):
            build_configuration(2, [((0, 0), 1)])
        with pytest.raises(ZeroMultiplicity):
            build_configuration(2, [((1, 0), 0)])
        with pytest.raises(DuplicateCovector):
            build_configuration(2, [((1, 0), 1), ((-1, 0), 2)])
        with pytest.raises(DuplicateCovector, match="^entries a and c coincide up to sign$"):
            build_configuration(2, [((1, 0), 1, "a"), ((0, 1), 1, "b"), ((-1, 0), 2, "c")])
        # two entries may share a label
        with pytest.raises(DuplicateCovector, match="^entries a and a coincide up to sign$"):
            build_configuration(2, [((1, 0), 1, "a"), ((-1, 0), 2, "a")])
        with pytest.raises(DimensionMismatch):
            build_configuration(2, [((1, 0, 0), 1)])

    def test_parallel_distinct_lattice_points_allowed(self):
        cfg = build_configuration(2, [((1, 0), 1), ((2, 0), 1), ((0, 1), 1)])
        assert len(cfg) == 3


def test_no_build_runs_a_hermite_elimination(monkeypatch):
    """The cleared rows are the configuration's only integer coordinates: no
    build, check, extraction or search calls `exactnum.integer_hnf`."""
    calls = []
    original = exactnum.integer_hnf

    def counted(mat):
        calls.append(len(mat))
        return original(mat)

    for module in list(sys.modules.values()):  # each trigvee module holding the name
        if module.__name__.startswith("trigvee") and vars(module).get("integer_hnf") is original:
            monkeypatch.setattr(module, "integer_hnf", counted)
    for name, _ in catalog_list():
        catalog_get(name)
    for n in range(2, 9):
        build_configuration(n, [(r, 1) for r in a_roots(n)])
        build_configuration(n, [(r, 1) for r in b_roots(n)])
    for name in ("B3", "Prop5"):
        cfg = catalog_get(name).cfg
        vectors = [e.covector for e in cfg.entries]
        assert full_check(cfg).is_trig_vee
        series_constraints(vectors)
        assert find_multiplicities(vectors)
        point = {f"c{k}": e.mult for k, e in enumerate(cfg.entries, 1)}
        assert verify_family(vectors, point).passed
    assert calls == []


def reference_gram(dim, entries):
    """G = sum_a c_a a^T a, accumulated entry by entry in Fractions."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for v, c in entries:
        for i in range(dim):
            for j in range(dim):
                rows[i][j] += F(c) * F(v[i]) * F(v[j])
    return rows


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
multiplicities = st.builds(
    lambda c, t: c * t, rationals.filter(bool), st.sampled_from([1, -1, 10**6, F(1, 10**6)])
)


@st.composite
def gram_entries(draw):
    dim = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[rationals] * dim).filter(any), min_size=1, max_size=7))
    entries = {}
    for v in vectors:
        if tuple(-x for x in v) not in entries:
            entries[v] = draw(multiplicities)
    return dim, list(entries.items())


@settings(max_examples=200, deadline=None)
@given(gram_entries())
def test_gram_matches_fraction_reference(case):
    """Fractional and negative covectors and multiplicities, some scaled by
    10^6 or 10^-6: the integer sums give the Fraction-accumulated form and
    its determinant (by sympy), degenerate forms included."""
    dim, entries = case
    cfg = build_configuration(dim, entries)
    rows = reference_gram(dim, entries)
    assert cfg.gram == RatMatrix(rows)
    assert all(isinstance(x, F) for row in cfg.gram.entries for x in row)
    det = _sympy_rows(rows).det()
    assert cfg.gram_det == F(int(det.p), int(det.q))


class TestDualsAndProducts:
    def test_dual_examples(self):
        assert a2().gram_inverse.mat_vec((1, 0)) == (F(2, 3), F(-1, 3))
        assert b2().gram_inverse.mat_vec((1, 1)) == (F(1, 3), F(1, 3))
        assert a2().gram_inverse.mat_vec((0, 0)) == (F(0), F(0))

    def test_vee_product_examples(self):
        cfg = a2()
        assert vee_product(cfg, (1, 0), (0, 1)) == F(-1, 3)
        assert vee_product(cfg, (1, 0), (1, 0)) == F(2, 3)
        assert vee_product(b2(), (1, 1), (1, -1)) == 0

    def test_degenerate_raises(self):
        cfg = build_configuration(2, [((1, 0), 1)])
        with pytest.raises(DegenerateForm):
            cfg.gram_inverse.mat_vec((1, 0))

    def test_dual_linearity_random(self, rng):
        from conftest import rand_configuration

        for _ in range(10):
            cfg = rand_configuration(rng, rng.randint(2, 3))
            if cfg.gram_det == 0:
                continue
            u = tuple(F(rng.randint(-5, 5)) for _ in range(cfg.dim))
            v = tuple(F(rng.randint(-5, 5)) for _ in range(cfg.dim))
            s = F(rng.randint(-4, 4))
            dual = cfg.gram_inverse.mat_vec
            lhs = dual(tuple(a + s * b for a, b in zip(u, v)))
            du, dv = dual(u), dual(v)
            assert lhs == tuple(a + s * b for a, b in zip(du, dv))
            # gram . dual composes to the identity
            assert cfg.gram.mat_vec(du) == u


def _oracle_configurations():
    """Every catalog entry, a few random nondegenerate configurations, and
    two with parallel covectors."""
    cfgs = [catalog_get(name).cfg for name, _ in catalog_list()]
    rng = random.Random(7)
    for dim in (2, 2, 3, 3, 4):
        cfg = rand_configuration(rng, dim, max_covectors=dim + 4)
        if cfg.gram_det != 0:
            cfgs.append(cfg)
    cfgs.append(build_configuration(2, [((1, 0), 1), ((2, 0), 3), ((0, 1), 1), ((-3, -3), 2), ((1, 1), -1)]))
    cfgs.append(build_configuration(3, [((F(1, 2), 0, 1), 1), ((3, 0, 6), 2), ((0, 1, 0), 1), ((1, 1, 0), 5)]))
    return cfgs


def _sympy_rows(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


class TestPairingTables:
    """The cached pairing and direction tables against independent references."""

    def test_pairing_matches_sympy_and_vee_product(self):
        for cfg in _oracle_configurations():
            a = _sympy_rows(cfg.covectors())
            c = sympy.diag(*[sympy.Rational(m.numerator, m.denominator) for m in cfg.mults()])
            expected = a * (a.T * c * a).inv() * a.T
            m = len(cfg.entries)
            table, den = cfg.integer_pairing
            assert len(table) == m
            for i, u in enumerate(cfg.covectors()):
                for j, v in enumerate(cfg.covectors()):
                    x = expected[i, j]
                    assert F(table[i][j], den) == F(int(x.p), int(x.q))
                    assert F(table[i][j], den) == vee_product(cfg, u, v)

    def test_metric_pairing_matches_sympy(self):
        rng = random.Random(11)
        for cfg in _oracle_configurations():
            rows = [[rand_fraction(rng) for _ in range(cfg.dim)] for _ in range(cfg.dim)]
            sym = RatMatrix([[rows[i][j] + rows[j][i] for j in range(cfg.dim)] for i in range(cfg.dim)])
            a = _sympy_rows(cfg.covectors())
            expected = a * _sympy_rows(sym.entries) * a.T
            table, den = Metric(sym).integer_pairing(cfg)
            for i in range(len(cfg.entries)):
                for j in range(len(cfg.entries)):
                    x = expected[i, j]
                    assert F(table[i][j], den) == F(int(x.p), int(x.q))

    def test_directions_partition_matches_is_parallel(self):
        for cfg in _oracle_configurations():
            covs = cfg.covectors()
            for d in cfg.directions:
                assert math.gcd(*d) == 1
                assert next(x for x in d if x != 0) > 0
            for i in range(len(covs)):
                for j in range(len(covs)):
                    same = cfg.directions[i] == cfg.directions[j]
                    assert same == (not any(wedge_coeffs(covs[i], covs[j])))


def _fractional_configurations():
    """Nondegenerate random configurations in dims 1-4 with fractional
    covectors and multiplicities of both signs, one of them -5/3."""
    rng = random.Random(23)
    cfgs = []
    for dim in (1, 2, 2, 3, 3, 4):
        while True:
            entries = {}
            while len(entries) < dim + 3:
                v = tuple(rand_fraction(rng, -3, 3, 4) for _ in range(dim))
                if any(v) and tuple(-x for x in v) not in entries:
                    entries[v] = rand_nonzero_fraction(rng, -4, 4) if entries else F(-5, 3)
            cfg = build_configuration(dim, entries.items())
            if cfg.gram_det != 0:
                cfgs.append(cfg)
                break
    return cfgs


class TestIntegerView:
    """The covectors and multiplicities cleared to integers once per
    configuration, the rows every exact kernel reads."""

    def test_matches_clear_denominators(self):
        cfgs = [*_oracle_configurations(), *_fractional_configurations()]
        assert any(c.denominator > 1 for cfg in cfgs for v in cfg.covectors() for c in v)
        assert any(c < 0 and c.denominator > 1 for cfg in cfgs for c in cfg.mults())
        for cfg in cfgs:
            rows, d = clear_denominators(cfg.covectors())
            assert cfg.integer_covectors == (tuple(map(tuple, rows)), d)
            (mults,), l_c = clear_denominators([cfg.mults()])
            assert cfg.integer_mults == (tuple(mults), l_c)

    def test_cleared_once_per_configuration(self, monkeypatch):
        """The build clears the covectors and the multiplicities; no check
        clears them again.  Clearing a metric, or building a component (which
        clears the component's rows), is allowed."""
        calls = []

        def spy(rows):
            calls.append((sys._getframe(1).f_code.co_name, [list(row) for row in rows]))
            return clear_denominators(rows)

        monkeypatch.setattr(configuration, "clear_denominators", spy)
        for cfg in [*_oracle_configurations(), *_fractional_configurations()]:
            calls.clear()
            cfg = build_configuration(cfg.dim, [(e.covector, e.mult) for e in cfg.entries])
            own = [[list(v) for v in cfg.covectors()], [list(cfg.mults())]]
            assert calls == [("build_configuration", rows) for rows in own]
            calls.clear()
            positive_system(cfg)
            report = full_check(cfg)
            check_rational_vee(cfg)
            metric = euclidean_metric(cfg.dim)
            check_series_with_metric(cfg, metric)
            solve_capital_lambda(cfg, metric)
            if report.is_trig_vee:
                cms_to_vee(cfg, vee_form_metric(cfg))
            assert not [
                caller for caller, rows in calls if caller != "build_configuration" and rows in own
            ]


class TestPositiveSystem:
    def test_supplied_functionals(self):
        ps = positive_system(b2(), (2, 1))
        assert ps.signs == (1, 1, 1, 1)
        ps = positive_system(a2(), (-1, -1))
        assert ps.signs == (-1, -1, -1)
        with pytest.raises(FunctionalVanishes):
            positive_system(b2(), (1, 0))

    def test_default_deterministic_and_positive(self):
        for cfg in (a2(), b2(), g2()):
            ps1 = positive_system(cfg)
            ps2 = positive_system(cfg)
            assert ps1 == ps2
            for v in signed_covectors(cfg, ps1):
                value = sum(f * x for f, x in zip(ps1.functional, v))
                assert value > 0


class TestAlphaSeries:
    def test_b2_base_sum_vector(self):
        cfg = b2()
        series = alpha_series(cfg, 2)  # base (1,1)
        groups = sorted(s.entry_indices() for s in series)
        assert groups == [(0, 1), (3,)]

    def test_b2_base_short(self):
        cfg = b2()
        series = alpha_series(cfg, 0)  # base (1,0)
        assert [s.entry_indices() for s in series] == [(1, 2, 3)]

    def test_g2_base_short(self):
        cfg = g2()
        series = alpha_series(cfg, 0)  # base (1,0)
        groups = sorted(s.entry_indices() for s in series)
        assert groups == [(1, 2, 3, 4), (5,)]

    def test_member_relations_hold(self):
        # sign * member + step * base = residue, exactly, in cleared rows;
        # the mirrored system exercises bases with negative leading coordinate
        mirrored = build_configuration(
            2, [((-1, 0), 1), ((0, -1), 1), ((-1, -1), 1), ((-1, 1), 1)]
        )
        for cfg in (a2(), b2(), g2(), mirrored):
            for i in range(len(cfg.entries)):
                base = cfg.integer_covectors[0][i]
                for series in alpha_series(cfg, i):
                    for m in series.members:
                        member = cfg.integer_covectors[0][m.entry_index]
                        combo = tuple(
                            m.sign * x + m.step * a for x, a in zip(member, base)
                        )
                        assert combo == series.residue

    def test_partition(self):
        for cfg in (a2(), b2(), g2()):
            for i in range(len(cfg.entries)):
                seen = [
                    j
                    for series in alpha_series(cfg, i)
                    for j in series.entry_indices()
                ]
                expected = [
                    j
                    for j in range(len(cfg.entries))
                    if j != i
                    and any(wedge_coeffs(cfg.entries[j].covector, cfg.entries[i].covector))
                ]
                assert sorted(seen) == expected
                assert len(seen) == len(set(seen))

    def test_sign_flip_invariance(self):
        cfg = b2()
        flipped = build_configuration(
            2, [((1, 0), 1), ((0, -1), 1), ((1, 1), 1), ((-1, 1), 1)]
        )
        for i in range(4):
            orig = sorted(s.entry_indices() for s in alpha_series(cfg, i))
            new = sorted(s.entry_indices() for s in alpha_series(flipped, i))
            assert orig == new


class TestComponents:
    def test_orthogonal_pair_splits(self):
        cfg = build_configuration(2, [((1, 0), 1), ((0, 1), 1)])
        parts = decompose_components(cfg)
        assert len(parts) == 2
        assert all(p.dim == 1 for p in parts)

    def test_a2_irreducible(self):
        assert len(decompose_components(a2())) == 1

    def test_prop4_irreducible(self):
        assert len(decompose_components(prop4())) == 1

    def test_direct_sum_splits_back(self):
        cfg = direct_sum(a2(), a2())
        assert cfg.dim == 4
        parts = decompose_components(cfg)
        assert len(parts) == 2
        assert all(p.gram == a2().gram for p in parts)

    def test_components_survive_mixing_change_of_basis(self):
        from trigvee.veecheck import full_check

        base = direct_sum(a2(), a2())
        # a unimodular change of basis that mixes all four coordinates
        m = [[1, 1, 0, 2], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
        entries = []
        for e in base.entries:
            v = tuple(sum(e.covector[i] * m[i][j] for i in range(4)) for j in range(4))
            entries.append((v, e.mult))
        mixed = build_configuration(4, entries)
        parts = decompose_components(mixed)
        assert len(parts) == 2
        for part in parts:
            report = full_check(part)
            assert report.is_trig_vee
            assert report.lambda_solution.lambda2 == 36
