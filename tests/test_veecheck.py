"""Series condition, coupling solve, implied identities, invariances."""

from fractions import Fraction

import pytest

from trigvee.cms import cms_to_vee, euclidean_metric
from trigvee.configuration import (
    build_configuration,
    decompose_components,
    direct_sum,
    positive_system,
    vee_product,
)
from trigvee.errors import DegenerateForm
from trigvee.veecheck import (
    check_rational_vee,
    check_series_condition,
    full_check,
    solve_lambda_squared,
)

from conftest import rand_configuration, rand_nonsingular, rand_nonzero_fraction
from corpus import a2, b2, g2, prop4

F = Fraction


# closed forms for the planar families, evaluated independently of the solve
def lambda2_three(ca, cb, cc):
    return 4 * (ca * cb + ca * cc + cb * cc) ** 2 / (ca * cb * cc)


def lambda2_four(c1, cp, cm):
    delta = (c1 + 2 * cp) * (c1 + 2 * cm)
    return 4 * delta**2 / (c1 * (4 * cp * cm + c1 * (cp + cm)))


def lambda2_five(c1, ct1, c2, cp):
    delta = (c1 + 4 * ct1 + 2 * cp) * (c2 + 2 * cp)
    return 2 * delta**2 / ((c2 + 2 * cp) * (c1 + 4 * ct1) * cp)


class TestSeriesCondition:
    def test_a2_passes_with_zero_residuals(self):
        rep = check_series_condition(a2())
        assert rep.passed
        assert all(r.residual == 0 for r in rep.residuals)

    def test_b2_unequal_fails_with_exact_witness(self):
        rep = check_series_condition(b2(1, 2, 1, 1))
        assert not rep.passed
        by_key = {(r.base_index, r.member_indices): r.residual for r in rep.residuals}
        # the (e1+e2)-series consisting of e1-e2 alone: residual (a,b) = 1/12
        assert by_key[(2, (3,))] == F(1, 12)
        assert by_key[(2, (0, 1))] == F(-1, 6)

    def test_g2_passes_all_bases(self):
        rep = check_series_condition(g2())
        assert rep.passed
        assert {r.base_index for r in rep.residuals} == set(range(6))

    def test_prop4_and_prop5_pass(self):
        assert check_series_condition(prop4()).passed
        half = F(1, 2)
        prop5 = build_configuration(
            2,
            [
                ((1, 0), F(1, 7)),
                ((0, 1), 5),
                ((0, 2), 1),
                ((half, half), 3),
                ((half, -half), 3),
                ((half, 3 * half), 1),
                ((half, -3 * half), 1),
            ],
        )
        assert check_series_condition(prop5).passed

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateForm):
            check_series_condition(a2(1, 1, F(-1, 2)))


class TestLambdaSolve:
    def test_golden_values(self):
        assert solve_lambda_squared(a2()).lambda2 == 36
        assert solve_lambda_squared(b2()).lambda2 == 54
        assert solve_lambda_squared(prop4()).lambda2 == F(486, 7)

    def test_closed_form_cross_check_three(self, rng):
        for _ in range(6):
            ca, cb, cc = (rand_nonzero_fraction(rng, -5, 5) for _ in range(3))
            if ca * cb + ca * cc + cb * cc == 0:
                continue
            assert solve_lambda_squared(a2(ca, cb, cc)).lambda2 == lambda2_three(ca, cb, cc)

    def test_closed_form_cross_check_four(self, rng):
        for _ in range(6):
            c1, cp, cm = (rand_nonzero_fraction(rng, 1, 5) for _ in range(3))
            cfg = b2(c1, c1, cp, cm)
            assert check_series_condition(cfg).passed
            assert solve_lambda_squared(cfg).lambda2 == lambda2_four(c1, cp, cm)

    def test_closed_form_cross_check_five(self, rng):
        for _ in range(6):
            c2, cp = (rand_nonzero_fraction(rng, 1, 5) for _ in range(2))
            c1 = rand_nonzero_fraction(rng, 1, 5)
            if c1 == c2:
                c1 = c1 + 1
            ct1 = cp * (c1 - c2) / (2 * c2)
            if ct1 == 0 or c1 + 4 * ct1 == 0:
                continue
            cfg = prop4(c1, ct1, c2, cp, cp)
            assert check_series_condition(cfg).passed
            assert solve_lambda_squared(cfg).lambda2 == lambda2_five(c1, ct1, c2, cp)

    def test_orthogonal_pair_no_solution(self):
        pair = build_configuration(2, [((1, 0), 1), ((0, 1), 1)])
        sol = solve_lambda_squared(pair)
        assert sol.status == "no_solution"
        assert sol.witness is not None

    def test_direct_sums_no_solution(self):
        for left, right in ((a2(), a2()), (a2(), b2()), (b2(), g2())):
            sol = solve_lambda_squared(direct_sum(left, right))
            assert sol.status == "no_solution"

    def test_dim1_any_lambda(self):
        one = build_configuration(1, [((1,), 1)])
        assert solve_lambda_squared(one).status == "any_lambda"


class TestImpliedIdentities:
    def test_rational_vee_trivial_in_the_plane(self):
        assert check_rational_vee(a2()).passed
        assert check_rational_vee(b2(1, 2, 1, 1)).passed

    def test_rational_vee_discriminates_in_dim3(self):
        vecs = [
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
        ]
        good = build_configuration(3, [(v, 1 if sum(map(abs, v)) == 1 else F(1, 3)) for v in vecs])
        assert check_series_condition(good).passed
        assert check_rational_vee(good).passed
        bad = build_configuration(3, list(zip(vecs, [1, 1, 1, 2, 1, 1, 1, 1, 1])))
        assert not check_series_condition(bad).passed
        report = check_rational_vee(bad)
        assert not report.passed
        assert report.witnesses

    def test_implication_chain_random(self, rng):
        checked = 0
        for _ in range(30):
            cfg = rand_configuration(rng, rng.randint(2, 3))
            if cfg.gram_det == 0:
                continue
            if check_series_condition(cfg).passed:
                assert check_rational_vee(cfg).passed
                checked += 1
        assert checked >= 1  # the generator does produce passing cases


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda cfg: cfg.gram_inverse, id="gram_inverse"),
        pytest.param(lambda cfg: vee_product(cfg, (1, 0), (0, 1)), id="vee_product"),
        decompose_components,
        check_series_condition,
        check_rational_vee,
        solve_lambda_squared,
        pytest.param(lambda cfg: cms_to_vee(cfg, euclidean_metric(2)), id="cms_to_vee"),
    ],
)
def test_degenerate_form_refused_with_one_error(check):
    """`integer_gram_inverse` is the gate that the exact checks reach first."""
    with pytest.raises(DegenerateForm, match="^the form G is degenerate$"):
        check(a2(1, 1, F(-1, 2)))


class TestFullCheck:
    def test_prop4_report(self):
        rep = full_check(prop4())
        assert rep.is_trig_vee and rep.is_irreducible
        assert rep.lambda_solution.lambda2 == F(486, 7)
        assert rep.defines_wdvv_solution

    def test_orthogonal_pair_report(self):
        pair = build_configuration(2, [((1, 0), 1), ((0, 1), 1)])
        rep = full_check(pair)
        assert rep.is_trig_vee  # series condition holds (zero pairing)
        assert rep.lambda_solution.status == "no_solution"
        assert not rep.defines_wdvv_solution

    def test_degenerate_reported_not_raised(self):
        rep = full_check(a2(1, 1, F(-1, 2)))
        assert rep.degenerate and not rep.is_trig_vee


def _transform(cfg, m):
    entries = []
    for e in cfg.entries:
        v = tuple(
            sum(e.covector[i] * m.entries[i][j] for i in range(cfg.dim))
            for j in range(cfg.dim)
        )
        entries.append((v, e.mult, e.label))
    return build_configuration(cfg.dim, entries)


class TestInvariances:
    CONFIGS = None

    def configs(self):
        return [a2(), b2(), prop4(), g2(2, F(1, 3))]

    def test_sign_flip(self, rng):
        for cfg in self.configs():
            base = full_check(cfg)
            signs = [rng.choice([1, -1]) for _ in cfg.entries]
            flipped = build_configuration(
                cfg.dim,
                [
                    (tuple(s * x for x in e.covector), e.mult, e.label)
                    for s, e in zip(signs, cfg.entries)
                ],
            )
            rep = full_check(flipped)
            assert rep.is_trig_vee == base.is_trig_vee
            assert rep.lambda_solution.status == base.lambda_solution.status
            assert rep.lambda_solution.lambda2 == base.lambda_solution.lambda2

    def test_multiplicity_scaling(self):
        for cfg in self.configs():
            base = solve_lambda_squared(cfg)
            for t in (F(2), F(3), F(1, 2)):
                scaled = build_configuration(
                    cfg.dim, [(e.covector, t * e.mult, e.label) for e in cfg.entries]
                )
                assert check_series_condition(scaled).passed == check_series_condition(cfg).passed
                sol = solve_lambda_squared(scaled)
                assert sol.lambda2 == t * base.lambda2

    def test_gl_conjugation(self, rng):
        for cfg in self.configs():
            base = full_check(cfg)
            for _ in range(3):
                m = rand_nonsingular(rng, cfg.dim)
                rep = full_check(_transform(cfg, m))
                assert rep.is_trig_vee == base.is_trig_vee
                assert rep.lambda_solution.lambda2 == base.lambda_solution.lambda2

    def test_positive_system_independence(self):
        functionals = [(1, 2), (2, 1), (5, 1), (1, 5), (-1, -2), (3, -1), (-2, 7)]
        for cfg in self.configs():
            values = set()
            used = 0
            for f in functionals:
                try:
                    psys = positive_system(cfg, f)
                except Exception:
                    continue
                values.add(solve_lambda_squared(cfg, psys).lambda2)
                used += 1
            assert used >= 5
            assert len(values) == 1
