"""CMS identity, eigenvalue, metric series condition and structure recovery."""

from fractions import Fraction

import pytest

from trigvee.cms import (
    Metric,
    check_series_with_metric,
    cms_identity_residual,
    cms_to_vee,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.catalog import catalog_get
from trigvee.configuration import build_configuration
from trigvee.errors import CollinearPair, DegenerateForm, DimensionMismatch
from trigvee.exactnum import RatMatrix
from trigvee.veecheck import check_series_condition

from corpus import a2, b2, g2

F = Fraction


class TestIdentity:
    def test_a2_constant_is_minus_two_thirds(self):
        # derived oracle: with gamma = a + b the three pair terms reduce via
        # cot u cot v - cot u cot(u+v) - cot v cot(u+v) = 1
        rep = cms_identity_residual(a2(), vee_form_metric(a2()), 10, seed=2)
        assert abs(rep.mean - (-F(2, 3))) < 1e-10
        assert rep.max_deviation < 1e-10

    def test_g2_constant(self):
        cfg = g2()
        rep = cms_identity_residual(cfg, vee_form_metric(cfg), 10, seed=2)
        assert rep.max_deviation < 1e-9

    def test_broken_series_leaves_poles(self):
        cfg = b2(1, 2, 1, 1)
        rep = cms_identity_residual(cfg, vee_form_metric(cfg), 10, seed=2)
        assert rep.max_deviation > 1e-3

    def test_collinear_pair_rejected(self):
        cfg = build_configuration(2, [((1, 0), 1), ((2, 0), 1), ((0, 1), 1)])
        with pytest.raises(CollinearPair):
            cms_identity_residual(cfg, euclidean_metric(2))

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegenerateForm):
            cms_identity_residual(a2(), Metric(RatMatrix([[1, 1], [1, 1]])))

    @pytest.mark.parametrize("name", ["A2", "B3", "A4", "B4"])
    def test_vee_form_metric_passes_the_gate_without_elimination(self, monkeypatch, name):
        """G^-1 is nonsingular whenever it exists, so the metric gate takes
        the vee-form metric without computing a determinant."""

        def refuse(matrix):
            raise AssertionError("metric determinant computed")

        cfg = catalog_get(name).cfg
        monkeypatch.setattr(RatMatrix, "det", refuse)
        assert cms_identity_residual(cfg, vee_form_metric(cfg)).max_deviation < 1e-9
        assert cms_to_vee(cfg, vee_form_metric(cfg)).is_trig_vee

    @pytest.mark.parametrize(
        "covectors, named",
        [
            # x, y, y, x: the pair (0, 3) comes before (1, 2)
            ([(1, 0), (0, 1), (0, 2), (-3, 0)], "v0 and v3"),
            ([(1, 0), (0, 1), (0, 2), (1, 1), (-3, 0), (2, 0)], "v0 and v4"),
            ([(1, 1), (0, 1), (1, 0), (0, -3), (2, 2)], "v0 and v4"),
            ([(0, 1), (1, 0), (1, 1), (0, 2), (0, 3)], "v0 and v3"),
        ],
    )
    def test_collinear_pair_named_lexicographically_first(self, covectors, named):
        cfg = build_configuration(2, [(v, 1) for v in covectors])
        with pytest.raises(CollinearPair, match=f"covectors {named} are collinear"):
            cms_identity_residual(cfg, euclidean_metric(2))


class TestEigenvalue:
    def test_a2_eigenvalue(self):
        # derived oracle: mu = sum c^2 (a,a) - constant = 3*(2/3) + 2/3 = 8/3
        rep = cms_identity_residual(a2(), vee_form_metric(a2()), 10, seed=2)
        assert abs(rep.eigenvalue_estimate - F(8, 3)) < 1e-8
        assert rep.eigenvalue_deviation < 1e-8

    def test_dim1_single_covector(self):
        one = build_configuration(1, [((1,), 1)])
        rep = cms_identity_residual(one, euclidean_metric(1), 10, seed=0)
        assert abs(rep.eigenvalue_estimate - 1) < 1e-10
        assert rep.eigenvalue_deviation < 1e-10

    def test_seed_consistency(self):
        cfg = g2()
        mv = vee_form_metric(cfg)
        mu1 = cms_identity_residual(cfg, mv, 10, seed=5).eigenvalue_estimate
        mu2 = cms_identity_residual(cfg, mv, 10, seed=17).eigenvalue_estimate
        assert abs(mu1 - mu2) < 1e-8


class TestMetricSeries:
    def test_vee_form_agrees_with_intrinsic_check(self):
        cfg = a2()
        rep_metric = check_series_with_metric(cfg, vee_form_metric(cfg))
        rep = check_series_condition(cfg)
        assert rep_metric.residuals == rep.residuals

    def test_euclidean_metric_fails_on_a2(self):
        rep = check_series_with_metric(a2(), euclidean_metric(2))
        assert not rep.passed
        # base e1, series {e2, e1+e2}: residual 0*1 + 1*1 = 1
        first = next(r for r in rep.residuals if r.base_index == 0)
        assert first.residual == 1

    def test_rescaled_metric_verdict_invariant(self):
        cfg = g2()
        mv = vee_form_metric(cfg)
        for t in (F(2), F(-3), F(1, 5)):
            assert check_series_with_metric(cfg, mv.scaled(t)).passed
        bad = b2(1, 2, 1, 1)
        mb = vee_form_metric(bad)
        for t in (F(2), F(1, 7)):
            assert not check_series_with_metric(bad, mb.scaled(t)).passed

    def test_forward_direction_on_passing_configurations(self):
        # intrinsic series pass (non-collinear entries) => identity constant
        for cfg in (a2(), b2(), g2()):
            assert check_series_condition(cfg).passed
            rep = cms_identity_residual(cfg, vee_form_metric(cfg), 10, seed=3)
            assert rep.max_deviation < 1e-9

    def test_converse_direction(self):
        # identity constant with a metric => metric series condition, tested
        # through rescalings; identity broken => series broken (contrapositive)
        cfg = g2()
        mv = vee_form_metric(cfg)
        for t in (F(1), F(2), F(5, 3), F(-1)):
            metric = mv.scaled(t)
            rep = cms_identity_residual(cfg, metric, 10, seed=4)
            assert rep.max_deviation < 1e-9
            assert check_series_with_metric(cfg, metric).passed
        bad = b2(1, 2, 1, 1)
        rep = cms_identity_residual(bad, vee_form_metric(bad), 10, seed=4)
        assert rep.max_deviation > 1e-3
        assert not check_series_with_metric(bad, vee_form_metric(bad)).passed


class TestCmsToVee:
    def test_vee_form_gives_unit_scalar(self):
        res = cms_to_vee(a2(), vee_form_metric(a2()))
        assert res.is_trig_vee
        assert res.component_scalars == (F(1),)
        assert res.component_dims == (2,)

    def test_scaled_metric_scales_the_scalar(self):
        res = cms_to_vee(a2(), vee_form_metric(a2()).scaled(2))
        assert res.component_scalars == (F(2),)
        assert res.is_trig_vee

    def test_orthogonal_components_with_euclidean_metric(self):
        cfg = build_configuration(2, [((1, 0), 1), ((0, 1), 2)])
        res = cms_to_vee(cfg, euclidean_metric(2))
        assert res.component_scalars == (F(1), F(2))
        assert res.component_dims == (1, 1)
        assert res.is_trig_vee

    @pytest.mark.parametrize(
        "name, scale",
        [("B3", F(10**6)), ("A4", F(10**6)), ("A2", F(10**9)), ("B3", F(1000001, 7))],
        ids=["B3*10^6", "A4*10^6", "A2*10^9", "B3*1000001/7"],
    )
    def test_scaled_vee_metric_gives_its_scale(self, name, scale):
        # M G = scale * I: one component whose scalar is large or non-integer
        cfg = catalog_get(name).cfg
        res = cms_to_vee(cfg, vee_form_metric(cfg).scaled(scale))
        assert res.is_trig_vee
        assert res.component_scalars == (scale,)
        assert res.component_dims == (cfg.dim,)

    def test_failing_metric_series_rejected(self):
        with pytest.raises(ValueError):
            cms_to_vee(a2(), euclidean_metric(2))


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("check", [cms_identity_residual, check_series_with_metric, cms_to_vee])
def test_wrong_size_metric_refused_by_one_gate(check, size):
    message = "^metric size does not match the configuration dimension$"
    with pytest.raises(DimensionMismatch, match=message):
        check(b2(), Metric(RatMatrix.identity(size)))
