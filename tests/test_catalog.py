"""Catalog entries: expected values, parametrization, validation."""

import random
from fractions import Fraction

import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import cms_to_vee, euclidean_metric
from trigvee.configuration import positive_system
from trigvee.errors import DegenerateForm, InvalidParams, UnknownName
from trigvee.veecheck import check_series_condition, full_check, solve_lambda_squared
from trigvee.wdvv import EvalPoint, eval_prepotential, third_derivative_matrices, wdvv_residual

F = Fraction

REQUIRED = {
    "A2",
    "B2",
    "Prop4",
    "Prop5",
    "G2",
    "G2timesScaledA2",
    "TenVector",
    "OrthogonalPair",
}


def test_listing_stable_and_complete():
    names = [name for name, _ in catalog_list()]
    assert names == [name for name, _ in catalog_list()]
    assert REQUIRED <= set(names)
    assert {"A1", "A3", "A4", "B3", "B4"} <= set(names)


def test_every_entry_builds_and_matches_expectations():
    for name, _ in catalog_list():
        entry = catalog_get(name)
        report = full_check(entry.cfg)
        if entry.expected_trig_vee is not None:
            assert report.is_trig_vee == entry.expected_trig_vee, name
        if entry.expected_lambda2 is not None:
            assert report.lambda_solution.lambda2 == entry.expected_lambda2, name
        if entry.expected_lambda_status is not None:
            assert report.lambda_solution.status == entry.expected_lambda_status, name


def test_golden_lambda_values():
    assert catalog_get("A2").expected_lambda2 == 36
    assert catalog_get("B2").expected_lambda2 == 54
    assert catalog_get("Prop4").expected_lambda2 == F(486, 7)
    assert catalog_get("G2timesScaledA2").expected_lambda2 == F(900, 7)
    assert catalog_get("TenVector").expected_lambda2 == 450


def test_a2_parametrized():
    entry = catalog_get("A2", {"ca": 1, "cb": 2, "cc": 3})
    assert len(entry.cfg.entries) == 3
    assert entry.expected_lambda2 == 4 * F(11) ** 2 / 6
    assert full_check(entry.cfg).lambda_solution.lambda2 == entry.expected_lambda2


def test_b2_unequal_expected_to_fail():
    entry = catalog_get("B2", {"c1": 1, "c2": 2})
    assert entry.expected_trig_vee is False
    assert not check_series_condition(entry.cfg).passed


def test_prop4_parameter_validation():
    catalog_get("Prop4")  # defaults satisfy the relations
    with pytest.raises(InvalidParams):
        catalog_get("Prop4", {"cp": 1, "cm": 2})
    with pytest.raises(InvalidParams):
        catalog_get("Prop4", {"c1": 5})  # breaks 2*ct1*c2 = cp*(c1 - c2)
    with pytest.raises(InvalidParams):
        catalog_get("Prop4", {"bogus": 1})


def test_prop5_stated_point():
    entry = catalog_get("Prop5", {"t": 1, "s": 1})
    mults = {e.label: e.mult for e in entry.cfg.entries}
    assert mults["e1"] == F(1, 7)
    assert mults["e2"] == 5
    assert mults["2e2"] == 1
    assert mults["(e1+e2)/2"] == 3
    assert mults["(e1+3e2)/2"] == 1
    assert check_series_condition(entry.cfg).passed


def test_prop5_invalid_parameters():
    with pytest.raises(InvalidParams, match="^Prop5: parameter t must be nonzero$"):
        catalog_get("Prop5", {"t": 0})
    with pytest.raises(InvalidParams, match="^Prop5: parameter s must be nonzero$"):
        catalog_get("Prop5", {"s": 0})
    with pytest.raises(InvalidParams):
        catalog_get("Prop5", {"t": 4, "s": -3})  # 3t + 4s = 0
    with pytest.raises(InvalidParams):
        catalog_get("Prop5", {"t": 2, "s": 3})  # c1 = 0


def test_g2_random_orbit_multiplicities():
    rng = random.Random(11)
    for _ in range(3):
        cs = F(rng.randint(1, 9), rng.randint(1, 9))
        cl = F(rng.randint(1, 9), rng.randint(1, 9))
        entry = catalog_get("G2", {"cs": cs, "cl": cl})
        assert check_series_condition(entry.cfg).passed


def test_g2_union_requires_derived_relation():
    catalog_get("G2timesScaledA2", {"cs": F(3, 2), "cl": F(1, 2), "cd": 7})
    with pytest.raises(InvalidParams):
        catalog_get("G2timesScaledA2", {"cs": 1, "cl": 1})


def test_ten_vector_scaling():
    entry = catalog_get("TenVector", {"scale": F(1, 12)})
    assert entry.expected_lambda2 == F(450, 12)
    assert full_check(entry.cfg).lambda_solution.lambda2 == F(450, 12)


def test_search_derived_entries_are_certified():
    for name in ("G2timesScaledA2", "TenVector"):
        entry = catalog_get(name)
        assert entry.origin == "exact-search"
        assert check_series_condition(entry.cfg).passed
        assert entry.cfg.gram_det != 0


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog_get("NoSuchSystem")


DEGENERATE = [
    ("A2", {"cc": F(-1, 2)}),
    ("A2", {"ca": 2, "cb": 2, "cc": -1}),
    ("B2", {"cp": F(-1, 2), "cm": F(-1, 2)}),
    ("B2", {"c2": 2, "cp": F(-1, 2), "cm": F(-1, 2)}),
    ("Prop4", {"c1": 4, "ct1": F(-1, 2), "c2": 2, "cp": -1, "cm": -1}),
    ("G2", {"cl": F(-1, 3)}),
    ("B3", {"cl": F(-1, 4)}),
    ("B4", {"cl": F(-1, 6)}),
]


@pytest.mark.parametrize(
    "name, params", DEGENERATE, ids=[f"{n}-{i}" for i, (n, _) in enumerate(DEGENERATE)]
)
def test_degenerate_form_carries_no_expectation(name, params):
    entry = catalog_get(name, params)
    assert entry.cfg.gram_det == 0
    expected = (entry.expected_trig_vee, entry.expected_lambda2, entry.expected_lambda_status)
    assert expected == (None, None, None)
    assert entry.origin is None
    assert full_check(entry.cfg).degenerate


def test_prop4_closed_form_withheld_where_its_denominator_vanishes():
    """c1 + 4 ct1 = 0 with the relations holding and det G = 2: the closed
    form divides by zero, and the exact solve finds no coupling."""
    entry = catalog_get("Prop4", {"c1": 2, "ct1": F(-1, 2), "c2": 1, "cp": -1, "cm": -1})
    assert entry.cfg.gram_det == 2
    assert entry.expected_trig_vee is True
    assert (entry.expected_lambda2, entry.expected_lambda_status) == (None, None)
    report = full_check(entry.cfg)
    assert report.is_trig_vee
    assert report.lambda_solution.status == "no_solution"


def test_degenerate_entry_refused_by_the_numeric_layers():
    cfg = catalog_get("A2", {"cc": F(-1, 2)}).cfg
    point = EvalPoint(y=0j, x=(0.5 - 0.5j, 0.25 - 0.75j), margin=1.0)
    message = "^the form G is degenerate$"
    with pytest.raises(DegenerateForm, match=message):
        wdvv_residual(cfg, 36)
    with pytest.raises(DegenerateForm, match=message):
        third_derivative_matrices(cfg, 36, point)
    with pytest.raises(DegenerateForm, match=message):
        eval_prepotential(cfg, 36, positive_system(cfg), point)
    with pytest.raises(DegenerateForm, match=message):
        cms_to_vee(cfg, euclidean_metric(2))
    with pytest.raises(DegenerateForm, match=message):
        solve_lambda_squared(cfg)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"ca": 0}, "A2: parameter ca must be nonzero"),
        ({"cb": 1, "zz": 1}, "A2: unknown parameter 'zz'"),
    ],
)
def test_parameter_refusals(params, message):
    with pytest.raises(InvalidParams) as err:
        catalog_get("A2", params)
    assert str(err.value) == message


def test_params_keep_default_order_as_fractions():
    entry = catalog_get("Prop4", {"cm": 1, "c1": 3})
    assert list(entry.params) == ["c1", "ct1", "c2", "cp", "cm"]
    assert all(type(v) is Fraction for v in entry.params.values())
