"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import random
from fractions import Fraction

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import (
    check_series_with_metric,
    cms_identity_residual,
    eigenvalue_estimate,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import build_configuration, direct_sum, positive_system
from trigvee.constraints import find_multiplicities, verify_family
from trigvee.multipoly import MultiPoly, RatFunc
from trigvee.veecheck import (
    check_rational_vee,
    check_series_condition,
    full_check,
    solve_lambda_squared,
)
from trigvee.wdvv import check_f_derivative, wdvv_residual

from conftest import rand_configuration, rand_nonsingular, rand_nonzero_fraction

F = Fraction


def _passing_solved_entries():
    out = []
    for name, _ in catalog_list():
        entry = catalog_get(name)
        report = full_check(entry.cfg)
        if report.is_trig_vee and report.lambda_solution.status == "solved":
            out.append((name, entry.cfg, report.lambda_solution.lambda2))
    return out


def test_criterion_1_exact_lambda_golden_values():
    cases = [
        ("A2", 36, lambda p: 4 * (p["ca"] * p["cb"] + p["ca"] * p["cc"] + p["cb"] * p["cc"]) ** 2
         / (p["ca"] * p["cb"] * p["cc"])),
        ("B2", 54, lambda p: 4 * ((p["c1"] + 2 * p["cp"]) * (p["c1"] + 2 * p["cm"])) ** 2
         / (p["c1"] * (4 * p["cp"] * p["cm"] + p["c1"] * (p["cp"] + p["cm"])))),
        ("Prop4", F(486, 7), lambda p: 2 * ((p["c1"] + 4 * p["ct1"] + 2 * p["cp"]) * (p["c2"] + 2 * p["cp"])) ** 2
         / ((p["c2"] + 2 * p["cp"]) * (p["c1"] + 4 * p["ct1"]) * p["cp"])),
    ]
    for name, golden, closed_form in cases:
        entry = catalog_get(name)
        solved = solve_lambda_squared(entry.cfg).lambda2
        assert solved == golden, name
        # the closed form evaluated on the parameters is the independent oracle
        assert closed_form(entry.params) == golden, name
    print("ACCEPTANCE 1: PASS - lambda^2 = 36, 54, 486/7 exactly, matching closed forms")


def test_criterion_2_trig_vee_verdicts():
    assert check_series_condition(catalog_get("A2").cfg).passed
    assert check_series_condition(catalog_get("B2", {"c1": 2, "c2": 2}).cfg).passed
    for c1, c2, u in ((F(3), F(1), F(1)), (F(5), F(2), F(3))):
        ct1 = u * (c1 - c2) / (2 * c2)
        cfg = catalog_get(
            "Prop4", {"c1": c1, "c2": c2, "ct1": ct1, "cp": u, "cm": u}
        ).cfg
        assert check_series_condition(cfg).passed
    entry5 = catalog_get("Prop5", {"t": 1, "s": 1})
    mults = {e.label: e.mult for e in entry5.cfg.entries}
    assert mults["e1"] == F(1, 7) and mults["e2"] == 5 and mults["(e1+e2)/2"] == 3
    assert check_series_condition(entry5.cfg).passed
    rng = random.Random(7)
    for _ in range(3):
        cs = rand_nonzero_fraction(rng, 1, 9)
        cl = rand_nonzero_fraction(rng, 1, 9)
        assert check_series_condition(catalog_get("G2", {"cs": cs, "cl": cl}).cfg).passed
    # the negative case with its exact witnesses
    bad = catalog_get("B2", {"c1": 1, "c2": 2}).cfg
    report = check_series_condition(bad)
    assert not report.passed
    residuals = {(r.base_index, r.member_indices): r.residual for r in report.residuals}
    assert residuals[(2, (3,))] == F(1, 12)  # (e1+e2)-series containing e1-e2
    assert residuals[(2, (0, 1))] == F(-1, 6)
    print("ACCEPTANCE 2: PASS - series verdicts exact, including the 1/12 witness")


def test_criterion_3_wdvv_numeric():
    entries = _passing_solved_entries()
    assert len(entries) >= 8
    for name, cfg, lam2 in entries:
        good = wdvv_residual(cfg, lam2, num_points=10, seed=7)
        assert good.aggregate < 1e-8, name
        perturbed = wdvv_residual(cfg, lam2 * F(101, 100), num_points=10, seed=7)
        assert perturbed.aggregate > 1e-4, name
    print(f"ACCEPTANCE 3: PASS - WDVV residual < 1e-8 ({len(entries)} systems), > 1e-4 when perturbed")


def test_criterion_4_implication_chain_on_randomized_configurations():
    rng = random.Random(404)
    seeds = [catalog_get(n).cfg for n in ("A2", "B2", "G2", "Prop4")]
    checked = 0
    passing = 0
    while checked < 50:
        if checked % 2 == 0:
            base = rng.choice(seeds)
            m = rand_nonsingular(rng, base.dim)
            t = rand_nonzero_fraction(rng, 1, 5)
            entries = []
            for e in base.entries:
                v = tuple(
                    sum(e.covector[i] * m.entries[i][j] for i in range(base.dim))
                    for j in range(base.dim)
                )
                entries.append((v, t * e.mult))
            cfg = build_configuration(base.dim, entries)
        else:
            cfg = rand_configuration(rng, rng.randint(2, 3))
        if cfg.gram_det == 0:
            continue
        checked += 1
        if check_series_condition(cfg).passed:
            passing += 1
            assert check_rational_vee(cfg).passed
    assert passing >= 20  # the GL-transformed seeds guarantee real coverage
    print(f"ACCEPTANCE 4: PASS - implication chain on 50 configurations ({passing} series-passing)")


def test_criterion_5_cms_identity_and_eigenvalues():
    a2 = catalog_get("A2").cfg
    rep = cms_identity_residual(a2, vee_form_metric(a2), 10, seed=2)
    assert abs(rep.mean - (-F(2, 3))) < 1e-10
    g2 = catalog_get("G2").cfg
    assert cms_identity_residual(g2, vee_form_metric(g2), 10, seed=2).max_deviation < 1e-9
    mu, _ = eigenvalue_estimate(a2, vee_form_metric(a2), 10, seed=2)
    assert abs(mu - F(8, 3)) < 1e-8
    one = catalog_get("A1").cfg
    mu1, _ = eigenvalue_estimate(one, euclidean_metric(1), 10, seed=0)
    assert abs(mu1 - 1) < 1e-10
    print("ACCEPTANCE 5: PASS - CMS constant -2/3, G2 constancy, mu = 8/3 and mu = 1")


def test_criterion_6_identity_constancy_implies_series_condition():
    rng = random.Random(6)
    for name in ("A2", "B2", "G2"):
        cfg = catalog_get(name).cfg
        base = vee_form_metric(cfg)
        metrics = [base] + [base.scaled(rand_nonzero_fraction(rng, 1, 7)) for _ in range(3)]
        for metric in metrics:
            rep = cms_identity_residual(cfg, metric, 10, seed=6)
            assert rep.max_deviation < 1e-9
            assert check_series_with_metric(cfg, metric).passed
    bad = catalog_get("B2", {"c1": 1, "c2": 2}).cfg
    rep = cms_identity_residual(bad, vee_form_metric(bad), 10, seed=6)
    assert rep.max_deviation > 1e-3
    assert not check_series_with_metric(bad, vee_form_metric(bad)).passed
    print("ACCEPTANCE 6: PASS - identity-constant metrics pass the series check; broken case fails both")


def test_criterion_7_reducibility_obstruction():
    pair = catalog_get("OrthogonalPair").cfg
    assert solve_lambda_squared(pair).status == "no_solution"
    names = ("A2", "B2", "G2", "Prop4", "Prop5")
    count = 0
    for i, left in enumerate(names):
        for right in names[i:]:
            combined = direct_sum(catalog_get(left).cfg, catalog_get(right).cfg)
            assert solve_lambda_squared(combined).status == "no_solution", (left, right)
            count += 1
    print(f"ACCEPTANCE 7: PASS - orthogonal pair and {count} direct sums all lack a coupling")


def test_criterion_8_constraint_extraction_and_search():
    b2_vectors = [(1, 0), (0, 1), (1, 1), (1, -1)]
    syms = ("c1", "c2", "cp", "cm")
    t = MultiPoly.variable(("cm", "cp", "t"), "t")
    assert verify_family(b2_vectors, {"c1": t, "c2": t}, symbols=syms).passed
    assert not verify_family(b2_vectors, {"c1": 1, "c2": 2}, symbols=syms).passed

    half = F(1, 2)
    prop5_vectors = [
        (1, 0), (0, 1), (0, 2),
        (half, half), (half, -half), (half, 3 * half), (half, -3 * half),
    ]
    pv = ("s", "t")
    tt = RatFunc.variable(pv, "t")
    ss = RatFunc.variable(pv, "s")
    par = {
        "b1": tt, "b2": tt, "a1": 3 * tt, "a2": 3 * tt, "ct2": ss,
        "c2": 3 * tt + 2 * ss, "c1": tt * (3 * tt - 2 * ss) / (3 * tt + 4 * ss),
    }
    assert verify_family(
        prop5_vectors, par, symbols=("c1", "c2", "ct2", "a1", "a2", "b1", "b2")
    ).passed

    g2a2 = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2), (2, 0), (2, 2), (4, 2)]
    ten = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]
    found = {}
    for label, vectors in (("G2+doubled", g2a2), ("ten-vector", ten)):
        solutions = find_multiplicities(vectors, seed=0, starts=12)
        assert solutions, label
        for sol in solutions:
            cfg = build_configuration(2, [(v, sol[f"c{i + 1}"]) for i, v in enumerate(vectors)])
            assert cfg.gram_det != 0
            assert check_series_condition(cfg).passed
        found[label] = len(solutions)
    print(f"ACCEPTANCE 8: PASS - constraints force c1=c2; searches certified {found}")


def test_criterion_9_invariance_suite():
    rng = random.Random(909)
    functionals = [
        (1, 3, 9, 27),
        (1, 5, 25, 125),
        (1, 4, 16, 64),
        (-1, -3, -9, -27),
        (5, 2, 17, 23),
        (7, 3, 13, 29),
        (3, 7, 31, 43),
        (1, 6, 36, 216),
    ]
    for name, _ in catalog_list():
        cfg = catalog_get(name).cfg
        base = full_check(cfg)
        base_sol = base.lambda_solution

        # sign flips
        signs = [rng.choice([1, -1]) for _ in cfg.entries]
        flipped = build_configuration(
            cfg.dim,
            [(tuple(s * x for x in e.covector), e.mult) for s, e in zip(signs, cfg.entries)],
        )
        rep = full_check(flipped)
        assert rep.is_trig_vee == base.is_trig_vee, name
        assert rep.lambda_solution.status == base_sol.status, name
        assert rep.lambda_solution.lambda2 == base_sol.lambda2, name

        # multiplicity scaling
        for t in (F(2), F(3), F(1, 2)):
            scaled = build_configuration(
                cfg.dim, [(e.covector, t * e.mult) for e in cfg.entries]
            )
            sol = solve_lambda_squared(scaled)
            assert sol.status == base_sol.status, name
            if base_sol.status == "solved":
                assert sol.lambda2 == t * base_sol.lambda2, name

        # GL conjugation
        m = rand_nonsingular(rng, cfg.dim)
        entries = []
        for e in cfg.entries:
            v = tuple(
                sum(e.covector[i] * m.entries[i][j] for i in range(cfg.dim))
                for j in range(cfg.dim)
            )
            entries.append((v, e.mult))
        rep = full_check(build_configuration(cfg.dim, entries))
        assert rep.is_trig_vee == base.is_trig_vee, name
        assert rep.lambda_solution.lambda2 == base_sol.lambda2, name

        # positive-system independence over at least 5 functionals
        used = 0
        values = set()
        for f in functionals:
            try:
                psys = positive_system(cfg, f[: cfg.dim])
            except Exception:
                continue
            sol = solve_lambda_squared(cfg, psys)
            values.add((sol.status, sol.lambda2))
            used += 1
        assert used >= 5, name
        assert len(values) == 1, name
    print("ACCEPTANCE 9: PASS - sign, scaling, GL and half-space invariances on the whole catalog")


def test_criterion_10_prepotential_kernel():
    points = (0.9 - 1.2j, -0.4 - 1.5j, 1.6 - 1.3j, -1.1 - 1.4j, 0.7 - 1.6j)
    assert len(points) == 5
    dev_h = check_f_derivative(points, 1e-2)
    dev_h2 = check_f_derivative(points, 5e-3)
    assert dev_h < 1e-5
    assert 3.5 < dev_h / dev_h2 < 4.5  # order-2 convergence
    print(f"ACCEPTANCE 10: PASS - f''' matches cot to {dev_h:.2e} at h=1e-2, ratio {dev_h / dev_h2:.2f}")