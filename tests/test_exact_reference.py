"""The integer CMS recovery and implied-identity checks against frozen
Fraction routines.

`reference_cms_to_vee` is a fixed copy of the recovery that the integer
pairing tables replaced: the operator T = M G built in Fractions, two
matrix-vector products per covector, the eigenvector test on each dual, and
a second, intrinsic series check for the verdict.  `reference_v3_identity`
and `reference_rational_vee` accumulate the implied 2-form identities one
Fraction vee product at a time.  None of them reads an integer pairing
table, and the integer code must reproduce their reports exactly.
"""

import random
from fractions import Fraction

import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import (
    CmsToVeeResult,
    Metric,
    _scalar_blocks,
    check_series_with_metric,
    cms_to_vee,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import build_configuration, direct_sum, vee_product, wedge_coeffs
from trigvee.errors import DegenerateForm, NonScalarAction
from trigvee.exactnum import RatMatrix, rank, rref
from trigvee.veecheck import (
    PlaneWitness,
    RationalVeeReport,
    TwoFormWitness,
    V3Report,
    check_rational_vee,
    check_series_condition,
    check_v3_identity,
)

from conftest import rand_configuration, rand_fraction, rand_nonzero_fraction

F = Fraction
CATALOG = [name for name, _ in catalog_list()]


def reference_scalar_duals(cfg, metric):
    """The duals M a^T grouped by their eigenvalue under T = M G."""
    t = metric.matrix @ cfg.gram
    duals_by_scalar = {}
    for e in cfg.entries:
        dual = metric.matrix.mat_vec(e.covector)
        image = t.mat_vec(dual)
        k = next(k for k, x in enumerate(dual) if x != 0)
        mu = image[k] / dual[k]
        if any(iv != mu * dv for iv, dv in zip(image, dual)):
            raise NonScalarAction(
                f"dual of covector {e.label} does not lie in a single scalar block"
            )
        duals_by_scalar.setdefault(mu, []).append(dual)
    return duals_by_scalar


def reference_cms_to_vee(cfg, metric):
    if cfg.gram_det == 0:
        raise DegenerateForm("the form G is degenerate")
    metric_report = check_series_with_metric(cfg, metric)
    if not metric_report.passed:
        raise ValueError("metric series condition fails; nothing to recover")
    duals_by_scalar = reference_scalar_duals(cfg, metric)
    scalars = tuple(sorted(duals_by_scalar))
    vee_series = check_series_condition(cfg)
    return CmsToVeeResult(
        is_trig_vee=vee_series.passed,
        component_scalars=scalars,
        component_dims=tuple(rank(duals_by_scalar[mu]) for mu in scalars),
        vee_series=vee_series,
    )


def reference_v3_identity(cfg):
    n = cfg.dim
    m = n * (n - 1) // 2
    witnesses = []
    for i, entry in enumerate(cfg.entries):
        acc = [F(0)] * m
        for other in cfg.entries:
            p = vee_product(cfg, entry.covector, other.covector)
            w = wedge_coeffs(entry.covector, other.covector)
            for k in range(m):
                acc[k] += other.mult * p * w[k]
        if any(acc):
            witnesses.append(TwoFormWitness(base_index=i, coefficients=tuple(acc)))
    return V3Report(witnesses=tuple(witnesses))


def _plane_key(u, v):
    reduced, _ = rref([u, v])
    return tuple(tuple(row) for row in reduced)


def reference_rational_vee(cfg):
    witnesses = []
    planes_checked = 0
    for i, entry in enumerate(cfg.entries):
        a = entry.covector
        parallel = {j for j, d in enumerate(cfg.directions) if d == cfg.directions[i]}
        planes = {}
        for j, other in enumerate(cfg.entries):
            if j not in parallel:
                planes.setdefault(_plane_key(a, other.covector), []).append(j)
        for key in sorted(planes, key=lambda k: planes[k][0]):
            member_idx = sorted(set(planes[key]) | parallel)
            total = [F(0)] * cfg.dim
            for j in member_idx:
                e = cfg.entries[j]
                cp = e.mult * vee_product(cfg, a, e.covector)
                for k in range(cfg.dim):
                    total[k] += cp * e.covector[k]
            deviation = wedge_coeffs(tuple(total), a)
            planes_checked += 1
            if any(deviation):
                witnesses.append(PlaneWitness(i, tuple(member_idx), deviation))
    return RationalVeeReport(witnesses=tuple(witnesses), planes_checked=planes_checked)


def outcome(fn, *args):
    """The repr of the result, or the type and message of the error."""
    try:
        return repr(fn(*args))
    except (ValueError, NonScalarAction, DegenerateForm) as exc:
        return f"{type(exc).__name__}: {exc}"


def small_configuration(rng, dim):
    # integer covectors in [-3, 3]: only three lines in dimension 1
    return rand_configuration(rng, dim, max_covectors=3 if dim == 1 else 6)


def rand_symmetric(rng, n):
    rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    return RatMatrix([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def block_diagonal(left: RatMatrix, right: RatMatrix) -> RatMatrix:
    n, m = left.rows, right.rows
    return RatMatrix(
        [list(row) + [0] * m for row in left.entries] + [[0] * n + list(row) for row in right.entries]
    )


def catalog_metrics(cfg):
    vee = vee_form_metric(cfg)
    yield vee
    for t in (F(10**6), F(1000001, 7), F(-3)):
        yield vee.scaled(t)
    yield euclidean_metric(cfg.dim)
    yield Metric(RatMatrix([[i + 1 if i == j else 0 for j in range(cfg.dim)] for i in range(cfg.dim)]))
    yield Metric(cfg.gram.scale(F(2, 9)))
    yield Metric(rand_symmetric(random.Random(cfg.dim * 101 + len(cfg.entries)), cfg.dim))


def assert_recovery_matches(cfg, metric, seen):
    expected = outcome(reference_cms_to_vee, cfg, metric)
    assert outcome(cms_to_vee, cfg, metric) == expected
    if expected.startswith("CmsToVeeResult"):
        res = cms_to_vee(cfg, metric)
        assert res.vee_series == check_series_condition(cfg)
        seen["passed"] += 1
        seen["split"] += len(res.component_scalars) > 1
    else:
        seen[expected.split(":")[0]] += 1


@pytest.fixture
def seen():
    return {"passed": 0, "split": 0, "ValueError": 0, "NonScalarAction": 0, "DegenerateForm": 0}


def test_catalog_recovery_matches_frozen(seen):
    for name in CATALOG:
        cfg = catalog_get(name).cfg
        for metric in catalog_metrics(cfg):
            assert_recovery_matches(cfg, metric, seen)
    assert seen["passed"] >= 4 * len(CATALOG) and seen["ValueError"] > 0
    # OrthogonalPair: diag(1, 2) splits it into two scalars
    assert seen["split"] > 0


def test_random_configurations_recovery_matches_frozen(seen):
    """Dims 1-4 with random symmetric metrics, the vee form and its multiples."""
    rng = random.Random(5)
    for trial in range(120):
        cfg = small_configuration(rng, 1 + trial % 4)
        metrics = [Metric(rand_symmetric(rng, cfg.dim)), euclidean_metric(cfg.dim)]
        if cfg.gram_det != 0:
            vee = vee_form_metric(cfg)
            metrics += [vee, vee.scaled(rand_nonzero_fraction(rng))]
        for metric in metrics:
            if metric.matrix.det() != 0:
                assert_recovery_matches(cfg, metric, seen)
    assert seen["passed"] > 30 and seen["ValueError"] > 30 and seen["DegenerateForm"] > 0


def test_block_scalar_metrics_on_direct_sums(seen):
    """Two vee systems side by side with each block's vee form times its own
    scalar: one component per distinct scalar."""
    pairs = [("A2", "B2"), ("A1", "G2"), ("A3", "A1"), ("B2", "B3"), ("A2", "A2"), ("Prop4", "A1")]
    for left_name, right_name in pairs:
        left, right = catalog_get(left_name).cfg, catalog_get(right_name).cfg
        cfg = direct_sum(left, right)
        for s, t in [(F(1), F(1)), (F(1), F(2)), (F(3), F(-1, 2)), (F(10**6), F(7, 3))]:
            matrix = block_diagonal(left.gram_inverse.scale(s), right.gram_inverse.scale(t))
            assert_recovery_matches(cfg, Metric(matrix), seen)
        # a block that is not a multiple of its vee form fails the series check
        matrix = block_diagonal(left.gram_inverse, euclidean_metric(right.dim).matrix.scale(5))
        assert_recovery_matches(cfg, Metric(matrix), seen)
    assert seen["split"] >= 3 * len(pairs)


def test_scalar_blocks_match_frozen_eigenvector_test():
    """The row-proportionality test alone, without the series precondition
    that makes every passing case scalar: random metrics are mostly not."""
    rng = random.Random(9)
    counts = {"scalar": 0, "NonScalarAction": 0}
    for trial in range(150):
        cfg = small_configuration(rng, 1 + trial % 4)
        if cfg.gram_det == 0:
            continue
        vee = cfg.gram_inverse.scale(rand_nonzero_fraction(rng))
        for matrix in (rand_symmetric(rng, cfg.dim), vee, RatMatrix.identity(cfg.dim)):
            if matrix.det() == 0:
                continue
            metric = Metric(matrix)
            try:
                duals = reference_scalar_duals(cfg, metric)
            except NonScalarAction as exc:
                with pytest.raises(NonScalarAction) as got:
                    _scalar_blocks(cfg, metric)
                assert str(got.value) == str(exc)
                counts["NonScalarAction"] += 1
                continue
            blocks = _scalar_blocks(cfg, metric)
            assert sorted(blocks) == sorted(duals)
            assert [rank(blocks[mu]) for mu in sorted(blocks)] == [
                rank(duals[mu]) for mu in sorted(duals)
            ]
            counts["scalar"] += 1
    assert counts["scalar"] > 50 and counts["NonScalarAction"] > 50


def implied_identity_configurations():
    cfgs = [catalog_get(name).cfg for name in CATALOG]
    rng = random.Random(13)
    for trial in range(60):
        cfg = rand_configuration(rng, 2 + trial % 3, max_covectors=6)
        # every other covector scaled by 5/7 in half of the configurations
        # (never onto an integer covector)
        scales = [F(5, 7) if trial % 2 and j % 2 else 1 for j in range(len(cfg.entries))]
        entries = [(tuple(t * x for x in e.covector), e.mult) for t, e in zip(scales, cfg.entries)]
        cfg = build_configuration(cfg.dim, entries)
        if cfg.gram_det != 0:
            cfgs.append(cfg)
    # fractional covectors and multiplicities, and a parallel pair
    cfgs.append(
        build_configuration(
            3, [((F(1, 2), 0, 1), F(2, 3)), ((3, 0, 6), 2), ((0, 1, 0), 1), ((1, 1, F(1, 3)), F(-5, 4))]
        )
    )
    cfgs.append(build_configuration(2, [((1, 0), 1), ((0, 1), 2), ((1, 1), 1), ((1, -1), 1)]))
    return cfgs


def test_implied_identities_match_frozen():
    """The reports match coefficient for coefficient.  Failing configurations
    give plane witnesses; the full 2-form sum telescopes to a ^ a under the
    vee product, so the v3 check passes on every configuration."""
    planes_failing = 0
    for cfg in implied_identity_configurations():
        v3 = check_v3_identity(cfg)
        planes = check_rational_vee(cfg)
        assert repr(v3) == repr(reference_v3_identity(cfg))
        assert repr(planes) == repr(reference_rational_vee(cfg))
        assert v3.passed
        if planes.witnesses:
            assert not check_series_condition(cfg).passed
            planes_failing += 1
    assert planes_failing > 10
