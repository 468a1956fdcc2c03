"""Differential tests: the cached series split, the integer series residuals
and the batched WDVV commutators against straightforward reference
implementations."""

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigvee import veecheck
from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import Metric, check_series_with_metric, euclidean_metric, vee_form_metric
from trigvee.configuration import (
    AlphaSeries,
    SeriesMember,
    VConfiguration,
    alpha_series,
    build_configuration,
    cov_dot,
    dual_vector,
    relative_wedge_signs,
    vee_product,
)
from trigvee.exactnum import RatMatrix
from trigvee.veecheck import (
    SeriesResidual,
    check_series_condition,
    full_check,
    solve_lambda_squared,
)
from trigvee.wdvv import wdvv_residual

from conftest import rand_fraction, rand_nonzero_fraction
from test_integer_kernels import a_roots, b_roots
from test_numeric_reference import reference_sample_points, reference_third_derivative_matrices

F = Fraction


def reference_alpha_series(cfg: VConfiguration, base_index: int) -> tuple[AlphaSeries, ...]:
    """Each entry's coset of b and of -b reduced separately, then sorted."""

    def coset_rep(b, a, pivot):
        k = b[pivot] // a[pivot]
        return tuple(x - k * y for x, y in zip(b, a)), -k

    direction = cfg.directions[base_index]
    a = cfg.lattice_coords[base_index]
    pivot = next(j for j, x in enumerate(a) if x != 0)
    flipped = a[pivot] < 0
    if flipped:
        a = tuple(-x for x in a)
    groups = {}
    for j, (b, d) in enumerate(zip(cfg.lattice_coords, cfg.directions)):
        if d == direction:
            continue
        rep_pos, step_pos = coset_rep(b, a, pivot)
        rep_neg, step_neg = coset_rep(tuple(-x for x in b), a, pivot)
        if rep_pos <= rep_neg:
            key, sign, step = rep_pos, 1, step_pos
        else:
            key, sign, step = rep_neg, -1, step_neg
        if flipped:
            step = -step
        groups.setdefault(key, []).append(SeriesMember(j, sign, step))
    series = [
        AlphaSeries(base_index, key, tuple(sorted(ms, key=lambda m: m.entry_index)))
        for key, ms in groups.items()
    ]
    series.sort(key=lambda s: s.members[0].entry_index)
    return tuple(series)


def is_integer_multiple(v, a) -> bool:
    """v = k * a for an integer k (a nonzero)."""
    p = next(t for t, x in enumerate(a) if x != 0)
    return v[p] % a[p] == 0 and all(x * a[p] == y * v[p] for x, y in zip(v, a))


coordinates = st.integers(-3, 3).map(lambda x: F(x, 2)) | st.integers(-4, 4).map(F)


@st.composite
def configurations(draw):
    dim = draw(st.integers(1, 3))
    vectors = draw(
        st.lists(
            st.tuples(*[coordinates] * dim).filter(any), min_size=1, max_size=8, unique=True
        )
    )
    entries = []
    seen = set()
    for v in vectors:
        if tuple(-x for x in v) not in seen:
            seen.add(v)
            entries.append((v, 1))
    return build_configuration(dim, entries)


@settings(max_examples=150, deadline=None)
@given(configurations())
def test_split_is_the_coset_partition(cfg):
    coords = cfg.lattice_coords
    for i, series in enumerate(cfg.series):
        assert series == alpha_series(cfg, i) == reference_alpha_series(cfg, i)
        label = {j: s for s, ser in enumerate(series) for j in ser.entry_indices()}
        a = coords[i]
        for j1, b1 in enumerate(coords):
            parallel = cfg.directions[j1] == cfg.directions[i]
            assert (j1 in label) != parallel
            for j2 in range(j1 + 1, len(coords)):
                if parallel or j2 not in label:
                    continue
                b2 = coords[j2]
                related = is_integer_multiple(
                    tuple(x - y for x, y in zip(b1, b2)), a
                ) or is_integer_multiple(tuple(x + y for x, y in zip(b1, b2)), a)
                assert (label[j1] == label[j2]) == related


def test_split_reference_on_negative_and_non_unit_bases():
    """Bases with a negative leading lattice coordinate and with a pivot
    coordinate above 1 both occur, so both branches of the -b coset run."""
    cfg = build_configuration(
        2, [((2, 0), 1), ((0, 1), 1), ((1, 1), 1), ((-1, 2), 1), ((3, -1), 1), ((-2, -3), 1)]
    )
    pivots = [next(x for x in c if x) for c in cfg.lattice_coords]
    assert any(p < 0 for p in pivots) and any(abs(p) > 1 for p in pivots)
    for i in range(len(cfg.entries)):
        assert cfg.series[i] == reference_alpha_series(cfg, i)


def reference_residuals(cfg: VConfiguration, product):
    """(base, series, residue, members, residual) with one Fraction product
    per member."""
    out = []
    for i, a in enumerate(cfg.covectors()):
        for s_idx, series in enumerate(reference_alpha_series(cfg, i)):
            total = Fraction(0)
            for member, r in zip(series.members, relative_wedge_signs(series)):
                e = cfg.entries[member.entry_index]
                total += e.mult * product(a, e.covector) * r
            out.append((i, s_idx, series.residue, series.entry_indices(), total))
    return out


def as_tuples(report):
    return [
        (r.base_index, r.series_index, r.residue, r.member_indices, r.residual)
        for r in report.residuals
    ]


def random_rational_metric(rng, dim):
    while True:
        rows = [[rand_fraction(rng) for _ in range(dim)] for _ in range(dim)]
        matrix = RatMatrix([[rows[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)])
        if matrix.det() != 0:
            return matrix


@pytest.mark.parametrize("name", [name for name, _ in catalog_list()])
def test_residuals_match_fraction_reference(name):
    """At random rational multiplicities, so most residuals are nonzero."""
    rng = random.Random(name)
    base = catalog_get(name).cfg
    while True:
        cfg = build_configuration(
            base.dim, [(e.covector, rand_nonzero_fraction(rng, -6, 6), e.label) for e in base.entries]
        )
        if cfg.gram_det != 0:
            break
    report = check_series_condition(cfg)
    expected = reference_residuals(cfg, lambda u, v: vee_product(cfg, u, v))
    assert as_tuples(report) == expected
    if name not in ("A1", "A2", "OrthogonalPair"):  # these pass at any multiplicities
        assert any(r.residual != 0 for r in report.residuals)
    assert check_series_with_metric(cfg, vee_form_metric(cfg)) == report

    matrix = random_rational_metric(rng, cfg.dim)
    metric_report = check_series_with_metric(cfg, Metric(matrix))
    assert as_tuples(metric_report) == reference_residuals(
        cfg, lambda u, v: cov_dot(u, matrix.mat_vec(v))
    )


@dataclass(frozen=True)
class SeriesCheckReport:
    """A frozen copy of the eager series report: every residual built as a
    `SeriesResidual` with its Fraction when the check runs."""

    residuals: tuple[SeriesResidual, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    def failures(self) -> tuple[SeriesResidual, ...]:
        return tuple(r for r in self.residuals if not r.passed)


def eager_series_residuals(cfg: VConfiguration, pairing) -> SeriesCheckReport:
    """A frozen copy of the eager integer series check."""
    table, den = pairing
    mults, l_c = cfg.integer_mults
    scale = l_c * den
    residuals = []
    for i, row in enumerate(table):
        for s_idx, series in enumerate(cfg.series[i]):
            members = series.entry_indices()
            total = sum(
                r * mults[j] * row[j] for j, r in zip(members, relative_wedge_signs(series))
            )
            residuals.append(
                SeriesResidual(
                    base_index=i,
                    series_index=s_idx,
                    residue=series.residue,
                    member_indices=members,
                    residual=Fraction(total, scale),
                )
            )
    return SeriesCheckReport(residuals=tuple(residuals))


def assert_matches_eager(report, eager):
    assert report.passed == eager.passed
    assert report.failures() == eager.failures()
    assert report.residuals == eager.residuals
    assert repr(report) == repr(eager)


@pytest.mark.parametrize("name", [name for name, _ in catalog_list()])
def test_lazy_report_matches_eager_copy(name):
    """At the catalog multiplicities (all passing), at random rational ones
    (mostly failing) and under a random metric; two reports compare equal
    exactly when their eager copies do."""
    rng = random.Random(f"lazy/{name}")
    base = catalog_get(name).cfg
    cases = [base] if base.gram_det != 0 else []
    while len(cases) < 3:
        cfg = build_configuration(
            base.dim, [(e.covector, rand_nonzero_fraction(rng, -6, 6), e.label) for e in base.entries]
        )
        if cfg.gram_det != 0:
            cases.append(cfg)
    reports, eager_reports = [], []
    for cfg in cases:
        report = check_series_condition(cfg)
        eager = eager_series_residuals(cfg, cfg.integer_pairing)
        assert_matches_eager(report, eager)
        metric = Metric(random_rational_metric(rng, cfg.dim))
        eager_metric = eager_series_residuals(cfg, metric.integer_pairing(cfg))
        assert_matches_eager(check_series_with_metric(cfg, metric), eager_metric)
        reports.append(report)
        eager_reports.append(eager)
    # a fresh report, whose residuals are not yet built, and the vee-form
    # metric report, equal to the intrinsic one
    reports.append(check_series_with_metric(cases[0], vee_form_metric(cases[0])))
    eager_reports.append(eager_reports[0])
    for report, eager in zip(reports, eager_reports):
        for other, other_eager in zip(reports, eager_reports):
            assert (report == other) == (eager == other_eager)
            if eager == other_eager:
                assert hash(report) == hash(other)
    assert eager_reports[0].passed
    # these pass at any multiplicities
    assert all(r.passed for r in eager_reports) == (name in ("A1", "A2", "OrthogonalPair"))


def test_full_check_builds_no_residual_records(monkeypatch):
    """A verdict on B8 reads the integer totals only: no `SeriesResidual`
    is made until the residuals are read."""
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return SeriesResidual(*args, **kwargs)

    monkeypatch.setattr(veecheck, "SeriesResidual", counting)
    cfg = build_configuration(8, [(r, 1) for r in b_roots(8)])
    report = full_check(cfg)
    assert report.is_trig_vee and made == []
    failing = build_configuration(8, [(r, 2 if k == 0 else 1) for k, r in enumerate(b_roots(8))])
    assert not full_check(failing).is_trig_vee and made == []
    assert len(report.series.residuals) == len(report.series.totals) == len(made) == 3192


wide_coordinates = (
    st.integers(-(2**40), 2**40).map(F)
    | st.integers(-(2**41), 2**41).map(lambda x: F(x, 2))
    | st.integers(-3, 3).map(F)
)


@st.composite
def wide_configurations(draw):
    """Entries up to 2^40, half-integers, some covectors next to their
    doubles, and random multiplicities."""
    dim = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[wide_coordinates] * dim).filter(any), min_size=1, max_size=6))
    doubled = draw(st.lists(st.booleans(), min_size=len(vectors), max_size=len(vectors)))
    entries, seen = [], set()
    for v, twice in zip(vectors, doubled):
        for w in (v, tuple(2 * x for x in v)) if twice else (v,):
            if w not in seen and tuple(-x for x in w) not in seen:
                seen.add(w)
                entries.append((w, draw(st.integers(-5, 5).filter(bool))))
    return build_configuration(dim, entries)


def vee_pairing_product(cfg):
    """The vee product with one dual vector per covector."""
    duals = {}

    def product(u, v):
        if v not in duals:
            duals[v] = dual_vector(cfg, v)
        return cov_dot(u, duals[v])

    return product


@settings(max_examples=150, deadline=None)
@given(wide_configurations())
def test_split_and_totals_on_wide_entries(cfg):
    """The packed-key split matches the tuple reference whatever the size of
    the lattice coordinates, and the integer totals the Fraction sums."""
    assert cfg.series == tuple(reference_alpha_series(cfg, i) for i in range(len(cfg.entries)))
    report = check_series_with_metric(cfg, euclidean_metric(cfg.dim))
    expected = reference_residuals(cfg, cov_dot)
    assert [Fraction(t, report.scale) for t in report.totals] == [r[4] for r in expected]
    if cfg.gram_det != 0:
        report = check_series_condition(cfg)
        expected = reference_residuals(cfg, vee_pairing_product(cfg))
        assert [Fraction(t, report.scale) for t in report.totals] == [r[4] for r in expected]


def test_full_check_leaves_the_series_records_unbuilt():
    """A verdict on B8 reads the integer split alone; the series records are
    built when the residuals are first read, and match the reference."""
    cfg = build_configuration(8, [(r, 1) for r in b_roots(8)])
    report = full_check(cfg)
    assert report.is_trig_vee
    assert "series" not in vars(cfg)
    assert as_tuples(report.series) == reference_residuals(cfg, vee_pairing_product(cfg))
    assert "series" in vars(cfg)


@pytest.mark.parametrize("roots", [a_roots(6), b_roots(6)], ids=["A6", "B6"])
def test_failures_with_the_first_root_doubled(roots):
    cfg = build_configuration(6, [(r, 2 if k == 0 else 1) for k, r in enumerate(roots)])
    failures = full_check(cfg).series.failures()
    expected = [r for r in reference_residuals(cfg, vee_pairing_product(cfg)) if r[4] != 0]
    assert expected
    assert [
        (r.base_index, r.series_index, r.residue, r.member_indices, r.residual) for r in failures
    ] == expected


def reference_wdvv_per_point(cfg, lambda_squared, seed):
    """The commutators pair by pair, as a double loop over i < j, at the
    frozen per-point sample points and matrices."""
    n = cfg.dim
    f0_inv = None
    per_point = []
    for p in reference_sample_points(cfg, 10, seed):
        mats = reference_third_derivative_matrices(cfg, lambda_squared, p)
        if f0_inv is None:
            f0_inv = np.linalg.inv(mats[0])
        worst = 0.0
        for i in range(n + 1):
            left_i = mats[i] @ f0_inv
            for j in range(i + 1, n + 1):
                res = left_i @ mats[j] - mats[j] @ f0_inv @ mats[i]
                worst = max(worst, float(np.max(np.abs(res))))
        per_point.append(worst)
    return tuple(per_point)


def wdvv_configuration(name):
    if name in ("A5", "B5", "A6"):
        n = int(name[1])
        return build_configuration(n, [(r, 1) for r in (a_roots if name[0] == "A" else b_roots)(n)])
    return catalog_get(name).cfg


# every catalog entry with a solved coupling, and three larger root systems
WDVV_CASES = [name for name, _ in catalog_list() if name not in ("OrthogonalPair", "A1")]


@pytest.mark.parametrize("name", WDVV_CASES + ["A5", "B5", "A6"])
def test_batched_wdvv_matches_pairwise_loop(name):
    """Bit for bit, at the solved and at a 1%-perturbed coupling."""
    cfg = wdvv_configuration(name)
    lambda2 = solve_lambda_squared(cfg).lambda2
    for coupling in (lambda2, lambda2 * F(101, 100)):
        for seed in (0, 7):
            got = wdvv_residual(cfg, coupling, seed=seed).per_point
            assert got == reference_wdvv_per_point(cfg, coupling, seed)
