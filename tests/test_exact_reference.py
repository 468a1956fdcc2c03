"""The integer CMS recovery, the implied-identity checks and constraint
extraction against frozen reference routines.

`reference_cms_to_vee` is a fixed copy of the recovery that the integer
pairing tables replaced: the operator T = M G built in Fractions, two
matrix-vector products per covector, the eigenvector test on each dual, a
second, intrinsic series check for the verdict, and a Fraction rank.
`reference_rational_vee` accumulates the implied plane identities one
Fraction vee product at a time.  None of them reads an integer pairing table,
and the integer code must reproduce their reports exactly.

Two identities are theorems, checked here instead of at run time: the full
2-form sum of `reference_v3_identity` is a ^ a = 0 under the vee product, and
a passing metric series check makes every dual M a^T a multiple of
G^-1 a^T, so `reference_scalar_duals` never raises after one.

`reference_series_constraints` is a fixed copy of constraint extraction with
one Bareiss determinant per cofactor and every polynomial built through
`MultiPoly.__init__`; `reference_substitute` multiplies by every power table
entry, identity factors included; `reference_distinct` is the plain
sign-deduplication, comparing whole polynomials within each monomial set.
The shared-minor extraction, the substitution and the keyed deduplication
must reproduce them term for term, in insertion order: the multiplicity
search sums terms in that order.
"""

import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from trigvee.catalog import catalog_get
from trigvee.cms import (
    CmsToVeeResult,
    Metric,
    _scalar_blocks,
    check_series_with_metric,
    cms_to_vee,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import (
    build_configuration,
    covector,
    direct_sum,
    vee_product,
    wedge_coeffs,
)
from trigvee.constraints import (
    ConstraintPoly,
    ConstraintSet,
    _cofactor_rows,
    _minor_dtype,
    series_constraints,
)
from trigvee.errors import DegenerateForm, NonScalarAction
from trigvee.exactnum import RatMatrix, clear_denominators, integer_det, rref
from trigvee.multipoly import MultiPoly, RatFunc
from trigvee.veecheck import (
    PlaneWitness,
    RationalVeeReport,
    check_rational_vee,
    check_series_condition,
)

from conftest import rand_configuration, rand_fraction, rand_nonzero_fraction
from corpus import CATALOG, PROP4_VECTORS, ROOT_SYSTEMS

F = Fraction


def rank(rows):
    return len(rref(rows)[0])


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
    """(base index, coefficients) for every base whose full 2-form sum
    sum_b c_b (a,b) a^b does not vanish."""
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
            witnesses.append((i, tuple(acc)))
    return witnesses


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
    assert seen["NonScalarAction"] == 0
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
    assert seen["NonScalarAction"] == 0


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
    assert seen["NonScalarAction"] == 0


def test_scalar_blocks_match_frozen_eigenvector_test():
    """The scalars and block ranks alone, without the series precondition, on
    the metrics that the frozen eigenvector test accepts (random metrics are
    mostly not scalar, and `_scalar_blocks` does not check that they are)."""
    rng = random.Random(9)
    scalar = 0
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
            except NonScalarAction:
                continue
            blocks = _scalar_blocks(cfg, metric.integer_pairing(cfg))
            assert sorted(blocks) == sorted(duals)
            assert [rank(blocks[mu]) for mu in sorted(blocks)] == [
                rank(duals[mu]) for mu in sorted(duals)
            ]
            scalar += 1
    assert scalar > 50


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
    """The plane reports match coefficient for coefficient, and failing
    configurations give plane witnesses.  The full 2-form sum telescopes to
    a ^ a under the vee product, so it vanishes on every configuration."""
    planes_failing = 0
    for cfg in implied_identity_configurations():
        planes = check_rational_vee(cfg)
        assert repr(planes) == repr(reference_rational_vee(cfg))
        assert reference_v3_identity(cfg) == []
        if planes.witnesses:
            assert not check_series_condition(cfg).passed
            planes_failing += 1
    assert planes_failing > 10


# ---------------------------------------------------------------------------
# Constraint extraction, substitution and deduplication
# ---------------------------------------------------------------------------


def reference_cofactor_row(rows, dim):
    """Cofactors along the first row of [x; rows], so det[x; rows] = x . cof."""
    return [(-1) ** k * integer_det([r[:k] + r[k + 1 :] for r in rows]) for k in range(dim)]


# the exponent tuple of each byte, bit 0 first: a mask decodes a byte at a time
BYTE_EXPONENTS = [tuple((b >> k) & 1 for k in range(8)) for b in range(256)]


def reference_series_constraints(vectors):
    vecs = [covector(v) for v in vectors]
    dim = len(vecs[0])
    cfg = build_configuration(dim, [(v, 1) for v in vecs])
    m = len(vecs)
    symbols = tuple(f"c{i + 1}" for i in range(m))
    ints, den = clear_denominators(vecs)
    minors = []
    for t in combinations(range(m), dim - 1):
        cof = reference_cofactor_row([ints[k] for k in t], dim)
        row = [sum(x * y for x, y in zip(cof, v)) for v in ints]
        if any(row):
            minors.append((sum(1 << k for k in t), row))
    scale = den ** (2 * dim)
    shifts = range(0, m, 8)

    def poly(acc):
        terms = {}
        for mask, v in acc.items():
            bits = chain.from_iterable(BYTE_EXPONENTS[(mask >> s) & 255] for s in shifts)
            terms[tuple(bits)[:m]] = Fraction(v, scale)
        return MultiPoly(symbols, terms)

    out = []
    for i in range(m):
        with_i = [(mask, row) for mask, row in minors if row[i]]
        for s_idx, series in enumerate(cfg.series[i]):
            acc = {}
            for member in series.members:
                j, r = member.entry_index, member.sign * series.members[0].sign
                for mask, row in with_i:
                    if row[j]:
                        key = mask | 1 << j
                        acc[key] = acc.get(key, 0) + r * row[i] * row[j]
            out.append(ConstraintPoly(i, s_idx, series.entry_indices(), poly(acc)))
    det = {}
    for mask, row in minors:
        for j in range(mask.bit_length(), m):
            if row[j]:
                det[mask | 1 << j] = row[j] ** 2
    return ConstraintSet(symbols, tuple(vecs), tuple(out), poly(det))


def reference_substitute(p, mapping):
    if not p.terms:
        return RatFunc.constant(next(iter(mapping.values())).vars, 0)
    images = [mapping[v] for v in p.vars]
    param_vars = images[0].vars
    max_deg = [max(e[i] for e in p.terms) for i in range(len(p.vars))]

    def powers(q, up_to):
        table = [MultiPoly.const(q.vars, 1)]
        for _ in range(up_to):
            table.append(table[-1] * q)
        return table

    num_pows = [powers(img.num, d) for img, d in zip(images, max_deg)]
    den_pows = [powers(img.den, d) for img, d in zip(images, max_deg)]
    total_num = MultiPoly.zero(param_vars)
    for expo, coef in p.terms.items():
        piece = MultiPoly.const(param_vars, coef)
        for i, e in enumerate(expo):
            piece = piece * num_pows[i][e]
            piece = piece * den_pows[i][max_deg[i] - e]
        total_num = total_num + piece
    total_den = MultiPoly.const(param_vars, 1)
    for i, d in enumerate(max_deg):
        total_den = total_den * den_pows[i][d]
    return RatFunc(total_num, total_den)


def reference_distinct(cs):
    """Each polynomial is compared, as p and as -p, with the kept ones on its
    monomial set: a polynomial equal to p or -p has the same monomials."""
    seen, buckets = [], {}
    for c in cs.polynomials:
        same = buckets.setdefault(frozenset(c.poly.terms), [])
        if not c.poly.is_zero() and c.poly not in same and (-c.poly) not in same:
            same.append(c.poly)
            seen.append(c.poly)
    return seen


def items(p):
    """The terms in insertion order, each coefficient with its type."""
    return [(e, type(c), c) for e, c in p.terms.items()]


def assert_same_extraction(vectors):
    got = series_constraints(vectors)
    assert_same_constraint_set(got, reference_series_constraints(vectors))
    return got


def assert_same_constraint_set(got, ref):
    assert got.symbols == ref.symbols and got.vectors == ref.vectors
    assert len(got.polynomials) == len(ref.polynomials)
    for g, r in zip(got.polynomials, ref.polynomials):
        assert (g.base_index, g.series_index, g.member_indices) == (
            r.base_index,
            r.series_index,
            r.member_indices,
        )
        assert g.poly.vars == r.poly.vars
        assert items(g.poly) == items(r.poly)
    assert items(got.nondegeneracy) == items(ref.nondegeneracy)
    assert [items(p) for p in got.distinct_polynomials()] == [
        items(p) for p in reference_distinct(ref)
    ]


@pytest.mark.parametrize("name", CATALOG)
def test_extraction_matches_frozen_on_catalog(name):
    assert_same_extraction(list(catalog_get(name).cfg.covectors()))


@pytest.mark.parametrize("name", [name for name in ROOT_SYSTEMS if name != "B5"])
def test_extraction_matches_frozen_on_root_systems(name):
    cs = assert_same_extraction(ROOT_SYSTEMS[name])
    assert any(not c.poly.is_zero() for c in cs.polynomials) or name in ("A2", "B2")


def random_vector_set(rng, dim):
    """Integer and half-integer covectors spanning the space, with one of
    them doubled and one scaled by -5/3: parallel pairs that are separate
    entries, as in Prop4's (1, 0) and (2, 0)."""
    while True:
        vecs = [
            tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim))
            for _ in range(rng.randint(dim, dim + 3))
        ]
        vecs = [v for v in vecs if any(v)]
        if len(vecs) < dim:
            continue
        vecs += [tuple(2 * x for x in vecs[0]), tuple(F(-5, 3) * x for x in vecs[1])]
        signed = {v for v in vecs} | {tuple(-x for x in v) for v in vecs}
        if len(signed) == 2 * len(vecs) and rank(vecs) == dim:
            return vecs


def test_extraction_matches_frozen_on_random_configurations():
    rng = random.Random(23)
    nonzero = 0
    for trial in range(40):
        cs = assert_same_extraction(random_vector_set(rng, 2 + trial % 4))
        nonzero += any(not c.poly.is_zero() for c in cs.polynomials)
    assert nonzero > 30


@pytest.mark.parametrize("name", ["A5", "B5"])
def test_cofactor_rows_match_frozen_determinants(name):
    """Every (n-1)-subset's cofactors, one Bareiss determinant each, also on
    B5, whose whole frozen extraction is too slow to repeat here."""
    ints, _den = clear_denominators([covector(v) for v in ROOT_SYSTEMS[name]])
    dim = len(ints[0])
    t_rows, cof_rows = _cofactor_rows(np.array(ints, dtype=_minor_dtype(ints, dim)))
    got = list(zip(map(tuple, t_rows.tolist()), cof_rows.tolist()))
    subsets = list(combinations(range(len(ints)), dim - 1))
    assert [t for t, _cof in got] == subsets
    for t, cof in got:
        assert cof == reference_cofactor_row([ints[k] for k in t], dim)


def test_cofactor_rows_on_random_rows():
    rng = random.Random(29)
    for trial in range(60):
        dim = 1 + trial % 6
        ints = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(dim, dim + 3))]
        t_rows, cof_rows = _cofactor_rows(np.array(ints, dtype=_minor_dtype(ints, dim)))
        got = list(zip(map(tuple, t_rows.tolist()), cof_rows.tolist()))
        assert [t for t, _cof in got] == list(combinations(range(len(ints)), dim - 1))
        for t, cof in got:
            assert cof == reference_cofactor_row([ints[k] for k in t], dim)


def random_ratfunc(rng, variables):
    """A random rational function with a nonconstant denominator half the time."""

    def poly(max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[tuple(rng.randint(0, 2) for _ in variables)] = rand_nonzero_fraction(rng)
        return MultiPoly(variables, terms)

    num = poly(3)
    if rng.random() < 0.5:
        return RatFunc.from_poly(num)
    den = poly(2)
    return RatFunc(num, den if not den.is_zero() else MultiPoly.const(variables, 2))


def random_poly(rng, variables, squarefree):
    terms = {}
    top = 1 if squarefree else 3
    for _ in range(rng.randint(1, 8)):
        terms[tuple(rng.randint(0, top) for _ in variables)] = rand_nonzero_fraction(rng)
    return MultiPoly(variables, terms)


def assert_same_substitution(p, mapping):
    got, ref = p.substitute(mapping), reference_substitute(p, mapping)
    assert items(got.num) == items(ref.num)
    assert items(got.den) == items(ref.den)
    return got


def test_substitute_matches_frozen_on_random_images():
    rng = random.Random(31)
    params = ("s", "t")
    with_denominator = 0
    for trial in range(120):
        variables = tuple(f"c{k}" for k in range(1 + trial % 4))
        p = random_poly(rng, variables, squarefree=trial % 2 == 0)
        mapping = {v: random_ratfunc(rng, params) for v in variables}
        if trial % 5 == 0:
            mapping[variables[0]] = RatFunc.constant(params, rng.choice((0, 1, F(-2, 3))))
        got = assert_same_substitution(p, mapping)
        with_denominator += got.den != MultiPoly.const(params, 1)
    assert with_denominator > 40


def test_substitute_matches_frozen_on_family_constraints():
    """The Prop4 family of the catalog: every constraint, the nondegeneracy
    polynomial, and the wrong relation whose residuals are nonzero."""
    pv = ("c1", "c2", "u")
    c1, c2, u = (RatFunc.variable(pv, v) for v in pv)
    cs = series_constraints(PROP4_VECTORS, ("m1", "m2", "m3", "m4", "m5"))
    nonzero = 0
    for m2 in (u * (c1 - c2) / (2 * c2), u * (c1 - c2) / c2):
        mapping = {"m1": c1, "m2": m2, "m3": c2, "m4": u, "m5": u}
        assert_same_substitution(cs.nondegeneracy, mapping)
        for c in cs.polynomials:
            nonzero += not assert_same_substitution(c.poly, mapping).is_zero()
    assert nonzero > 0
