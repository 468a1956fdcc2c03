"""The WDVV and CMS identities, exactly, at rational-tangent points.

At a point x put u = x/d in the coordinates of the cleared rows
`cfg.integer_covectors = (N, d)`, so that a(x) = n_a . u for each covector
a = n_a / d.  With tan u_k = t_k rational, e^{i u_k} is a positive multiple
of 1 + i t_k, so e^{i a(x)} is a positive multiple of
z = prod_k (1 + i t_k)^{n_ak} and cot a(x) = Re z / Im z is rational (a point
where some Im z = 0 is a pole and is skipped).  Every identity below is
then an equality of Fractions, at multiplicities up to 10^6, where a float
verdict under an absolute tolerance breaks down.

- WDVV: for i < j the lower block of F_i F_0^-1 F_j - F_j F_0^-1 F_i is
  R_ij = 2 (g_i g_j^T - g_j g_i^T) + (lambda^2/2)(k_i G^-1 k_j - k_j G^-1 k_i),
  with g_i row i of G and k_i = sum_a c_a a_i cot a(x) a a^T
  (`tests/test_wdvv.py::test_commutator_reduces_to_lambda_squared_block`
  checks that reduction in floats).  It vanishes at the solved lambda^2 and
  not at lambda^2 * 101/100.
- CMS, under the vee metric (a, b) = a G^-1 b^T and the signs s_a of
  `positive_system`: the pair identity sum_{a != b} c_a c_b (a, b) cot_a cot_b
  is -sum_{a != b} c_a c_b (a, b) s_a s_b, and (L psi)/psi, for
  psi = prod_a sin(a(x))^-c_a and L = -Laplacian + sum_a c_a (c_a + 1) (a, a)
  csc^2 a(x), is (rho, rho) with rho = sum_a c_a s_a a.

The paper's two equivalences are pinned the same way, on seeded catalog
draws and random sets: R_ij = A_ij + lambda^2 B_ij vanishes at every point
for exactly the coupling of `full_check` (WDVV alone fixes lambda^2), and the
pair identity under a metric is constant at the points exactly when the
series condition under that metric holds.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import (
    check_series_with_metric,
    cms_identity_residual,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import build_configuration, positive_system
from trigvee.errors import InvalidParams
from trigvee.veecheck import full_check, solve_lambda_squared

F = Fraction

SCALES = (1, 10**3, 10**6)
POINTS = 3


def catalog_names(keep):
    return [name for name, _ in catalog_list() if keep(catalog_get(name).cfg)]


SOLVED = catalog_names(lambda cfg: solve_lambda_squared(cfg).status == "solved")
def no_parallel_pair(cfg):
    """The CMS hypotheses: no two covectors on one line."""
    return len(set(cfg.directions)) == len(cfg.entries)


NO_PARALLEL = catalog_names(no_parallel_pair)


def scaled(cfg, s):
    entries = [(e.covector, e.mult * s, e.label) for e in cfg.entries]
    return build_configuration(cfg.dim, entries)


def tangent_cots(cfg, rng):
    """cot a(x) for every covector at seeded rational-tangent points, poles
    skipped: a list of POINTS lists of Fractions."""
    rows, _d = cfg.integer_covectors
    out = []
    while len(out) < POINTS:
        t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cfg.dim)]
        cots = []
        for n in rows:
            # z up to a positive factor: (1 + i t)^n is a positive multiple of
            # (q + i p)^n for t = p/q, and of (q - i p)^|n| for n < 0
            re, im = 1, 0
            for tk, nk in zip(t, n):
                p, q = tk.numerator, tk.denominator
                if nk < 0:
                    p, nk = -p, -nk
                for _ in range(nk):
                    re, im = re * q - im * p, re * p + im * q
            if im == 0:
                break
            cots.append(F(re, im))
        else:
            out.append(cots)
    return out


def matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def form(u, m, v):
    """u m v^T for vectors u, v and a square matrix m."""
    return sum(x * mij * y for x, row in zip(u, m) for mij, y in zip(row, v))


def wdvv_parts(cfg, cots):
    """R_ij = A_ij + lambda^2 B_ij for every i < j at one point: the entries
    of the A_ij and of the B_ij, each as one flat list of Fractions."""
    n = cfg.dim
    g = cfg.gram.entries
    g_inv = cfg.gram_inverse.entries
    k = []
    for i in range(n):
        k_i = [[F(0)] * n for _ in range(n)]
        for a, c, cot in zip(cfg.covectors(), cfg.mults(), cots):
            w = c * a[i] * cot
            for p in range(n):
                for q in range(n):
                    k_i[p][q] += w * a[p] * a[q]
        k.append(k_i)
    k_g_inv = [matmul(k_i, g_inv) for k_i in k]
    a_part, b_part = [], []
    for i in range(n):
        for j in range(i + 1, n):
            ij = matmul(k_g_inv[i], k[j])
            ji = matmul(k_g_inv[j], k[i])
            for p in range(n):
                for q in range(n):
                    a_part.append(2 * (g[i][p] * g[j][q] - g[j][p] * g[i][q]))
                    b_part.append((ij[p][q] - ji[p][q]) / 2)
    return a_part, b_part


def wdvv_blocks(cfg, lam2, cots):
    """The entries of every R_ij at one point, as one flat list."""
    return [x + lam2 * y for x, y in zip(*wdvv_parts(cfg, cots))]


def pair_sum(cfg, pair, w):
    """sum_{a != b} c_a c_b (a, b) w_a w_b."""
    c = cfg.mults()
    count = range(len(c))
    return sum(c[p] * c[q] * pair[p][q] * w[p] * w[q] for p in count for q in count if p != q)


def cms_constants(cfg, m):
    """(a, b) = a m b^T, and the closed-form constants of the pair identity
    and of (L psi)/psi."""
    a = cfg.covectors()
    c = cfg.mults()
    pair = [[sum(x * y for x, y in zip(um, v)) for v in a] for um in matmul(a, m)]
    s = positive_system(cfg).signs
    count = range(len(a))
    rho = [sum(c[p] * s[p] * a[p][k] for p in count) for k in range(cfg.dim)]
    return pair, -pair_sum(cfg, pair, s), form(rho, m, rho)


def cms_values(cfg, pair, cots):
    """The pair identity and (L psi)/psi at one point, the latter through
    d_i psi/psi = -sum c a_i cot and d_i d_j psi/psi = (d_i psi/psi)(d_j psi/psi)
    + sum c a_i a_j csc^2, with csc^2 = 1 + cot^2."""
    a = cfg.covectors()
    c = cfg.mults()
    m = cfg.gram_inverse.entries
    count = range(len(a))
    identity = pair_sum(cfg, pair, cots)
    csc2 = [1 + x * x for x in cots]
    grad = [-sum(c[p] * a[p][i] * cots[p] for p in count) for i in range(cfg.dim)]
    laplacian = sum(
        m[i][j] * (grad[i] * grad[j] + sum(c[p] * a[p][i] * a[p][j] * csc2[p] for p in count))
        for i in range(cfg.dim)
        for j in range(cfg.dim)
    )
    potential = sum(c[p] * (c[p] + 1) * pair[p][p] * csc2[p] for p in count)
    return identity, potential - laplacian


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", SOLVED)
def test_wdvv_block_vanishes_exactly_at_the_solved_coupling(name, scale):
    cfg = scaled(catalog_get(name).cfg, scale)
    lam2 = solve_lambda_squared(cfg).lambda2
    for cots in tangent_cots(cfg, random.Random(f"{name}-{scale}")):
        assert all(x == 0 for x in wdvv_blocks(cfg, lam2, cots))
        assert any(x != 0 for x in wdvv_blocks(cfg, lam2 * F(101, 100), cots))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", NO_PARALLEL)
def test_cms_constants_hold_exactly(name, scale):
    cfg = scaled(catalog_get(name).cfg, scale)
    pair, identity, eigen = cms_constants(cfg, cfg.gram_inverse.entries)
    for cots in tangent_cots(cfg, random.Random(f"{name}-{scale}")):
        assert cms_values(cfg, pair, cots) == (identity, eigen)
    if scale == 1:
        # the float means, relative to the constant (absolute below 1: some are 0)
        report = cms_identity_residual(cfg, vee_form_metric(cfg))
        assert abs(report.mean - identity) <= 1e-9 * max(1, abs(identity))
        assert abs(report.eigenvalue_estimate - eigen) <= 1e-9 * max(1, abs(eigen))


def test_cms_constants_fail_off_the_vee_system():
    cfg = catalog_get("B2", {"c1": 1, "c2": 2}).cfg
    pair, identity, eigen = cms_constants(cfg, cfg.gram_inverse.entries)
    points = tangent_cots(cfg, random.Random("B2-off"))
    values = [cms_values(cfg, pair, cots) for cots in points]
    assert any(v[0] != identity for v in values)
    assert any(v[1] != eigen for v in values)


def rand_mult(rng):
    """A multiplicity +-p/q with p <= 5 and q <= 3."""
    return F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))


def with_first_mult_perturbed(cfg):
    entries = [(e.covector, e.mult, e.label) for e in cfg.entries]
    v, c, label = entries[0]
    entries[0] = (v, c * F(101, 100), label)
    return build_configuration(cfg.dim, entries)


def catalog_draws():
    """Every catalog entry of dimension >= 2 at its defaults and at 8 seeded
    parameter draws (3 for A4 and B4), each also with its first multiplicity
    times 101/100; draws the catalog refuses and degenerate forms skipped."""
    rng = random.Random("catalog-draws")
    out = []
    for name, _ in catalog_list():
        defaults = catalog_get(name)
        if defaults.cfg.dim < 2:
            continue
        draws = [{}] + [
            {key: rand_mult(rng) for key in defaults.params}
            for _ in range(3 if name in ("A4", "B4") else 8)
        ]
        for params in draws:
            try:
                cfg = catalog_get(name, params).cfg
            except InvalidParams:
                continue
            out += [x for x in (cfg, with_first_mult_perturbed(cfg)) if x.gram_det != 0]
    return out


def random_sets(seed, count, sizes, keep=lambda cfg: True):
    """`count` nondegenerate sets in dimensions 2-3 of `sizes` covectors with
    integer entries in [-2, 2], distinct up to sign, and multiplicities from
    `rand_mult`, each passing `keep`."""
    # one of v and -v for each integer vector with entries in [-2, 2]; 0 sorts first
    pools = {
        dim: sorted({max(v, tuple(-x for x in v)) for v in product(range(-2, 3), repeat=dim)})[1:]
        for dim in (2, 3)
    }
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, 3)
        vectors = rng.sample(pools[dim], rng.randint(*sizes))
        cfg = build_configuration(dim, [(v, rand_mult(rng)) for v in vectors])
        if cfg.gram_det != 0 and keep(cfg):
            out.append(cfg)
    return out


def wdvv_coupling(cfg, points):
    """The lambda^2 at which every R_ij vanishes at every point, solved from
    the first entry with B != 0; "any" when A and B vanish everywhere and
    "none" when no coupling works."""
    lam2 = None
    for cots in points:
        for x, y in zip(*wdvv_parts(cfg, cots)):
            if lam2 is None and y:
                lam2 = -x / y
            # before the first B != 0, an entry vanishes only when A does
            if x + (lam2 or 0) * y:
                return "none"
    return "any" if lam2 is None else lam2


def full_check_coupling(cfg):
    report = full_check(cfg)
    solution = report.lambda_solution
    if solution.status == "any_lambda":
        return "any"
    if report.is_trig_vee and solution.status == "solved":
        return solution.lambda2
    return "none"


def test_wdvv_alone_fixes_the_coupling():
    """A set with its coupling solves WDVV exactly when it is a trigonometric
    vee-system: the lambda^2 read off R_ij is the one `full_check` solves."""
    inputs = catalog_draws() + random_sets("wdvv-sets", 150, (3, 7))
    positives = 0
    for k, cfg in enumerate(inputs):
        expected = full_check_coupling(cfg)
        assert wdvv_coupling(cfg, tangent_cots(cfg, random.Random(k))) == expected, cfg
        positives += expected != "none"
    assert len(inputs) >= 200 and positives >= 50


def test_cms_identity_is_constant_exactly_when_the_metric_series_pass():
    """The generalized CMS operator has a factorized eigenfunction exactly when
    the series condition holds under its metric: the pair identity then takes
    its closed-form constant at every point, and otherwise no single value."""
    inputs = [cfg for cfg in catalog_draws() if no_parallel_pair(cfg)]
    inputs += random_sets("cms-sets", 120, (3, 6), keep=no_parallel_pair)
    checks = passing = 0
    for k, cfg in enumerate(inputs):
        points = tangent_cots(cfg, random.Random(k))
        for metric in (vee_form_metric(cfg), euclidean_metric(cfg.dim)):
            pair, identity, _ = cms_constants(cfg, metric.matrix.entries)
            values = {pair_sum(cfg, pair, cots) for cots in points}
            passed = check_series_with_metric(cfg, metric).passed
            if passed:
                assert values == {identity}, cfg
            else:
                assert len(values) > 1, cfg
            checks += 1
            passing += passed
    assert checks >= 200 and passing >= 50
