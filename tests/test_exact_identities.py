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

The WDVV commutators are also evaluated in mpmath at 50 digits at the
complex points `vee wdvv` samples, from the float coordinates of those points
taken exactly: at the solved lambda^2 they are about 1e-51 of the largest
product F_i F_0^-1 F_j even at multiplicities x 10^6, where the float residual
exceeds the default 1e-8 tolerance, so that failure is rounding alone.

The paper's two equivalences are pinned the same way, on seeded catalog
draws and random sets: R_ij = A_ij + lambda^2 B_ij vanishes at every point
for exactly the coupling of `full_check` (WDVV alone fixes lambda^2), and the
pair identity under a metric is constant at the points exactly when the
series condition under that metric holds.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigvee.catalog import catalog_get
from trigvee.cms import (
    check_series_with_metric,
    cms_identity_residual,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import positive_system
from trigvee.veecheck import full_check, solve_lambda_squared
from trigvee.wdvv import sample_points

from corpus import catalog_draws, catalog_names, cms_slice, no_parallel_pair, random_sets, scaled

F = Fraction

SCALES = (1, 10**3, 10**6)
POINTS = 3

SOLVED = catalog_names(lambda cfg: solve_lambda_squared(cfg).status == "solved")
NO_PARALLEL = catalog_names(no_parallel_pair)


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


def mp_rational(q):
    return mp.mpf(q.numerator) / q.denominator


def mp_third_derivatives(cfg, lam2, point):
    """F0..Fn at a sample point in mpmath, from `cfg.entries` alone: F0 is
    2 blockdiag(1, G); Fi has off-diagonal rows 2 sum_a c_a a_i a and lower
    block lambda sum_a c_a a_i cot a(x) a a^T, lambda = sqrt(lambda^2)."""
    n = cfg.dim
    f = [mp.zeros(n + 1) for _ in range(n + 1)]
    f[0][0, 0] = 2
    lam = mp.sqrt(mp_rational(lam2))
    x = [mp.mpc(z) for z in point.x]
    for entry in cfg.entries:
        a = [mp_rational(q) for q in entry.covector]
        c = mp_rational(entry.mult)
        cot = mp.cot(mp.fsum(ak * xk for ak, xk in zip(a, x)))
        for i in range(n):
            for p in range(n):
                f[0][i + 1, p + 1] += 2 * c * a[i] * a[p]
                f[i + 1][0, p + 1] += 2 * c * a[i] * a[p]
                f[i + 1][p + 1, 0] += 2 * c * a[i] * a[p]
                for q in range(n):
                    f[i + 1][p + 1, q + 1] += lam * c * a[i] * cot * a[p] * a[q]
    return f


def largest_entry(m):
    return max(abs(m[r, s]) for r in range(m.rows) for s in range(m.cols))


def commutator_ratio(f):
    """The largest entry of any F_i F_0^-1 F_j - F_j F_0^-1 F_i over the
    largest entry of any F_i F_0^-1 F_j."""
    f0_inv = f[0] ** -1
    prods = [[fi * f0_inv * fj for fj in f] for fi in f]
    scale = max(largest_entry(p) for row in prods for p in row)
    count = range(len(f))
    worst = max(largest_entry(prods[i][j] - prods[j][i]) for i in count for j in count)
    return worst / scale


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "name, scale",
    [("TenVector", 1), ("TenVector", 10**3), ("TenVector", 10**6), ("B3", 10**6), ("Prop5", 10**6)],
)
def test_wdvv_holds_in_mpmath_at_the_sampled_points(name, scale, seed):
    """At every point `wdvv_residual` reads, 50 digits make the commutators
    vanish to 1e-40 of the products at the solved coupling, and leave them
    above 1e-5 of the products at lambda^2 * 101/100."""
    cfg = scaled(catalog_get(name).cfg, scale)
    lam2 = solve_lambda_squared(cfg).lambda2
    with mp.workdps(50):
        for point in sample_points(cfg, 10, seed):
            assert commutator_ratio(mp_third_derivatives(cfg, lam2, point)) < mp.mpf("1e-40")
            perturbed = mp_third_derivatives(cfg, lam2 * F(101, 100), point)
            assert commutator_ratio(perturbed) > mp.mpf("1e-5")


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
    inputs = cms_slice()
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
