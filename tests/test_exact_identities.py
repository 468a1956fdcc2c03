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
"""

import random
from fractions import Fraction

import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import cms_identity_residual, vee_form_metric
from trigvee.configuration import build_configuration, positive_system
from trigvee.veecheck import solve_lambda_squared

F = Fraction

SCALES = (1, 10**3, 10**6)
POINTS = 3


def catalog_names(keep):
    return [name for name, _ in catalog_list() if keep(catalog_get(name).cfg)]


SOLVED = catalog_names(lambda cfg: solve_lambda_squared(cfg).status == "solved")
# the CMS hypotheses: no two covectors on one line
NO_PARALLEL = catalog_names(lambda cfg: len(set(cfg.directions)) == len(cfg.entries))


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


def wdvv_blocks(cfg, lam2, cots):
    """R_ij for every i < j at one point, as n x n lists of Fractions."""
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
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            ij = matmul(matmul(k[i], g_inv), k[j])
            ji = matmul(matmul(k[j], g_inv), k[i])
            outer = [[g[i][p] * g[j][q] - g[j][p] * g[i][q] for q in range(n)] for p in range(n)]
            cross = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ij, ji)]
            out.append(
                [[2 * o + lam2 / 2 * x for o, x in zip(r1, r2)] for r1, r2 in zip(outer, cross)]
            )
    return out


def cms_constants(cfg):
    """(a, b) under the vee metric, and the closed-form constants of the pair
    identity and of (L psi)/psi."""
    a = cfg.covectors()
    c = cfg.mults()
    m = cfg.gram_inverse.entries
    pair = [[form(u, m, v) for v in a] for u in a]
    s = positive_system(cfg).signs
    count = range(len(a))
    identity = -sum(
        c[p] * c[q] * pair[p][q] * s[p] * s[q] for p in count for q in count if p != q
    )
    rho = [sum(c[p] * s[p] * a[p][k] for p in count) for k in range(cfg.dim)]
    return pair, identity, form(rho, m, rho)


def cms_values(cfg, pair, cots):
    """The pair identity and (L psi)/psi at one point, the latter through
    d_i psi/psi = -sum c a_i cot and d_i d_j psi/psi = (d_i psi/psi)(d_j psi/psi)
    + sum c a_i a_j csc^2, with csc^2 = 1 + cot^2."""
    a = cfg.covectors()
    c = cfg.mults()
    m = cfg.gram_inverse.entries
    count = range(len(a))
    identity = sum(
        c[p] * c[q] * pair[p][q] * cots[p] * cots[q] for p in count for q in count if p != q
    )
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
        exact = wdvv_blocks(cfg, lam2, cots)
        assert all(x == 0 for block in exact for row in block for x in row)
        perturbed = wdvv_blocks(cfg, lam2 * F(101, 100), cots)
        assert any(x != 0 for block in perturbed for row in block for x in row)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", NO_PARALLEL)
def test_cms_constants_hold_exactly(name, scale):
    cfg = scaled(catalog_get(name).cfg, scale)
    pair, identity, eigen = cms_constants(cfg)
    for cots in tangent_cots(cfg, random.Random(f"{name}-{scale}")):
        assert cms_values(cfg, pair, cots) == (identity, eigen)
    if scale == 1:
        # the float means, relative to the constant (absolute below 1: some are 0)
        report = cms_identity_residual(cfg, vee_form_metric(cfg))
        assert abs(report.mean - identity) <= 1e-9 * max(1, abs(identity))
        assert abs(report.eigenvalue_estimate - eigen) <= 1e-9 * max(1, abs(eigen))


def test_cms_constants_fail_off_the_vee_system():
    cfg = catalog_get("B2", {"c1": 1, "c2": 2}).cfg
    pair, identity, eigen = cms_constants(cfg)
    points = tangent_cots(cfg, random.Random("B2-off"))
    values = [cms_values(cfg, pair, cots) for cots in points]
    assert any(v[0] != identity for v in values)
    assert any(v[1] != eigen for v in values)
