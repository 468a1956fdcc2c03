"""Differential tests: the integer pairing tables, the coupling solve,
determinant, lattice coordinates and positive-system signs against
straightforward Fraction reference implementations, and the compiled search
residuals against exact polynomial evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import euclidean_metric
from trigvee.configuration import (
    PositiveSystem,
    VConfiguration,
    build_configuration,
    integer_pairing_table,
    positive_system,
    signed_covectors,
    wedge_coeffs,
)
from trigvee.constraints import _compile_polynomials, series_constraints
from trigvee.errors import FunctionalVanishes
from trigvee.exactnum import RatMatrix, integer_det
from trigvee.veecheck import LambdaSolution, TensorMismatch, solve_lambda_squared

from conftest import rand_fraction, rand_nonzero_fraction
from corpus import CATALOG, a_roots, b_roots

F = Fraction
# a symmetric table of Fractions
PairingTable = tuple[tuple[Fraction, ...], ...]


def reference_pairing_table(covectors, matrix: RatMatrix) -> PairingTable:
    """A . matrix . A^T, one Fraction product at a time."""
    duals = [matrix.mat_vec(v) for v in covectors]
    table = [[Fraction(0)] * len(covectors) for _ in covectors]
    for i, u in enumerate(covectors):
        nonzero = [(k, x) for k, x in enumerate(u) if x != 0]
        for j in range(i, len(covectors)):
            dual = duals[j]
            table[i][j] = table[j][i] = sum((x * dual[k] for k, x in nonzero), Fraction(0))
    return tuple(tuple(row) for row in table)


def reference_tensor_ratio(cfg: VConfiguration, psys: PositiveSystem, pairing: PairingTable):
    """Both 4-tensors accumulated pair by pair in Fractions; returns
    (status, ratio, witness), where `solve_lambda_squared` gives
    lambda^2 = 4 * ratio under the vee product."""
    n = cfg.dim
    m = n * (n - 1) // 2
    if m == 0:
        return "any_lambda", None, None
    signed = signed_covectors(cfg, psys)
    mults = cfg.mults()
    p = [[Fraction(0)] * m for _ in range(m)]
    q = [[Fraction(0)] * m for _ in range(m)]
    for k in range(len(signed)):
        for l in range(k + 1, len(signed)):
            w = wedge_coeffs(signed[k], signed[l])
            if not any(w):
                continue
            cc2 = 2 * mults[k] * mults[l]
            pw = cc2 * psys.signs[k] * psys.signs[l] * pairing[k][l]
            for u in range(m):
                if w[u] == 0:
                    continue
                for v in range(m):
                    if w[v] == 0:
                        continue
                    ww = w[u] * w[v]
                    q[u][v] += cc2 * ww
                    if pw != 0:
                        p[u][v] += pw * ww
    first = next(((u, v) for u in range(m) for v in range(m) if p[u][v] != 0), None)
    if first is None:
        if any(any(row) for row in q):
            u, v = next((u, v) for u in range(m) for v in range(m) if q[u][v] != 0)
            return "no_solution", None, TensorMismatch((u, v), Fraction(0), q[u][v])
        return "any_lambda", None, None
    u0, v0 = first
    ratio = q[u0][v0] / p[u0][v0]
    for u in range(m):
        for v in range(m):
            if ratio * p[u][v] != q[u][v]:
                return "no_solution", None, TensorMismatch((u, v), ratio * p[u][v], q[u][v])
    return "solved", ratio, None


def fractional_metric(n):
    """A symmetric nonsingular matrix with non-integer entries."""
    return RatMatrix([[F(i + 2, 3) if i == j else F(1, 5 + i + j) for j in range(n)] for i in range(n)])


def assert_same(cfg, matrix):
    """The table under `matrix` against the Fraction reference.  For the
    form's own inverse, also the cached vee table read from the integer
    inverse of the Gram, and the coupling solve against the reference ratio
    under that table (lambda^2 = 4 * ratio)."""
    vee_form = cfg.gram_det != 0 and matrix == cfg.gram_inverse
    pairings = [integer_pairing_table(cfg.integer_covectors, matrix)]
    if vee_form:
        pairings.append(cfg.integer_pairing)
    reference = reference_pairing_table(cfg.covectors(), matrix)
    for ints, den in pairings:
        table = tuple(tuple(F(x, den) for x in row) for row in ints)
        assert table == reference
        assert all(isinstance(x, int) for row in ints for x in row) and isinstance(den, int)
        assert den > 0
    if vee_form:
        psys = positive_system(cfg)
        status, ratio, witness = reference_tensor_ratio(cfg, psys, reference)
        lambda2 = None if ratio is None else 4 * ratio
        assert solve_lambda_squared(cfg, psys) == LambdaSolution(status, lambda2, psys, witness)


def metrics(cfg):
    yield euclidean_metric(cfg.dim).matrix
    yield fractional_metric(cfg.dim)
    if cfg.gram_det != 0:
        yield cfg.gram_inverse


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_entries(name):
    cfg = catalog_get(name).cfg
    for matrix in metrics(cfg):
        assert_same(cfg, matrix)


@pytest.mark.parametrize("n", range(2, 9))
def test_root_systems(n):
    for roots in (a_roots(n), b_roots(n)):
        cfg = build_configuration(n, [(r, F(3, 2)) for r in roots])
        assert_same(cfg, cfg.gram_inverse)
        if n <= 4:
            assert_same(cfg, fractional_metric(n))


def test_mult2_negative():
    roots = b_roots(4)
    cfg = build_configuration(4, [(r, 2 if i == 0 else 1) for i, r in enumerate(roots)])
    assert_same(cfg, cfg.gram_inverse)
    assert solve_lambda_squared(cfg).status == "no_solution"


def test_dimension_one_and_orthogonal_pair():
    line = build_configuration(1, [((2,), 3), ((F(1, 2),), F(-1, 4))])
    assert_same(line, line.gram_inverse)
    sol = solve_lambda_squared(line)
    assert (sol.status, sol.lambda2, sol.witness) == ("any_lambda", None, None)
    pair = catalog_get("OrthogonalPair").cfg
    assert_same(pair, pair.gram_inverse)
    sol = solve_lambda_squared(pair)
    assert (sol.status, sol.lambda2, sol.witness.lhs) == ("no_solution", None, 0)
    assert sol.witness.rhs != 0


def test_random_configurations(rng):
    """Half-integer covectors, rational multiplicities of both signs, and a
    covector together with a multiple of it; then dimension-5 covectors with
    denominators up to 6."""
    statuses = []
    negative = 0
    for _ in range(30):
        dim = rng.randint(2, 4)
        count = rng.randint(3, 6)
        vecs = set()
        while len(vecs) < count:
            v = tuple(F(rng.randint(-4, 4), 2) for _ in range(dim))
            if any(v) and tuple(-x for x in v) not in vecs:
                vecs.add(v)
        vecs = sorted(vecs)
        # -5/3 times a half-integer in [-2, 2] is never one again
        vecs.append(tuple(F(-5, 3) * x for x in vecs[0]))
        cfg = build_configuration(dim, [(v, rand_nonzero_fraction(rng, -5, 5)) for v in vecs])
        negative += any(c < 0 for c in cfg.mults())
        sym = [[rand_fraction(rng) for _ in range(dim)] for _ in range(dim)]
        assert_same(cfg, RatMatrix([[sym[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]))
        if cfg.gram_det != 0:
            assert_same(cfg, cfg.gram_inverse)
            statuses.append(solve_lambda_squared(cfg).status)
    assert negative > 0 and {"solved", "no_solution"} <= set(statuses)
    # fractional covectors with unlike denominators in dimension 5
    for _ in range(3):
        vecs = set()
        while len(vecs) < 9:
            v = tuple(F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(5))
            if any(v) and tuple(-x for x in v) not in vecs:
                vecs.add(v)
        cfg = build_configuration(5, [(v, rand_nonzero_fraction(rng, -5, 5)) for v in sorted(vecs)])
        assert cfg.gram_det != 0 and cfg.integer_covectors[1] > 1
        assert_same(cfg, cfg.gram_inverse)
        assert_same(cfg, fractional_metric(5))


@pytest.mark.parametrize("name", ["TenVector", "G2timesScaledA2", "B3", "Prop5", "A4", "B4"])
def test_compiled_polynomials_match_exact_evaluation(name):
    """Every distinct constraint and det G(c), at dyadic points (exact in
    floats), within round-off of the exact value."""
    cs = series_constraints(catalog_get(name).cfg.covectors())
    polys = cs.distinct_polynomials() + [cs.nondegeneracy]
    evaluate = _compile_polynomials(polys)
    dim = len(cs.vectors[0])
    rng = random.Random(name)
    # exact evaluation of all 156 B4 polynomials takes 0.5 s a point: sample
    checked = range(len(polys)) if dim < 4 else rng.sample(range(len(polys) - 1), 40) + [-1]
    points = [
        [F(rng.choice([-1, 1]) * rng.randint(1, 24), 8) for _ in cs.symbols]
        for _ in range(1 if dim > 3 else 3)
    ]
    for point in points:
        values = evaluate(np.array([float(x) for x in point]))
        assert values.shape == (len(polys),)
        assignment = dict(zip(cs.symbols, point))
        scale = max(abs(x) for x in point) ** dim
        for k in checked:
            p = polys[k]
            bound = 1e-12 * float(sum(abs(c) for c in p.terms.values()) * scale)
            assert abs(values[k] - float(p.evaluate(assignment))) <= bound


def reference_det(mat) -> Fraction:
    """Gaussian elimination in Fractions."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_integer_det_matches_fraction_det():
    rng = random.Random(1968)
    swaps = singular = 0
    for n in range(1, 6):
        for trial in range(30):
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 1:
                mat[0][0] = 0  # a row swap at the first pivot
                swaps += any(row[0] for row in mat)
            elif trial % 3 == 2 and n > 1:
                k = rng.randrange(1, n)  # row k a combination of two earlier rows
                mat[k] = [2 * a - 3 * b for a, b in zip(mat[0], mat[k - 1])]
            det = integer_det(mat)
            assert det == RatMatrix(mat).det() == reference_det(mat)
            singular += det == 0
    assert swaps > 30 and singular > 30
    # a zero pivot that appears only after the first elimination step
    assert integer_det([[1, 2, 3], [2, 4, 5], [1, 0, 7]]) == RatMatrix(
        [[1, 2, 3], [2, 4, 5], [1, 0, 7]]
    ).det() == -2
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 5], [0, 3]]) == 0
    assert integer_det([]) == 1


def reference_lattice_coordinates(basis, v):
    """Integer coordinates of v in an echelon basis (as `hnf_basis` gives),
    or None if v is outside the lattice it spans: elimination in Fractions,
    one basis row at a time."""
    work = [F(x) for x in v]
    coords = []
    for b in basis:
        p = next((j for j, x in enumerate(b) if x != 0), None)
        if p is None:
            return None
        q = work[p] / b[p]
        if q.denominator != 1:
            return None
        coords.append(int(q))
        work = [a - q * bb for a, bb in zip(work, b)]
    return None if any(work) else tuple(coords)


def reference_positive_system(cfg, functional=None):
    """Each value f . a summed in Fractions."""
    if functional is not None:
        f = tuple(F(x) for x in functional)
    else:
        t = 1
        while True:
            f = tuple(F(t) ** k for k in range(cfg.dim))
            if all(sum(x * y for x, y in zip(f, e.covector)) != 0 for e in cfg.entries):
                break
            t += 1
    values = [sum((x * y for x, y in zip(f, e.covector)), F(0)) for e in cfg.entries]
    return PositiveSystem(tuple(1 if val > 0 else -1 for val in values), f)


def test_positive_system_matches_fraction_values():
    """Fractional covectors and functionals, some vanishing on a covector."""
    rng = random.Random(88)
    for name, _ in catalog_list():
        cfg = catalog_get(name).cfg
        assert positive_system(cfg) == reference_positive_system(cfg)
    vanishing = 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        vecs = {}
        for _ in range(rng.randint(1, 5)):
            v = tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(dim))
            if any(v):
                vecs.setdefault(v if next(x for x in v if x) > 0 else tuple(-x for x in v), v)
        if not vecs:
            continue
        cfg = build_configuration(dim, [(v, 1) for v in vecs.values()])
        assert positive_system(cfg) == reference_positive_system(cfg)
        f = [F(rng.randint(-2, 2), rng.choice([1, 2, 7])) for _ in range(dim)]
        if any(sum(x * y for x, y in zip(f, v)) == 0 for v in vecs.values()):
            vanishing += 1
            with pytest.raises(FunctionalVanishes):
                positive_system(cfg, f)
        else:
            assert positive_system(cfg, f) == reference_positive_system(cfg, f)
    assert vanishing > 5
