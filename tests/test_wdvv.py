"""Numeric WDVV verification: matrices, residuals, prepotential, trilogarithm."""

from fractions import Fraction

import numpy as np
import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.configuration import build_configuration, positive_system
from trigvee.errors import OutOfDomain, SamplingExhausted, ZeroLambda
from trigvee.veecheck import solve_lambda_squared
from trigvee.wdvv import (
    EvalPoint,
    check_f_derivative,
    eval_prepotential,
    f_trig,
    sample_points,
    third_derivative_matrices,
    trilog,
    wdvv_residual,
)

F = Fraction

NONDEGENERATE_CATALOG = [
    name for name, _ in catalog_list() if catalog_get(name).cfg.gram_det != 0
]


def a2():
    return build_configuration(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])


def b2():
    return build_configuration(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, -1), 1)])


def prop4():
    return build_configuration(
        2, [((1, 0), 3), ((2, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, -1), 1)]
    )


class TestMatrices:
    def test_f0_constant_block_structure(self):
        cfg = a2()
        p = sample_points(cfg, 1, seed=1)[0]
        f0 = third_derivative_matrices(cfg, 36, p)[0]
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.0
        expected[1:, 1:] = 2.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(f0, expected)
        assert abs(np.linalg.det(f0)) > 1e-9

    def test_f1_off_diagonal_block(self):
        # 2 * sum c a_1 a = 2*((1,0) + (1,1)) = (4, 2), independent of the point
        cfg = a2()
        p = EvalPoint(y=0j, x=(0.7 + 0.1j, 0.3 - 0.2j), margin=1.0)
        f1 = third_derivative_matrices(cfg, 36, p)[1]
        assert np.allclose(f1[0, 1:], [4.0, 2.0])
        assert np.allclose(f1[1:, 0], [4.0, 2.0])
        assert f1[0, 0] == 0

    def test_symmetry_at_random_points(self):
        cfg = b2()
        for p in sample_points(cfg, 10, seed=5):
            for fi in third_derivative_matrices(cfg, 54, p):
                assert np.allclose(fi, fi.T)

    def test_zero_lambda_rejected(self):
        cfg = a2()
        p = sample_points(cfg, 1, seed=1)[0]
        with pytest.raises(ZeroLambda):
            third_derivative_matrices(cfg, 0, p)

    def test_f0_pairs_commute_trivially(self):
        cfg = a2()
        for p in sample_points(cfg, 5, seed=9):
            mats = third_derivative_matrices(cfg, 36, p)
            inv0 = np.linalg.inv(mats[0])
            for j in range(1, 3):
                res = mats[0] @ inv0 @ mats[j] - mats[j] @ inv0 @ mats[0]
                assert np.max(np.abs(res)) < 1e-12

    def test_lambda_sign_irrelevant(self):
        # negating the lower-right blocks of F1..Fn realizes lambda -> -lambda;
        # the commutator residual magnitude must not change
        cfg = b2()
        for lam2 in (54, 50):  # right and wrong coupling alike
            for p in sample_points(cfg, 3, seed=11):
                mats = third_derivative_matrices(cfg, lam2, p)
                neg = [mats[0]] + [m.copy() for m in mats[1:]]
                for m in neg[1:]:
                    m[1:, 1:] = -m[1:, 1:]
                inv0 = np.linalg.inv(mats[0])

                def worst(ms):
                    out = 0.0
                    for i in range(3):
                        for j in range(i + 1, 3):
                            r = ms[i] @ inv0 @ ms[j] - ms[j] @ inv0 @ ms[i]
                            out = max(out, float(np.max(np.abs(r))))
                    return out

                assert abs(worst(mats) - worst(neg)) < 1e-10

    @pytest.mark.parametrize("scale", [F(1), F(101, 100)], ids=["solved", "perturbed"])
    @pytest.mark.parametrize("name", NONDEGENERATE_CATALOG)
    def test_commutator_reduces_to_lambda_squared_block(self, name, scale):
        """F_i F0^-1 F_j - F_j F0^-1 F_i has a zero border row and column and
        lower block 2 (g_i g_j^T - g_j g_i^T) + (lambda^2/2)(k_i G^-1 k_j -
        k_j G^-1 k_i), g_i row i of G and k_i = sum_a c_a a_i cot a(x) a a^T,
        so a WDVV verdict needs only the rational lambda^2.  The identity holds
        at every coupling; an entry with none solved is taken at lambda^2 = 1.
        Deviations are relative to the largest entry of F_i F0^-1 F_j."""
        cfg = catalog_get(name).cfg
        solution = solve_lambda_squared(cfg)
        lam2 = (solution.lambda2 if solution.status == "solved" else F(1)) * scale
        a = np.array([[float(x) for x in e.covector] for e in cfg.entries])
        c = np.array([float(e.mult) for e in cfg.entries])
        g = np.array([[float(x) for x in row] for row in cfg.gram.entries])
        g_inv = np.linalg.inv(g)
        for p in sample_points(cfg, 5, seed=0):
            mats = third_derivative_matrices(cfg, lam2, p)
            inv0 = np.linalg.inv(mats[0])
            cot = 1 / np.tan(a @ np.array(p.x))
            k = [(a.T * (c * a[:, i] * cot)) @ a for i in range(cfg.dim)]
            for i in range(cfg.dim):
                for j in range(cfg.dim):
                    prod = mats[i + 1] @ inv0 @ mats[j + 1]
                    comm = prod - mats[j + 1] @ inv0 @ mats[i + 1]
                    outer = np.outer(g[i], g[j]) - np.outer(g[j], g[i])
                    cross = k[i] @ g_inv @ k[j] - k[j] @ g_inv @ k[i]
                    reduced = 2 * outer + complex(lam2) / 2 * cross
                    tol = 1e-9 * np.max(np.abs(prod))
                    assert np.max(np.abs(comm[0])) <= tol
                    assert np.max(np.abs(comm[:, 0])) <= tol
                    assert np.max(np.abs(comm[1:, 1:] - reduced)) <= tol


class TestResiduals:
    def test_solved_couplings_verify(self):
        for cfg, lam2 in ((a2(), 36), (b2(), 54), (prop4(), F(486, 7))):
            rep = wdvv_residual(cfg, lam2, num_points=10, seed=7)
            assert rep.aggregate < 1e-9

    def test_wrong_coupling_fails_loudly(self):
        rep = wdvv_residual(a2(), 35, num_points=10, seed=7)
        assert rep.aggregate > 1e-3

    def test_deterministic_given_seed(self):
        r1 = wdvv_residual(a2(), 36, num_points=5, seed=3)
        r2 = wdvv_residual(a2(), 36, num_points=5, seed=3)
        assert r1 == r2

    def test_point_prefix_stable(self):
        # point k does not depend on how many points are requested
        p5 = sample_points(a2(), 5, seed=4)
        p9 = sample_points(a2(), 9, seed=4)
        assert p9[:5] == p5

    def test_sampling_exhausted(self):
        with pytest.raises(SamplingExhausted):
            sample_points(a2(), 1, seed=0, margin_floor=1e6, max_tries=50)


class TestSampleCache:
    def test_repeated_call_returns_cached_tuple(self):
        cfg = a2()
        points = sample_points(cfg, 5, seed=4)
        assert sample_points(cfg, 5, seed=4) is points
        assert sample_points(cfg, 5, 4, 0.1, 1000) is points
        # the WDVV and CMS checks at one seed share the points
        assert wdvv_residual(cfg, 36, num_points=5, seed=4).points is points

    def test_other_arguments_are_not_served_from_cache(self):
        cfg = a2()
        points = sample_points(cfg, 5, seed=4)
        more = sample_points(cfg, 6, seed=4)
        assert more is not points and more[:5] == points
        assert sample_points(cfg, 5, seed=5) != points
        floor = sample_points(cfg, 5, seed=4, margin_floor=0.2)
        assert floor is not points and all(p.margin > 0.2 for p in floor)
        tries = sample_points(cfg, 5, seed=4, max_tries=999)
        assert tries is not points and tries == points

    def test_max_tries_is_part_of_the_key(self):
        # at seed 1 and floor 0.3 the first point needs a second try
        cfg = a2()
        assert len(sample_points(cfg, 3, 1, margin_floor=0.3)) == 3
        with pytest.raises(SamplingExhausted):
            sample_points(cfg, 3, 1, margin_floor=0.3, max_tries=1)

    def test_cache_is_per_configuration(self):
        assert sample_points(a2(), 3, seed=2) is not sample_points(a2(), 3, seed=2)
        assert sample_points(a2(), 3, seed=2) == sample_points(a2(), 3, seed=2)


class TestTrilog:
    def test_small_z_partial_sums(self):
        # independent oracle: explicit first terms of sum z^k / k^3
        for z in (0.1 + 0.05j, -0.2j, 0.15 - 0.1j):
            direct = sum(z**k / k**3 for k in range(1, 60))
            assert abs(trilog(z) - direct) < 1e-14

    def test_domain_guard(self):
        with pytest.raises(OutOfDomain):
            trilog(1.0 + 0j)


class TestPrepotentialKernel:
    # half-step central third difference against cot; the deviation scales
    # as h^2 * |cot''| / 8, so points deeper in the lower half-plane do better
    GOOD_POINTS = (0.9 - 1.2j, -0.4 - 1.5j, 1.6 - 1.3j, -1.1 - 1.4j, 0.7 - 1.6j)

    def test_third_derivative_matches_cot(self):
        dev = check_f_derivative(self.GOOD_POINTS, 1e-2)
        assert dev < 1e-5

    def test_second_order_convergence(self):
        d1 = check_f_derivative(self.GOOD_POINTS, 1e-2)
        d2 = check_f_derivative(self.GOOD_POINTS, 5e-3)
        assert 3.5 < d1 / d2 < 4.5

    def test_shallow_points_within_computed_bounds(self):
        # closer to the real axis cot'' grows; these values were frozen from
        # an independent high-precision evaluation of the same stencil
        assert check_f_derivative([0.5 - 1.0j], 1e-2) < 2.0e-5
        assert check_f_derivative([2.0 - 0.5j], 1e-2) < 1.6e-5
        assert check_f_derivative([1.0 - 1.0j], 1e-2) < 1.2e-5


class TestPrepotential:
    def test_y_dependence_is_exact_polynomial(self):
        cfg = a2()
        psys = positive_system(cfg)
        p = EvalPoint(y=0.3 + 0.2j, x=(-0.3 - 0.6j, 0.2 - 0.3j), margin=1.0)
        delta = 0.37 - 0.11j
        f1 = eval_prepotential(cfg, 36, psys, p)
        f2 = eval_prepotential(cfg, 36, psys, EvalPoint(p.y + delta, p.x, p.margin))
        quad = sum(
            float(e.mult)
            * complex(sum(float(v) * xx for v, xx in zip(e.covector, p.x))) ** 2
            for e in cfg.entries
        )
        predicted = (p.y**2 * delta + p.y * delta**2 + delta**3 / 3) + delta * quad
        assert abs((f2 - f1) - predicted) < 1e-12

    def test_smallest_instance(self):
        one = build_configuration(1, [((1,), 1)])
        psys = positive_system(one)
        p = EvalPoint(y=0.1 + 0.2j, x=(-1j,), margin=1.0)
        value = eval_prepotential(one, 1, psys, p)
        x = -1j
        expected = p.y**3 / 3 + x**2 * p.y + f_trig(x)
        assert abs(value - expected) < 1e-14

    def test_out_of_domain(self):
        cfg = a2()
        psys = positive_system(cfg)
        p = EvalPoint(y=0j, x=(0.5 + 0.1j, 0.5 - 0.5j), margin=1.0)
        with pytest.raises(OutOfDomain):
            eval_prepotential(cfg, 36, psys, p)
