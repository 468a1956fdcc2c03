"""The batched numeric layer against frozen per-point routines.

`reference_sample_points`, `reference_third_derivative_matrices` and
`reference_cms_identity_residual` are fixed copies of the one-point-at-a-time
code that the batched WDVV and CMS checks replaced: scalar `rng.uniform`
draws, the matrices built in a Python loop per point, and the CMS values
point by point, each converting the covectors to floats itself.  They read
nothing from `trigvee.wdvv` or `trigvee.cms`, and the batched path must
reproduce them bit for bit.
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from trigvee.catalog import catalog_get, catalog_list
from trigvee.cms import (
    CmsReport,
    Metric,
    cms_identity_residual,
    euclidean_metric,
    vee_form_metric,
)
from trigvee.configuration import build_configuration
from trigvee.errors import CollinearPair, SamplingExhausted, SingularPoint
from trigvee.veecheck import solve_lambda_squared
from trigvee.wdvv import EvalPoint, sample_points, third_derivative_matrices, wdvv_residual

from test_integer_kernels import a_roots, b_roots

F = Fraction


def float_covectors(cfg) -> np.ndarray:
    return np.array([[float(x) for x in e.covector] for e in cfg.entries])


def reference_sample_points(cfg, num_points, seed, margin_floor=0.1, max_tries=1000):
    points = []
    a = float_covectors(cfg)
    for idx in range(num_points):
        rng = np.random.default_rng([seed, idx])
        for _ in range(max_tries):
            x = tuple(
                complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, -0.25))
                for _ in range(cfg.dim)
            )
            y = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, -0.25))
            margin = float(np.min(np.abs(np.sin(a @ np.asarray(x, dtype=complex)))))
            if margin > margin_floor:
                points.append(EvalPoint(y=y, x=x, margin=margin))
                break
        else:
            raise SamplingExhausted(
                f"no point with margin > {margin_floor} found in {max_tries} tries"
            )
    return tuple(points)


def reference_third_derivative_matrices(cfg, lambda_squared, point):
    lam = cmath.sqrt(complex(lambda_squared))
    n = cfg.dim
    a = float_covectors(cfg)
    c = np.array([float(e.mult) for e in cfg.entries])
    values = a @ np.asarray(point.x, dtype=complex)
    sins = np.sin(values)
    margin = float(np.min(np.abs(sins)))
    if margin < 1e-12:
        raise SingularPoint(f"point margin {margin} too small")
    cots = np.cos(values) / sins

    gram = np.array([[float(v) for v in row] for row in cfg.gram.entries])
    f0 = np.zeros((n + 1, n + 1), dtype=complex)
    f0[0, 0] = 2.0
    f0[1:, 1:] = 2.0 * gram
    matrices = [f0]
    for i in range(n):
        fi = np.zeros((n + 1, n + 1), dtype=complex)
        top = 2.0 * (c * a[:, i]) @ a
        fi[0, 1:] = top
        fi[1:, 0] = top
        weights = c * a[:, i] * cots
        fi[1:, 1:] = lam * (a.T * weights) @ a
        matrices.append(fi)
    return matrices


def reference_wdvv_residual(cfg, lambda_squared, seed, num_points=10):
    """The per-point residuals of wdvv_residual, one point at a time."""
    f0_inv = None
    per_point = []
    for p in reference_sample_points(cfg, num_points, seed):
        mats = np.array(reference_third_derivative_matrices(cfg, lambda_squared, p))
        if f0_inv is None:
            f0_inv = np.linalg.inv(mats[0])
        prod = (mats @ f0_inv)[:, None] @ mats[None, :]
        per_point.append(float(np.max(np.abs(prod - prod.transpose(1, 0, 2, 3)))))
    return tuple(per_point)


def reference_cms_identity_residual(cfg, metric, num_points=10, seed=0):
    points = reference_sample_points(cfg, num_points, seed)
    a = float_covectors(cfg)
    c = np.array([float(e.mult) for e in cfg.entries])
    table, den = metric.integer_pairing(cfg)
    pair = np.array([[x / den for x in row] for row in table])
    pair_offdiag = pair - np.diag(np.diag(pair))
    metric_f = np.array([[float(v) for v in row] for row in metric.matrix.entries])
    norms = np.diag(pair)

    identity_values = []
    eigen_values = []
    for p in points:
        values = a @ np.asarray(p.x, dtype=complex)
        sin = np.sin(values)
        cot = np.cos(values) / sin
        csc2 = 1.0 / sin**2
        cc = c * cot
        identity = cc @ (pair_offdiag @ cc.real + 1j * (pair_offdiag @ cc.imag))
        identity_values.append(complex(identity))
        grad = -(cc @ a)
        hess = np.outer(grad, grad) + (a.T * (c * csc2)) @ a
        laplacian = float(0) + np.sum(metric_f * hess)
        potential = np.sum(c * (c + 1) * norms * csc2)
        eigen_values.append(complex(-laplacian + potential))

    mean = sum(identity_values) / len(identity_values)
    mu = sum(eigen_values) / len(eigen_values)
    return CmsReport(
        identity_values=tuple(identity_values),
        mean=mean,
        max_deviation=max(abs(v - mean) for v in identity_values),
        eigenvalue_values=tuple(eigen_values),
        eigenvalue_estimate=mu,
        eigenvalue_deviation=max(abs(v - mu) for v in eigen_values),
        points=points,
        seed=seed,
    )


def hex_array(m: np.ndarray) -> list[str]:
    return [x.hex() for x in np.asarray(m).view(float).ravel().tolist()]


def reference_configuration(name, scale=1):
    """A catalog entry or a root system with its multiplicities times scale."""
    if name in ("A5", "B5", "B8"):
        n = int(name[1])
        roots = (a_roots if name[0] == "A" else b_roots)(n)
        return build_configuration(n, [(r, scale) for r in roots])
    cfg = catalog_get(name).cfg
    return build_configuration(cfg.dim, [(e.covector, e.mult * scale) for e in cfg.entries])


# at a scale of 10^6/3 the multiplicities are inexact in floats, so every
# sum over covectors depends on its order
CASES = [
    pytest.param(name, scale, id=name if scale == 1 else f"{name}-scaled")
    for name in [name for name, _ in catalog_list()] + ["A5", "B5", "B8"]
    for scale in (1, F(10**6, 3))
]


def couplings(cfg):
    # OrthogonalPair and A1 have no single coupling; any nonzero one serves
    lambda2 = solve_lambda_squared(cfg).lambda2 or F(1)
    return lambda2, lambda2 * F(101, 100)


def metrics(cfg):
    vee = vee_form_metric(cfg)
    return vee, vee.scaled(7), euclidean_metric(cfg.dim)


@pytest.mark.parametrize("name, scale", CASES)
def test_batched_points_and_wdvv_match_frozen_loop(name, scale):
    cfg = reference_configuration(name, scale)
    for seed in (0, 3):
        points = sample_points(cfg, 10, seed)
        assert repr(points) == repr(reference_sample_points(cfg, 10, seed))
        for coupling in couplings(cfg):
            got = wdvv_residual(cfg, coupling, seed=seed).per_point
            assert [x.hex() for x in got] == [
                x.hex() for x in reference_wdvv_residual(cfg, coupling, seed)
            ]
            # the one-point case reads the same batched routine
            for p in points[:2]:
                assert list(map(hex_array, third_derivative_matrices(cfg, coupling, p))) == list(
                    map(hex_array, reference_third_derivative_matrices(cfg, coupling, p))
                )


@pytest.mark.parametrize("name, scale", CASES)
def test_batched_cms_matches_frozen_loop(name, scale):
    """The vee-form metric, that metric times 7 and the Euclidean one."""
    cfg = reference_configuration(name, scale)
    for metric in metrics(cfg):
        for seed in (0, 3):
            try:
                got = cms_identity_residual(cfg, metric, seed=seed)
            except CollinearPair:
                assert len(set(cfg.directions)) < len(cfg.entries)
                continue
            assert repr(got) == repr(reference_cms_identity_residual(cfg, metric, seed=seed))


def test_form_as_metric_matches_frozen_loop():
    """A metric that is neither the vee form, a multiple of it, nor Euclidean."""
    cfg = reference_configuration("B3")
    metric = Metric(cfg.gram.scale(F(2, 9)))
    got = cms_identity_residual(cfg, metric, seed=5)
    assert repr(got) == repr(reference_cms_identity_residual(cfg, metric, seed=5))


def test_singular_point_raises_as_before():
    cfg = reference_configuration("A2")
    point = EvalPoint(y=0j, x=(0.5 - 0.5j, -0.5 + 0.5j), margin=0.0)
    with pytest.raises(SingularPoint) as expected:
        reference_third_derivative_matrices(cfg, 36, point)
    with pytest.raises(SingularPoint) as got:
        third_derivative_matrices(cfg, 36, point)
    assert str(got.value) == str(expected.value)


def test_sampling_exhausted_raises_as_before():
    cfg = reference_configuration("B2")
    with pytest.raises(SamplingExhausted) as expected:
        reference_sample_points(cfg, 2, 0, margin_floor=0.9, max_tries=3)
    with pytest.raises(SamplingExhausted) as got:
        sample_points(cfg, 2, 0, margin_floor=0.9, max_tries=3)
    assert str(got.value) == str(expected.value)
