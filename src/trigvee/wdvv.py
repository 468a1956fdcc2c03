"""Floating-point verification that a solved configuration satisfies the WDVV
equations.

Checks are done in the coordinates (x0 = y, x1..xn): the constant matrix F0
and the point-dependent matrices F1..Fn of third derivatives are assembled,
and the commutator residuals Fi F0^-1 Fj - Fj F0^-1 Fi are maximized over
seeded random sample points.  The points are sampled once per configuration
and seed, and the WDVV and CMS checks at that seed share them; the matrices
(and, in `cms`, the pair identity values) are computed for all points at
once from the configuration's cached float view, and the commutators for
as many points at once as fit in `_CHUNK_BYTES`.
The prepotential itself is evaluated through a direct trilogarithm series.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configuration import PositiveSystem, VConfiguration, signed_covectors
from .errors import (
    DegenerateForm,
    InvalidParams,
    OutOfDomain,
    SamplingExhausted,
    SingularPoint,
    ZeroLambda,
)

_TRILOG_TOL = 1e-16
_MAX_TRILOG_TERMS = 200_000
# The most bytes of WDVV commutator products formed at once: with dimension 8
# and ten points in one batch (about 1 MB) the check ran twice as slow as in
# chunks of at most 256 kB, and every catalog entry still takes one chunk
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class EvalPoint:
    """A complex sample point; margin = min over covectors of |sin a(x)|."""

    y: complex
    x: tuple[complex, ...]
    margin: float


@dataclass(frozen=True)
class ResidualReport:
    per_point: tuple[float, ...]
    aggregate: float
    points: tuple[EvalPoint, ...]
    seed: int


def trilog(z: complex) -> complex:
    """Li3(z) = sum_{k>=1} z^k / k^3 for |z| < 1, summed to machine tail."""
    if abs(z) >= 1:
        raise OutOfDomain(f"trilogarithm series needs |z| < 1, got |z| = {abs(z):.6f}")
    total = 0j
    power = z
    k = 1
    while abs(power) > _TRILOG_TOL:
        total += power / k**3
        power *= z
        k += 1
        if k > _MAX_TRILOG_TERMS:
            raise OutOfDomain("trilogarithm series did not converge")
    return total


def f_trig(x: complex) -> complex:
    """The prepotential kernel i x^3/6 + Li3(e^{-2ix})/4 with f'''(x) = cot x.

    Convergent for Im x < 0.
    """
    return 1j * x**3 / 6 + trilog(cmath.exp(-2j * x)) / 4


def check_f_derivative(samples, h: float) -> float:
    """Max deviation of the central third finite difference of f from cot.

    Uses the half-step stencil (f(x+3h/2) - 3f(x+h/2) + 3f(x-h/2)
    - f(x-3h/2)) / h^3, which converges at order h^2.  Samples must lie in
    the convergence half-plane Im x < 0, away from the poles of cot.
    """
    worst = 0.0
    for x in samples:
        x = complex(x)
        fd = (
            f_trig(x + 1.5 * h) - 3 * f_trig(x + 0.5 * h) + 3 * f_trig(x - 0.5 * h) - f_trig(x - 1.5 * h)
        ) / h**3
        dev = abs(fd - 1 / cmath.tan(x))
        worst = max(worst, dev)
    return worst


def sample_points(
    cfg: VConfiguration,
    num_points: int,
    seed: int,
    margin_floor: float = 0.1,
    max_tries: int = 1000,
) -> tuple[EvalPoint, ...]:
    """Seeded rejection sampling of nonsingular evaluation points.

    Coordinates are uniform in [-2, 2] + i [-1, -1/4]; each point index draws
    from an independent generator split off the seed, so point k is the same
    regardless of how many points are requested.  The points are drawn once
    per configuration and set of arguments: a repeated call returns the same
    tuple.
    """
    if num_points < 1:
        raise InvalidParams(f"num_points must be at least 1, got {num_points}")
    key = (num_points, seed, margin_floor, max_tries)
    view = cfg.floats
    if key in view.samples:
        return view.samples[key]
    n = cfg.dim
    # one try draws Re x_1, Im x_1, ..., Re x_n, Im x_n, Re y, Im y, each
    # as low + (high - low) * random(), just as rng.uniform(low, high) does
    low = np.tile((-2.0, -1.0), n + 1)
    span = np.tile((4.0, 0.75), n + 1)
    points = []
    for idx in range(num_points):
        rng = np.random.default_rng([seed, idx])
        for _ in range(max_tries):
            z = (low + span * rng.random(2 * n + 2)).view(complex)
            margin = float(np.min(np.abs(np.sin(view.covectors @ z[:n]))))
            if margin > margin_floor:
                *x, y = z.tolist()
                points.append(EvalPoint(y=y, x=tuple(x), margin=margin))
                break
        else:
            raise SamplingExhausted(
                f"no point with margin > {margin_floor} found in {max_tries} tries"
            )
    view.samples[key] = points = tuple(points)
    return points


def covector_values(cfg: VConfiguration, points: Sequence[EvalPoint]) -> np.ndarray:
    """The values a(x) of every covector at every point, shape (points, m)."""
    x = np.array([p.x for p in points], dtype=complex).reshape(len(points), cfg.dim, 1)
    # one matrix-vector product per point, as a @ x for a single point
    return np.matmul(cfg.floats.covectors, x)[..., 0]


def _third_derivatives(
    cfg: VConfiguration, lambda_squared, points: Sequence[EvalPoint]
) -> np.ndarray:
    """F0..Fn at every point, shape (points, n+1, n+1, n+1); see
    third_derivative_matrices."""
    if cfg.gram_det == 0:
        raise DegenerateForm("the form G is degenerate")
    lam2 = complex(lambda_squared)
    if lam2 == 0:
        raise ZeroLambda("lambda must be nonzero")
    lam = cmath.sqrt(lam2)
    n = cfg.dim
    view = cfg.floats
    a, c = view.covectors, view.mults
    values = covector_values(cfg, points)
    sins = np.sin(values)
    margins = np.min(np.abs(sins), axis=1)
    for margin in margins:
        if margin < 1e-12:
            raise SingularPoint(f"point margin {float(margin)} too small")
    cots = np.cos(values) / sins

    f = np.zeros((len(points), n + 1, n + 1, n + 1), dtype=complex)
    f[:, 0, 0, 0] = 2.0
    f[:, 0, 1:, 1:] = 2.0 * view.gram
    # ca[i] = c * a[:, i]; the n rows 2 sum_a c_a a_i a do not depend on
    # the point
    ca = [c * a[:, i] for i in range(n)]
    top = [2.0 * ca_i @ a for ca_i in ca]
    f[:, 1:, 0, 1:] = top
    f[:, 1:, 1:, 0] = top
    # weights[p, i] = c * a[:, i] * cot(a(x_p)), and block (p, i) is
    # (lam * (a^T * weights[p, i])) @ a, one matrix product per block
    weights = np.array(ca) * cots[:, None, :]
    f[:, 1:, 1:, 1:] = (lam * (a.T * weights[:, :, None, :])) @ a
    return f


def third_derivative_matrices(
    cfg: VConfiguration, lambda_squared, point: EvalPoint
) -> list[np.ndarray]:
    """The (n+1)x(n+1) matrices F0..Fn of third derivatives at a point.

    F0 is constant: 2 blockdiag(1, G).  For i >= 1, Fi has a zero corner,
    off-diagonal blocks 2 sum_a c_a a_i a, and lower-right block
    lambda sum_a c_a a_i cot(a(x)) a x a, with lambda the principal square
    root of lambda_squared.
    """
    return list(_third_derivatives(cfg, lambda_squared, (point,))[0])


def wdvv_residual(
    cfg: VConfiguration,
    lambda_squared,
    num_points: int = 10,
    seed: int = 0,
    margin_floor: float = 0.1,
) -> ResidualReport:
    """Max WDVV commutator residual over seeded sample points (pivot k = 0)."""
    if cfg.gram_det == 0:
        raise DegenerateForm("the form G is degenerate")
    points = sample_points(cfg, num_points, seed, margin_floor)
    mats = _third_derivatives(cfg, lambda_squared, points)
    f0_inv = np.linalg.inv(mats[0, 0])
    # prod[p, i, j] = (F_i F0^-1) F_j at point p; the commutator for (i, j)
    # is prod[p, i, j] - prod[p, j, i], and its negative for (j, i).  The
    # points go in chunks whose products take at most _CHUNK_BYTES, so that
    # the temporaries stay in cache
    per_point: list[float] = []
    step = max(1, _CHUNK_BYTES // (mats[0].nbytes * len(mats[0])))
    for start in range(0, len(mats), step):
        chunk = mats[start : start + step]
        prod = (chunk @ f0_inv)[:, :, None] @ chunk[:, None]
        worst = np.max(np.abs(prod - prod.transpose(0, 2, 1, 3, 4)), axis=(1, 2, 3, 4))
        per_point += worst.tolist()
    return ResidualReport(
        per_point=tuple(per_point),
        aggregate=max(per_point),
        points=points,
        seed=seed,
    )


def eval_prepotential(
    cfg: VConfiguration, lambda_squared, psys: PositiveSystem, point: EvalPoint
) -> complex:
    """Evaluate F = y^3/3 + sum c a(x)^2 y + lambda sum c f(a(x)).

    Covector signs come from the positive system; every signed a(x) must have
    negative imaginary part so the trilogarithm series converges.
    """
    if cfg.gram_det == 0:
        raise DegenerateForm("the form G is degenerate")
    lam = cmath.sqrt(complex(lambda_squared))
    x = np.asarray(point.x, dtype=complex)
    signed = signed_covectors(cfg, psys)
    total = point.y**3 / 3
    for vec, entry in zip(signed, cfg.entries):
        av = complex(sum(float(vc) * xv for vc, xv in zip(vec, x)))
        if av.imag >= 0:
            raise OutOfDomain(
                f"Im a(x) = {av.imag:.6f} >= 0 for covector {entry.label}; "
                "trilogarithm series diverges"
            )
        total += float(entry.mult) * (av**2 * point.y + lam * f_trig(av))
    return total
