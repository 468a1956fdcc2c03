"""Floating-point verification that a solved configuration satisfies the WDVV
equations.

Checks are done in the coordinates (x0 = y, x1..xn): the constant matrix F0
and the point-dependent matrices F1..Fn of third derivatives are assembled,
and the commutator residuals Fi F0^-1 Fj - Fj F0^-1 Fi are maximized over
seeded random sample points.  The points are sampled once per configuration
and seed, in rounds that draw the next try of every point still waiting at
once.  A `SampleSet` keeps them with the sines and cotangents of every
covector there and the coupling-free parts of F0..Fn, so the WDVV check,
its rerun at another coupling and the CMS check at that seed compute them
once.  The matrices (and, in `cms`, the pair identity values) are computed
for all points at once from the configuration's cached float view, and the
commutators for as many points at once as fit in `_CHUNK_BYTES`.
The prepotential itself is evaluated through a direct trilogarithm series.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configuration import FloatView, PositiveSystem, VConfiguration, signed_covectors
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
_MAX_TRIES = 1000  # draws per sample point before sample_points gives up


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


class SampleSet:
    """A tuple of points with the trigonometric values of every covector at
    them, and the parts of F0..Fn there that do not depend on the coupling.

    `values`, `sins` and `margins` hold a(x), sin a(x) (each of shape
    (points, m)) and min |sin a(x)| per point.  Computed on first read:
    `cots`; `template`, F0 and the off-diagonal rows of F1..Fn at every
    point with the lower-right blocks zero; `f0_inverse`; and `blocks`,
    a^T * c a_i cot a(x) of shape (points, n, n, m), which times lambda and
    then @ a gives the lower-right blocks.  The WDVV check reads `margins`
    before `cots`, so that a singular point is refused before any division.
    Every array is read-only, since each check that reads it shares it.
    """

    def __init__(self, view: FloatView, points, values, sins, margins):
        self.points = points
        self.values, self.sins, self.margins = map(_frozen, (values, sins, margins))
        self._a, self._c, self._gram = view.covectors, view.mults, view.gram

    @cached_property
    def cots(self) -> np.ndarray:
        return _frozen(np.cos(self.values) / self.sins)

    @cached_property
    def _weighted(self) -> np.ndarray:
        # ca[i] = c * a[:, i]
        return np.array([self._c * self._a[:, i] for i in range(self._a.shape[1])])

    @cached_property
    def template(self) -> np.ndarray:
        n = self._a.shape[1]
        f = np.zeros((len(self.points), n + 1, n + 1, n + 1), dtype=complex)
        f[:, 0, 0, 0] = 2.0
        f[:, 0, 1:, 1:] = 2.0 * self._gram
        # the n rows 2 sum_a c_a a_i a do not depend on the point
        top = [2.0 * ca_i @ self._a for ca_i in self._weighted]
        f[:, 1:, 0, 1:] = top
        f[:, 1:, 1:, 0] = top
        return _frozen(f)

    @cached_property
    def f0_inverse(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.template[0, 0]))

    @cached_property
    def blocks(self) -> np.ndarray:
        # weights[p, i] = c * a[:, i] * cot(a(x_p)); block (p, i) is a^T * weights[p, i]
        weights = self._weighted * self.cots[:, None, :]
        return _frozen(self._a.T * weights[:, :, None, :])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def sample_points(
    cfg: VConfiguration,
    num_points: int,
    seed: int,
    margin_floor: float = 0.1,
) -> tuple[EvalPoint, ...]:
    """Seeded rejection sampling of nonsingular evaluation points.

    Coordinates are uniform in [-2, 2] + i [-1, -1/4]; each point index draws
    from an independent generator split off the seed, so point k is the same
    regardless of how many points are requested.  Each round draws the next
    try of every point still waiting and tests their margins together.  The
    points are drawn once per configuration and set of arguments: a repeated
    call returns the same tuple, and `cfg.floats.samples` keeps it in a
    `SampleSet` with the sines the margins were read from.
    """
    if num_points < 1:
        raise InvalidParams(f"num_points must be at least 1, got {num_points}")
    if seed < 0:
        raise InvalidParams(f"seed must be at least 0, got {seed}")
    key = (num_points, seed, margin_floor)
    view = cfg.floats
    if key in view.samples:
        return view.samples[key].points
    n, m = cfg.dim, len(cfg.entries)
    # one try draws Re x_1, Im x_1, ..., Re x_n, Im x_n, Re y, Im y, each
    # as low + (high - low) * random(), just as rng.uniform(low, high) does
    low = np.array((-2.0, -1.0) * (n + 1))
    span = np.array((4.0, 0.75) * (n + 1))
    rngs = [np.random.default_rng([seed, idx]) for idx in range(num_points)]
    tries = np.empty((num_points, 2 * n + 2))
    z = np.empty((num_points, n + 1), dtype=complex)
    values = np.empty((num_points, m), dtype=complex)
    sins = np.empty((num_points, m), dtype=complex)
    margins = np.empty(num_points)
    waiting = np.arange(num_points)
    for _ in range(_MAX_TRIES):
        draws = tries[: len(waiting)]
        for row, idx in zip(draws, waiting.tolist()):
            rngs[idx].random(out=row)
        drawn = (low + span * draws).view(complex)
        vals = _covector_values(view.covectors, drawn[:, :n])
        s = np.sin(vals)
        margin = np.min(np.abs(s), axis=1)
        ok = margin > margin_floor
        done = waiting[ok]
        z[done], values[done], sins[done], margins[done] = drawn[ok], vals[ok], s[ok], margin[ok]
        waiting = waiting[~ok]
        if not len(waiting):
            break
    else:
        raise SamplingExhausted(
            f"no point with margin > {margin_floor} found in {_MAX_TRIES} tries"
        )
    points = tuple(
        EvalPoint(y=y, x=tuple(x), margin=margin)
        for (*x, y), margin in zip(z.tolist(), margins.tolist())
    )
    view.samples[key] = SampleSet(view, points, values, sins, margins)
    return points


def sample_set(cfg: VConfiguration, num_points: int, seed: int, margin_floor: float) -> SampleSet:
    """The SampleSet that keeps sample_points(cfg, num_points, seed,
    margin_floor), drawn through that function on first use."""
    sample_points(cfg, num_points, seed, margin_floor)
    return cfg.floats.samples[num_points, seed, margin_floor]


def _covector_values(covectors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a(x) for every covector at every row of x, shape (points, m)."""
    # one matrix-vector product per point, as a @ x for a single point
    return np.matmul(covectors, np.ascontiguousarray(x)[..., None])[..., 0]


def _third_derivatives(cfg: VConfiguration, lambda_squared, sampled: SampleSet) -> np.ndarray:
    """F0..Fn at every point of the set, shape (points, n+1, n+1, n+1); see
    third_derivative_matrices."""
    if cfg.gram_det == 0:
        raise DegenerateForm("the form G is degenerate")
    lam2 = complex(lambda_squared)
    if lam2 == 0:
        raise ZeroLambda("lambda must be nonzero")
    lam = cmath.sqrt(lam2)
    for margin in sampled.margins:
        if margin < 1e-12:
            raise SingularPoint(f"point margin {float(margin)} too small")
    f = sampled.template.copy()
    # one matrix product per block, (lam * (a^T * weights[p, i])) @ a: lam
    # scales the blocks before the product, as in the one-point loop, so the
    # rounding is the same
    f[:, 1:, 1:, 1:] = (lam * sampled.blocks) @ cfg.floats.covectors
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
    view = cfg.floats
    values = _covector_values(view.covectors, np.array([point.x], dtype=complex))
    sins = np.sin(values)
    sampled = SampleSet(view, (point,), values, sins, np.min(np.abs(sins), axis=1))
    return list(_third_derivatives(cfg, lambda_squared, sampled)[0])


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
    sampled = sample_set(cfg, num_points, seed, margin_floor)
    mats = _third_derivatives(cfg, lambda_squared, sampled)
    f0_inv = sampled.f0_inverse
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
        points=sampled.points,
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
