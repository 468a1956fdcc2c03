"""Generalized Calogero-Moser-Sutherland checks.

For a configuration with pairwise non-collinear covectors and an inner
product (a,b) on covectors, the Schrodinger operator

    L = -Delta + sum_a c_a (c_a + 1) (a,a) / sin^2 a(x)

has the factorized formal eigenfunction psi = prod_a sin^(-c_a) a(x) exactly
when the double sum  sum_{a != b} c_a c_b (a,b) cot a(x) cot b(x)  is
constant in x.  This module verifies that identity numerically, estimates
the eigenvalue, runs the series condition with an arbitrary metric, and
recovers the vee-system structure from a metric that works.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configuration import IntPairing, VConfiguration, integer_pairing_table
from .errors import CollinearPair, DegenerateForm, DimensionMismatch
from .exactnum import RatMatrix, integer_rank
from .veecheck import SeriesCheckReport, series_residuals
from . import wdvv
from .wdvv import EvalPoint


@dataclass(frozen=True)
class Metric:
    """Symmetric inner product on covectors: (a,b) = a . matrix . b^T."""

    matrix: RatMatrix

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise DegenerateForm("metric matrix must be symmetric")

    def is_vee_form(self, cfg: VConfiguration) -> bool:
        """Whether the matrix is cfg's G^-1, which exists, and is then
        nonsingular, exactly when det G != 0."""
        return cfg.gram_det != 0 and self.matrix == cfg.gram_inverse

    def integer_pairing(self, cfg: VConfiguration) -> IntPairing:
        """The table (a_i, a_j) = a_i . matrix . a_j^T over the entries of cfg,
        as integer numerators over one denominator; the configuration's own
        cached table when the matrix is its G^-1."""
        if self.is_vee_form(cfg):
            return cfg.integer_pairing
        return integer_pairing_table(cfg.integer_covectors, self.matrix)

    def scaled(self, t) -> "Metric":
        return Metric(self.matrix.scale(t))


def vee_form_metric(cfg: VConfiguration) -> Metric:
    """The metric induced by the configuration's own form (matrix G^-1)."""
    return Metric(cfg.gram_inverse)


def euclidean_metric(dim: int) -> Metric:
    return Metric(RatMatrix.identity(dim))


@dataclass(frozen=True)
class CmsReport:
    identity_values: tuple[complex, ...]
    mean: complex
    max_deviation: float
    eigenvalue_values: tuple[complex, ...]
    eigenvalue_estimate: complex
    eigenvalue_deviation: float
    points: tuple[EvalPoint, ...]
    seed: int


def _require_cms_hypotheses(cfg: VConfiguration, metric: Metric) -> None:
    """Refuse collinear covectors, naming the lexicographically first
    collinear pair: the least (first entry on the line, later entry) pair."""
    first: dict[tuple[int, ...], int] = {}
    pairs = [(first[d], j) for j, d in enumerate(cfg.directions) if first.setdefault(d, j) != j]
    if pairs:
        i, j = min(pairs)
        labels = cfg.entries[i].label, cfg.entries[j].label
        raise CollinearPair("covectors {} and {} are collinear".format(*labels))
    _require_metric(cfg, metric)


def _require_metric(cfg: VConfiguration, metric: Metric) -> None:
    """The one metric gate: a nonsingular dim x dim matrix.  G^-1 is one
    whenever it exists, so only another matrix is eliminated exactly."""
    if metric.matrix.rows != cfg.dim:
        raise DimensionMismatch("metric size does not match the configuration dimension")
    if not metric.is_vee_form(cfg) and metric.matrix.det() == 0:
        raise DegenerateForm("metric is degenerate")


def cms_identity_residual(
    cfg: VConfiguration,
    metric: Metric,
    num_points: int = 10,
    seed: int = 0,
    margin_floor: float = 0.1,
) -> CmsReport:
    """Evaluate the pair identity and the eigenvalue ratio at sample points.

    The report carries the identity values (whose constancy is the criterion),
    their mean and max deviation from it, and the pointwise (L psi)/psi values
    computed through the logarithmic-derivative expansion of psi.
    """
    _require_cms_hypotheses(cfg, metric)
    sampled = wdvv.sample_set(cfg, num_points, seed, margin_floor)
    points = sampled.points

    a, c = cfg.floats.covectors, cfg.floats.mults
    table, den = metric.integer_pairing(cfg)
    # int / int rounds once, exactly as float(Fraction(x, den)) does
    pair = np.array([[x / den for x in row] for row in table])
    pair_offdiag = pair - np.diag(np.diag(pair))
    metric_f = np.array([[float(v) for v in row] for row in metric.matrix.entries])
    norms = np.diag(pair)  # (a,a) per entry

    # every array below has one row per point; each product is one
    # matrix-vector product per point, as for a single point.  The sines and
    # cotangents are the sample set's, shared with the WDVV checks
    sin, cot = sampled.sins, sampled.cots
    csc2 = 1.0 / sin**2
    cc = c * cot
    column, row = cc[:, :, None], cc[:, None, :]
    # sum over ordered pairs i != j; the table stays real, since a complex
    # copy of it sends the product through a zgemv that can stall on some
    # sizes
    paired = pair_offdiag @ column.real + 1j * (pair_offdiag @ column.imag)
    identity = (row @ paired)[:, 0, 0]

    # (L psi)/psi through log derivatives:
    #   d_i psi/psi = -sum c a_i cot a(x)
    #   d_i d_j psi/psi = (d_i psi/psi)(d_j psi/psi) + sum c a_i a_j csc^2
    grad = -(row @ a)[:, 0]
    hess = grad[:, :, None] * grad[:, None, :] + (a.T * (c * csc2)[:, None, :]) @ a
    laplacian = float(0) + np.sum((metric_f * hess).reshape(len(points), cfg.dim**2), axis=1)
    potential = np.sum(c * (c + 1) * norms * csc2, axis=1)
    identity_values = identity.tolist()
    eigen_values = (-laplacian + potential).tolist()

    mean = sum(identity_values) / len(identity_values)
    max_dev = max(abs(v - mean) for v in identity_values)
    mu = sum(eigen_values) / len(eigen_values)
    mu_dev = max(abs(v - mu) for v in eigen_values)
    return CmsReport(
        identity_values=tuple(identity_values),
        mean=mean,
        max_deviation=max_dev,
        eigenvalue_values=tuple(eigen_values),
        eigenvalue_estimate=mu,
        eigenvalue_deviation=mu_dev,
        points=points,
        seed=seed,
    )


def check_series_with_metric(cfg: VConfiguration, metric: Metric) -> SeriesCheckReport:
    """Series condition with (a,b) taken from the supplied metric.

    With the vee-form metric this coincides exactly with the intrinsic
    series check.
    """
    _require_metric(cfg, metric)
    return series_residuals(cfg, metric.integer_pairing(cfg))


@dataclass(frozen=True)
class CmsToVeeResult:
    is_trig_vee: bool
    component_scalars: tuple[Fraction, ...]
    component_dims: tuple[int, ...]
    vee_series: SeriesCheckReport


def _scalar_blocks(cfg: VConfiguration, table: IntPairing) -> dict[Fraction, list[tuple[int, ...]]]:
    """The covectors' cleared integer rows grouped by the scalar mu_i with
    M a_i^T = mu_i G^-1 a_i^T, given the metric's pairing table.

    As the covectors span, row i of the metric's pairing table is then mu_i
    times row i of the vee table, and mu_i is read at the first nonzero entry
    of the vee row.  The caller's passing metric series check guarantees the
    scalar (see `cms_to_vee`), so the rest of the row is not compared.
    """
    (m_table, m_den), (v_table, v_den) = table, cfg.integer_pairing
    blocks: dict[Fraction, list[tuple[int, ...]]] = {}
    for row, mrow, vrow in zip(cfg.integer_covectors[0], m_table, v_table):
        # exists: G^-1 a^T is nonzero and the covectors span
        k = next(k for k, x in enumerate(vrow) if x != 0)
        blocks.setdefault(Fraction(mrow[k] * v_den, vrow[k] * m_den), []).append(row)
    return blocks


def cms_to_vee(cfg: VConfiguration, metric: Metric) -> CmsToVeeResult:
    """Recover the vee-system structure from a metric whose series check holds.

    Splits the space into eigenspaces of the exact rational operator
    T = M G (M the metric matrix, G the form), on each of which the form is
    the scalar multiple mu_i of the metric's inner product on vectors.  Each
    covector dual M a_i^T is an eigenvector of T, that is (M and G being
    invertible) M a_i^T = mu_i G^-1 a_i^T, which `_scalar_blocks` reads off
    the two integer pairing tables.  The passing metric check implies it:
    summed over the series of a, it is the 2-form identity
    sum_b c_b (a,b) a^b = a ^ (G M a^T) = 0 for every covector a.  The
    scalars are all the eigenvalues of T, and each eigenspace's dimension is
    the rank of the cleared integer rows of the covectors with its scalar.

    Each vee residual is the metric residual divided by mu_i, so all vanish
    with the metric ones: the metric report is the intrinsic report.
    """
    cfg.integer_gram_inverse  # refuses a degenerate form
    _require_metric(cfg, metric)
    table = metric.integer_pairing(cfg)
    metric_report = series_residuals(cfg, table)
    if not metric_report.passed:
        raise ValueError("metric series condition fails; nothing to recover")
    blocks = _scalar_blocks(cfg, table)
    scalars = tuple(sorted(blocks))
    return CmsToVeeResult(
        is_trig_vee=metric_report.passed,
        component_scalars=scalars,
        component_dims=tuple(integer_rank(blocks[mu]) for mu in scalars),
        vee_series=metric_report,
    )
