"""Exact checks deciding whether a configuration is a trigonometric vee-system
and solving for the WDVV coupling lambda^2.

The central condition: for every covector a and every a-series, the weighted
2-form sum over the series vanishes.  Because all members of a series lie in
the plane spanned by the base and any one member, each condition collapses to
a single rational number (the residual), which is reported exactly.  The
check sums each residual over ints and keeps it as that integer total over
one scale shared by the whole check; a residual becomes a Fraction, in a
`SeriesResidual` record, only when the report's `residuals` or `failures()`
is read, so a verdict alone builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .configuration import (
    IntPairing,
    PositiveSystem,
    VConfiguration,
    decompose_components,
    positive_system,
    primitive,
    wedge_coeffs,
)


@dataclass(frozen=True)
class SeriesResidual:
    base_index: int
    series_index: int
    residue: tuple[int, ...]
    member_indices: tuple[int, ...]
    residual: Fraction

    @property
    def passed(self) -> bool:
        return self.residual == 0


class SeriesCheckReport:
    """The series residuals of one pairing, kept as one integer total per
    series over the shared scale, in the order of the configuration's split.

    `passed` reads the integers alone.  The report keeps the configuration,
    and only when `residuals` or `failures()` is read does it read
    `cfg.series`, so that the `AlphaSeries` records and the `SeriesResidual`
    records with their Fractions are built then and not before.
    """

    def __init__(self, cfg: VConfiguration, totals: tuple[int, ...], scale: int):
        self.cfg = cfg
        self.totals = totals
        self.scale = scale

    @cached_property
    def residuals(self) -> tuple[SeriesResidual, ...]:
        totals = iter(self.totals)
        return tuple(
            SeriesResidual(
                i, s_idx, series.residue, series.entry_indices(), Fraction(next(totals), self.scale)
            )
            for i, row in enumerate(self.cfg.series)
            for s_idx, series in enumerate(row)
        )

    @property
    def passed(self) -> bool:
        return not any(self.totals)

    def failures(self) -> tuple[SeriesResidual, ...]:
        return tuple(r for r in self.residuals if not r.passed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesCheckReport):
            return NotImplemented
        return self.residuals == other.residuals

    def __hash__(self) -> int:
        return hash(self.residuals)

    def __repr__(self) -> str:
        return f"SeriesCheckReport(residuals={self.residuals!r})"


def series_residuals(cfg: VConfiguration, pairing: IntPairing) -> SeriesCheckReport:
    """Series condition residuals with an arbitrary covector pairing, given
    as integer numerators over one denominator (table[i][j] / den is the
    product of entries i and j).

    For base a and series with representative b0, the 2-form condition
    sum_b c_b (a,b) a^b = 0 reduces to sum_b c_b (a,b) r_b = 0 where
    r_b = +-1 relates a^b to a^b0, that is r_b = s_b s_b0 for the member
    signs s.  With the multiplicities cleared to c_b = c'_b / l_c, each
    residual is one integer total over l_c * den, kept as that integer.
    The totals are summed straight from the integer split `cfg.series_split`,
    which holds r_b and the series number of every member, so the check
    builds no series record.
    """
    table, den = pairing
    mults, l_c = cfg.integer_mults
    totals: list[int] = []
    for row, (first_signs, members) in zip(table, cfg.series_split):
        sums = [0] * len(first_signs)
        for j, r, _step, s in members:
            sums[s] += r * mults[j] * row[j]
        totals += sums
    return SeriesCheckReport(cfg, tuple(totals), l_c * den)


def check_series_condition(cfg: VConfiguration) -> SeriesCheckReport:
    """Definition check: every series residual vanishes under the vee product."""
    return series_residuals(cfg, cfg.integer_pairing)


@dataclass(frozen=True)
class PlaneWitness:
    base_index: int
    plane_indices: tuple[int, ...]
    deviation: tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalVeeReport:
    witnesses: tuple[PlaneWitness, ...]
    planes_checked: int

    @property
    def passed(self) -> bool:
        return not self.witnesses


def check_rational_vee(cfg: VConfiguration) -> RationalVeeReport:
    """Per 2-plane proportionality: sum of c_b (a,b) b over the plane is ~ a.

    For every base covector and every plane it spans with another entry, the
    weighted sum over all entries lying in that plane (parallel ones
    included) must be a rational multiple of the base.  The planes through a
    are told apart by the primitive 2-form a ^ b, and each deviation
    coefficient is summed over ints and becomes one Fraction over d^2 l_c den.
    """
    table, den = cfg.integer_pairing
    (vecs, d), (mults, l_c) = cfg.integer_covectors, cfg.integer_mults
    scale = d * d * l_c * den
    witnesses = []
    planes_checked = 0
    for i, (a, row) in enumerate(zip(vecs, table)):
        # entries parallel to the base (itself included) lie in every plane
        parallel = {j for j, dj in enumerate(cfg.directions) if dj == cfg.directions[i]}
        planes: dict[tuple[int, ...], list[int]] = {}
        for j, b in enumerate(vecs):
            if j not in parallel:
                planes.setdefault(primitive(wedge_coeffs(a, b)), []).append(j)
        for key in sorted(planes, key=lambda k: planes[k][0]):
            member_idx = sorted(set(planes[key]) | parallel)
            total = [0] * cfg.dim
            for j in member_idx:
                total = [t + mults[j] * row[j] * x for t, x in zip(total, vecs[j])]
            deviation = wedge_coeffs(total, a)
            planes_checked += 1
            if any(deviation):
                witnesses.append(
                    PlaneWitness(
                        base_index=i,
                        plane_indices=tuple(member_idx),
                        deviation=tuple(Fraction(x, scale) for x in deviation),
                    )
                )
    return RationalVeeReport(witnesses=tuple(witnesses), planes_checked=planes_checked)


@dataclass(frozen=True)
class TensorMismatch:
    component: tuple[int, int]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class LambdaSolution:
    """Outcome of the coupling solve over a positive system.

    status is one of:
      'solved'     -- lambda2 is the unique rational lambda^2 making the
                      4-tensor identity hold exactly;
      'no_solution' -- no coupling works; witness holds the first entry
                      where Q differs from r P, with r the ratio Q/P at the
                      first nonzero entry of P (0 when P vanishes);
      'any_lambda' -- both tensors vanish identically (the identity is
                      vacuous, e.g. in dimension 1), so any coupling works.
    """

    status: str
    lambda2: Fraction | None
    psys: PositiveSystem
    witness: TensorMismatch | None = None


def solve_lambda_squared(
    cfg: VConfiguration, psys: PositiveSystem | None = None
) -> LambdaSolution:
    """Solve the 4-tensor identity (lambda^2 / 4) P = Q for lambda^2 over a
    positive system.

    P = sum c_a c_b (a,b) (a^b) x (a^b) and Q = sum c_a c_b (a^b) x (a^b),
    both over ordered pairs from the signed system, laid out on the basis
    e^i ^ e^j (i < j) of 2-forms; (a,b) is the vee product, read off the
    cached pairing of the unsigned entries, integer numerators over one
    denominator l_p.

    Both tensors are built over ints, from the cached integer covectors (over
    d) and multiplicities (over l_c).  Each is even in every covector, so the
    signs enter only through the pairing factor s_a s_b: the unsigned rows
    give the same integers as the signed ones.
    Q needs no pair loop, since over ordered pairs it is twice the second
    compound of the Gram G = sum c_a a a^T:
    Q[(i,j)][(k,l)] = 2 (G_ik G_jl - G_il G_jk), read from the cached integer
    Gram G' = d^2 l_c G.  A wedge a ^ b is taken only on the pairs (i, j)
    where a_i or a_j is nonzero, since it vanishes on the others.
    """
    pairing_ints, l_p = cfg.integer_pairing  # refuses a degenerate form before any other work
    if psys is None:
        psys = positive_system(cfg)
    n = cfg.dim
    m = n * (n - 1) // 2
    vecs, d = cfg.integer_covectors
    mults, l_c = cfg.integer_mults
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gram, _scale = cfg.integer_gram
    q = [[2 * (gram[i][k] * gram[j][l] - gram[i][l] * gram[j][k]) for k, l in pairs] for i, j in pairs]
    p = [[0] * m for _ in range(m)]
    for k, (a, ca) in enumerate(zip(vecs, mults)):
        row_p = pairing_ints[k]
        support = [(u, i, j) for u, (i, j) in enumerate(pairs) if a[i] or a[j]]
        for l in range(k + 1, len(vecs)):
            pw = 2 * ca * mults[l] * psys.signs[k] * psys.signs[l] * row_p[l]
            if pw == 0:
                continue
            b = vecs[l]
            w = [(u, x) for u, i, j in support if (x := a[i] * b[j] - a[j] * b[i])]
            for u, wu in w:
                row, pwu = p[u], pw * wu
                for v, wv in w:
                    row[v] += pwu * wv
    # compare Q with ratio * P by cross-multiplying; when P vanishes (always
    # in dimension 1) the test is Q = 0, as if the ratio were 0
    first = next(((u, v) for u in range(m) for v in range(m) if p[u][v] != 0), None)
    p0, q0 = (p[first[0]][first[1]], q[first[0]][first[1]]) if first else (1, 0)
    scale = d**4 * l_c**2
    for u in range(m):
        for v in range(m):
            if q[u][v] * p0 != q0 * p[u][v]:
                lhs = Fraction(q0 * p[u][v], p0 * scale)
                witness = TensorMismatch((u, v), lhs, Fraction(q[u][v], scale))
                return LambdaSolution("no_solution", None, psys, witness)
    if first is None:
        return LambdaSolution("any_lambda", None, psys)
    return LambdaSolution("solved", Fraction(4 * q0 * l_p, p0), psys)


@dataclass(frozen=True)
class FullCheckReport:
    degenerate: bool
    series: SeriesCheckReport | None
    is_trig_vee: bool
    is_irreducible: bool | None
    lambda_solution: LambdaSolution | None

    @property
    def defines_wdvv_solution(self) -> bool:
        """Series condition holds and a coupling exists (or is unconstrained)."""
        return (
            self.is_trig_vee
            and self.lambda_solution is not None
            and self.lambda_solution.status in ("solved", "any_lambda")
        )


def full_check(cfg: VConfiguration, psys: PositiveSystem | None = None) -> FullCheckReport:
    """Aggregate verdict: non-degeneracy, series condition, irreducibility,
    coupling solve.  Never raises on valid configurations; a degenerate form
    is reported as the failure reason."""
    if cfg.gram_det == 0:
        return FullCheckReport(
            degenerate=True,
            series=None,
            is_trig_vee=False,
            is_irreducible=None,
            lambda_solution=None,
        )
    series = check_series_condition(cfg)
    components = decompose_components(cfg)
    lam = solve_lambda_squared(cfg, psys)
    return FullCheckReport(
        degenerate=False,
        series=series,
        is_trig_vee=series.passed,
        is_irreducible=(len(components) == 1),
        lambda_solution=lam,
    )
