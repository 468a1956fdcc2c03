"""Covector configurations with multiplicities.

A configuration is a finite list of nonzero rational covectors with nonzero
rational multiplicities.  Building one caches the bilinear form
G = sum_a c_a a^T a, its determinant, and an integer lattice basis for the
covectors.  G is summed over the covectors and multiplicities cleared to
integers, kept as that integer Gram `integer_gram`, and becomes Fractions
only entry by entry at the end; its determinant is taken over those integer
sums.  The form identifies vectors and covectors; all pairings of covectors
below go through its inverse (the "vee product").  The integer Gram is
inverted once, fraction-free, as `integer_gram_inverse`; both the Fraction
matrix `gram_inverse` and the pairing table `integer_pairing` are read from
that integer inverse.  The table holds integer numerators over one
denominator, the only form of it that the checks read.  A pairing under any
other matrix is tabulated by the same integer kernel through
`integer_pairing_table`.  Every exact kernel reads the covectors and
multiplicities cleared to integers once, as `integer_covectors` and
`integer_mults`, and keeps its own scale.
`integer_gram_inverse` is the one place that refuses a degenerate form:
every check that needs the vee product reaches it before doing anything
else.
The split of the covectors into series around each base is cached as
`series`, and the numeric checks read the float view `floats`, also cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    DuplicateCovector,
    FunctionalVanishes,
    ZeroCovector,
    ZeroMultiplicity,
)
from .exactnum import (
    RatMatrix,
    as_rational,
    clear_denominators,
    integer_det,
    integer_hnf,
    integer_inverse,
    integer_lattice_coordinates,
    rref,
)

if TYPE_CHECKING:
    import numpy as np

Covector = tuple[Fraction, ...]
# Integer rows over one common denominator: cleared covectors or a pairing table.
IntRows = tuple[tuple[tuple[int, ...], ...], int]
IntPairing = IntRows


def covector(coords: Iterable) -> Covector:
    return tuple(as_rational(x) for x in coords)


def cov_neg(v: Covector) -> Covector:
    return tuple(-x for x in v)


def cov_dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((as_rational(a) * as_rational(b) for a, b in zip(u, v)), Fraction(0))


def wedge_coeffs(u: Sequence, v: Sequence) -> tuple:
    """Coefficients of u ^ v in the ordered basis e^i ^ e^j, i < j (ints for
    integer u and v)."""
    n = len(u)
    return tuple(u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector over the gcd of its entries, with its first
    nonzero entry made positive: the same for all nonzero multiples of v."""
    g = gcd(*v)
    if next(x for x in v if x != 0) < 0:
        g = -g
    return tuple(x // g for x in v)


def is_parallel(u: Covector, v: Covector) -> bool:
    """True when u and v span the same line (both assumed nonzero)."""
    return all(x == 0 for x in wedge_coeffs(u, v))


@dataclass(frozen=True)
class ConfigEntry:
    covector: Covector
    mult: Fraction
    label: str


@dataclass(frozen=True)
class PositiveSystem:
    """Signs putting every covector strictly inside a half-space."""

    signs: tuple[int, ...]
    functional: Covector


class SeriesMember(NamedTuple):
    """One covector of a series: sign * covector + step * base = residue."""

    entry_index: int
    sign: int
    step: int


class AlphaSeries(NamedTuple):
    """A maximal series of covectors relative to a base covector.

    Any two members b1, b2 satisfy b1 - b2 = k * base or b1 + b2 = k * base
    with k an integer in lattice coordinates; the residue is the canonical
    representative of the common class modulo integer steps of the base.
    """

    base_index: int
    residue: tuple[int, ...]
    members: tuple[SeriesMember, ...]

    def entry_indices(self) -> tuple[int, ...]:
        return tuple([m.entry_index for m in self.members])


@dataclass(frozen=True, eq=False)
class FloatView:
    """A configuration's covectors (one per row), multiplicities and form G
    as float arrays, each entry rounded once from its Fraction.

    `samples` holds the sample points drawn for the configuration, keyed by
    the arguments of `wdvv.sample_points`.
    """

    covectors: np.ndarray
    mults: np.ndarray
    gram: np.ndarray
    samples: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VConfiguration:
    dim: int
    entries: tuple[ConfigEntry, ...]
    gram: RatMatrix
    gram_det: Fraction
    lattice_basis: tuple[Covector, ...]
    lattice_coords: tuple[tuple[int, ...], ...]
    # (G', d^2 l_c): the form G = G' / (d^2 l_c) as integer rows, summed over
    # the covectors cleared over d and the multiplicities cleared over l_c
    integer_gram: IntRows = field(compare=False, repr=False)

    @cached_property
    def integer_gram_inverse(self) -> tuple[list[list[int]], int]:
        """(R, p) with G'^-1 = R / p, fraction-free; refuses a degenerate form."""
        if self.gram_det == 0:
            raise DegenerateForm("the form G is degenerate")
        return integer_inverse(self.integer_gram[0])

    @cached_property
    def gram_inverse(self) -> RatMatrix:
        """G^-1 = d^2 l_c R / p."""
        inverse, p = self.integer_gram_inverse
        scale = self.integer_gram[1]
        return RatMatrix([[Fraction(scale * x, p) for x in row] for row in inverse])

    @cached_property
    def integer_covectors(self) -> IntRows:
        """The covectors as integer rows over the lcm d of their denominators."""
        rows, d = clear_denominators(self.covectors())
        return tuple(map(tuple, rows)), d

    @cached_property
    def integer_mults(self) -> tuple[tuple[int, ...], int]:
        """The multiplicities as integers over the lcm l_c of their denominators."""
        (mults,), l_c = clear_denominators([self.mults()])
        return tuple(mults), l_c

    @cached_property
    def integer_pairing(self) -> IntPairing:
        """The vee products (a_i, a_j) = a_i G^-1 a_j^T as (numerators, den).

        With A = A'/d and G^-1 = d^2 l_c R / p, the table is l_c A' R A'^T / p:
        numerators sgn(p) l_c A' R A'^T over the denominator |p|."""
        inverse, p = self.integer_gram_inverse
        _mults, l_c = self.integer_mults
        s = l_c if p > 0 else -l_c
        vecs, _d = self.integer_covectors
        return _pairing_numerators(vecs, [[s * x for x in row] for row in inverse]), abs(p)

    @cached_property
    def series(self) -> tuple[tuple[AlphaSeries, ...], ...]:
        """The series split around every base: series[i] = alpha_series(self, i)."""
        return tuple(alpha_series(self, i) for i in range(len(self.entries)))

    @cached_property
    def floats(self) -> FloatView:
        """The float view the numeric checks read; numpy is imported here,
        on first use, so that building a configuration does not load it."""
        import numpy as np

        def frozen(values) -> np.ndarray:
            out = np.array(values, dtype=float)
            out.flags.writeable = False
            return out

        return FloatView(
            covectors=frozen(self.covectors()),
            mults=frozen(self.mults()),
            gram=frozen(self.gram.entries),
        )

    @cached_property
    def directions(self) -> tuple[tuple[int, ...], ...]:
        """Each covector's primitive lattice direction, first nonzero entry
        positive: two covectors are parallel exactly when these are equal."""
        return tuple(primitive(coords) for coords in self.lattice_coords)

    def covectors(self) -> tuple[Covector, ...]:
        return tuple(e.covector for e in self.entries)

    def mults(self) -> tuple[Fraction, ...]:
        return tuple(e.mult for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def integer_pairing_table(covectors: IntRows, matrix: RatMatrix) -> IntPairing:
    """The symmetric table A . matrix . A^T for the covectors A = A'/d given
    as (A', d), like `integer_covectors`, as integer numerators over the
    common denominator d^2 l_m (l_m the lcm of the matrix denominators)."""
    vecs, d = covectors
    if any(len(v) != matrix.cols for v in vecs):
        raise DimensionMismatch("vector length mismatch")
    rows, l_m = clear_denominators(matrix.entries)
    return _pairing_numerators(vecs, rows), d * d * l_m


def _pairing_numerators(
    vecs: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The symmetric integer table V . M . V^T for integer rows V and a
    symmetric integer matrix M: the one pairing kernel."""
    duals = [[sum(map(mul, row, v)) for row in rows] for v in vecs]
    table = [[0] * len(vecs) for _ in vecs]
    for i, u in enumerate(vecs):
        nonzero = [(k, x) for k, x in enumerate(u) if x != 0]
        for j in range(i, len(vecs)):
            dual = duals[j]
            table[i][j] = table[j][i] = sum([x * dual[k] for k, x in nonzero])
    return tuple(tuple(row) for row in table)


def build_configuration(dim: int, entries: Iterable) -> VConfiguration:
    """Assemble and validate a configuration.

    `entries` is an iterable of (coords, mult) or (coords, mult, label).
    Covectors equal up to sign are rejected; genuinely distinct parallel
    covectors (like e1 and 2*e1) are allowed.
    """
    if dim < 1:
        raise DimensionMismatch("dimension must be at least 1")
    built: list[ConfigEntry] = []
    seen: dict[Covector, str] = {}
    for k, item in enumerate(entries):
        if len(item) == 3:
            coords, mult, label = item
        else:
            coords, mult = item
            label = f"v{k}"
        v = covector(coords)
        if len(v) != dim:
            raise DimensionMismatch(f"entry {label}: expected {dim} coordinates, got {len(v)}")
        if all(x == 0 for x in v):
            raise ZeroCovector(f"entry {label} is the zero covector")
        c = as_rational(mult)
        if c == 0:
            raise ZeroMultiplicity(f"entry {label} has multiplicity 0")
        key = v if next(x for x in v if x != 0) > 0 else cov_neg(v)
        if key in seen:
            raise DuplicateCovector(f"entries {seen[key]} and {label} coincide up to sign")
        seen[key] = label
        built.append(ConfigEntry(v, c, label))
    if not built:
        raise ZeroCovector("configuration needs at least one covector")

    # G = sum_a c_a a^T a, summed over the covectors cleared to A'/d and the
    # multiplicities cleared to c'/l_c: G = G' / (d^2 l_c), upper triangle first
    covectors = [e.covector for e in built]
    vecs, d = clear_denominators(covectors)
    (mults,), l_c = clear_denominators([[e.mult for e in built]])
    int_gram = [[0] * dim for _ in range(dim)]
    for v, c in zip(vecs, mults):
        nonzero = [(i, x) for i, x in enumerate(v) if x != 0]
        for k, (i, x) in enumerate(nonzero):
            row, cx = int_gram[i], c * x
            for j, y in nonzero[k:]:
                row[j] += cx * y
    scale = d * d * l_c
    gram_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            int_gram[j][i] = int_gram[i][j]
            gram_rows[i][j] = gram_rows[j][i] = Fraction(int_gram[i][j], scale)
    gram = RatMatrix(gram_rows)

    # the lattice basis is the HNF of the cleared covectors A' over d; the
    # coordinates of a covector in it are those of its row of A' in the HNF
    int_basis = integer_hnf(vecs)
    coords_list = []
    for v in vecs:
        coords = integer_lattice_coordinates(int_basis, v)
        # always succeeds: the basis generates the Z-span of these covectors
        assert coords is not None
        coords_list.append(coords)

    return VConfiguration(
        dim=dim,
        entries=tuple(built),
        gram=gram,
        gram_det=Fraction(integer_det(int_gram), scale**dim),
        lattice_basis=tuple(tuple(Fraction(x, d) for x in row) for row in int_basis),
        lattice_coords=tuple(coords_list),
        integer_gram=(tuple(map(tuple, int_gram)), scale),
    )


def dual_vector(cfg: VConfiguration, v: Sequence) -> tuple[Fraction, ...]:
    """The vector dual to covector v under the form: gram . result = v^T."""
    return cfg.gram_inverse.mat_vec(v)


def vee_product(cfg: VConfiguration, u: Sequence, v: Sequence) -> Fraction:
    """Inner product of covectors induced by the form: u . G^-1 . v^T."""
    return cov_dot(u, dual_vector(cfg, v))


def positive_system(cfg: VConfiguration, functional: Sequence | None = None) -> PositiveSystem:
    """Choose signs making every covector strictly positive on a functional.

    When no functional is supplied, the row (1, t, t^2, ...) is used with t
    the smallest positive integer that vanishes on no covector, which keeps
    the result deterministic.
    """
    # the sign of f . a is that of F . A, with F and A the integer rows of f
    # and a over their (positive) common denominators
    vecs, _den = cfg.integer_covectors
    if functional is not None:
        f = covector(functional)
        if len(f) != cfg.dim:
            raise DimensionMismatch("functional has wrong length")
        (row,), _fden = clear_denominators([f])
        values = [sum(x * y for x, y in zip(row, v)) for v in vecs]
        if any(val == 0 for val in values):
            bad = next(e.label for e, val in zip(cfg.entries, values) if val == 0)
            raise FunctionalVanishes(f"functional vanishes on covector {bad}")
    else:
        t = 1
        while True:
            row = [t**k for k in range(cfg.dim)]
            values = [sum(x * y for x, y in zip(row, v)) for v in vecs]
            if all(val != 0 for val in values):
                break
            t += 1
        f = covector(row)
    signs = tuple(1 if val > 0 else -1 for val in values)
    return PositiveSystem(signs=signs, functional=f)


def signed_covectors(cfg: VConfiguration, psys: PositiveSystem) -> tuple[Covector, ...]:
    return tuple(
        e.covector if s == 1 else cov_neg(e.covector) for e, s in zip(cfg.entries, psys.signs)
    )


def alpha_series(cfg: VConfiguration, base_index: int) -> tuple[AlphaSeries, ...]:
    """Partition the entries non-parallel to the base covector into series.

    Two covectors share a series exactly when their difference or sum is an
    integer multiple of the base in lattice coordinates.  Entries parallel
    to the base (including the base itself) belong to no series.
    """
    direction = cfg.directions[base_index]
    a = cfg.lattice_coords[base_index]
    pivot = next(j for j, x in enumerate(a) if x != 0)
    if a[pivot] < 0:
        a = tuple(-x for x in a)
        flipped = True
    else:
        flipped = False

    a_p = a[pivot]
    groups: dict[tuple[int, ...], list[SeriesMember]] = {}
    for j, (b, d) in enumerate(zip(cfg.lattice_coords, cfg.directions)):
        if d == direction:
            continue
        # b + step * a for the step putting the pivot coordinate in [0, a_p)
        k = b[pivot] // a_p
        rep = tuple([x - k * y for x, y in zip(b, a)]) if k else b
        # -b - step * a = -rep, whose pivot coordinate lies in (-a_p, 0];
        # unless it is 0, one more step of a brings it into range
        if rep[pivot]:
            neg, step_neg = tuple([y - x for x, y in zip(rep, a)]), k + 1
        else:
            neg, step_neg = tuple([-x for x in rep]), k
        if rep <= neg:
            key, sign, step = rep, 1, -k
        else:
            key, sign, step = neg, -1, step_neg
        if flipped:
            step = -step
        groups.setdefault(key, []).append(SeriesMember(j, sign, step))

    # members are appended in index order, and each series is created by its
    # first member, so both come out sorted by entry index
    return tuple([AlphaSeries(base_index, key, tuple(ms)) for key, ms in groups.items()])


def relative_wedge_signs(series: AlphaSeries) -> tuple[int, ...]:
    """Signs r with member = r * (first member) modulo the base direction.

    For members of one series, base ^ member = r * (base ^ first_member),
    so these signs turn the series 2-form condition into a scalar sum.
    """
    s0 = series.members[0].sign
    return tuple([m.sign * s0 for m in series.members])


def decompose_components(cfg: VConfiguration) -> list[VConfiguration]:
    """Split into irreducible components orthogonal under the vee product.

    Components are the connected parts of the graph whose edges join entries
    with nonzero vee product; each is rebuilt on a basis of its own span.
    Returns a single-element list exactly when the configuration is
    irreducible.
    """
    table, _den = cfg.integer_pairing
    n = len(cfg.entries)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    components = sorted(groups.values(), key=min)
    if len(components) == 1:
        return [cfg]

    result = []
    for idx_list in components:
        members = [cfg.entries[i] for i in idx_list]
        basis, pivots = rref([e.covector for e in members])
        # the rref rows carry the identity on the pivot columns, so the
        # entries there are each covector's coordinates in the basis
        sub_entries = [(tuple(e.covector[p] for p in pivots), e.mult, e.label) for e in members]
        result.append(build_configuration(len(basis), sub_entries))
    return result


def direct_sum(left: VConfiguration, right: VConfiguration) -> VConfiguration:
    """Block-embed two configurations side by side in dim(left)+dim(right)."""
    dim = left.dim + right.dim
    entries = []
    for e in left.entries:
        entries.append((e.covector + (Fraction(0),) * right.dim, e.mult, f"L.{e.label}"))
    for e in right.entries:
        entries.append(((Fraction(0),) * left.dim + e.covector, e.mult, f"R.{e.label}"))
    return build_configuration(dim, entries)
