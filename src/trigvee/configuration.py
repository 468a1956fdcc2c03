"""Covector configurations with multiplicities.

A configuration is a finite list of nonzero rational covectors with nonzero
rational multiplicities.  Building one caches the bilinear form
G = sum_a c_a a^T a, its determinant, and an integer lattice basis for the
covectors.  The build is the one place that clears the covectors and the
multiplicities to integers, kept as `integer_covectors` and `integer_mults`;
every exact kernel reads them and keeps its own scale.  G is summed over
them, kept as the integer Gram `integer_gram`, and becomes Fractions only
entry by entry at the end.  The form identifies vectors and covectors; all
pairings of covectors below go through its inverse (the "vee product").
The build eliminates the integer Gram once, fraction-free, by
`integer_inverse`; that one pass gives both `gram_det` and the integer
inverse `integer_gram_inverse`, from which the Fraction matrix
`gram_inverse` and the pairing table `integer_pairing` are read.  The table
holds integer numerators over one denominator, the only form of it that the
checks read.  A pairing under any other matrix is tabulated by the same
integer kernel through `integer_pairing_table`.
`integer_gram_inverse` is the one place that refuses a degenerate form:
every check that needs the vee product reaches it before doing anything
else.
The numeric checks read the float view `floats`, also cached.

The split of the covectors into series around every base is built on first
read and cached, as plain integers, in `series_split`; the series check
sums its residuals from it directly.  Each covector b with lattice
coordinates (b_0, ..., b_{r-1}) is packed into one Python int,
enc(b) = sum_t b_t B^(r-1-t), with B = 2D + 1, D = h^2 + 2h and h the
largest |lattice coordinate|.  Around a base a, signed so that its pivot
(first nonzero) coordinate a_p is positive, a covector b is reduced to
rep = b - k a with k = b_p // a_p, and -b to neg = a - rep (or -rep when
rep_p = 0); the lexicographically smaller of the two is the key of b's
series.  Since |k| <= h, every entry of rep is at most h + h^2 and every
entry of neg at most h^2 + 2h = D in absolute value, so every key lies in
the box of integer vectors with entries in [-D, D], the digits of enc.  On
that box enc is injective and preserves the lexicographic order: where two
digit vectors first differ, at place t, they differ by at least
B^(r-1-t) there, while the later places differ in all by at most
2D (B^(r-1-t) - 1) / (B - 1) = B^(r-1-t) - 1.  So, as enc is linear,
enc(rep) is one multiply-subtract enc(b) - k enc(a), enc(neg) is
enc(a) - enc(rep) or -enc(rep), and `rep <= neg` is one integer
comparison.  The `SeriesMember` and `AlphaSeries` records, with the residue
as a tuple, are built from the split only when `series` or `alpha_series`
is read.
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
    SingularMatrix,
    ZeroCovector,
    ZeroMultiplicity,
)
from .exactnum import (
    RatMatrix,
    as_rational,
    clear_denominators,
    integer_hnf,
    integer_inverse,
    integer_lattice_coordinates,
    integer_rref,
)

if TYPE_CHECKING:
    import numpy as np

Covector = tuple[Fraction, ...]
# Integer rows over one common denominator: cleared covectors or a pairing table.
IntRows = tuple[tuple[tuple[int, ...], ...], int]
IntPairing = IntRows
# (first_signs, members) of one base in `VConfiguration.series_split`, with
# members (entry index, sign relative to the series' first member, step, series)
BaseSplit = tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...]]


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
    # (A', d): the covectors as integer rows over the lcm d of their denominators
    integer_covectors: IntRows = field(compare=False, repr=False)
    # (c', l_c): the multiplicities as integers over the lcm l_c of their denominators
    integer_mults: tuple[tuple[int, ...], int] = field(compare=False, repr=False)
    # (G', d^2 l_c): the form G = G' / (d^2 l_c) as integer rows, summed over
    # the cleared covectors and multiplicities
    integer_gram: IntRows = field(compare=False, repr=False)
    # (adj G', det G') from the build's one elimination of G'; None when G is degenerate
    integer_gram_adjugate: tuple[list[list[int]], int] | None = field(compare=False, repr=False)

    @property
    def integer_gram_inverse(self) -> tuple[list[list[int]], int]:
        """(R, p) with G'^-1 = R / p and p = det G'; refuses a degenerate form."""
        if self.integer_gram_adjugate is None:
            raise DegenerateForm("the form G is degenerate")
        return self.integer_gram_adjugate

    @cached_property
    def gram_inverse(self) -> RatMatrix:
        """G^-1 = d^2 l_c R / p."""
        inverse, p = self.integer_gram_inverse
        scale = self.integer_gram[1]
        return RatMatrix([[Fraction(scale * x, p) for x in row] for row in inverse])

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
    def series_split(self) -> tuple[BaseSplit, ...]:
        """The series around every base, as integers (see the module docstring).

        Entry i is (first_signs, members) for base i: first_signs[s] is the
        sign of the first member of series s, and members holds one
        (j, r, step, s) per entry j not parallel to the base, in index order,
        with r the sign of j relative to the first member of its series s and
        r * first_signs[s] * b_j + step * a_i the residue.  Series are numbered
        in order of first appearance."""
        coords = self.lattice_coords
        h = max(abs(x) for b in coords for x in b)
        radix = 2 * (h * h + 2 * h) + 1
        encs = []
        for b in coords:
            e = 0
            for x in b:
                e = e * radix + x
            encs.append(e)
        ids: dict[tuple[int, ...], int] = {}
        dirs = [ids.setdefault(d, len(ids)) for d in self.directions]
        columns = list(zip(*coords))
        out = []
        for a, ea, da in zip(coords, encs, dirs):
            pivot = next(t for t, x in enumerate(a) if x != 0)
            a_p = a[pivot]
            flip = -1 if a_p < 0 else 1
            a_p, ea = flip * a_p, flip * ea
            index: dict[int, int] = {}
            first_signs: list[int] = []
            members = []
            for j, (eb, b_p, db) in enumerate(zip(encs, columns[pivot], dirs)):
                if db == da:
                    continue
                # b + step * a for the step putting the pivot coordinate in
                # [0, a_p); -b - step * a = -rep has it in (-a_p, 0], and
                # unless it is 0 one more step of a brings it into range
                k = b_p // a_p
                rep = eb - k * ea
                if b_p - k * a_p:
                    neg, step_neg = ea - rep, k + 1
                else:
                    neg, step_neg = -rep, k
                if rep <= neg:
                    key, sign, step = rep, 1, -k
                else:
                    key, sign, step = neg, -1, step_neg
                s = index.get(key)
                if s is None:
                    s = index[key] = len(first_signs)
                    first_signs.append(sign)
                members.append((j, sign * first_signs[s], flip * step, s))
            out.append((tuple(first_signs), tuple(members)))
        return tuple(out)

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
    rows, l_m = clear_denominators(matrix.entries)
    return _pairing_numerators(vecs, rows), d * d * l_m


def _pairing_numerators(
    vecs: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The symmetric integer table V . M . V^T for integer rows V and a
    symmetric integer matrix M: the one pairing kernel."""
    if any(len(v) != len(rows) for v in vecs):
        raise DimensionMismatch("vector length mismatch")
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
    seen: dict[Covector, int] = {}  # the index of the first entry on each line
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
        first = seen.setdefault(key, k)
        if first != k:
            raise DuplicateCovector(f"entries {built[first].label} and {label} coincide up to sign")
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
    try:
        adjugate = integer_inverse(int_gram)
    except SingularMatrix:
        adjugate = None

    # the lattice basis is the HNF of the cleared covectors A' over d; the
    # coordinates of a covector in it are those of its row of A' in the HNF
    int_basis = integer_hnf(vecs)
    coords_list = integer_lattice_coordinates(int_basis, vecs)
    # always succeeds: the basis generates the Z-span of these covectors
    assert None not in coords_list

    return VConfiguration(
        dim=dim,
        entries=tuple(built),
        gram=gram,
        gram_det=Fraction(adjugate[1] if adjugate else 0, scale**dim),
        lattice_basis=tuple(tuple(Fraction(x, d) for x in row) for row in int_basis),
        lattice_coords=tuple(coords_list),
        integer_covectors=(tuple(map(tuple, vecs)), d),
        integer_mults=(tuple(mults), l_c),
        integer_gram=(tuple(map(tuple, int_gram)), scale),
        integer_gram_adjugate=adjugate,
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
    to the base (including the base itself) belong to no series.  The records
    are built from the cached `series_split`; each residue is read off the
    first member of its series as sign * b + step * a.
    """
    first_signs, members = cfg.series_split[base_index]
    grouped: list[list[SeriesMember]] = [[] for _ in first_signs]
    for j, r, step, s in members:
        grouped[s].append(SeriesMember(j, r * first_signs[s], step))
    coords = cfg.lattice_coords
    a = coords[base_index]
    out = []
    for ms in grouped:
        first = ms[0]
        b = coords[first.entry_index]
        residue = tuple([first.sign * x + first.step * y for x, y in zip(b, a)])
        out.append(AlphaSeries(base_index, residue, tuple(ms)))
    # members are appended in index order, and each series is created by its
    # first member, so both come out sorted by entry index
    return tuple(out)


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

    vecs, _d = cfg.integer_covectors
    result = []
    for idx_list in components:
        members = [cfg.entries[i] for i in idx_list]
        pivots = integer_rref([vecs[i] for i in idx_list])[1]
        # the reduced echelon basis of their span is the identity on the pivot
        # columns, so the entries there are each covector's coordinates in it
        sub_entries = [(tuple(e.covector[p] for p in pivots), e.mult, e.label) for e in members]
        result.append(build_configuration(len(pivots), sub_entries))
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
