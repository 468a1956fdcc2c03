"""Exact rational scalars and dense rational matrix algebra.

Everything in this module works over arbitrary-precision rationals
(`fractions.Fraction`); no operation ever rounds.  Matrices are small
(a dozen rows at most in practice).  Inverses and determinants are taken
over ints, by fraction-free (Bareiss) elimination on the entries cleared
to one denominator; Gaussian elimination over Fractions is used only for
reduced echelon forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix

# The exact scalar type.  Fraction keeps values in lowest terms with a
# positive denominator, which is exactly the normalization we rely on
# for equality tests.
Rational = Fraction


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '-3/7' and Fractions to an exact Rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer rows and the lcm `den` of every denominator: rows = ints / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class RatMatrix:
    """Immutable dense matrix with Rational entries (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(tuple(as_rational(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.entries))

    def scale(self, c) -> "RatMatrix":
        c = as_rational(c)
        return RatMatrix([[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("shape mismatch in product")
        cols = other.transpose().entries
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def mat_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = tuple(as_rational(x) for x in v)
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def det(self) -> Fraction:
        """Determinant: the Bareiss determinant of the entries cleared to one
        denominator, divided by that denominator to the n-th power."""
        if not self.is_square():
            raise DimensionMismatch("determinant of non-square matrix")
        ints, den = clear_denominators(self.entries)
        return Fraction(integer_det(ints), den**self.rows)


def mat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse: with M = M' / den over ints and M'^-1 = R / p from
    `integer_inverse`, M^-1 = den R / p.  Raises SingularMatrix when det = 0."""
    if not m.is_square():
        raise DimensionMismatch("inverse of non-square matrix")
    ints, den = clear_denominators(m.entries)
    inverse, p = integer_inverse(ints)
    return RatMatrix([[Fraction(den * x, p) for x in row] for row in inverse])


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a square integer matrix M as (R, p) with M^-1 = R / p.

    Fraction-free Gauss-Jordan on [M | I] in the manner of Bareiss: at the
    pivot p of each column, every other row becomes (p row - f top) // prev,
    prev the previous pivot, and each division is exact.  A zero pivot swaps
    in a later row; a column with none left raises SingularMatrix.  The left
    block ends as p I, so p is +-det M.
    """
    n = len(rows)
    work = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        if work[c][c] == 0:
            piv = next((r for r in range(c + 1, n) if work[r][c] != 0), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            work[c], work[piv] = work[piv], work[c]
        top = work[c]
        p = top[c]
        for r in range(n):
            if r != c:
                f = work[r][c]
                work[r] = [(p * a - f * b) // prev for a, b in zip(work[r], top)]
        prev = p
    return [row[n:] for row in work], prev


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [[as_rational(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(integer_hnf(rows))


def integer_hnf(mat: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix (zero rows dropped).

    Pivots are positive, entries below pivots are zero, entries above are
    reduced into [0, pivot).
    """
    work = [list(r) for r in mat if any(r)]
    if not work:
        return []
    nrows, ncols = len(work), len(work[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if work[i][c] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(work[i][c]))
            if work[piv][c] < 0:
                work[piv] = [-x for x in work[piv]]
            p = work[piv][c]
            for i in nz:
                if i == piv:
                    continue
                q = work[i][c] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[piv])]
        nz = [i for i in range(r, nrows) if work[i][c] != 0]
        if not nz:
            continue
        work[r], work[nz[0]] = work[nz[0]], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][c]
        for i in range(r):
            q = work[i][c] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == nrows:
            break
    return work[:r]


def integer_det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss (1968) elimination.

    Fraction-free: every division by the previous pivot is exact.  A zero
    pivot swaps in a later row; a column with none left means det = 0.
    """
    work = [list(r) for r in mat]
    n = len(work)
    sign, prev = 1, 1
    for c in range(n - 1):
        if work[c][c] == 0:
            piv = next((r for r in range(c + 1, n) if work[r][c] != 0), None)
            if piv is None:
                return 0
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        top = work[c]
        for r in range(c + 1, n):
            f = work[r][c]
            work[r] = [(top[c] * a - f * b) // prev for a, b in zip(work[r], top)]
        prev = top[c]
    return sign * work[-1][-1] if n else 1


def hnf_basis(rows: Sequence[Sequence]) -> tuple[tuple[tuple[Fraction, ...], ...], int]:
    """Basis of the additive group generated by the given rational rows.

    Denominators are cleared by their LCM, the integer rows are put in
    Hermite normal form, and the result is rescaled.  Every input row has
    integer coordinates in the returned basis, and the basis generates the
    same group over the integers as the input.
    """
    data = [tuple(as_rational(x) for x in row) for row in rows]
    if not data:
        raise DimensionMismatch("need at least one row")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise DimensionMismatch("ragged rows")
    imat, den = clear_denominators(data)
    hnf = integer_hnf(imat)
    basis = tuple(tuple(Fraction(v, den) for v in row) for row in hnf)
    return basis, len(basis)


def lattice_coordinates(
    basis: Sequence[Sequence[Fraction]], v: Sequence[Fraction]
) -> tuple[int, ...] | None:
    """Integer coordinates of v in an echelon basis, or None if v is outside.

    The basis must be in echelon form with strictly increasing pivot columns
    (as produced by hnf_basis).  Basis and v are scaled to integers over one
    common denominator, which leaves the coordinates unchanged.
    """
    rows, _den = clear_denominators([*basis, [as_rational(x) for x in v]])
    return integer_lattice_coordinates(rows[:-1], rows[-1:])[0]


def integer_lattice_coordinates(
    basis: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]
) -> list[tuple[int, ...] | None]:
    """lattice_coordinates of each integer row in an integer echelon basis,
    each basis row's pivot found once."""
    pivots = [next((j for j, x in enumerate(b) if x != 0), None) for b in basis]
    if None in pivots:
        return [None] * len(rows)

    def coordinates(v: Sequence[int]) -> tuple[int, ...] | None:
        work = list(v)
        coords: list[int] = []
        for b, p in zip(basis, pivots):
            q, r = divmod(work[p], b[p])
            if r:
                return None
            coords.append(q)
            if q:
                work = [a - q * bb for a, bb in zip(work, b)]
        return None if any(work) else tuple(coords)

    return [coordinates(v) for v in rows]
