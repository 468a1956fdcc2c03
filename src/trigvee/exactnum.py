"""Exact rational scalars and dense rational matrix algebra.

Everything in this module works over arbitrary-precision rationals
(`fractions.Fraction`); no operation ever rounds.  Matrices are small
(a dozen rows at most in practice).  Every solve runs over ints, on the
entries cleared to one denominator, through one fraction-free Gauss-Jordan
kernel, `integer_rref`: reduced echelon forms, ranks, determinants and
inverses are all read from it, since the reduced echelon form is unique.
The Hermite normal form, which works over Z rather than Q, is the only
other elimination; it serves `hnf_basis` alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '-3/7' and Fractions to an exact Fraction."""
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer rows and the lcm `den` of every denominator: rows = ints / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class RatMatrix:
    """Immutable dense matrix with Fraction entries (row-major)."""

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
        """Determinant: `integer_det` of the entries cleared to one
        denominator, divided by that denominator to the n-th power."""
        if not self.is_square():
            raise DimensionMismatch("determinant of non-square matrix")
        ints, den = clear_denominators(self.entries)
        return Fraction(integer_det(ints), den**self.rows)


def mat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse: with M = M' / den over ints and M'^-1 = R / det M' from
    `integer_inverse`, M^-1 = den R / det M'.  Raises SingularMatrix."""
    if not m.is_square():
        raise DimensionMismatch("inverse of non-square matrix")
    ints, den = clear_denominators(m.entries)
    inverse, det = integer_inverse(ints)
    return RatMatrix([[Fraction(den * x, det) for x in row] for row in inverse])


def integer_rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), the one exact
    kernel: (R, pivots, p, sign) with R / p the reduced row echelon form.

    The pivot of each column is the first row at or below the current one
    with a nonzero entry; a column with none is skipped.  At a pivot p every
    other row becomes (p row - f top) // prev, prev the previous pivot, each
    division exact, so each pivot row ends with p in its pivot column.  sign
    is the parity of the row swaps: det = sign * p for a nonsingular square.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    prev = sign = 1
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return work, pivots, prev, sign


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of a square integer matrix M as (adj M, det M), so that
    M^-1 = adj M / det M: the right block of `integer_rref` on [M | I] with
    the swap sign put back.  Raises SingularMatrix when M is singular."""
    n = len(rows)
    work, pivots, p, sign = integer_rref(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [[sign * x for x in row[n:]] for row in work], sign * p


def integer_det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, read from `integer_rref`."""
    _work, pivots, p, sign = integer_rref(mat)
    return sign * p if len(pivots) == len(mat) else 0


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(integer_rref(rows)[1])


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (nonzero rows, pivot columns) of rational rows:
    `integer_rref` of the rows cleared to one denominator."""
    ints, _den = clear_denominators([[as_rational(x) for x in row] for row in rows])
    work, pivots, p, _sign = integer_rref(ints)
    return [[Fraction(x, p) for x in row] for row in work[: len(pivots)]], pivots


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

