"""Exact matrix algebra and lattice basis tests."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigvee.errors import DimensionMismatch, SingularMatrix
from trigvee.exactnum import (
    RatMatrix,
    clear_denominators,
    hnf_basis,
    integer_det,
    integer_inverse,
    integer_rank,
    mat_inverse,
    rref,
)

from conftest import rand_fraction, rand_nonsingular
from test_integer_kernels import reference_lattice_coordinates


def F(a, b=1):
    return Fraction(a, b)


class TestInverse:
    def test_two_by_two(self):
        m = RatMatrix([[2, 1], [1, 2]])
        inv = mat_inverse(m)
        assert inv == RatMatrix([[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]])

    def test_identity(self):
        assert mat_inverse(RatMatrix.identity(4)) == RatMatrix.identity(4)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_inverse(RatMatrix([[1, 1], [1, 1]]))

    def test_random_nonsingular_exact(self, rng):
        for n in range(1, 7):
            for _ in range(8):
                m = rand_nonsingular(rng, n)
                assert m @ mat_inverse(m) == RatMatrix.identity(n)
                assert mat_inverse(m) @ m == RatMatrix.identity(n)


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


@st.composite
def square_matrices(draw, singular=False):
    """Fractional entries; optionally a zero leading entry, so that the first
    pivot needs a row swap, or a last row that combines the others."""
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = Fraction(0)
    if singular:
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[(n - 1) // 2])] if n > 1 else [F(0)]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([[F(0), F(1, 2)], [F(3), F(5, 7)]])  # zero first pivot, det -3/2
@example([[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(3), F(7), F(1)]])  # zero second pivot
@example([[F(-2, 3)]])
def test_inverse_matches_sympy(rows):
    """mat_inverse, and integer_inverse on the cleared entries, against
    sympy: M^-1 = R / p with p = det M', sign included."""
    expected = _sympy(rows)
    ints, _den = clear_denominators(rows)
    if expected.det() == 0:
        with pytest.raises(SingularMatrix):
            mat_inverse(RatMatrix(rows))
        with pytest.raises(SingularMatrix):
            integer_inverse(ints)
        return
    inverse = expected.inv()
    assert mat_inverse(RatMatrix(rows)) == RatMatrix(
        [[F(int(x.p), int(x.q)) for x in inverse.row(i)] for i in range(len(rows))]
    )
    r, p = integer_inverse(ints)
    assert all(isinstance(x, int) for row in r for x in row) and isinstance(p, int)
    assert sympy.Matrix(r) / p == sympy.Matrix(ints).inv()
    assert p == sympy.Matrix(ints).det()


@settings(max_examples=100, deadline=None)
@given(square_matrices(singular=True))
def test_singular_inverse_raises(rows):
    assert _sympy(rows).det() == 0
    with pytest.raises(SingularMatrix):
        mat_inverse(RatMatrix(rows))
    with pytest.raises(SingularMatrix):
        integer_inverse(clear_denominators(rows)[0])


@st.composite
def rational_matrices(draw):
    """1-6 rows and 1-8 columns of fractions; some columns zeroed, and some
    rows rational combinations of two earlier ones."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = F(0)
    for k in range(1, nrows):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            a, b = draw(entry), draw(entry)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
@example([[F(0), F(0)], [F(0), F(0)]])  # rank 0
@example([[F(0), F(1), F(2)], [F(0), F(2), F(4)], [F(1), F(0), F(3)]])  # zero column, swap
@example([[F(1, 2), F(1, 3), F(0), F(1)], [F(1), F(2, 3), F(5), F(0)]])  # skipped column
def test_kernel_readers_match_sympy(rows):
    """rref, integer_rank and integer_det, all read from one fraction-free
    kernel, against sympy on rectangular and rank-deficient matrices; the
    determinant is that of the leading square block of the cleared rows."""
    expected, expected_pivots = _sympy(rows).rref()
    reduced, pivots = rref(rows)
    assert pivots == list(expected_pivots)
    assert reduced == [
        [F(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(len(pivots))
    ]
    ints, _den = clear_denominators(rows)
    assert integer_rank(ints) == sympy.Matrix(ints).rank() == len(pivots)
    k = min(len(ints), len(ints[0]))
    block = [row[:k] for row in ints[:k]]
    assert integer_det(block) == sympy.Matrix(block).det()


class TestDeterminant:
    """RatMatrix.det, a Bareiss determinant over cleared denominators,
    against sympy."""

    def test_matches_sympy(self, rng):
        singular = 0
        for n in range(1, 7):
            for trial in range(25):
                rows = [[rand_fraction(rng, -5, 5, max_den=7) for _ in range(n)] for _ in range(n)]
                if trial % 3 == 1 and n > 1:
                    # row k a rational combination of two others
                    k = rng.randrange(1, n)
                    rows[k] = [F(2, 3) * a - F(5, 2) * b for a, b in zip(rows[0], rows[k - 1])]
                elif trial % 3 == 2:
                    rows[rng.randrange(n)] = [F(0)] * n
                expected = sympy.Matrix(
                    [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
                ).det()
                got = RatMatrix(rows).det()
                assert isinstance(got, Fraction)
                assert got == F(int(expected.p), int(expected.q))
                singular += got == 0
        assert singular > 40

    def test_one_by_one_and_small_cases(self):
        assert RatMatrix([[F(-3, 7)]]).det() == F(-3, 7)
        assert RatMatrix([[0]]).det() == 0
        assert RatMatrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]).det() == 0
        assert RatMatrix([[0, F(1, 2)], [F(2, 3), 5]]).det() == F(-1, 3)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            RatMatrix([[1, 2, 3], [4, 5, 6]]).det()


class TestHnfBasis:
    def test_already_a_basis(self):
        basis, rank = hnf_basis([(1, 0), (0, 1), (1, 1)])
        assert rank == 2
        assert basis == ((F(1), F(0)), (F(0), F(1)))

    def test_half_integer_lattice(self):
        rows = [
            (1, 0),
            (0, 1),
            (0, 2),
            (F(1, 2), F(1, 2)),
            (F(1, 2), F(-1, 2)),
            (F(1, 2), F(3, 2)),
            (F(1, 2), F(-3, 2)),
        ]
        basis, rank = hnf_basis(rows)
        assert rank == 2
        assert basis == ((F(1, 2), F(1, 2)), (F(0), F(1)))
        assert reference_lattice_coordinates(basis, (1, 0)) == (2, -1)

    def test_collinear(self):
        basis, rank = hnf_basis([(2, 0), (4, 0)])
        assert rank == 1
        assert basis == ((F(2), F(0)),)

    def test_membership(self):
        basis, _ = hnf_basis([(2, 0), (3, 0)])
        assert basis == ((F(1), F(0)),)
        assert reference_lattice_coordinates(basis, (5, 0)) == (5,)
        assert reference_lattice_coordinates(basis, (F(1, 2), 0)) is None
        assert reference_lattice_coordinates(basis, (0, 1)) is None

    def test_idempotence_mutual_expressibility(self, rng):
        for _ in range(12):
            n = rng.randint(2, 4)
            count = rng.randint(2, 6)
            rows = [
                tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n))
                for _ in range(count)
            ]
            if all(all(x == 0 for x in r) for r in rows):
                continue
            rows = [r for r in rows if any(r)]
            basis1, rank1 = hnf_basis(rows)
            basis2, rank2 = hnf_basis(basis1)
            assert rank1 == rank2
            # same generated group: each basis integer-expressible in the other
            for row in basis1:
                assert reference_lattice_coordinates(basis2, row) is not None
            for row in basis2:
                assert reference_lattice_coordinates(basis1, row) is not None
            for row in rows:
                assert reference_lattice_coordinates(basis1, row) is not None

