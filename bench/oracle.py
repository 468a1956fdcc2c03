"""Reference answers that do not come from the code under test.

Closed forms for the coupling of the root systems, an independent exact
check of the series condition for small configurations, and a few plain
exact helpers.  Everything here is written from the definitions, in plain
`fractions.Fraction` arithmetic, without importing trigvee.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# The WDVV and CMS verdicts of the program are absolute: a residual passes
# when it is below this tolerance (the `vee wdvv` / `vee cms` default).
VERDICT_TOL = 1e-8

# Defect D: the residual of a valid system grows with the square of the
# multiplicities, so the absolute tolerance fails it at large scales.  A
# failing residual whose size relative to max|c|^2 stays below this bound is
# that defect; anything larger is a genuine disagreement.
SCALE_RELATIVE_TOL = 1e-10

# lambda^2 of the ten-covector system with its catalog multiplicities; the
# coupling is homogeneous of degree one in the multiplicities.
TEN_VECTOR_LAMBDA2 = Fraction(450)


def a_n_lambda2(n: int, c=1) -> Fraction:
    """lambda^2 of the A_n positive roots with every multiplicity c."""
    return Fraction(4 * (n + 1) ** 2) * c


def b_n_lambda2(n: int, c=1) -> Fraction:
    """lambda^2 of the B_n positive roots with every multiplicity c."""
    return Fraction(2 * (2 * n - 1) ** 3, 2 * n - 3) * c


def a_roots(n: int) -> list[tuple[int, ...]]:
    """Positive roots of A_n as consecutive sums of simple roots."""
    return [
        tuple(1 if i <= k <= j else 0 for k in range(n)) for i in range(n) for j in range(i, n)
    ]


def b_roots(n: int) -> list[tuple[int, ...]]:
    """Positive roots of B_n: e_i, then e_i +- e_j for i < j."""
    short = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    long_ = [
        tuple(1 if k == i else (s if k == j else 0) for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        for s in (1, -1)
    ]
    return short + long_


def gauss_jordan(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]] | None, Fraction]:
    """Inverse (None for a singular matrix) and determinant, over the rationals."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        p = m[col][col]
        det *= p
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m], det


def gram(vectors: Sequence[Sequence], mults: Sequence) -> list[list[Fraction]]:
    """The form G = sum_a c_a a^T a."""
    n = len(vectors[0])
    g = [[Fraction(0)] * n for _ in range(n)]
    for v, c in zip(vectors, mults):
        for i in range(n):
            for j in range(n):
                g[i][j] += Fraction(c) * v[i] * v[j]
    return g


def _wedge(u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
    n = len(u)
    return tuple(
        Fraction(u[i]) * v[j] - Fraction(u[j]) * v[i] for i in range(n) for j in range(i + 1, n)
    )


def _integer_multiple(v: Sequence, a: Sequence) -> bool:
    """True when v = k a for an integer k (k = 0 included)."""
    if any(_wedge(v, a)):
        return False
    p = next(i for i, x in enumerate(a) if x != 0)
    return (Fraction(v[p]) / a[p]).denominator == 1


def has_parallel_pair(vectors: Sequence[Sequence]) -> bool:
    return any(
        not any(_wedge(vectors[i], vectors[j]))
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    )


def series_classes(vectors: Sequence[Sequence], base: int) -> list[list[int]]:
    """The base-series: classes of non-parallel covectors under b -> +-b + k a, k in Z."""
    a = vectors[base]
    members = [j for j in range(len(vectors)) if j != base and any(_wedge(vectors[j], a))]
    classes: list[list[int]] = []
    for j in members:
        b = vectors[j]
        home = next(
            (
                cls
                for cls in classes
                if _integer_multiple([x - y for x, y in zip(b, vectors[cls[0]])], a)
                or _integer_multiple([x + y for x, y in zip(b, vectors[cls[0]])], a)
            ),
            None,
        )
        if home is None:
            classes.append([j])
        else:
            home.append(j)
    return classes


def series_count(vectors: Sequence[Sequence]) -> int:
    """Number of (base, series) pairs, i.e. of series conditions."""
    return sum(len(series_classes(vectors, i)) for i in range(len(vectors)))


def is_vee_system(vectors: Sequence[Sequence], mults: Sequence) -> bool:
    """Nondegenerate form and, for every base a and a-series S,
    sum_{b in S} c_b (a, b) a^b = 0 with (a, b) = a G^-1 b^T."""
    g_inv, _det = gauss_jordan(gram(vectors, mults))
    if g_inv is None:
        return False
    n = len(vectors[0])

    def pairing(u, v) -> Fraction:
        return sum(
            (Fraction(u[i]) * g_inv[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0)
        )

    for i, a in enumerate(vectors):
        for cls in series_classes(vectors, i):
            total = [Fraction(0)] * (n * (n - 1) // 2)
            for j in cls:
                w = _wedge(a, vectors[j])
                cp = Fraction(mults[j]) * pairing(a, vectors[j])
                total = [t + cp * x for t, x in zip(total, w)]
            if any(total):
                return False
    return True


def poly_value(terms, values: Sequence) -> Fraction:
    """Exact value of a polynomial given as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for expo, coef in terms.items():
        term = Fraction(coef)
        for val, e in zip(values, expo):
            if e:
                term *= Fraction(val) ** e
        total += term
    return total
