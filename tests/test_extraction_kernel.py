"""The integer-array extraction in `series_constraints` against the frozen
extraction of test_exact_reference, on the Python-int path that its
overflow guard selects for large entries or more than 62 covectors, and on
both sides of the guard's bound; and the guard itself, which must keep the
catalog and the root systems on int64."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigvee.catalog import catalog_get
from trigvee.configuration import covector
from trigvee.constraints import _minor_dtype
from trigvee.exactnum import clear_denominators

from test_exact_reference import CATALOG, ROOT_SYSTEMS, assert_same_extraction, rank


def guard(vectors):
    ints, _den = clear_denominators([covector(v) for v in vectors])
    return _minor_dtype(ints, len(ints[0]))


@pytest.mark.parametrize("name", CATALOG)
def test_guard_keeps_catalog_on_int64(name):
    assert guard(catalog_get(name).cfg.covectors()) is np.int64


@pytest.mark.parametrize("name", ROOT_SYSTEMS)
def test_guard_keeps_root_systems_on_int64(name):
    assert guard(ROOT_SYSTEMS[name]) is np.int64


def with_series(u, v, w):
    """u, v, w and four sums: around u the series {v, v + u, v - u} and
    {w, w + u}, so repeated monomials are summed."""
    add = lambda x, y, s: tuple(a + s * b for a, b in zip(x, y))
    return [u, v, w, add(v, u, 1), add(v, u, -1), add(w, u, 1)]


def test_large_entries_match_frozen_on_python_ints():
    rng = random.Random(41)
    for trial in range(14):
        size = 10 ** (9 + trial % 7)  # 10^9 .. 10^15
        while True:
            u, v, w = (tuple(rng.randint(-size, size) for _ in range(3)) for _ in range(3))
            vectors = with_series(u, v, w)
            if rank(vectors) == 3:
                break
        assert guard(vectors) is object
        cs = assert_same_extraction(vectors)
        assert any(len(c.member_indices) > 1 and not c.poly.is_zero() for c in cs.polynomials)


def test_sixty_four_planar_covectors_match_frozen():
    """64 covectors: the monomial masks need 64 bits."""
    vectors = [(1, k) for k in range(-32, 32)]
    assert guard(vectors) is object
    cs = assert_same_extraction(vectors)
    assert max(len(c.member_indices) for c in cs.polynomials) > 1


@st.composite
def integer_covector_sets(draw):
    """Integer covectors in dims 2-4 with entries up to 2^k, k = 1..24: the
    bound m (n h^2)^n < 2^63 falls near h = 2^14 in dim 2 and 2^6 in dim 4,
    so both paths are drawn often."""
    dim = draw(st.integers(2, 4))
    h = 2 ** draw(st.integers(1, 24))
    entry = st.integers(-h, h)
    covectors = st.lists(st.tuples(*[entry] * dim), min_size=max(dim, 3), max_size=dim + 2)
    u, v, w, *extra = draw(covectors)
    return with_series(u, v, w) + extra


@settings(max_examples=150, deadline=None)
@given(integer_covector_sets())
def test_extraction_matches_frozen_across_the_guard(vectors):
    # a zero, a repeated or a non-spanning covector set is refused before extraction
    signed = set(vectors) | {tuple(-x for x in v) for v in vectors}
    assume(all(any(v) for v in vectors) and len(signed) == 2 * len(vectors))
    assume(rank(vectors) == len(vectors[0]))
    assert_same_extraction(vectors)
