"""The integer-array extraction in `series_constraints` against the frozen
extraction of test_exact_reference, on the Python-int path that its
overflow guard selects for large entries or more than 62 covectors, and on
both sides of the guard's bound; the guard itself, which must keep the
catalog and the root systems on int64; and the split of the bases into
array passes, which must not change a term or its place at any pass size."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigvee import constraints
from trigvee.catalog import catalog_get
from trigvee.configuration import covector
from trigvee.constraints import _minor_dtype, _passes, series_constraints
from trigvee.exactnum import clear_denominators

from test_exact_reference import (
    CATALOG,
    ROOT_SYSTEMS,
    assert_same_constraint_set,
    assert_same_extraction,
    rank,
    reference_series_constraints,
)


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


# ---------------------------------------------------------------------------
# Array passes over runs of whole bases
# ---------------------------------------------------------------------------

ONE_BASE, ALL_BASES = 0, 1 << 62  # pass bounds: every base alone, all in one pass


def test_passes_split_whole_bases_in_order():
    assert _passes([5, 5, 5], 10) == [(0, 2), (2, 3)]
    assert _passes([20, 1, 1], 10) == [(0, 1), (1, 3)]
    assert _passes([1, 1, 20, 1], 10) == [(0, 2), (2, 3), (3, 4)]
    assert _passes([0, 0, 0], 0) == [(0, 3)]  # no series hits: one empty pass
    assert _passes([3, 4], ONE_BASE) == [(0, 1), (1, 2)]
    assert _passes([3, 4], ALL_BASES) == [(0, 2)]


def extract_in_passes(monkeypatch, vectors, bound):
    """`series_constraints(vectors)` with the pass bound set to `bound`, and
    the runs of bases it made: they must cover the bases in order, whole,
    each within the bound unless it holds one base."""
    calls = []

    def recorded(sizes, chunk_bytes):
        runs = _passes(sizes, chunk_bytes)
        calls.append((sizes, chunk_bytes, runs))
        return runs

    monkeypatch.setattr(constraints, "_CHUNK_BYTES", bound)
    monkeypatch.setattr(constraints, "_passes", recorded)
    cs = series_constraints(vectors)
    ((sizes, chunk_bytes, runs),) = calls
    assert chunk_bytes == bound and len(sizes) == len(vectors)
    assert [b0 for b0, _b1 in runs] == [0] + [b1 for _b0, b1 in runs[:-1]]
    assert runs[-1][1] == len(vectors)
    for b0, b1 in runs:
        assert b1 - b0 == 1 or sum(sizes[b0:b1]) <= bound
    # every polynomial of a base comes from the one pass that holds the base
    bases = [c.base_index for c in cs.polynomials]
    assert bases == sorted(bases)
    return cs, runs


def assert_same_at_every_bound(monkeypatch, vectors):
    ref = reference_series_constraints(vectors)
    for bound, passes in ((ONE_BASE, None), (ALL_BASES, 1)):
        cs, runs = extract_in_passes(monkeypatch, vectors, bound)
        assert_same_constraint_set(cs, ref)  # the terms and their order
        for got, want in zip(cs.polynomials, ref.polynomials):
            assert list(got.poly.terms) == list(want.poly.terms)
        if passes is None:  # one pass per base with a series
            assert all(b1 - b0 == 1 for b0, b1 in runs) or cs.polynomials == ()
        else:
            assert len(runs) == passes
    return cs


@pytest.mark.parametrize("name", CATALOG)
def test_passes_keep_catalog_extraction(monkeypatch, name):
    assert_same_at_every_bound(monkeypatch, list(catalog_get(name).cfg.covectors()))


@pytest.mark.parametrize("name", ["B3", "A4", "B4", "A5"])
def test_passes_keep_root_system_extraction(monkeypatch, name):
    cs = assert_same_at_every_bound(monkeypatch, ROOT_SYSTEMS[name])
    assert max(len(c.member_indices) for c in cs.polynomials) > 1


def test_passes_with_no_series_hits(monkeypatch):
    """In dimension 1 every covector is parallel to every base: no series."""
    cs = assert_same_at_every_bound(monkeypatch, [(1,), (2,), (Fraction(-1, 3),)])
    assert cs.polynomials == () and not cs.nondegeneracy.is_zero()


@settings(max_examples=60, deadline=None)
@given(integer_covector_sets())
def test_passes_keep_extraction_of_multi_member_series(vectors):
    signed = set(vectors) | {tuple(-x for x in v) for v in vectors}
    assume(all(any(v) for v in vectors) and len(signed) == 2 * len(vectors))
    assume(rank(vectors) == len(vectors[0]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        cs = assert_same_at_every_bound(monkeypatch, vectors)
    assert any(len(c.member_indices) > 1 for c in cs.polynomials)
