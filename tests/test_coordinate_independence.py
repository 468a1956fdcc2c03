"""Coordinate independence: every exact verdict of a configuration is the
same after an invertible rational change of coordinates.

A series is the set of covectors b + k a with integer k, so whether two
covectors share one does not depend on the coordinates they are written
in, and the vee product a G^-1 b^T is unchanged when every covector a
becomes a T: the form becomes T^T G T.  A positive system moves with the
functional f to T^-1 f, which gives every covector the same sign.  The
constraint polynomials are sums of a_i adj(G(c)) a_j^T, and
adj(T^T G T) = adj(T) adj(G) adj(T)^T, so each one, like det G(c), is
multiplied by det(T)^2.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigvee.catalog import catalog_get, catalog_list
from trigvee.configuration import build_configuration, positive_system
from trigvee.constraints import series_constraints
from trigvee.errors import SpanDeficient
from trigvee.exactnum import RatMatrix, mat_inverse
from trigvee.veecheck import full_check

F = Fraction

# the catalog's vee-systems in dimensions 2 to 4, so that the passing
# verdicts and the solved couplings get compared too
CATALOG = [name for name, _ in catalog_list() if catalog_get(name).cfg.dim >= 2]

entries = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
mults = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def configurations(draw):
    """(dim, [(covector, multiplicity), ...]): a catalog entry or a random set."""
    if draw(st.booleans()):
        cfg = catalog_get(draw(st.sampled_from(CATALOG))).cfg
        return cfg.dim, [(e.covector, e.mult) for e in cfg.entries]
    dim = draw(st.integers(2, 4))
    vectors = draw(
        st.lists(
            st.tuples(*[entries] * dim).filter(any),
            min_size=1,
            max_size=7,
            unique_by=lambda v: max(v, tuple(-x for x in v)),
        )
    )
    return dim, [(v, draw(mults)) for v in vectors]


@st.composite
def changes_of_coordinates(draw, dim):
    row = st.lists(entries, min_size=dim, max_size=dim)
    t = RatMatrix(draw(st.lists(row, min_size=dim, max_size=dim)))
    assume(t.det() != 0)
    return t


def transformed(items, t: RatMatrix):
    """The covectors a T, with the same multiplicities."""
    return [((RatMatrix([a]) @ t).entries[0], c) for a, c in items]


def verdict(cfg, psys):
    report = full_check(cfg, psys)
    lam = report.lambda_solution
    residuals = None
    if report.series is not None:
        residuals = [
            (r.base_index, r.series_index, r.member_indices, r.residual)
            for r in report.series.residuals
        ]
    return (
        report.degenerate,
        report.is_trig_vee,
        report.is_irreducible,
        residuals,
        lam and (lam.status, lam.lambda2),
    )


def constraints(vectors):
    try:
        return series_constraints(vectors)
    except SpanDeficient as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_verdicts_do_not_depend_on_coordinates(data):
    dim, items = data.draw(configurations())
    t = data.draw(changes_of_coordinates(dim))
    cfg = build_configuration(dim, items)
    cfg_t = build_configuration(dim, transformed(items, t))
    psys = positive_system(cfg)
    psys_t = positive_system(cfg_t, mat_inverse(t).mat_vec(psys.functional))
    assert psys_t.signs == psys.signs
    assert verdict(cfg_t, psys_t) == verdict(cfg, psys)

    before = constraints([a for a, _c in items])
    after = constraints([a for a, _c in transformed(items, t)])
    if isinstance(before, str):
        assert after == before
        return
    ratio = t.det() ** 2
    pairs = [(p.poly, q.poly) for p, q in zip(before.polynomials, after.polynomials)]
    pairs.append((before.nondegeneracy, after.nondegeneracy))
    assert len(after.polynomials) == len(before.polynomials)
    for p, q in zip(before.polynomials, after.polynomials):
        assert (q.base_index, q.series_index, q.member_indices) == (
            p.base_index,
            p.series_index,
            p.member_indices,
        )
    for p, q in pairs:
        assert q.terms.keys() == p.terms.keys()
        assert all(q.terms[e] == ratio * v for e, v in p.terms.items())
