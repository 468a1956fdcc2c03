"""Symbolic multiplicities: constraint polynomials and multiplicity search.

Treating the multiplicities c_1..c_m as variables, each (base, series) pair
yields one polynomial: the series residual with the form's denominator
cleared through the adjugate, det(G) * (a,b) = a . adj(G) . b^T.  A rational
assignment is a trigonometric vee-system exactly when all constraint
polynomials vanish and the nondegeneracy polynomial det G does not.  By
Cauchy-Binet both are written in closed form, as sums of squarefree
monomials whose coefficients are products of integer covector minors, from
a Laplace recursion (one array step per level), one integer matmul and
array passes over runs of whole bases: int64 under a proven no-overflow
bound, else Python ints.  The terms of a series whose subset holds a second
member of the series cancel in pairs, so they are never formed, and every
other term is the only one on its monomial.

At a fixed form N the conditions become linear: the multiplicities with
G(c) = mu N form the exact nullspace L(N) of `linear_family`.  The search
solves L(N) first and descends numerically only when that finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares

from .configuration import VConfiguration, _pairing_numerators, build_configuration, covector
from .errors import (
    DegenerateForm,
    DegenerateParametrization,
    InvalidParams,
    SpanDeficient,
    VeeError,
    ZeroMultiplicity,
)
from .exactnum import (
    RatMatrix,
    as_rational,
    clear_denominators,
    integer_inverse,
    integer_rank,
    integer_rref,
)
from .multipoly import MultiPoly, RatFunc, _cleared, _from_ints
from .veecheck import check_series_condition

# The most bytes of products M[T][i] M[T][j] that one extraction pass forms:
# all bases of B3 and A4 take one pass, and B4 and A5 (one base a pass) ran
# no faster in larger passes, which raised the peak memory (by about 4 MB
# with all their bases in one pass)
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class ConstraintPoly:
    base_index: int
    series_index: int
    member_indices: tuple[int, ...]
    poly: MultiPoly


@dataclass(frozen=True)
class ConstraintSet:
    symbols: tuple[str, ...]
    vectors: tuple[tuple[Fraction, ...], ...]
    polynomials: tuple[ConstraintPoly, ...]
    nondegeneracy: MultiPoly

    def distinct_polynomials(self) -> list[MultiPoly]:
        """The nonzero polynomials up to sign, each first occurrence in order.
        Each is compared only with kept ones on its monomial set, which p and
        -p share; hashing Fraction coefficients would cost more than it saves."""
        kept: dict[frozenset, list[dict]] = {}
        distinct = []
        for c in self.polynomials:
            terms = c.poly.terms
            same = kept.setdefault(frozenset(terms), [])
            if terms and not any(
                t == terms or all(terms[e] == -v for e, v in t.items()) for t in same
            ):
                same.append(terms)
                distinct.append(c.poly)
        return distinct


def _minor_dtype(ints: list[list[int]], dim: int):
    """int64 where `series_constraints` proves no overflow, else object (Python ints)."""
    h, m = max(abs(x) for row in ints for x in row), len(ints)
    return np.int64 if m < 63 and (dim * h * h) ** dim < 2**63 else object


def _cofactor_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, C) for the m x n integer array a: row t of S is the t-th (n-1)-subset
    of the rows in combinations order, and det[x; a[S[t]]] = x . C[t].  Laplace
    recursion, one array step per level: the minors of rows S expand along the
    last row of S over the minors of its prefix, so each is computed once."""
    m, dim = a.shape
    subsets, minors = np.zeros((1, 0), dtype=np.intp), np.ones((1, 1), dtype=a.dtype)
    for r in range(1, dim):
        index = {cols: k for k, cols in enumerate(combinations(range(dim), r - 1))}
        sign, col, sub = np.array([
            ((-1) ** (r - 1 + p), c, index[cols[:p] + cols[p + 1 :]])
            for cols in combinations(range(dim), r)
            for p, c in enumerate(cols)
        ]).T
        # each subset extended by every later row, parent-major: combinations order
        parent, last = np.nonzero(np.arange(m) > subsets.max(axis=1, initial=-1)[:, None])
        subsets = np.concatenate((subsets[parent], last[:, None]), axis=1)
        terms = sign * a[last[:, None], col] * minors[parent[:, None], sub]
        minors = terms.reshape(len(last), -1, r).sum(axis=2)
    # the (dim-1)-subsets of the columns omit column dim-1, ..., 0 in turn
    return subsets, minors[:, ::-1] * [(-1) ** k for k in range(dim)]


def _passes(sizes: Sequence[int], bound: int) -> list[tuple[int, int]]:
    """Split the bases, with the given byte sizes, into runs (start, stop) of
    whole bases in order: each run is the longest that stays within `bound`,
    or one base that alone exceeds it."""
    runs, start, total = [], 0, 0
    for b, size in enumerate(sizes):
        if total and total + size > bound:
            runs.append((start, b))
            start, total = b, 0
        total += size
    return runs + [(start, len(sizes))]


def _unit_configuration(
    vectors: Sequence[Sequence], symbols: Sequence[str] | None
) -> tuple[VConfiguration, tuple[str, ...]]:
    """The vectors at multiplicity 1 and one symbol per vector (c1, c2, ...
    by default), after checking that they span and the symbols are distinct.
    The series split and the integer covectors do not depend on the
    multiplicities, so every symbolic tool reads them off this configuration."""
    vecs = [covector(v) for v in vectors]
    if not vecs:
        raise SpanDeficient("empty vector set")
    dim = len(vecs[0])
    cfg = build_configuration(dim, [(v, 1) for v in vecs])
    # G(1, ..., 1) = sum_a a^T a is positive definite exactly when they span
    if cfg.gram_det == 0:
        rank = integer_rank(cfg.integer_covectors[0])
        raise SpanDeficient(f"vectors span only {rank} of {dim} dimensions")
    m = len(vecs)
    if symbols is None:
        return cfg, tuple(f"c{i + 1}" for i in range(m))
    symbols = tuple(symbols)
    if len(symbols) != m:
        raise ValueError("need one symbol per vector")
    if len(set(symbols)) != m:
        raise ValueError("symbols must be distinct")
    return cfg, symbols


def series_constraints(
    vectors: Sequence[Sequence], symbols: Sequence[str] | None = None
) -> ConstraintSet:
    """Extract the series-condition polynomials for a fixed vector set.

    One polynomial per (base a_i, series S) pair, sum over j in S of
    r_j * c_j * (a_i . adj(G(c)) . a_j^T), homogeneous of degree n in the
    multiplicity variables.  The nondegeneracy polynomial is det G(c).
    Both are read off the integer minors M[T][j] = det[a_j; A_T] * D^n over
    the (n-1)-subsets T of the covectors, D the common denominator of their
    entries, by Cauchy-Binet:

        D^2n * a_i . adj(G(c)) . a_j^T = sum_T c_T M[T][i] M[T][j],
        D^2n * det G(c) = sum_T sum_{j > max T} c_T c_j M[T][j]^2.

    M[T][j] = 0 for j in T, so every monomial is squarefree.  A term of S
    whose T holds another member j' of S cancels with its partner: with
    a_j' = r a_j + k a_i (r = r_j r_j'), U = T - j', T' = U + j and
    d = det[a_i; a_j; A_U], row swaps give M[T][i] M[T][j] = -r k d^2 and
    M[T'][i] M[T'][j'] = k d^2, so r_j (-r k d^2) + r_j' k d^2 = 0.  A T
    holding two members has M[T][i] = 0, as a_i and those two are
    dependent.  So the passes drop every pair whose T meets its series,
    and each remaining code (series, T + j) holds one member, j, and occurs
    once in its pass: the sums are the terms themselves.  `_cofactor_rows`
    gives the cofactors of every T by a Laplace recursion, one array step per
    level, and M is one integer matmul of them with the covectors.  The
    members of every series around every base are read off the cached
    `series_split`, and the bases go through array passes in runs of whole
    bases, each run's products M[T][i] M[T][j] within `_CHUNK_BYTES` (a base
    that alone exceeds it is a run); each pass's polynomials are built
    before the next pass starts.  Hadamard bounds every
    minor by (n h^2)^(n/2), h the largest |entry| of the integer covectors.
    Each array value is a minor, a product of two minors (a term, or a
    squared minor of det G) or a mask below 2^m, and every partial sum of a
    Laplace step or of the matmul for M is at most n h (n h^2)^((n-1)/2) <=
    (n h^2)^n.  So the arrays are int64 when m < 63 and (n h^2)^n < 2^63, and
    Python ints otherwise; no float is involved.  One Fraction over D^2n per
    distinct value.
    """
    cfg, symbols = _unit_configuration(vectors, symbols)
    dim, m = cfg.dim, len(symbols)
    ints, den = cfg.integer_covectors
    a = np.array(ints, dtype=_minor_dtype(ints, dim))
    subsets, cofactors = _cofactor_rows(a)
    minors = cofactors @ a.T  # M[T][j] = det[a[j]; a[T]]
    keep = minors.any(axis=1)  # the T with a nonzero minor
    subsets, minors = subsets[keep], minors[keep]
    bit = 1 << np.arange(m, dtype=a.dtype)
    # every nonzero M[T][j] gives the monomial T + j (j is not in T); det G(c)
    # takes each monomial once, from the T below its j
    t, j = np.nonzero(minors)
    t_mask = bit[subsets].sum(axis=1)
    keys = t_mask[t] + bit[j]
    once = j > subsets.max(axis=1, initial=-1)[t]
    monomials = np.sort(keys[once], kind="stable")
    at = np.zeros(minors.shape, dtype=np.intp)  # at[T, j]: the index of T + j in monomials
    at[t, j] = np.searchsorted(monomials, keys)
    exponents = np.fromiter(map(tuple, (monomials[:, None] // bit % 2).tolist()), dtype=object)
    scale, coefficient = den ** (2 * dim), {}  # one Fraction per distinct value

    def polys(index: np.ndarray, vals: np.ndarray, counts) -> list[MultiPoly]:
        """One polynomial per run of counts terms, exponents[index] and vals."""
        values = vals.tolist()
        coefficient.update((v, Fraction(v, scale)) for v in set(values).difference(coefficient))
        terms = zip(exponents[index].tolist(), map(coefficient.__getitem__, values))
        return [MultiPoly._clean(symbols, dict(islice(terms, c))) for c in counts]

    (det,) = polys(at[t, j][once], minors[t, j][once] ** 2, [np.count_nonzero(once)])
    # one row (series, j, r) per member of a series around any base, the series
    # numbered across the bases: sorted, the bases come in order, each base's
    # series in order of first appearance and each series' members by index
    hits, base_of, first_series, first_hit = [], [], [0], [0]
    for i, (first_signs, members) in enumerate(cfg.series_split):
        hits += [(len(base_of) + s, j, r) for j, r, _step, s in members]
        base_of += [i] * len(first_signs)
        first_series.append(len(base_of))
        first_hit.append(len(hits))
    hits.sort()
    member_indices = [[] for _ in base_of]
    for g, j, _r in hits:
        member_indices[g].append(j)
    sid, js, signs = np.array(hits, dtype=np.intp).reshape(-1, 3).T
    series_mask = np.array([sum(1 << j for j in ms) for ms in member_indices], dtype=a.dtype)
    hit_base = np.array(base_of, dtype=np.intp)[sid]
    row_bytes = len(minors) * minors.itemsize
    sizes = [(h1 - h0) * row_bytes for h0, h1 in zip(first_hit, first_hit[1:])]
    n = len(monomials)
    out = []
    for b0, b1 in _passes(sizes, _CHUNK_BYTES):  # one array pass per run of whole bases
        h0, h1, g0, g1 = first_hit[b0], first_hit[b1], first_series[b0], first_series[b1]
        hj = js[h0:h1]
        pairs = minors[:, hj]
        pairs *= minors[:, hit_base[h0:h1]]
        pairs = pairs.T  # M[T][i] M[T][j], one row per member j of a series around i
        # a T holding another member of the series cancels with its partner: drop both
        member, t = np.nonzero(pairs)
        series = sid[h0:h1][member]
        alone = (t_mask[t] & series_mask[series]) == 0
        member, t, series = member[alone], t[alone], series[alone]
        # member-major, T ascending: first-appearance order; one code per (series, T + j)
        code = (series - g0) * n + at[t, hj[member]]
        vals = signs[h0:h1][member] * pairs[member, t]
        counts = np.bincount(code // n, minlength=g1 - g0).tolist()
        for g, poly in enumerate(polys(code % n, vals, counts), g0):
            i = base_of[g]
            out.append(ConstraintPoly(i, g - first_series[i], tuple(member_indices[g]), poly))
    return ConstraintSet(symbols, cfg.covectors(), tuple(out), det)


@dataclass(frozen=True)
class FamilyVerdict:
    passed: bool
    failing: tuple[ConstraintPoly, ...]
    residual_numerators: tuple[MultiPoly, ...]


def verify_family(
    vectors: Sequence[Sequence],
    parametrization: Mapping[str, object],
    symbols: Sequence[str] | None = None,
) -> FamilyVerdict:
    """Check a multiplicity parametrization against all constraints, exactly.

    `parametrization` maps multiplicity symbols to RatFunc values, MultiPoly
    values, rationals, or expression results; unmapped symbols stay free
    parameters.  Substitution is fully expanded over a common denominator, so
    a constraint passes iff its substituted numerator is the zero polynomial.
    No multiplicity may be identically 0 (ZeroMultiplicity names the first
    that is), and the nondegeneracy polynomial must NOT vanish identically
    after substitution, otherwise DegenerateParametrization is raised.
    """
    cs = series_constraints(vectors, symbols)
    unknown = sorted(set(parametrization) - set(cs.symbols))
    if unknown:
        raise ValueError(f"unknown symbols {', '.join(map(repr, unknown))} in parametrization")

    param_vars: set[str] = set()
    for sym in cs.symbols:
        val = parametrization.get(sym)
        if val is None:
            param_vars.add(sym)
        elif isinstance(val, (RatFunc, MultiPoly)):
            param_vars.update(val.vars)
    variables = tuple(sorted(param_vars)) or ("_t",)

    images: dict[str, RatFunc] = {}
    for sym in cs.symbols:
        val = parametrization.get(sym)
        if val is None:
            images[sym] = RatFunc.variable(variables, sym)
        elif isinstance(val, RatFunc):
            images[sym] = RatFunc(val.num.with_vars(variables), val.den.with_vars(variables))
        elif isinstance(val, MultiPoly):
            images[sym] = RatFunc.from_poly(val.with_vars(variables))
        else:
            images[sym] = RatFunc.constant(variables, as_rational(val))
        if images[sym].is_zero():
            raise ZeroMultiplicity(f"multiplicity {sym} is identically 0")

    substitute = _merged_substitution(cs.symbols, images)
    if substitute(cs.nondegeneracy).is_zero():
        raise DegenerateParametrization(
            "the form determinant vanishes identically under this parametrization"
        )

    failing = []
    residues = []
    for c in cs.polynomials:
        numerator = substitute(c.poly)
        if not numerator.is_zero():
            failing.append(c)
            residues.append(numerator)
    return FamilyVerdict(
        passed=not failing, failing=tuple(failing), residual_numerators=tuple(residues)
    )


def _merged_substitution(symbols: tuple[str, ...], images: Mapping[str, RatFunc]):
    """The numerator of `poly.substitute(images)`, computed with the symbols
    of equal images (same numerator and denominator) merged into one.

    After the merge a term's image depends only on its degree E_g in each
    group g, so terms are summed per (E_g) before anything is expanded, as
    integers over the lcm of the coefficients' denominators, with one
    Fraction per merged term.
    `MultiPoly.substitute` clears the merged polynomial over prod den_g^D_g,
    D_g its largest E_g after cancellation; the unmerged one is cleared over
    prod_k den_k^d_k, d_k the largest degree in symbol k.  So the merged
    numerator is multiplied by den_g^(sum_{k in g} d_k - D_g) to give the
    unmerged numerator exactly.
    """
    groups: dict[tuple[MultiPoly, MultiPoly], list[int]] = {}
    for k, sym in enumerate(symbols):
        groups.setdefault((images[sym].num, images[sym].den), []).append(k)
    members = list(groups.values())
    group_of = [0] * len(symbols)
    for g, ks in enumerate(members):
        for k in ks:
            group_of[k] = g
    names = tuple(symbols[ks[0]] for ks in members)
    merged_images = {name: images[name] for name in names}
    one = MultiPoly.const(merged_images[names[0]].vars, 1)
    # shared by every call below: the merged images cleared to integers and
    # the powers of them built so far
    cache: dict = {}

    def substitute(poly: MultiPoly) -> MultiPoly:
        ints, den = _cleared(poly.terms)
        terms: dict[tuple[int, ...], int] = {}
        for expo, coef in ints.items():
            key = [0] * len(members)
            for k, e in enumerate(expo):
                key[group_of[k]] += e
            key = tuple(key)
            terms[key] = terms.get(key, 0) + coef
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return MultiPoly.zero(one.vars)
        merged = _from_ints(names, terms, den)
        numerator = merged.substitute(merged_images, cache).num
        degrees = [max(col) for col in zip(*poly.terms)]
        merged_degrees = [max(col) for col in zip(*merged.terms)]
        for ks, name, top in zip(members, names, merged_degrees):
            den = merged_images[name].den
            extra = sum(degrees[k] for k in ks) - top
            if extra and den != one:
                numerator = numerator * den**extra
        return numerator

    return substitute


# ---------------------------------------------------------------------------
# Exact multiplicity families at a fixed form.
# ---------------------------------------------------------------------------


def linear_family(vectors: Sequence[Sequence], N) -> tuple[tuple[Fraction, ...], ...]:
    """A basis of the multiplicities with form proportional to N, exactly.

    Fix a symmetric nondegenerate rational form N (a RatMatrix or rows).
    When G(c) = mu N with mu != 0, every vee product is (a, b) = a N^-1 b^T
    / mu, so the series conditions are linear in c.  With the n(n+1)/2
    equations sum_a c_a a^T a = mu N they cut out a linear space L(N) of
    vectors (c_1, ..., c_m, mu), coordinates in the order of the vectors,
    mu last.  Every member with mu and all c_a nonzero is a trigonometric
    vee-system with form mu N.  Returns the nullspace basis that the reduced
    echelon form of the equations gives, one vector per free coordinate; it
    is empty when L(N) = 0.  The vectors are checked as by
    `series_constraints`.
    """
    cfg = _unit_configuration(vectors, None)[0]
    form = N if isinstance(N, RatMatrix) else RatMatrix(N)
    if not form.is_symmetric():
        raise DegenerateForm("the form N must be symmetric")
    return _family_basis(cfg, form)


def _family_basis(cfg: VConfiguration, form: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """`linear_family` at the multiplicity-1 configuration of the vectors, read
    from `integer_rref` of integer rows.  With N = N' / l_N and N'^-1 = R / det N'
    from `integer_inverse`, one row per series of `series_split`, sum_j r_j c_j a_i R a_j^T
    (scaled by d^2 det N' / l_N, covectors over d), and one per entry (k, l),
    k <= l, of sum_a c_a a_k a_l - mu N_kl (scaled by d^2 l_N)."""
    m = len(cfg.entries)
    ints, d = cfg.integer_covectors
    form_ints, l_n = clear_denominators(form.entries)
    table = _pairing_numerators(ints, integer_inverse(form_ints)[0])
    rows = []
    for pairings, (first_signs, members) in zip(table, cfg.series_split):
        series_rows = [[0] * (m + 1) for _ in first_signs]
        for j, r, _step, s in members:
            series_rows[s][j] = r * pairings[j]
        rows += series_rows
    for k in range(cfg.dim):
        for l in range(k, cfg.dim):
            rows.append([l_n * a[k] * a[l] for a in ints] + [-d * d * form_ints[k][l]])
    reduced, pivots, p, _sign = integer_rref(rows)
    basis = []
    for f in sorted(set(range(m + 1)) - set(pivots)):
        v = [Fraction(int(k == f)) for k in range(m + 1)]
        for row, q in zip(reduced, pivots):
            v[q] = Fraction(-row[f], p)
        basis.append(tuple(v))
    return tuple(basis)


def _generic_member(basis: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """The first member sum_p s^p basis[p], s = 1, 2, ..., with every
    coordinate nonzero; None when a coordinate vanishes on every basis
    vector.  Otherwise each coordinate is a nonzero polynomial of degree
    below k = len(basis) in s, so one of s = 1, ..., (m + 1)(k - 1) + 1 works
    for m + 1 coordinates."""
    columns = list(zip(*basis))
    if not columns or not all(any(col) for col in columns):
        return None
    for s in count(1):
        member = [sum(x * s**p for p, x in enumerate(col)) for col in columns]
        if all(member):
            return member


# ---------------------------------------------------------------------------
# Numeric search for valid multiplicities, with exact certification.
# ---------------------------------------------------------------------------

_SNAP_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 24, 60, 1000, 10**6)
_RESIDUAL_TOL = 1e-10  # largest constraint residual accepted after a snap


def _compile_polynomials(polys: Sequence[MultiPoly]):
    """Compile polynomials into one numpy monomial table for float evaluation.

    The polynomials must be squarefree and homogeneous of one common degree,
    as series_constraints writes every constraint and det G(c): each monomial
    is then the product of distinct variables, one row of an index table.
    Returns an evaluator from an array of variable values to the array of
    the polynomials' values there.
    """
    rows, coefs, idx = [], [], []
    for p_idx, p in enumerate(polys):
        for expo, coef in p.terms.items():
            rows.append(p_idx)
            coefs.append(float(coef))
            idx.append([k for k, e in enumerate(expo) if e])
    rows_a, coefs_a, idx_a = np.array(rows), np.array(coefs), np.array(idx, dtype=np.intp)

    def evaluate(vals: np.ndarray) -> np.ndarray:
        return np.bincount(rows_a, coefs_a * vals[idx_a].prod(axis=1), minlength=len(polys))

    return evaluate


def _exact_solution(
    vectors: Sequence[tuple[Fraction, ...]],
    symbols: Sequence[str],
    assignment: dict[str, Fraction],
) -> bool:
    """True when the assignment builds a nondegenerate passing configuration."""
    dim = len(vectors[0])
    try:
        cfg = build_configuration(
            dim, [(v, assignment[sym]) for v, sym in zip(vectors, symbols)]
        )
    except VeeError:  # a zero multiplicity among them
        return False
    return cfg.gram_det != 0 and check_series_condition(cfg).passed


def find_multiplicities(
    vectors: Sequence[Sequence],
    fix_symbol: str | None = None,
    seed: int = 0,
    symbols: Sequence[str] | None = None,
    starts: int = 12,
) -> list[dict[str, Fraction]]:
    """Search for exactly-verified multiplicity assignments, `fix_symbol`
    (default the first symbol) scaled to 1.

    Exact stage: the families L(N) of `linear_family` at N = G(1, ..., 1)
    and at N = I (skipped when proportional to G(1, ..., 1), where it gives
    the same family).  From each it takes one member with mu and every
    multiplicity nonzero (`_generic_member`), which is a vee-system with
    form mu N.  When a member passes the exact check, those members are the
    whole result: at most two assignments, one per family, and no float is
    computed.  Valid assignments whose form is proportional to neither N are
    then not searched for, and `seed` and `starts` have no effect.

    Fallback, only when neither family has such a member: least-squares
    descent on the constraint polynomials from `starts` seeded random starts
    (`_descent_search`), the only stage that `seed` and `starts` steer.  It
    is reached, for example, by the planar covectors (0, 1), (1, 0), (1, 1),
    (1, 2), (2, 1), (2, 2): L(N) = 0 at both forms, and the descent finds
    c = (1, 1, 2, 1/2, 1/5, 1/2).  Every returned assignment passes the exact
    series check with a nondegenerate form; an empty result means "not
    found", never "nonexistent".
    """
    if starts < 1:
        raise InvalidParams(f"starts must be at least 1, got {starts}")
    if seed < 0:
        raise InvalidParams(f"seed must be at least 0, got {seed}")
    cfg, syms = _unit_configuration(vectors, symbols)
    if fix_symbol is None:
        fix_symbol = syms[0]
    if fix_symbol not in syms:
        raise ValueError(f"unknown symbol {fix_symbol!r}")

    gram = cfg.gram  # G(1, ..., 1)
    unit = RatMatrix.identity(cfg.dim)
    forms = [gram] if gram == unit.scale(gram.entries[0][0]) else [gram, unit]
    fix = syms.index(fix_symbol)
    solutions: list[dict[str, Fraction]] = []
    for form in forms:
        member = _generic_member(_family_basis(cfg, form))
        if member is None:
            continue
        candidate = {s: x / member[fix] for s, x in zip(syms, member)}
        # distinct: G(c) is proportional to one form only
        if _exact_solution(cfg.covectors(), syms, candidate):
            solutions.append(candidate)
    if solutions:
        return solutions
    return _descent_search(series_constraints(vectors, symbols), fix_symbol, seed, starts)


def _descent_search(
    cs: ConstraintSet, fix_symbol: str, seed: int, starts: int
) -> list[dict[str, Fraction]]:
    """Least-squares descent on the constraint polynomials from seeded random
    starts, then a greedy snap-to-rational refinement (fix one coordinate to
    a small-denominator rational, re-optimize the rest), and finally exact
    verification of the candidate.  The residuals are evaluated one point
    at a time on the compiled monomial table, and least_squares builds the
    Jacobian itself (jac='2-point').  `cs` must have a nonzero polynomial:
    without one, L(G(1, ..., 1)) holds c = 1, mu = 1, so the exact stage of
    `find_multiplicities` always certifies a member.
    """
    syms = cs.symbols
    free = [s for s in syms if s != fix_symbol]
    position = {s: k for k, s in enumerate(syms)}
    # the last value is det G(c), the others the constraint residuals
    evaluate = _compile_polynomials(cs.distinct_polynomials() + [cs.nondegeneracy])
    # the constraint polynomials also vanish wherever det G vanishes becomes
    # easy to reach numerically, so every accepted step must keep the form
    # visibly nondegenerate
    det_floor = 1e-6

    def fit(snapped: dict[str, Fraction], x0: np.ndarray):
        """Hold the snapped symbols and fit the others from x0: (x, residual
        norm, det G), or the max-abs residual when none is left to fit."""
        values = np.ones(len(syms))
        for s, q in snapped.items():
            values[position[s]] = float(q)
        free_pos = [position[s] for s in syms if s not in snapped]
        if not free_pos:
            vals = evaluate(values)
            return x0, np.abs(vals[:-1]).max(), vals[-1]

        def residuals(xs: np.ndarray) -> np.ndarray:
            values[free_pos] = xs
            return evaluate(values)[:-1]

        result = least_squares(residuals, x0, jac="2-point", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        values[free_pos] = result.x
        return result.x, float(np.linalg.norm(result.fun)), evaluate(values)[-1]

    def snap(x: np.ndarray) -> dict[str, Fraction] | None:
        """Snap the free symbols in order, each to the first nonzero rational
        near it whose refit of the rest passes; None when one has none.  A
        repeated value is not refit: the refit is deterministic."""
        snapped = {fix_symbol: Fraction(1)}
        for sym in free:
            near = Fraction(float(x[0]))
            for q in dict.fromkeys(near.limit_denominator(b) for b in _SNAP_BOUNDS):
                if q == 0:
                    continue
                xs, err, det = fit({**snapped, sym: q}, x[1:])
                if err <= _RESIDUAL_TOL and abs(det) > det_floor and np.all(np.abs(xs) > 1e-4):
                    snapped[sym], x = q, xs
                    break
            else:
                return None
        return snapped

    rng = np.random.default_rng(seed)
    solutions: list[dict[str, Fraction]] = []
    for _start in range(starts):
        x = rng.uniform(-2.0, 2.0, size=len(free))
        x[np.abs(x) < 0.2] += 0.5  # keep multiplicities away from zero
        if free:
            x, err, det = fit({fix_symbol: Fraction(1)}, x)
            if err > 1e-8 or abs(det) < det_floor:
                continue
        snapped = snap(x)
        if snapped is None:
            continue
        candidate = {s: snapped[s] for s in syms}
        if _exact_solution(cs.vectors, syms, candidate) and candidate not in solutions:
            solutions.append(candidate)
    return solutions
