"""Symbolic multiplicities: constraint polynomials and multiplicity search.

Treating the multiplicities c_1..c_m as variables, each (base, series) pair
yields one polynomial: the series residual with the form's denominator
cleared through the adjugate, det(G) * (a,b) = a . adj(G) . b^T.  A rational
assignment is a trigonometric vee-system exactly when all constraint
polynomials vanish and the nondegeneracy polynomial det G does not.  By
Cauchy-Binet both are written in closed form, as sums of squarefree
monomials whose coefficients are products of integer covector minors, all
from one Laplace recursion over covector subsets: C(m, r) C(n, r) r integer
multiplications at each level r < n, not C(m, n-1) n separate determinants.

At a fixed form N the conditions become linear: the multiplicities with
G(c) = mu N form the exact nullspace L(N) of `linear_family`.  The search
solves L(N) first and descends numerically only when that finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, count
from operator import mul
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares

from .configuration import (
    VConfiguration,
    _pairing_numerators,
    build_configuration,
    covector,
    relative_wedge_signs,
)
from .errors import (
    DegenerateForm,
    DegenerateParametrization,
    InvalidParams,
    SpanDeficient,
    VeeError,
    ZeroMultiplicity,
)
from .exactnum import RatMatrix, as_rational, clear_denominators, integer_inverse, integer_rref
from .multipoly import MultiPoly, RatFunc
from .veecheck import check_series_condition


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


def _cofactor_rows(ints: list[list[int]], dim: int) -> dict[tuple[int, ...], list[int]]:
    """Cofactors along the first row of [x; A_T], det[x; A_T] = x . cof, for
    every (dim-1)-subset T of the rows in combinations order.  Laplace
    recursion: the minors of rows S, one per column subset, expand along the
    last row of S over the minors of its prefix, so each is computed once."""
    level = {(): [1]}
    for r in range(1, dim):
        index = {cols: k for k, cols in enumerate(combinations(range(dim), r - 1))}
        expand = [
            [((-1) ** (r - 1 + p), c, index[cols[:p] + cols[p + 1 :]]) for p, c in enumerate(cols)]
            for cols in combinations(range(dim), r)
        ]
        level = {
            s + (k,): [sum(sg * ints[k][c] * minors[i] for sg, c, i in terms) for terms in expand]
            for s, minors in level.items()
            for k in range(s[-1] + 1 if s else 0, len(ints))
        }
    # the (dim-1)-subsets of the columns omit column dim-1, ..., 0 in turn
    return {t: [(-1) ** k * x for k, x in enumerate(reversed(minors))] for t, minors in level.items()}


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
    if len(cfg.lattice_basis) < dim:
        raise SpanDeficient(f"vectors span only {len(cfg.lattice_basis)} of {dim} dimensions")
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

    M[T][j] = 0 for j in T, so every monomial is squarefree.  `_cofactor_rows`
    reads all M[T] off one Laplace recursion over the covector subsets, at
    C(m, r) * C(n, r) * r multiplications per level r, where one Bareiss
    determinant per cofactor costs C(m, n-1) * n determinants.  Coefficients
    are summed as ints, one shared Fraction over D^2n per distinct sum.
    """
    cfg, symbols = _unit_configuration(vectors, symbols)
    dim, m = cfg.dim, len(symbols)
    ints, den = cfg.integer_covectors
    minors = []  # (bitmask of T, M[T]) for every T with a nonzero minor
    for t, cof in _cofactor_rows(ints, dim).items():
        row = [sum(map(mul, cof, v)) for v in ints]
        if any(row):
            minors.append((sum(1 << k for k in t), row))
    scale = den ** (2 * dim)
    # one squarefree exponent tuple per mask, one Fraction per distinct sum
    exponent = cache(lambda mask: tuple((mask >> k) & 1 for k in range(m)))
    coefficient = cache(lambda v: Fraction(v, scale))

    def poly(acc: dict[int, int]) -> MultiPoly:
        terms = {exponent(mask): coefficient(v) for mask, v in acc.items() if v}
        return MultiPoly._clean(symbols, terms)

    out = []
    for i in range(m):
        with_i = [(mask, row) for mask, row in minors if row[i]]
        for s_idx, series in enumerate(cfg.series[i]):
            acc: dict[int, int] = {}
            for member, r in zip(series.members, relative_wedge_signs(series)):
                j = member.entry_index
                for mask, row in with_i:
                    if row[j]:
                        key = mask | 1 << j
                        acc[key] = acc.get(key, 0) + r * row[i] * row[j]
            out.append(
                ConstraintPoly(
                    base_index=i,
                    series_index=s_idx,
                    member_indices=series.entry_indices(),
                    poly=poly(acc),
                )
            )
    det: dict[int, int] = {}
    for mask, row in minors:
        for j in range(mask.bit_length(), m):
            if row[j]:
                det[mask | 1 << j] = row[j] ** 2
    return ConstraintSet(
        symbols=symbols, vectors=cfg.covectors(), polynomials=tuple(out), nondegeneracy=poly(det)
    )


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
    group g, so terms are summed per (E_g) before anything is expanded.
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

    def substitute(poly: MultiPoly) -> MultiPoly:
        terms: dict[tuple[int, ...], Fraction] = {}
        for expo, coef in poly.terms.items():
            key = [0] * len(members)
            for k, e in enumerate(expo):
                key[group_of[k]] += e
            key = tuple(key)
            terms[key] = terms.get(key, 0) + coef
        merged = MultiPoly(names, terms)
        if merged.is_zero():
            return MultiPoly.zero(one.vars)
        numerator = merged.substitute(merged_images).num
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


def linear_family(
    vectors: Sequence[Sequence], N, symbols: Sequence[str] | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """A basis of the multiplicities with form proportional to N, exactly.

    Fix a symmetric nondegenerate rational form N (a RatMatrix or rows).
    When G(c) = mu N with mu != 0, every vee product is (a, b) = a N^-1 b^T
    / mu, so the series conditions are linear in c.  With the n(n+1)/2
    equations sum_a c_a a^T a = mu N they cut out a linear space L(N) of
    vectors (c_1, ..., c_m, mu), coordinates in the order of the vectors
    (and of `symbols`), mu last.  Every member with mu and all c_a nonzero
    is a trigonometric vee-system with form mu N.  Returns the nullspace
    basis that the reduced echelon form of the equations gives, one vector
    per free coordinate; it is empty when L(N) = 0.  The vectors and the
    symbols are checked as by `series_constraints`.
    """
    cfg, _symbols = _unit_configuration(vectors, symbols)
    form = N if isinstance(N, RatMatrix) else RatMatrix(N)
    if not form.is_symmetric():
        raise DegenerateForm("the form N must be symmetric")
    return _family_basis(cfg, form)


def _family_basis(cfg: VConfiguration, form: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """`linear_family` at the multiplicity-1 configuration of the vectors, read
    from `integer_rref` of integer rows.  With N = N' / l_N and N'^-1 = R / det N'
    from `integer_inverse`, one row per series condition, sum_j r_j c_j a_i R a_j^T
    (scaled by d^2 det N' / l_N, covectors over d), and one per entry (k, l),
    k <= l, of sum_a c_a a_k a_l - mu N_kl (scaled by d^2 l_N)."""
    m = len(cfg.entries)
    ints, d = cfg.integer_covectors
    form_ints, l_n = clear_denominators(form.entries)
    table = _pairing_numerators(ints, integer_inverse(form_ints)[0])
    rows = []
    for i, pairings in enumerate(table):
        for series in cfg.series[i]:
            row = [0] * (m + 1)
            for j, r in zip(series.entry_indices(), relative_wedge_signs(series)):
                row[j] = r * pairings[j]
            rows.append(row)
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
    polys = cs.distinct_polynomials()

    # the last value is det G(c), the others the constraint residuals
    evaluate = _compile_polynomials(polys + [cs.nondegeneracy])
    position = {s: k for k, s in enumerate(syms)}

    def values_at(fixed: dict[str, float]) -> np.ndarray:
        values = np.ones(len(syms))  # fix_symbol stays 1
        for s, v in fixed.items():
            values[position[s]] = v
        return values

    def minimize(free_syms: list[str], fixed: dict[str, float], x0: np.ndarray):
        values = values_at(fixed)
        free_pos = [position[s] for s in free_syms]

        def residuals(xs: np.ndarray) -> np.ndarray:
            values[free_pos] = xs
            return evaluate(values)[:-1]

        fit = least_squares(residuals, x0, jac="2-point", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        values[free_pos] = fit.x
        return fit.x, float(np.linalg.norm(fit.fun)), evaluate(values)[-1]

    # the constraint polynomials also vanish wherever det G vanishes becomes
    # easy to reach numerically, so every accepted step must keep the form
    # visibly nondegenerate
    det_floor = 1e-6

    rng = np.random.default_rng(seed)
    solutions: list[dict[str, Fraction]] = []
    for _start in range(starts):
        x = rng.uniform(-2.0, 2.0, size=len(free))
        x[np.abs(x) < 0.2] += 0.5  # keep multiplicities away from zero
        fixed: dict[str, float] = {}
        remaining = list(free)
        if remaining:
            x, err, det = minimize(remaining, fixed, x)
            if err > 1e-8 or abs(det) < det_floor:
                continue

        # greedy snap: rationalize one coordinate at a time, re-optimize the
        # rest, and backtrack over denominator bounds if the residual degrades
        # or the form collapses
        snapped: dict[str, Fraction] = {fix_symbol: Fraction(1)}
        ok = True
        while remaining:
            sym = remaining[0]
            rest = remaining[1:]
            accepted = None
            for bound in _SNAP_BOUNDS:
                q = Fraction(float(x[0])).limit_denominator(bound)
                if q == 0:
                    continue
                trial = dict(fixed)
                trial[sym] = float(q)
                if rest:
                    xs, err, det = minimize(rest, trial, x[1:])
                    if err <= _RESIDUAL_TOL and abs(det) > det_floor and np.all(
                        np.abs(xs) > 1e-4
                    ):
                        accepted = (q, xs)
                        break
                else:
                    vals = evaluate(values_at(trial))
                    err, det = np.abs(vals[:-1]).max(), vals[-1]
                    if err <= _RESIDUAL_TOL and abs(det) > det_floor:
                        accepted = (q, np.array([]))
                        break
            if accepted is None:
                ok = False
                break
            q, x = accepted
            snapped[sym] = q
            fixed[sym] = float(q)
            remaining = rest
        if not ok:
            continue

        candidate = {s: snapped[s] for s in syms}
        if _exact_solution(cs.vectors, syms, candidate) and candidate not in solutions:
            solutions.append(candidate)
    return solutions
