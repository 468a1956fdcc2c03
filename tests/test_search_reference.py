"""The descent search against a frozen copy of its finite-difference form.

`reference_search` is a fixed copy of the multiplicity search as it stood when
least_squares built each Jacobian itself (`jac='2-point'`, one residual call
per free variable), the monomial table was evaluated one point at a time, and
no exact family was tried first.  It takes the constraint polynomials from
`series_constraints` and reads nothing else from `trigvee.constraints`.  The
batched Jacobian must reproduce scipy's bit for bit, and skipping a repeated
snap refit changes no result, so `_descent_search`, the fallback of
`find_multiplicities`, must return the same solutions in the same order.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from trigvee.catalog import catalog_get, catalog_list
from trigvee.configuration import build_configuration
from trigvee.constraints import (
    _compile_polynomials,
    _descent_search,
    _two_point_jacobian,
    find_multiplicities,
    series_constraints,
)
from trigvee.errors import VeeError
from trigvee.veecheck import check_series_condition

SNAP_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 24, 60, 1000, 10**6)
RESIDUAL_TOL = 1e-10
DET_FLOOR = 1e-6


def reference_compile(polys):
    rows, coefs, idx = [], [], []
    for p_idx, p in enumerate(polys):
        for expo, coef in p.terms.items():
            rows.append(p_idx)
            coefs.append(float(coef))
            idx.append([k for k, e in enumerate(expo) if e])
    rows_a, coefs_a, idx_a = np.array(rows), np.array(coefs), np.array(idx, dtype=np.intp)

    def evaluate(vals):
        return np.bincount(rows_a, coefs_a * vals[idx_a].prod(axis=1), minlength=len(polys))

    return evaluate


def reference_exact(vectors, symbols, assignment):
    try:
        cfg = build_configuration(
            len(vectors[0]), [(v, assignment[sym]) for v, sym in zip(vectors, symbols)]
        )
    except VeeError:
        return False
    return cfg.gram_det != 0 and check_series_condition(cfg).passed


def reference_search(vectors, fix_symbol=None, seed=0, symbols=None, starts=12):
    """Each solution with the index of the start that found it."""
    cs = series_constraints(vectors, symbols)
    syms = cs.symbols
    fix_symbol = fix_symbol or syms[0]
    free = [s for s in syms if s != fix_symbol]
    polys = cs.distinct_polynomials()
    if not polys:
        cand = {s: Fraction(1) for s in syms}
        return [(0, cand)] if reference_exact(cs.vectors, syms, cand) else []
    evaluate = reference_compile(polys + [cs.nondegeneracy])
    position = {s: k for k, s in enumerate(syms)}

    def values_at(fixed):
        values = np.ones(len(syms))
        for s, v in fixed.items():
            values[position[s]] = v
        return values

    def minimize(free_syms, fixed, x0):
        values = values_at(fixed)
        free_pos = [position[s] for s in free_syms]

        def residuals(xs):
            values[free_pos] = xs
            return evaluate(values)[:-1]

        fit = least_squares(residuals, x0, jac="2-point", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        values[free_pos] = fit.x
        return fit.x, float(np.linalg.norm(fit.fun)), evaluate(values)[-1]

    rng = np.random.default_rng(seed)
    found = []
    for start in range(starts):
        x = rng.uniform(-2.0, 2.0, size=len(free))
        x[np.abs(x) < 0.2] += 0.5
        fixed = {}
        remaining = list(free)
        if remaining:
            x, err, det = minimize(remaining, fixed, x)
            if err > 1e-8 or abs(det) < DET_FLOOR:
                continue
        snapped = {fix_symbol: Fraction(1)}
        ok = True
        while remaining:
            sym, rest = remaining[0], remaining[1:]
            accepted = None
            for bound in SNAP_BOUNDS:
                q = Fraction(float(x[0])).limit_denominator(bound)
                if q == 0:
                    continue
                trial = dict(fixed)
                trial[sym] = float(q)
                if rest:
                    xs, err, det = minimize(rest, trial, x[1:])
                    if err <= RESIDUAL_TOL and abs(det) > DET_FLOOR and np.all(np.abs(xs) > 1e-4):
                        accepted = (q, xs)
                        break
                else:
                    vals = evaluate(values_at(trial))
                    err, det = np.abs(vals[:-1]).max(), vals[-1]
                    if err <= RESIDUAL_TOL and abs(det) > DET_FLOOR:
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
        if reference_exact(cs.vectors, syms, candidate) and all(c != candidate for _, c in found):
            found.append((start, candidate))
    return found


def as_items(solutions):
    """Solutions as comparable lists: values with their exact types, in key order."""
    return [[(s, type(v), v) for s, v in sol.items()] for sol in solutions]


# B4's 12-start search alone takes about 4 s
GRID = [(name, None, None) for name, _ in catalog_list() if name != "B4"] + [
    ("B2", "cp", ("c1", "c2", "cp", "cm"))
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "name, fix, symbols", GRID, ids=[g[0] + (f"-fix-{g[1]}" if g[1] else "") for g in GRID]
)
def test_search_matches_frozen_two_point_search(name, fix, symbols, seed):
    vectors = catalog_get(name).cfg.covectors()
    found = reference_search(vectors, fix, seed, symbols, starts=12)
    cs = series_constraints(vectors, symbols)
    for starts in (1, 6, 12):
        if cs.distinct_polynomials():
            got = _descent_search(cs, fix or cs.symbols[0], seed, starts)
        else:
            # without a constraint the descent is never reached: the exact
            # family at G(1, ..., 1) gives the all-ones member, as the
            # reference's shortcut does
            got = find_multiplicities(vectors, fix, seed, symbols, starts=starts)
        assert as_items(got) == as_items([c for k, c in found if k < starts])


@pytest.mark.parametrize("name", ["TenVector", "G2timesScaledA2", "B3", "A4"])
def test_batched_jacobian_is_scipys_two_point_jacobian(name):
    """At points with negative, zero and |x| > 1 coordinates, every bit."""
    cs = series_constraints(catalog_get(name).cfg.covectors())
    evaluate = _compile_polynomials(cs.distinct_polynomials())
    single = reference_compile(cs.distinct_polynomials())
    rng = np.random.default_rng(7)
    m = len(cs.symbols)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=m)
        x[rng.random(m) < 0.2] = 0.0
        x[0] = rng.choice([-1, 1]) * rng.uniform(1.0, 3.0)
        want = approx_derivative(single, x, method="2-point")
        got = _two_point_jacobian(evaluate, x)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(evaluate(x[None])[0].view(np.int64), single(x).view(np.int64))
