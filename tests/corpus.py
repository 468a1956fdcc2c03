"""The shared test inputs, each defined once: root systems, planar sets and
their builders, named configurations at a scale, the seeded slices that the
exact oracles compare over (`tests/test_corpus.py` pins their sizes) and
hypothesis strategies.  Every generator is deterministic.  Reference
implementations are oracles, not inputs, and stay with their tests."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from trigvee.catalog import catalog_get, catalog_list
from trigvee.configuration import build_configuration
from trigvee.errors import InvalidParams
from trigvee.multipoly import MultiPoly

# -- root systems


def a_roots(n):
    return [tuple(int(i <= k <= j) for k in range(n)) for i in range(n) for j in range(i, n)]


def b_roots(n):
    short = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    pairs = [(i, j, s) for i in range(n) for j in range(i + 1, n) for s in (1, -1)]
    return short + [tuple(int(k == i) + s * (k == j) for k in range(n)) for i, j, s in pairs]


def root_system(name):
    """`a_roots` or `b_roots` by name: "A5", "B8"."""
    return (a_roots if name[0] == "A" else b_roots)(int(name[1:]))


ROOT_SYSTEMS = {f"A{n}": a_roots(n) for n in range(2, 6)} | {f"B{n}": b_roots(n) for n in range(2, 6)}

# -- planar sets

A2_VECTORS = [(1, 0), (0, 1), (1, 1)]
B2_VECTORS = [(1, 0), (0, 1), (1, 1), (1, -1)]
B2_SYMBOLS = ("c1", "c2", "cp", "cm")
B2_SYMBOLIC = "dim 2\nvector 1 0 mult ?c1\nvector 0 1 mult ?c2\nvector 1 1 mult ?cp\nvector 1 -1 mult ?cm\n"
PROP4_VECTORS = [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1)]
PROP5_VECTORS = [(1, 0), (0, 1), (0, 2)] + [(Fraction(1, 2), Fraction(k, 2)) for k in (1, -1, 3, -3)]
PROP5_SYMBOLS = ("c1", "c2", "ct2", "ap", "am", "bp", "bm")
G2_VECTORS = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
G2A2_VECTORS = G2_VECTORS + [(2, 0), (2, 2), (4, 2)]
TEN_VECTORS = [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]
# a vee-system whose forms are proportional to neither G(1, ..., 1) nor I,
# so that `find_multiplicities` reaches it only through the descent
DESCENT_ONLY = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def a2(ca=1, cb=1, cc=1):
    return build_configuration(2, list(zip(A2_VECTORS, (ca, cb, cc))))


def b2(c1=1, c2=1, cp=1, cm=1):
    return build_configuration(2, list(zip(B2_VECTORS, (c1, c2, cp, cm))))


def prop4(c1=3, ct1=1, c2=1, cp=1, cm=1):
    return build_configuration(2, list(zip(PROP4_VECTORS, (c1, ct1, c2, cp, cm))))


def g2(cs=1, cl=1):
    return build_configuration(2, list(zip(G2_VECTORS, (cs, cl, cs, cs, cl, cl))))


# -- named configurations

CATALOG = [name for name, _ in catalog_list()]


def catalog_names(keep):
    return [name for name in CATALOG if keep(catalog_get(name).cfg)]


def scaled(cfg, s):
    return build_configuration(cfg.dim, [(e.covector, e.mult * s, e.label) for e in cfg.entries])


def reference_configuration(name, scale=1):
    """A catalog entry or A5, A8, B5, B8, multiplicities times scale, labels dropped."""
    if name in ("A5", "A8", "B5", "B8"):
        return build_configuration(int(name[1]), [(r, scale) for r in root_system(name)])
    cfg = catalog_get(name).cfg
    return build_configuration(cfg.dim, [(e.covector, e.mult * scale) for e in cfg.entries])


def wdvv_configuration(name):
    """A catalog entry as the catalog builds it, or A5, B5 or A6 at unit multiplicity."""
    if name in ("A5", "B5", "A6"):
        return build_configuration(int(name[1]), [(r, 1) for r in root_system(name)])
    return catalog_get(name).cfg


# -- seeded slices for the exact identities


def rand_mult(rng):
    """A multiplicity +-p/q with p <= 5 and q <= 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))


def with_first_mult_perturbed(cfg):
    (v, c, label), *rest = [(e.covector, e.mult, e.label) for e in cfg.entries]
    return build_configuration(cfg.dim, [(v, c * Fraction(101, 100), label)] + rest)


def no_parallel_pair(cfg):
    """The CMS hypotheses: no two covectors on one line."""
    return len(set(cfg.directions)) == len(cfg.entries)


def catalog_draws():
    """Every catalog entry of dimension >= 2 at its defaults and at 8 seeded
    parameter draws (3 for A4 and B4), each also with its first multiplicity
    times 101/100; draws the catalog refuses and degenerate forms skipped."""
    rng = random.Random("catalog-draws")
    out = []
    for name in CATALOG:
        defaults = catalog_get(name)
        if defaults.cfg.dim < 2:
            continue
        draws = [{}] + [
            {key: rand_mult(rng) for key in defaults.params}
            for _ in range(3 if name in ("A4", "B4") else 8)
        ]
        for params in draws:
            try:
                cfg = catalog_get(name, params).cfg
            except InvalidParams:
                continue
            out += [x for x in (cfg, with_first_mult_perturbed(cfg)) if x.gram_det != 0]
    return out


def random_sets(seed, count, sizes, keep=lambda cfg: True):
    """`count` nondegenerate sets in dimensions 2-3 of `sizes` covectors with
    integer entries in [-2, 2], distinct up to sign, and multiplicities from
    `rand_mult`, each passing `keep`."""
    # one of v and -v for each integer vector with entries in [-2, 2]; 0 sorts first
    pools = {
        dim: sorted({max(v, tuple(-x for x in v)) for v in product(range(-2, 3), repeat=dim)})[1:]
        for dim in (2, 3)
    }
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, 3)
        vectors = rng.sample(pools[dim], rng.randint(*sizes))
        cfg = build_configuration(dim, [(v, rand_mult(rng)) for v in vectors])
        if cfg.gram_det != 0 and keep(cfg):
            out.append(cfg)
    return out


def cms_slice():
    """The inputs on which the CMS pair identity must be constant exactly
    when the metric series pass: no two covectors parallel."""
    inputs = [cfg for cfg in catalog_draws() if no_parallel_pair(cfg)]
    return inputs + random_sets("cms-sets", 120, (3, 6), keep=no_parallel_pair)


# -- hypothesis strategies

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
nonzero_fractions = fractions.filter(bool)


def polys(variables, max_terms, top=3):
    expo = st.tuples(*[st.integers(0, top)] * len(variables))
    terms = st.dictionaries(expo, nonzero_fractions, min_size=1, max_size=max_terms)
    return terms.map(lambda t: MultiPoly(variables, t))
