"""Inputs of the three benchmark workloads and the checks on their outputs.

Everything here is deterministic given the seed.  The library is imported
lazily (inside functions) so that the harness can report a missing source
tree cleanly instead of failing at import.
"""

from __future__ import annotations

import hashlib
import json
import random

POOL_SEED = 20260826
# The sweep pool: the first POOL_SIZE curves the criterion-4 generator
# accepts at POOL_SEED, plus the pinned heavy curve below.
POOL_SIZE = 40
# deg-10 locus place over GF(5): the heavy tail every sweep run must contain
PINNED = {
    "p": 5,
    "k": 1,
    "terms": [[2, 4, 1], [0, 4, 1], [0, 3, 3], [1, 2, 3], [2, 1, 1], [1, 1, 2],
              [0, 1, 4], [2, 0, 1], [0, 0, 2]],
}
SWEEP_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]

# Fixed (curve, cap) pairs of the genus oracle, with the known genus.
GENUS_CURVES = {
    # y^2 = x^3 + x over GF(5)
    "elliptic5": {"p": 5, "k": 1, "terms": [[0, 2, 1], [3, 0, 4], [1, 0, 4]], "genus": 1},
    # y^2 = x^5 + 2x + 1 over GF(3)
    "hyper3": {"p": 3, "k": 1, "terms": [[0, 2, 1], [5, 0, 2], [1, 0, 1], [0, 0, 2]],
               "genus": 2},
    # y^3 = x(x+1)^2 over GF(5)
    "kummer5": {"p": 5, "k": 1, "terms": [[0, 3, 1], [3, 0, 4], [2, 0, 3], [1, 0, 4]],
                "genus": 0},
    # y^3 = x over GF(2)
    "cubic2": {"p": 2, "k": 1, "terms": [[0, 3, 1], [1, 0, 1]], "genus": 0},
    # the q = 2 family member a = 0, b = 1, g = x + 1 (built, not listed)
    "family2": {"p": 2, "k": 1, "terms": None, "genus": 2},
}
GENUS_PAIRS = [
    ("elliptic5", 2), ("elliptic5", 3),
    ("hyper3", 3), ("hyper3", 4),
    ("family2", 4), ("family2", 5), ("family2", 6),
    ("kummer5", 1), ("kummer5", 2),
    ("cubic2", 1), ("cubic2", 2),
]
# reconcile_different on the q = 2 family: (genus, exact, different degree)
FAMILY_RECONCILED = [2, True, [8, 8]]

FAM = "(x+1)*y^3+(x+1)*y+x^3"
HEAVY = "(x^2+1)*y^4+3*y^3+3*x*y^2+(x^2+2*x+4)*y+(x^2+2)"
CLI_JOBS = [
    # the ten report-identity jobs of acceptance criterion 8
    ["analyze", "--p", "2", "--F", FAM, "--json"],
    ["analyze", "--p", "5", "--F", "y^2-x^3-x", "--json"],
    ["check-theorem", "--p", "2", "--F", FAM, "--f", "x", "--json"],
    ["check-theorem", "--p", "5", "--F", "y^2-x^3-x", "--f", "x", "--json"],
    ["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels", "6", "--json"],
    ["family", "--q", "2", "--a", "0", "--b", "1", "--g", "x+1", "--json"],
    ["family", "--q", "4", "--a", "0", "--b", "t", "--g", "x+1", "--json"],
    ["genus", "--p", "2", "--F", FAM, "--json"],
    ["genus", "--p", "5", "--F", "y^2-x^3-x", "--json"],
    ["analyze", "--p", "4", "--F", "y^2+x", "--json"],
    # the degree-10 place over GF(5), and the family at large q
    ["analyze", "--p", "5", "--F", HEAVY, "--json"],
    ["family", "--q", "8", "--g", "x+1", "--json"],
    ["family", "--q", "9", "--g", "x+1", "--json"],
    ["family", "--q", "16", "--g", "x+1", "--json"],
    ["family", "--q", "27", "--g", "x+1", "--json"],
]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


# -- curves -------------------------------------------------------------------


def make_curve(spec: dict):
    from towerlab.ffield import BivarPoly, make_field

    K = make_field(spec["p"], spec["k"])
    return BivarPoly.from_coeff_dict(K, {(i, j): K.elem(v) for i, j, v in spec["terms"]})


def curve_spec(F) -> dict:
    terms = [
        [i, j, c.to_int()]
        for j, col in enumerate(F.ycoeffs)
        for i, c in enumerate(col.coeffs)
        if not c.is_zero()
    ]
    return {"p": F.field.p, "k": F.field.k, "terms": terms}


def family2():
    from towerlab.checker import FamilyParams, build_family
    from towerlab.ffield import FFPoly, make_field

    K = make_field(2)
    params = FamilyParams(q=2, a=K.zero(), b=K.one(), g=FFPoly(K, [K.one(), K.one()]))
    return build_family(params).F


def genus_curve(name: str):
    spec = GENUS_CURVES[name]
    return family2() if spec["terms"] is None else make_curve(spec)


def generate_pool() -> tuple[list[dict], int]:
    """The criterion-4 generator at POOL_SEED: (accepted curve specs,
    number of rejected candidates).  Slow; used only to regenerate goldens."""
    from towerlab.basicfield import ramification_locus
    from towerlab.ffield import BivarPoly, make_field
    from towerlab.omfactor import is_irreducible_over_ratfield
    from towerlab.omfactor.maclane import Inseparable

    fields = [make_field(p, k) for p, k in SWEEP_FIELDS]
    rng = random.Random(POOL_SEED)

    def random_bivar(field):
        dy = rng.choice([2, 2, 3, 3, 4])
        dx = rng.randint(1, 2)
        while True:
            d = {(0, dy): 1}
            for j in range(dy + 1):
                for i in range(dx + 1):
                    if rng.random() < 0.45:
                        d[(i, j)] = rng.randrange(1, field.order)
            if not any(j == 0 for (_, j) in d):
                continue
            F = BivarPoly.from_coeff_dict(field, {k: field.elem(v) for k, v in d.items()})
            if F.deg_y() >= 2 and not F.derivative_y().is_zero():
                return F

    pool, rejected = [], 0
    while len(pool) < POOL_SIZE:
        F = random_bivar(fields[len(pool) % 4])
        if not is_irreducible_over_ratfield(F):
            rejected += 1
            continue
        try:
            ramification_locus(F)
        except Inseparable:
            rejected += 1
            continue
        pool.append(curve_spec(F))
    return pool, rejected


def substitute(F, a, b, c):
    """F(a*x + b, c*y): an isomorphic copy of the function field K(x, y)
    for a, c nonzero.  The automorphism fixes the infinite place of K(x) and
    maps every finite place to one of the same degree, so the multiset of
    (deg P, e, f, d_min, d_max, d_exact) over the locus is unchanged."""
    from towerlab.ffield import BivarPoly, FFPoly

    K = F.field
    lin = FFPoly(K, [b, a])
    cols = []
    cj = K.one()
    for col in F.ycoeffs:
        acc = FFPoly(K, [])
        for coef in reversed(col.coeffs):
            acc = acc * lin + FFPoly(K, [coef])
        cols.append(acc * FFPoly(K, [cj]))
        cj = cj * c
    return BivarPoly(K, cols)


def random_substitution(F, rng: random.Random, shift: bool = True):
    """F(a*x + b, c*y) with seeded a, c nonzero and b (zero unless shift)."""
    K = F.field
    q = K.order
    a = K.elem(rng.randrange(1, q))
    b = K.elem(rng.randrange(q)) if shift else K.zero()
    c = K.elem(rng.randrange(1, q))
    return substitute(F, a, b, c)


# -- output digests -------------------------------------------------------------


def place_rows(locus, places) -> list[list]:
    rows = []
    for P, pls in zip(locus, places):
        for pl in pls:
            rows.append([P.degree(), pl.e, pl.f, pl.dmin, pl.dmax, pl.d_exact])
    rows.sort(key=lambda r: [(-1 if v is None else v) for v in r])
    return rows


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
