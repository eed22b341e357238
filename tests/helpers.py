"""Shared constructors for the test suite: the base fields, the canonical
one-parameter family instances, the fixed comparison curves, the sweep
benchmark's curve pool, the curves of the CLI report jobs, the Bareiss
resultant kept as a reference for ffield.resultant_y, the constant-term
valuation kept as a reference for omfactor.maclane.exact_val, the list of
feasible different degrees kept as a reference for the genus window, and
the textbook digit-vector product in GF(p^k) and the field of a chosen
modulus."""

import functools
import importlib.util
import json
import math
import os
from fractions import Fraction

from towerlab.ffield import Adjoin, BivarPoly, FFPoly, _pdivmod, _pmul, _psub, make_field
from towerlab.checker import FamilyParams, build_family
from towerlab.basicfield import GenusResult
from towerlab.cli import parse_poly
from towerlab.errors import TowerlabError
from towerlab.omfactor.maclane import INF, Closed, _qval

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def bivar(field, d):
    """BivarPoly from {(i, j): int or FFElem}; ints are reduced mod p so that
    -1 means the additive inverse of one on every field."""
    return BivarPoly.from_coeff_dict(
        field,
        {k: (field.elem(v % field.p) if isinstance(v, int) else v) for k, v in d.items()},
    )


def unipoly(field, coeffs):
    return FFPoly(field, [field.elem(c % field.p) if isinstance(c, int) else c for c in coeffs])


def textbook_mul(F, a, b):
    """a*b from digit vectors: convolve, then reduce by the modulus."""
    p, k, mod = F.p, F.k, F.modulus
    conv = [0] * (2 * k - 1)
    for i, ai in enumerate(a.digits()):
        for j, bj in enumerate(b.digits()):
            conv[i + j] += ai * bj
    for top in range(2 * k - 2, k - 1, -1):
        c = conv[top] % p
        for i in range(k + 1):
            conv[top - k + i] -= c * mod[i]
    return F.elem([c % p for c in conv[:k]])


def modulus_field(p, modulus):
    """GF(p)[t]/(modulus) for a monic irreducible modulus of degree >= 2
    (coefficients low to high), built through Adjoin as places and MacLane
    stages build their residue fields."""
    K = make_field(p)
    return Adjoin(K, FFPoly(K, list(modulus))).field


def family_params(q):
    """The canonical family instance used throughout: a = 0, g = x + 1, and
    b = 1 except over GF(4) where b is the field generator."""
    if q == 2:
        K = F2
    elif q == 3:
        K = F3
    elif q == 4:
        K = F4
    elif q == 5:
        K = F5
    else:
        raise ValueError(q)
    b = K.gen() if q == 4 else K.one()
    return FamilyParams(q=q, a=K.zero(), b=b, g=unipoly(K, [1, 1]))


def family_F(q):
    return build_family(family_params(q)).F


# y^2 = x^3 + x over GF(5): ramifies exactly at x, x +- 2, infinity, genus 1
def elliptic5():
    return bivar(F5, {(0, 2): 1, (3, 0): -1, (1, 0): -1})


# y^3 = x(x+1)^2 over GF(5): tame everywhere, genus 0
def kummer5():
    return bivar(F5, {(0, 3): 1, (3, 0): -1, (2, 0): -2, (1, 0): -1})


# y = x over GF(2): the trivial degree-1 step, genus 0
def line2():
    return bivar(F2, {(0, 1): 1, (1, 0): 1})


# y^3 = x over GF(2): tame Kummer cover, genus 0
def cubic2():
    return bivar(F2, {(0, 3): 1, (1, 0): 1})


# y^2 = x^5 + 2x + 1 over GF(3): hyperelliptic, tame everywhere, genus 2
def hyper3():
    return bivar(F3, {(0, 2): 1, (5, 0): -1, (1, 0): -2, (0, 0): -1})


def bareiss_resultant_y(F: BivarPoly, G: BivarPoly) -> FFPoly:
    """Res_y(F, G) as a polynomial in x, via fraction-free (Bareiss)
    elimination of the Sylvester matrix.  With F of y-degree m and roots
    theta_i over an algebraic closure of GF(q)(x),

        Res_y(F, G) = lc_y(F)^deg(G) * prod_i G(x, theta_i).
    """
    if F.is_zero() or G.is_zero():
        raise ValueError("resultant of the zero polynomial")
    field = F.field
    m, n = F.deg_y(), G.deg_y()
    if m == 0 and n == 0:
        return FFPoly(field, [1])
    if m == 0:
        return F.ycoeff(0) ** n
    if n == 0:
        return G.ycoeff(0) ** m
    # the elimination runs on coefficient lists (see the kernels above)
    N = m + n
    rows = []
    frow = [F.ycoeff(m - i).ints for i in range(m + 1)]
    grow = [G.ycoeff(n - i).ints for i in range(n + 1)]
    for r in range(n):
        rows.append([[]] * r + frow + [[]] * (n - 1 - r))
    for r in range(m):
        rows.append([[]] * r + grow + [[]] * (m - 1 - r))
    sign = 1
    prev = [1]
    for col in range(N - 1):
        pivot = None
        for r in range(col, N):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return FFPoly(field, [])
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        a = top[col]
        for r in range(col + 1, N):
            row = rows[r]
            b = row[col]
            for c in range(col + 1, N):
                num = _psub(field, _pmul(field, a, row[c]), _pmul(field, b, top[c]))
                q, rem = _pdivmod(field, num, prev)
                if rem:
                    raise ValueError("division was not exact")
                row[c] = q
            row[col] = []
        prev = a
    det = rows[N - 1][N - 1]
    return FFPoly._of(field, det if sign == 1 else _psub(field, [], det))


@functools.cache
def bench_workloads():
    """bench/workloads.py, loaded once by path: bench is not a package."""
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_pool():
    """The sweep benchmark's pool curves (bench/goldens.json) and its pinned
    degree-10 curve over GF(5)."""
    workloads = bench_workloads()
    with open(os.path.join(BENCH, "goldens.json")) as fh:
        specs = json.load(fh)["sweep"]["pool"] + [workloads.PINNED]
    return [workloads.make_curve(spec) for spec in specs]


def cli_report_curves():
    """The curves of the ten report jobs of bench/workloads.CLI_JOBS."""
    fam = "(x+1)*y^3+(x+1)*y+x^3"
    out = [
        parse_poly(fam, F2),
        parse_poly("y^2-x^3-x", make_field(5)),
        parse_poly("y^2+x", F4),
    ]
    for K, b in [(F2, F2.one()), (F4, F4.gen())]:
        params = FamilyParams(q=K.order, a=K.zero(), b=b, g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out


def family_curves(qs=(2, 3, 4, 5, 7, 8, 9)):
    """The family with a = 0, b = 1 and g = x + 1 at each q."""
    out = []
    for q in qs:
        p = next(p for p in (2, 3, 5, 7) if q % p == 0)
        K = make_field(p, round(math.log(q, p)))
        params = FamilyParams(q=q, a=K.zero(), b=K.one(), g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out


def _improve(V, H):
    """One more augmentation step along H from a terminal valuation; raises
    if the step is not unique (which would mean V was not terminal)."""
    hits = [
        W for W, _, _, _ in V.augmentations(H)
        if isinstance(W, Closed) or W.projection(H) == 1
    ]
    if len(hits) != 1:
        raise TowerlabError("expected a unique refinement of a terminal valuation")
    W = hits[0].stage()
    if W.E != V.E or W.res_deg != V.res_deg:
        raise TowerlabError("terminal invariants changed during refinement")
    return W


def constant_term_exact_val(V, H, g):
    """The valuation of g at the place of the terminal stage V, improving V
    along H as needed; returns (value, final V).

    The value of the phi-expansion constant term is exact whenever it is the
    strict minimum among term values, because coefficients of degree below
    deg phi take their final values on a collapsed chain.  Each comparison
    reads certified values only; when neither side is certified, the
    precision is raised.
    """
    if g.is_zero():
        return INF, V
    for _ in range(200):
        if V.rel_n is None or g.degree() < V.phi.degree():
            return V.val(g), V
        ring = V.prec.ring
        loc, s = V.prec.local(g)
        terms = V._terms(loc.expand_in(V._key()))
        t0, rest, top = terms[0], min(terms[1:], default=INF), ring.N * V.E
        if t0 < top and t0 < rest:
            return _qval(t0 - s * V.E, V.E), V
        if rest < top and rest <= t0:
            V = _improve(V, H)
        else:
            # neither the constant term's value nor the rest is certified
            V.prec.raise_past(Fraction(V._bound(g), V.E) + s)
    raise TowerlabError("valuation did not stabilize")


def genus_window_by_list(lo, hi, m, bidegree):
    """The genus window of a degree-m curve with different degree in
    [lo, hi] and genus at most the bidegree bound, (m - 1)(deg_x F - 1):
    from the list of every feasible degree.  lo == hi stands for a table
    whose every d is exact, and an exact genus past the bidegree bound
    leaves no feasible degree."""
    if lo == hi and lo % 2:
        raise TowerlabError("odd different degree: engine bug")
    if lo == hi and lo < 2 * m - 2:
        raise TowerlabError("negative genus from exact differents: engine bug")
    feas = [
        D for D in range(lo, hi + 1)
        if D % 2 == 0 and 2 * m - 2 <= D <= 2 * bidegree + 2 * m - 2
    ]
    if not feas:
        raise TowerlabError("no feasible different degree: engine bug")
    g = (feas[0] - 2 * m + 2) // 2
    return GenusResult(
        genus=g, exact=(len(feas) == 1), diff_degree_bounds=(feas[0], feas[-1])
    )


def genus_by_search(S, q, g_cap):
    """The least genus g <= g_cap whose L-polynomial fits the point counts
    S[k] over GF(q^k), k = 1 .. max(2 g_cap, 1), or None, by the search over
    g that zeta_genus once ran: Newton's identities give the coefficients
    c_j of the L-polynomial's series, and g fits when c_1..c_2g are
    integral, c_(2g-j) = q^(g-j) c_j, and c_j = 0 for 2g < j."""
    kmax = max(2 * g_cap, 1)
    a = {k: q**k + 1 - S[k] for k in range(1, kmax + 1)}
    c = [Fraction(1)]
    for j in range(1, kmax + 1):
        c.append(-sum(a[i] * c[j - i] for i in range(1, j + 1)) / j)
    for g in range(g_cap + 1):
        if (
            all(cj.denominator == 1 for cj in c[1 : 2 * g + 1])
            and all(c[2 * g - j] == q ** (g - j) * c[j] for j in range(g + 1))
            and not any(c[2 * g + 1 :])
        ):
            return g
    return None
