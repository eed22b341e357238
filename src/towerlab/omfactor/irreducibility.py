"""Irreducibility of bivariate polynomials as polynomials in y over GF(q)(x).

Route: trivial degree and y-divisibility checks, then Frobenius stripping
for inseparable inputs, then the generalized-Eisenstein test at infinity
(a cheap certificate, which settles the wild-tower family at every q),
then a squarefree check (a good point xi of GF(q), where F(xi, y)
keeps its degree and is squarefree, certifies it; without one a nonzero
discriminant Res_y(F, F_y) does), then Musser's degree
analysis (another cheap certificate), and finally a complete
factor-reconstruction test: factor F(xi, y) at a good point x = xi,
Hensel-lift the factorization (xi+t)-adically, and try to reconstruct a
true factor from every subset of the lifted factors with exact trial
division.  No subset reconstructs a factor iff F is irreducible.  Every
fibre F(xi, y) comes from `places.good_points`, so no step here evaluates
a fibre or checks that it is squarefree.

Degree analysis (Musser, "On the efficiency of a polynomial irreducibility
test", JACM 1978): a factor of F of y-degree k over K(x) specializes to a
factor of degree k of F(xi, y) at every good point xi, so k is a sum of
the degrees of some irreducible factors of F(xi, y).  The test walks the
good points of GF(q) in order (at most MAX_FIBRES of them), reads each fibre's
factor degrees off its distinct-degree factorization and intersects those
subset sums; once no 0 < k < m is left, F is irreducible.  Otherwise the
reconstruction factors the fibre with the fewest factors.  Without a good
point in GF(q), the first one of the smallest extension that has one is used.

The test does not always decide.  `_reconstruct_subsets` raises
TowerlabError when F(xi, y) has more than 16 modular factors (the subset
search would be exponential), and `_find_specialization` raises it when no
good point exists in the extensions it tries.  The CLI treats such a raise
as undecided: it does not refuse F, and leaves it to the engine, whose
exact genus check still catches a reducible F.
"""

from __future__ import annotations

import itertools

from ..errors import TowerlabError
from ..ffield import (
    FFElem,
    FFPoly,
    FiniteField,
    BivarPoly,
    _ddf,
    _embed_ints,
    _pseries_inv,
    _ptaylor,
    _pxgcd,
    make_field,
    poly_factor,
)
from ..ratfunc import RatFunc, RatPlace
from .places import (
    curve_dy,
    curve_fibres,
    curve_monic,
    curve_point,
    curve_squarefree,
    eisenstein_at,
    good_points,
)
from .ypoly import YPoly

# The most fibres the degree analysis reads.  No fibre rules out every factor
# degree of a reducible F, so an uncapped walk runs through all of GF(q);
# Musser found a handful enough, and 8 still walks all of GF(q) for q <= 8.
MAX_FIBRES = 8


def _rat_pth_power(r: RatFunc) -> bool:
    """Is r a p-th power in GF(q)(x)?  Over the perfect field GF(q) a
    polynomial is a p-th power iff its derivative vanishes, and num/den is
    in lowest terms."""
    return r.num.derivative().is_zero() and r.den.derivative().is_zero()


def _taylor_shift(c: FFPoly, target: FiniteField, a: FFElem) -> FFPoly:
    """c(t + a) as a polynomial in t over target (coefficients embedded)."""
    if c.is_zero():
        return c.map_field(target)
    v, u = _ptaylor(target, c.map_field(target).ints, a.v, c.degree() + 1)
    return FFPoly._of(target, [0] * v + u)


def _trunc(f: FFPoly, N: int) -> FFPoly:
    if f.degree() < N:
        return f
    return FFPoly(f.field, f.ints[:N])


def _trunc_t(F: BivarPoly, N: int) -> BivarPoly:
    """F(t, y) mod t^N: every y-coefficient truncated."""
    return BivarPoly(F.field, [_trunc(c, N) for c in F.ycoeffs])


def _times_tk(g: FFPoly, k: int) -> BivarPoly:
    """t^k * g(y) for a polynomial g in y."""
    return BivarPoly(g.field, [[0] * k + [c] for c in g.ints])


def _hensel_pair(F: BivarPoly, G0: FFPoly, H0: FFPoly, N: int) -> tuple[BivarPoly, BivarPoly]:
    """F(t, y) monic in y; G0*H0 = F(0, y) monic coprime.  Lift to
    F = G*H mod t^N."""
    field = F.field
    # t*H0 + s*G0 = 1
    g, t = _pxgcd(field, H0.ints, G0.ints)
    if g != [1]:
        raise TowerlabError("Hensel lift needs coprime cofactors")
    t = FFPoly._of(field, t)
    s = (FFPoly(field, [1]) - t * H0).exact_div(G0)
    G = _times_tk(G0, 0)
    H = _times_tk(H0, 0)
    for k in range(1, N):
        # only the coefficient of t^k is read, so the product is not truncated
        E = F - G * H
        e_k = FFPoly(field, [c.coeff(k) for c in E.ycoeffs])
        if e_k.is_zero():
            continue
        # solve dG*H0 + dH*G0 = e_k with deg dG < deg G0
        q, dG = divmod(t * e_k, G0)
        dH = s * e_k + q * H0
        G = G + _times_tk(dG, k)
        H = H + _times_tk(dH, k)
    return G, H


def _hensel_tree(F: BivarPoly, factors: list[FFPoly], N: int) -> list[BivarPoly]:
    if len(factors) == 1:
        return [F]
    half = len(factors) // 2
    A, B = factors[:half], factors[half:]
    G0 = A[0]
    for f in A[1:]:
        G0 = G0 * f
    H0 = B[0]
    for f in B[1:]:
        H0 = H0 * f
    G, H = _hensel_pair(F, G0, H0, N)
    return _hensel_tree(G, A, N) + _hensel_tree(H, B, N)


def _find_specialization(F: BivarPoly, first: int = 1) -> tuple[FFElem, FFPoly]:
    """The first good point (xi, F(xi, y)) of the smallest of GF(q^s),
    s = first, ..., 6, that has one."""
    base = F.field
    for s in range(first, 7):
        K = base if s == 1 else make_field(base.p, base.k * s)
        for point in good_points(F, K):
            return point
    raise TowerlabError("no squarefree specialization found")


def _degree_analysis(F: BivarPoly, points):
    """Musser's degree analysis over good points (xi, F(xi, y)), whose fibres
    good_points certifies squarefree, so `_ddf` gives their factor degrees
    without splitting them.  None when those leave no proper factor degree,
    so F is irreducible; else (xi, F(xi, y)) with the fewest factors."""
    left = set(range(1, F.deg_y()))
    best = None
    for xi, fy in points:
        degrees = []
        for g, d in _ddf(fy.field, fy.monic().ints):
            degrees += [d] * ((len(g) - 1) // d)
        sums = {0}
        for d in degrees:
            sums |= {k + d for k in sums}
        left &= sums
        if not left:
            return None
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), xi, fy)
    return best[1:]


def _reconstruct_subsets(F: BivarPoly, xi: FFElem | None = None, fy=None) -> bool:
    """True iff F (separable, y-free content, deg_y >= 2) is irreducible,
    by Hensel factor reconstruction from the good point x = xi with fibre
    fy = F(xi, y), which is factored here; the point is found here when
    not given."""
    base = F.field
    m = F.deg_y()
    lc = F.ycoeff(m)
    B = F.deg_x() + lc.degree()
    N = B + 2
    if xi is None:
        xi, fy = _find_specialization(F)
    factors = [g for g, _ in poly_factor(fy)]
    if len(factors) == 1:
        return True
    K = xi.field
    if len(factors) > 16:
        raise TowerlabError("too many modular factors to reconstruct")
    # monic series model: Fmon = F(xi+t, y) / lc(xi+t)
    lct = _taylor_shift(lc, K, xi)
    lct_inv = FFPoly._of(K, _pseries_inv(K, lct.ints, N))
    cs = []
    for j in range(m + 1):
        cj = _taylor_shift(F.ycoeff(j), K, xi)
        cs.append(_trunc(cj * lct_inv, N))
    Fmon = BivarPoly(K, cs)
    lifted = _hensel_tree(Fmon, factors, N)
    # a fibre over an extension (used only when GF(q) has no good point, so
    # q <= deg(lc * disc)) maps the base field's encodings back
    back = None
    if K is not base:
        back = dict(zip(_embed_ints(base, K, list(range(base.order))), range(base.order)))
    Fy = curve_monic(F)
    idx = range(len(factors))
    for r in range(1, len(factors) // 2 + 1):
        for S in itertools.combinations(idx, r):
            prod = lifted[S[0]]
            for i in S[1:]:
                prod = _trunc_t(prod * lifted[i], N)
            # candidate = lc(t) * prod must be polynomial of t-degree <= B,
            # back in x and with coefficients in the base field
            cand = []
            for c in prod.ycoeffs:
                cc = _trunc(c * lct, N)
                if cc.degree() > B:
                    break
                cx = _taylor_shift(cc, K, -xi).ints
                if back is not None:
                    cx = [back.get(a) for a in cx]
                    if None in cx:
                        break
                cand.append(FFPoly._of(base, cx))
            else:
                C = YPoly(base, cand)
                if C.degree() >= 1 and (Fy % C).is_zero():
                    return False
    return True


def is_irreducible_over_ratfield(F: BivarPoly) -> bool:
    """Is F irreducible as a polynomial in y over the field GF(q)(x)?

    Content in GF(q)[x] is a unit for this question and is ignored.  The
    test is complete: Eisenstein at infinity and degree analysis give fast
    certificates, and Hensel factor reconstruction settles every other
    case.
    """
    m = F.deg_y()
    if m <= 0:
        return False
    if m == 1:
        return True
    if F.ycoeff(0).is_zero():
        return False
    if curve_dy(F).is_zero():
        # F = G(x, y^p); G(y^p) is irreducible iff G is and not all
        # coefficients of its monic normalization are p-th powers
        G = BivarPoly(F.field, F.ycoeffs[:: F.field.p])
        if not is_irreducible_over_ratfield(G):
            return False
        return not all(_rat_pth_power(c) for c in curve_monic(G).coeffs)
    if eisenstein_at(F, RatPlace.infinity(F.field)):
        return True
    if not curve_squarefree(F):
        return False
    if curve_point(F) is None:
        points = [_find_specialization(F, first=2)]
    else:
        points = itertools.islice(curve_fibres(F), MAX_FIBRES)
    best = _degree_analysis(F, points)
    return best is None or _reconstruct_subsets(F, *best)
