"""Irreducibility of bivariate polynomials as polynomials in y over GF(q)(x).

Route: trivial degree and y-divisibility checks, then Frobenius stripping
for inseparable inputs, then the generalized-Eisenstein test at infinity
(a cheap certificate, which settles the wild-tower family at every q),
then a squarefree check (a good point xi of GF(q), where F(xi, y)
keeps its degree and is squarefree, certifies it; without one a nonzero
discriminant Res_y(F, F_y) does), then Musser's degree
analysis (another cheap certificate), and finally a complete
factor-reconstruction test: factor F(xi, y) at a good point x = xi,
Hensel-lift the factorization to O_P/P^N[y], P = x - xi (the
ratfunc.LocalRing the MacLane engine computes in), and try to reconstruct
a true factor from every subset of the lifted factors with exact trial
division.  No subset reconstructs a factor iff F is irreducible.  Every
fibre F(xi, y) comes from `places.curve_fibres`, so no step here evaluates
a fibre, checks that it is squarefree or walks a field for one.

Degree analysis (Musser, "On the efficiency of a polynomial irreducibility
test", JACM 1978): a factor of F of y-degree k over K(x) specializes to a
factor of degree k of F(xi, y) at every good point xi, so k is a sum of
the degrees of some irreducible factors of F(xi, y).  The test walks the
good points of GF(q) in order (at most MAX_FIBRES of them), reads each fibre's
factor degrees off its distinct-degree factorization and intersects those
subset sums; once no 0 < k < m is left, F is irreducible.  Otherwise the
reconstruction factors the fibre with the fewest factors.  Without a good
point in GF(q), curve_fibres yields the one fibre both steps use: the first
good fibre of the smallest extension that has one.

The test answers, or refuses its work with BudgetExceeded: a good-point
walk or a split predicted past ffield.WORK_BUDGET, or a subset search over
more than 16 modular factors, which would be exponential.
"""

from __future__ import annotations

import itertools
import math

from ..errors import TowerlabError
from ..ffield import (
    BudgetExceeded,
    FFElem,
    FFPoly,
    BivarPoly,
    _ddf,
    _embed_ints,
    _ptaylor,
    _pxgcd,
    poly_factor,
)
from ..ratfunc import RatFunc, RatPlace
from .places import curve_dy, curve_fibres, curve_monic, curve_squarefree, eisenstein_at
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


def _hensel_pair(F: YPoly, G0: FFPoly, H0: FFPoly) -> tuple[YPoly, YPoly]:
    """F monic in y over R = K[[t]]/(t^N); G0*H0 = F(0, y) monic coprime
    over K.  Lift to F = G*H over R."""
    R = F.field
    K = R.field
    # t*H0 + s*G0 = 1
    g, t = _pxgcd(K, H0.ints, G0.ints)
    if g != [1]:
        raise TowerlabError("Hensel lift needs coprime cofactors")
    t = FFPoly._of(K, t)
    s = (FFPoly(K, [1]) - t * H0).exact_div(G0)
    G = H = YPoly._of(R, ())
    dG, dH = G0, H0
    for k in range(R.N):
        if k:
            # F - G*H vanishes below t^k; solve dG*H0 + dH*G0 = e_k, its
            # coefficient of t^k, with deg dG < deg G0
            e_k = FFPoly(K, [c[k] if len(c) > k else 0 for c in (F - G * H).coeffs])
            q, dG = divmod(t * e_k, G0)
            dH = s * e_k + q * H0
        G = G + YPoly._of(R, tuple(R.embed(k, [c]) for c in dG.ints))
        H = H + YPoly._of(R, tuple(R.embed(k, [c]) for c in dH.ints))
    return G, H


def _hensel_tree(F: YPoly, factors: list[FFPoly]) -> list[YPoly]:
    if len(factors) == 1:
        return [F]
    half = len(factors) // 2
    A, B = factors[:half], factors[half:]
    G, H = _hensel_pair(F, math.prod(A), math.prod(B))
    return _hensel_tree(G, A) + _hensel_tree(H, B)


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


def _subset_products(lifted: list[YPoly], r: int, start: int = 0, prefix=None):
    """The products of the r-subsets of lifted[start:], each times prefix,
    in the order of itertools.combinations: a depth-first walk that forms
    each product from its prefix's, one product per step."""
    for i in range(start, len(lifted) - r + 1):
        prod = lifted[i] if prefix is None else prefix * lifted[i]
        if r == 1:
            yield prod
        else:
            yield from _subset_products(lifted, r - 1, i + 1, prod)


def _reconstruct_subsets(F: BivarPoly, xi: FFElem, fy: FFPoly) -> bool:
    """True iff F (separable, y-free content, deg_y >= 2) is irreducible,
    by Hensel factor reconstruction from the good point x = xi with fibre
    fy = F(xi, y), which is factored here."""
    base = F.field
    lc = F.ycoeff(F.deg_y())
    B = F.deg_x() + lc.degree()
    factors = [g for g, _ in poly_factor(fy)]
    if len(factors) == 1:
        return True
    K = xi.field
    if len(factors) > 16:
        raise BudgetExceeded(f"subset search over {len(factors)} modular factors, past the limit of 16")
    # the series ring K[[t]]/(t^N), t = x - xi, N = B + 2, and F's monic
    # model and leading coefficient in it
    R = RatPlace.finite(FFPoly._of(K, [K._neg(xi.v), 1]), certified=True).local(B + 2)
    FK = F if K is base else F.map_field(K)
    lifted = _hensel_tree(curve_monic(FK).local(R)[0], factors)
    lct = R.embed(*R.split(RatFunc(FK.ycoeff(FK.deg_y()))))
    # a fibre over an extension (used only when GF(q) has no good point, so
    # q <= deg(lc * disc)) maps the base field's encodings back
    back = None
    if K is not base:
        back = dict(zip(_embed_ints(base, K, list(range(base.order))), range(base.order)))
    Fy = curve_monic(F)
    for r in range(1, len(factors) // 2 + 1):
        for prod in _subset_products(lifted, r):
            # candidate = lc(t) * prod must be polynomial of t-degree <= B,
            # back in x and with coefficients in the base field
            cand = []
            for c in prod.coeffs:
                cc = R.mul(c, lct)
                if len(cc) > B + 1:
                    break
                v, u = _ptaylor(K, cc, K._neg(xi.v), len(cc)) if cc else (0, [])
                cx = [0] * v + u
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
    best = _degree_analysis(F, itertools.islice(curve_fibres(F), MAX_FIBRES))
    return best is None or _reconstruct_subsets(F, *best)
