"""Irreducibility of bivariate polynomials as polynomials in y over GF(q)(x).

Route: trivial degree and y-divisibility checks, then Frobenius stripping
for inseparable inputs, then a scan for a generalized-Eisenstein place
(cheap certificate), then a squarefree check (a point xi of GF(q) where
F(xi, y) keeps its degree and is squarefree certifies it; the Euclidean
algorithm over K(x) runs only without one), then Musser's degree analysis
(another cheap certificate), and finally a complete factor-reconstruction
test: factor F(xi, y) at a squarefree specialization x = xi, Hensel-lift
the factorization (xi+t)-adically, and try to reconstruct a true factor
from every subset of the lifted factors with exact trial division.  No
subset reconstructs a factor iff F is irreducible.

Degree analysis (Musser, "On the efficiency of a polynomial irreducibility
test", JACM 1978): a factor of F of y-degree k over K(x) specializes to a
factor of degree k of F(xi, y) at every good point xi, so k is a sum of
the degrees of some irreducible factors of F(xi, y).  The test walks the
points of GF(q) in order (at most q of them), factors F(xi, y) at each
good one and intersects those subset sums; once no 0 < k < m is left, F is
irreducible.  Otherwise the reconstruction starts from the good point with
the fewest factors, and only when GF(q) has no good point does it look for
one in extensions of the constant field.

The test does not always decide.  `_reconstruct_subsets` raises
TowerlabError when F(xi, y) has more than 16 modular factors (the subset
search would be exponential) and when the specialization it factors turns
out not to be squarefree; `_find_specialization` raises it when no
squarefree specialization exists in the extensions it tries.  The CLI
treats such a raise as undecided: it does not refuse F, and leaves it to
the engine, whose exact genus check still catches a reducible F.
"""

from __future__ import annotations

import itertools

from ..errors import TowerlabError
from ..ffield import (
    FFElem,
    FFPoly,
    FiniteField,
    BivarPoly,
    _pxgcd,
    embed,
    make_field,
    poly_factor,
)
from ..ratfunc import RatFunc, RatPlace
from .places import (
    curve_dy,
    curve_monic,
    curve_point,
    curve_squarefree,
    eisenstein_at,
    squarefree_point,
)
from .ypoly import YPoly


def _rat_pth_power(r: RatFunc) -> bool:
    """Is r a p-th power in GF(q)(x)?  Over the perfect field GF(q) a
    polynomial is a p-th power iff its derivative vanishes, and num/den is
    in lowest terms."""
    return r.num.derivative().is_zero() and r.den.derivative().is_zero()


def _strip_frobenius(F: BivarPoly) -> tuple[BivarPoly, int]:
    """(G, k) with F(x, y) = G(x, y^{p^k}) and G separable in y."""
    p = F.field.p
    k = 0
    while F.derivative_y().is_zero() and F.deg_y() > 0:
        ycoeffs = {}
        for j in range(0, F.deg_y() + 1, p):
            c = F.ycoeff(j)
            if not c.is_zero():
                ycoeffs[j // p] = c
        F = BivarPoly.from_coeff_dict(
            F.field, {(i, j): c.coeff(i) for j, c in ycoeffs.items() for i in range(c.degree() + 1)}
        )
        k += 1
    return F, k


def _taylor_shift(c: FFPoly, target: FiniteField, a: FFElem) -> FFPoly:
    """c(t + a) as a polynomial in t over target (coefficients embedded)."""
    cc = c.map_field(target)
    t_plus_a = FFPoly(target, [a, target.one()])
    out = FFPoly(target, [])
    for j in range(cc.degree(), -1, -1):
        out = out * t_plus_a + FFPoly(target, [cc.coeff(j)])
    return out


def _trunc(f: FFPoly, N: int) -> FFPoly:
    if f.degree() < N:
        return f
    return FFPoly(f.field, f.ints[:N])


def _series_inv(f: FFPoly, N: int) -> FFPoly:
    """Inverse of f mod t^N (f(0) != 0), by Newton doubling."""
    c0 = f.coeff(0)
    if c0.is_zero():
        raise ZeroDivisionError("series with zero constant term")
    one = FFPoly(f.field, [f.field.one()])
    g = FFPoly(f.field, [c0.inverse()])
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        g = _trunc(g + g * (one - _trunc(f, prec) * g), prec)
    return g


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


def _find_specialization(F: BivarPoly, first: int = 1) -> FFElem:
    """xi with lc(xi) != 0 and F(xi, y) squarefree, in the smallest of
    GF(q^s), s = first, ..., 6, that has one."""
    base = F.field
    for s in range(first, 7):
        K = base if s == 1 else make_field(base.p, base.k * s)
        xi = squarefree_point(F, K)
        if xi is not None:
            return xi
    raise TowerlabError("no squarefree specialization found")


def _degree_analysis(F: BivarPoly, xi0: FFElem):
    """Musser's degree analysis over the good points of GF(q), walked in
    order from the first one, xi0.  None when the factor degrees there leave
    no proper factor degree, so F is irreducible; otherwise (xi, factors of
    F(xi, y)) at the good point with the fewest factors."""
    K, m = F.field, F.deg_y()
    left = set(range(1, m))
    best = None
    for v in range(xi0.v, K.order):
        xi = FFElem(K, v)
        fy = F.eval_x(xi)
        if fy.degree() != m:
            continue
        fac = poly_factor(fy)
        if any(mult != 1 for _, mult in fac):
            continue
        sums = {0}
        for g, _ in fac:
            sums |= {k + g.degree() for k in sums}
        left &= sums
        if not left:
            return None
        if best is None or len(fac) < len(best[1]):
            best = (xi, [g for g, _ in fac])
    return best


def _subfield_map(K: FiniteField, base: FiniteField) -> dict:
    return {embed(b, K): b for b in base.elements()}


def _reconstruct_subsets(F: BivarPoly, xi: FFElem | None = None, factors=None) -> bool:
    """True iff F (separable, y-free content, deg_y >= 2) is irreducible,
    by Hensel factor reconstruction from the specialization x = xi, whose
    irreducible factors are `factors`; both are found here when not given."""
    base = F.field
    m = F.deg_y()
    lc = F.ycoeff(m)
    B = F.deg_x() + lc.degree()
    N = B + 2
    if xi is None:
        xi = _find_specialization(F)
    if factors is None:
        fac = poly_factor(F.eval_x(xi))
        if any(mult != 1 for _, mult in fac):
            raise TowerlabError("specialization was not squarefree")
        factors = [g for g, _ in fac]
    if len(factors) == 1:
        return True
    K = xi.field
    if len(factors) > 16:
        raise TowerlabError("too many modular factors to reconstruct")
    # monic series model: Fmon = F(xi+t, y) / lc(xi+t)
    lct = _taylor_shift(lc, K, xi)
    lct_inv = _series_inv(lct, N)
    cs = []
    for j in range(m + 1):
        cj = _taylor_shift(F.ycoeff(j), K, xi)
        cs.append(_trunc(cj * lct_inv, N))
    Fmon = BivarPoly(K, cs)
    lifted = _hensel_tree(Fmon, factors, N)
    back = _subfield_map(K, base)
    Fy = curve_monic(F)
    idx = range(len(factors))
    for r in range(1, len(factors) // 2 + 1):
        for S in itertools.combinations(idx, r):
            prod = lifted[S[0]]
            for i in S[1:]:
                prod = _trunc_t(prod * lifted[i], N)
            # candidate = lc(t) * prod must be polynomial of t-degree <= B
            cand_cs = []
            ok = True
            for c in prod.ycoeffs:
                cc = _trunc(c * lct, N)
                if cc.degree() > B:
                    ok = False
                    break
                cand_cs.append(cc)
            if not ok:
                continue
            # back to x and down to the base field
            coeff_dict = {}
            for j, cc in enumerate(cand_cs):
                cx = _taylor_shift(cc, K, -xi)
                for i in range(cx.degree() + 1):
                    a = cx.coeff(i)
                    if a.is_zero():
                        continue
                    b = back.get(a)
                    if b is None:
                        ok = False
                        break
                    coeff_dict[(i, j)] = b
                if not ok:
                    break
            if not ok or not coeff_dict:
                continue
            C = BivarPoly.from_coeff_dict(base, coeff_dict)
            Cy = YPoly.from_bivar(C)
            if Cy.degree() < 1:
                continue
            if (Fy % Cy).is_zero():
                return False
    return True


def is_irreducible_over_ratfield(F: BivarPoly) -> bool:
    """Is F irreducible as a polynomial in y over the field GF(q)(x)?

    Content in GF(q)[x] is a unit for this question and is ignored.  The
    test is complete: Eisenstein places and degree analysis give fast
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
        G, k = _strip_frobenius(F)
        if not is_irreducible_over_ratfield(G):
            return False
        # G(y^{p^k}) irreducible iff not all coefficients of the monic
        # normalization are p-th powers
        return not all(_rat_pth_power(c) for c in curve_monic(G).coeffs)
    for P in [RatPlace.infinity(F.field)] + [
        RatPlace.finite(FFPoly(F.field, [a, F.field.one()]), certified=True)
        for a in F.field.elements()
    ]:
        if eisenstein_at(F, P):
            return True
    if not curve_squarefree(F):
        return False
    xi = curve_point(F)
    if xi is None:
        return _reconstruct_subsets(F, _find_specialization(F, first=2))
    best = _degree_analysis(F, xi)
    return best is None or _reconstruct_subsets(F, *best)
