"""Irreducibility of bivariate polynomials as polynomials in y over GF(q)(x).

Route: trivial degree and y-divisibility checks, then Frobenius stripping
for inseparable inputs, then a scan for a generalized-Eisenstein place
(cheap certificate), then a squarefree check (a point xi of GF(q) where
F(xi, y) keeps its degree and is squarefree certifies it; the Euclidean
algorithm over K(x) runs only without one), and finally a complete
factor-reconstruction test: pick a squarefree specialization x = xi
(extending the constant field when every candidate xi is degenerate),
factor F(xi, y), Hensel-lift the factorization (xi+t)-adically, and try to
reconstruct a true factor from every subset of the lifted factors with
exact trial division.  No subset reconstructs a factor iff F is
irreducible.

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
    embed,
    make_field,
    poly_factor,
    qth_root,
)
from ..ratfunc import RatFunc, RatPlace
from .places import eisenstein_at, squarefree_point
from .ypoly import YPoly


def _poly_pth_root(f: FFPoly, p: int) -> FFPoly | None:
    """g with g^p = f, or None.  Constant-field roots always exist (the
    field is perfect); only exponent divisibility can fail."""
    if f.is_zero():
        return f
    coeffs = []
    for j in range(0, f.degree() + 1):
        c = f.coeff(j)
        if j % p:
            if not c.is_zero():
                return None
        else:
            coeffs.append(qth_root(c, p))
    g = FFPoly(f.field, coeffs)
    if (g**p - f).is_zero():
        return g
    return None


def _rat_pth_power(r: RatFunc, p: int) -> bool:
    """Is r a p-th power in GF(q)(x)?  Scalars from the perfect constant
    field never obstruct, so only the monic parts matter."""
    if r.num.is_zero():
        return True
    num = r.num.monic()
    den = r.den.monic()
    return _poly_pth_root(num, p) is not None and _poly_pth_root(den, p) is not None


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
    return FFPoly(f.field, [f.coeff(i) for i in range(N)])


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


def _poly_xgcd(a: FFPoly, b: FFPoly):
    """(g, s, t) with s*a + t*b = g monic = gcd(a, b), over any FiniteField."""
    fld = a.field
    r0, r1 = a, b
    s0, s1 = FFPoly(fld, [1]), FFPoly(fld, [])
    t0, t1 = FFPoly(fld, []), FFPoly(fld, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lc = r0.lc()
    inv = lc.inverse()
    scale = FFPoly(fld, [inv])
    return r0 * scale, s0 * scale, t0 * scale


class _YSeries:
    """Polynomial in y whose coefficients are truncated power series in t
    (FFPoly in t mod t^N).  Just enough arithmetic for Hensel lifting."""

    __slots__ = ("field", "N", "cs")

    def __init__(self, field, N, cs):
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.N = N
        self.cs = cs

    @classmethod
    def from_ypoly(cls, f: FFPoly, field, N):
        # f is a plain y-polynomial over the field; constant series coeffs
        return cls(field, N, [FFPoly(field, [f.coeff(i)]) for i in range(f.degree() + 1)])

    def deg(self):
        return len(self.cs) - 1

    def coeff(self, i) -> FFPoly:
        if 0 <= i < len(self.cs):
            return self.cs[i]
        return FFPoly(self.field, [])

    def mul(self, other: "_YSeries") -> "_YSeries":
        if not self.cs or not other.cs:
            return _YSeries(self.field, self.N, [])
        out = [FFPoly(self.field, []) for _ in range(len(self.cs) + len(other.cs) - 1)]
        for i, a in enumerate(self.cs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.cs):
                if b.is_zero():
                    continue
                out[i + j] = _trunc(out[i + j] + a * b, self.N)
        return _YSeries(self.field, self.N, out)

    def sub(self, other: "_YSeries") -> "_YSeries":
        n = max(len(self.cs), len(other.cs))
        out = [self.coeff(i) - other.coeff(i) for i in range(n)]
        return _YSeries(self.field, self.N, out)

    def add_tk_times(self, k: int, g: FFPoly) -> "_YSeries":
        """self + t^k * g(y), g a plain y-polynomial."""
        tk = FFPoly(self.field, [0] * k + [1])
        n = max(len(self.cs), g.degree() + 1)
        out = []
        for i in range(n):
            c = self.coeff(i)
            if i <= g.degree():
                gi = g.coeff(i)
                if not gi.is_zero():
                    c = _trunc(c + tk * FFPoly(self.field, [gi]), self.N)
            out.append(c)
        return _YSeries(self.field, self.N, out)

    def t_coeff(self, k: int) -> FFPoly:
        """Coefficient of t^k, as a plain y-polynomial."""
        return FFPoly(self.field, [c.coeff(k) for c in self.cs])

    def at_t0(self) -> FFPoly:
        return self.t_coeff(0)


def _hensel_pair(F: _YSeries, G0: FFPoly, H0: FFPoly) -> tuple["_YSeries", "_YSeries"]:
    """F monic in y; G0*H0 = F(t=0) monic coprime.  Lift to F = G*H mod t^N."""
    field, N = F.field, F.N
    g, s, t = _poly_xgcd(G0, H0)
    if g.degree() != 0:
        raise TowerlabError("Hensel lift needs coprime cofactors")
    G = _YSeries.from_ypoly(G0, field, N)
    H = _YSeries.from_ypoly(H0, field, N)
    for k in range(1, N):
        E = F.sub(G.mul(H))
        e_k = E.t_coeff(k)
        if e_k.is_zero():
            continue
        # solve dG*H0 + dH*G0 = e_k with deg dG < deg G0
        q, dG = divmod(t * e_k, G0)
        dH = s * e_k + q * H0
        G = G.add_tk_times(k, dG)
        H = H.add_tk_times(k, dH)
    return G, H


def _hensel_tree(F: _YSeries, factors: list[FFPoly]) -> list["_YSeries"]:
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
    G, H = _hensel_pair(F, G0, H0)
    return _hensel_tree(G, A) + _hensel_tree(H, B)


def _find_specialization(F: BivarPoly):
    """(K, xi) with lc(xi) != 0 and F(xi, y) squarefree over K."""
    base = F.field
    for s in range(1, 7):
        K = base if s == 1 else make_field(base.p, base.k * s)
        xi = squarefree_point(F, K)
        if xi is not None:
            return K, xi
    raise TowerlabError("no squarefree specialization found")


def _subfield_map(K: FiniteField, base: FiniteField) -> dict:
    return {embed(b, K): b for b in base.elements()}


def _reconstruct_subsets(F: BivarPoly) -> bool:
    """True iff F (separable, y-free content, deg_y >= 2) is irreducible,
    by Hensel factor reconstruction."""
    base = F.field
    m = F.deg_y()
    lc = F.ycoeff(m)
    B = F.deg_x() + lc.degree()
    N = B + 2
    K, xi = _find_specialization(F)
    fy = FFPoly(K, [F.ycoeff(j).eval(xi) for j in range(m + 1)])
    fac = poly_factor(fy)
    if len(fac) == 1 and fac[0][1] == 1:
        return True
    if any(mult != 1 for _, mult in fac):
        raise TowerlabError("specialization was not squarefree")
    factors = [g for g, _ in fac]
    if len(factors) > 16:
        raise TowerlabError("too many modular factors to reconstruct")
    # monic series model: Fmon = F(xi+t, y) / lc(xi+t)
    lct = _taylor_shift(lc, K, xi)
    lct_inv = _series_inv(lct, N)
    cs = []
    for j in range(m + 1):
        cj = _taylor_shift(F.ycoeff(j), K, xi)
        cs.append(_trunc(cj * lct_inv, N))
    Fmon = _YSeries(K, N, cs)
    lifted = _hensel_tree(Fmon, factors)
    back = _subfield_map(K, base)
    Fy = YPoly.from_bivar(F)
    idx = range(len(factors))
    for r in range(1, len(factors) // 2 + 1):
        for S in itertools.combinations(idx, r):
            prod = _YSeries.from_ypoly(FFPoly(K, [1]), K, N)
            for i in S:
                prod = prod.mul(lifted[i])
            # candidate = lc(t) * prod must be polynomial of t-degree <= B
            cand_cs = []
            ok = True
            for c in prod.cs:
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
    test is complete: Eisenstein places give a fast certificate when one
    exists, and Hensel factor reconstruction settles every other case.
    """
    m = F.deg_y()
    if m <= 0:
        return False
    if m == 1:
        return True
    if F.ycoeff(0).is_zero():
        return False
    if F.derivative_y().is_zero():
        G, k = _strip_frobenius(F)
        if not is_irreducible_over_ratfield(G):
            return False
        # G(y^{p^k}) irreducible iff not all coefficients of the monic
        # normalization are p-th powers
        p = F.field.p
        Gy = YPoly.from_bivar(G).monic()
        return not all(_rat_pth_power(c, p) for c in Gy.coeffs)
    for P in [RatPlace.infinity(F.field)] + [
        RatPlace.finite(FFPoly(F.field, [a, F.field.one()]))
        for a in F.field.elements()
    ]:
        if eisenstein_at(F, P):
            return True
    if squarefree_point(F, F.field) is None:
        Fy = YPoly.from_bivar(F)
        if Fy.gcd(Fy.derivative()).degree() > 0:
            return False
    return _reconstruct_subsets(F)
