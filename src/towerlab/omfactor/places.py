"""Places of the basic field K(x,y) above a place of K(x) (or of K(y)).

places_above drives the inductive-valuation decomposition on a monic
integral model of the defining polynomial and packages each terminal
valuation as a PlaceExt: ramification index, residue degree, refinement
levels, and different-exponent bounds.

The integral model at P replaces y by z = y * pi^M, with M just large
enough that H(z) = pi^{mM} * (F/lc)(x, z/pi^M) has P-integral coefficients.
This neither moves the places nor changes e, f, or the different exponent
(K(x)(z) is the same field), it only shifts valuations of y-expressions:
nu(y) = nu(z) - M*e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from ..errors import TowerlabError
from ..ffield import BivarPoly, FFPoly, FiniteField, poly_gcd
from ..ratfunc import RatFunc, RatPlace
from .maclane import INF, Inseparable, StageVal, decompose, exact_val
from .newton import newton_polygon
from .ypoly import YPoly


class _Handle:
    """Mutable engine state behind a PlaceExt: the integral model and the
    (improvable) terminal valuation."""

    __slots__ = ("place", "side", "H", "M", "pi", "V")

    def __init__(self, place, side, H, M, pi, V):
        self.place = place
        self.side = side
        self.H = H
        self.M = M
        self.pi = pi
        self.V = V

    def val_ypoly(self, g: YPoly):
        """Exact normalized valuation of g(x, z) mod H."""
        g = g % self.H
        if g.is_zero():
            return INF
        v, self.V = exact_val(self.V, self.H, g)
        if v == INF:
            return INF
        nv = Fraction(v) * self.V.E
        if nv.denominator != 1:
            raise TowerlabError("valuation outside the value group")
        return int(nv)

    def val_bivar(self, G: BivarPoly):
        """Exact normalized valuation of G(x, y), restated in the z model."""
        if self.side == "y":
            G = G.swap_xy()
        g = YPoly.from_bivar(G)
        if self.M:
            g = g.subst_scaled(self.pi ** (-self.M))
        return self.val_ypoly(g)


@dataclass(frozen=True)
class PlaceExt:
    """A place Q of the basic field above the rational place `base`.

    refinement records the Newton-polygon decisions that isolate Q: each
    level is (key polynomial, segment slope, residual factor), all as
    strings/Fractions suitable for reports.  dmin <= d(Q|P) <= dmax with
    d_exact set when the bounds collapse: a tame place (p does not divide e)
    has d = e - 1 exactly, a wild one dmin = e and dmax = nu_Q(H'(z)) on the
    monic integral model, the monogenic-generator bound.
    """

    base: RatPlace
    side: str
    e: int
    f: int
    dmin: int
    dmax: int
    d_exact: int | None
    refinement: tuple
    _handle: _Handle = dc_field(compare=False, repr=False)

    def valuation_of(self, G) -> int | float:
        """nu_Q of a bivariate polynomial (or YPoly in the model variable),
        normalized so nu_Q(K(x)^*) = e * Z."""
        if isinstance(G, BivarPoly):
            return self._handle.val_bivar(G)
        return self._handle.val_ypoly(G)

    def residue_degree_abs(self) -> int:
        """Degree of the residue field of Q over the constant field."""
        return self.f * self.base.degree()

    def __str__(self):
        chain = "; ".join(
            f"key {k}, slope {s if s is not None else 'inf'}, residual {r}"
            for k, s, r in self.refinement
        )
        return (
            f"place above {self.base!r} [{self.side}-side]: e={self.e} f={self.f} "
            f"d in [{self.dmin},{self.dmax}] via {chain}"
        )


def monic_integral_model(F: BivarPoly, P: RatPlace):
    """(H, M, pi): H monic in z with P-integral coefficients, z = y*pi^M."""
    Fy = YPoly.from_bivar(F)
    G = Fy.monic()
    m = G.degree()
    pi = P.uniformizer()
    M = 0
    for j in range(m):
        aj = G.coeff(j)
        if aj.is_zero():
            continue
        v = P.valuation(aj)
        if v < 0:
            # z = y*pi^M makes coefficient j pick up valuation (m-j)*M
            M = max(M, math.ceil(Fraction(-v, m - j)))
    if M:
        H = G.subst_scaled(pi ** (-M)) * pi ** (m * M)
    else:
        H = G
    for c in H.coeffs:
        if not c.is_zero() and P.valuation(c) < 0:
            raise TowerlabError("integral model transform failed")
    return H, M, pi


def places_above(
    F: BivarPoly, P: RatPlace, side: str = "x", max_depth: int = 8
) -> list[PlaceExt]:
    """All places of K(x,y) (defined by F irreducible separable in y) above
    the place P of K(x); side='y' reads F as a polynomial in x over K(y).

    Raises Inseparable when F is not separable and squarefree in the chosen
    variable, DepthExceeded when refinement exceeds max_depth levels.
    """
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    if side == "y":
        F = F.swap_xy()
    if F.deg_y() < 1:
        raise ValueError("defining polynomial has degree 0 in the extension variable")
    if P.field != F.field:
        raise ValueError("place and polynomial over different constant fields")
    if F.derivative_y().is_zero():
        raise Inseparable("defining polynomial is inseparable (derivative vanishes)")
    if squarefree_point(F, F.field) is None:
        G = YPoly.from_bivar(F)
        if G.gcd(G.derivative()).degree() > 0:
            raise Inseparable("defining polynomial is not squarefree in y")
    H, M, pi = monic_integral_model(F, P)
    p = F.field.p
    Hd = H.derivative()
    out = []
    for V, levels in decompose(P, H, max_depth=max_depth):
        handle = _Handle(P, side, H, M, pi, V)
        e = V.E
        f = V.res_deg
        if e % p:
            dmin = dmax = e - 1
            d_exact = e - 1
        else:
            dmin = e
            dmax = handle.val_ypoly(Hd)
            if dmax == INF:
                raise TowerlabError("derivative vanishes at a place of a separable polynomial")
            d_exact = dmax if dmax == dmin else None
        out.append(
            PlaceExt(
                base=P,
                side=side,
                e=e,
                f=f,
                dmin=dmin,
                dmax=dmax,
                d_exact=d_exact,
                refinement=levels,
                _handle=handle,
            )
        )
    total = sum(pl.e * pl.f for pl in out)
    if total != F.deg_y():
        raise TowerlabError("fundamental equality violated in places_above")
    return out


def squarefree_point(F: BivarPoly, K: FiniteField):
    """The first xi in K (an extension of F's field) at which F(xi, y) keeps
    degree deg_y F and is squarefree, or None.

    Such a point certifies F squarefree and separable in y over K(x): by
    Gauss's lemma a square factor A^2 of F can be taken in K[x][y], and
    where lc_y F does not vanish neither does lc_y A, so A(xi, y) keeps its
    positive degree and its square divides F(xi, y).  None decides nothing:
    y^2 - (x^5 - x) over GF(5) is squarefree but is y^2 at every point.
    """
    m = F.deg_y()
    for xi in K.elements():
        fy = FFPoly(K, [c.eval(xi) for c in F.ycoeffs])
        if fy.degree() != m:
            continue
        d = fy.derivative()
        if not d.is_zero() and poly_gcd(fy, d).degree() == 0:
            return xi
    return None


def eisenstein_at(F: BivarPoly, P: RatPlace, side: str = "x") -> bool:
    """Generalized Eisenstein test: the Newton polygon of the monic-
    normalized F at P is one segment of length m = deg F whose slope has
    denominator m in lowest terms.  True certifies F irreducible over K(x)
    with P totally ramified."""
    if side == "y":
        F = F.swap_xy()
    G = YPoly.from_bivar(F).monic()
    m = G.degree()
    if m < 1:
        return False
    pts = {}
    for i, c in enumerate(G.coeffs):
        if not c.is_zero():
            pts[i] = P.valuation(c)
    if 0 not in pts:
        return False  # y divides F
    segs = newton_polygon(pts.items())
    if len(segs) != 1:
        return False
    seg = segs[0]
    return seg.length == m and Fraction(seg.slope).denominator == m
