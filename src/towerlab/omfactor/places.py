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

good_points is the one place that decides which fibres F(xi, y) certify
something: those that keep degree deg_y F and are squarefree.  The
squarefree certificate, Musser's degree analysis and the Hensel
reconstruction in omfactor.irreducibility all take their fibres from it,
and the degree analysis resumes the walk after the first good fibre, which
the record keeps.  The Eisenstein test reads the Newton polygon of F's own
coefficients.

The facts about F that do not depend on P are derived once per curve and
kept on F in its `ffield.CurveFacts` record: the y-derivative, the first
good point of GF(q) and its fibre, the squarefree verdict, the monic
y-model, the swapped curve for side='y', and the discriminant with its
factorization.  The curve_* readers below fill it at first use, so the
irreducibility test, the ramification locus and every places_above call on
the same F share one computation of each; the record takes no part in F's
equality and is freed with F.
"""

from __future__ import annotations

from ..errors import TowerlabError
from ..ffield import BivarPoly, FFElem, FiniteField, poly_factor, poly_gcd, resultant_y
from ..ratfunc import RatPlace
from ..record import Record
from .maclane import INF, Inseparable, decompose, exact_val
from .newton import newton_polygon
from .ypoly import YPoly


class _Handle:
    """Mutable engine state behind a PlaceExt: the integral model and the
    (improvable) terminal valuation.  V starts as the branch decompose
    returned; a branch closed by the theorem of the residual polynomial
    builds its terminal stage at the first valuation asked for."""

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
        v, self.V = exact_val(self.V.stage(), self.H, g)
        if v == INF:
            return INF
        nv = v * self.V.E
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


class PlaceExt(Record):
    """A place Q of the basic field above the rational place `base`.

    refinement records the Newton-polygon decisions that isolate Q: each
    level is (key polynomial, segment slope, residual factor), all as
    strings/Fractions suitable for reports.  dmin <= d(Q|P) <= dmax with
    d_exact set when the bounds collapse: a tame place (p does not divide e)
    has d = e - 1 exactly, a wild one dmin = e and dmax = nu_Q(H'(z)) on the
    monic integral model, the monogenic-generator bound.  The _Handle
    behind valuation_of takes no part in equality or the repr; it builds
    the place's terminal stage lazily, at the first valuation (a wild
    place's dmax, or valuation_of).
    """

    __slots__ = (
        "base", "side", "e", "f", "dmin", "dmax", "d_exact", "refinement",
        "_handle",
    )

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
    G = curve_monic(F)
    m = G.degree()
    # v_P of G's coefficient j is v_P(F_j) - v_P(lc_y F)
    vl = P.order(F.ycoeff(m))
    M = 0
    for j in range(m):
        c = F.ycoeff(j)
        if not c.is_zero():
            v = P.order(c) - vl
            if v < 0:
                # z = y*pi^M makes coefficient j pick up valuation (m-j)*M
                M = max(M, -(v // (m - j)))  # ceil(-v / (m - j))
    H = G
    if M:
        # coefficient j of pi^(mM) * G(z / pi^M) is G_j * pi^((m-j)M)
        H = YPoly(G.field, [P.scaled(c, (m - j) * M) for j, c in enumerate(G.coeffs)])
    return H, M, P.uniformizer()


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
        F = curve_swapped(F)
    if F.deg_y() < 1:
        raise ValueError("defining polynomial has degree 0 in the extension variable")
    if P.field != F.field:
        raise ValueError("place and polynomial over different constant fields")
    if curve_dy(F).is_zero():
        raise Inseparable("defining polynomial is inseparable (derivative vanishes)")
    if not curve_squarefree(F):
        raise Inseparable("defining polynomial is not squarefree in y")
    H, M, pi = monic_integral_model(F, P)
    p = F.field.p
    Hd = None  # H'(z), built for the first wild place
    out = []
    for V, levels in decompose(P, H, max_depth):
        handle = _Handle(P, side, H, M, pi, V)
        e = V.E
        f = V.res_deg
        if e % p:
            dmin = dmax = e - 1
            d_exact = e - 1
        else:
            dmin = e
            if Hd is None:
                Hd = H.derivative()
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


def good_points(F: BivarPoly, K: FiniteField, start: int = 0):
    """Yield (xi, F(xi, y)) for each xi in K (an extension of F's field), in
    encoding order from the encoding start on, at which the fibre keeps
    degree deg_y F and is squarefree.

    The first such point certifies F squarefree and separable in y over
    K(x): by Gauss's lemma a square factor A^2 of F can be taken in
    K[x][y], and where lc_y F does not vanish neither does lc_y A, so
    A(xi, y) keeps its positive degree and its square divides F(xi, y).
    No point decides nothing: y^2 - (x^5 - x) over GF(5) is squarefree but
    is y^2 at every point.

    A point is good iff lc_y F * Res_y(F, F_y) does not vanish there, and
    that product has degree at most 2m deg_x F.  A walk past more bad points
    than that proves F not squarefree, with no good point anywhere, so it
    stops instead of running through all of K.
    """
    m = F.deg_y()
    bad = 2 * m * F.deg_x()
    for v in range(start, K.order):
        xi = FFElem(K, v)
        fy = F.eval_x(xi)
        if fy.degree() == m:
            d = fy.derivative()
            if not d.is_zero() and poly_gcd(fy, d).degree() == 0:
                yield xi, fy
                continue
        bad -= 1
        if bad < 0:
            return


# -- the per-curve record: each reader computes its fact once per F ---------


def curve_dy(F: BivarPoly) -> BivarPoly:
    """F.derivative_y()."""
    facts = F.facts
    if facts.dy is None:
        facts.dy = F.derivative_y()
    return facts.dy


def curve_swapped(F: BivarPoly) -> BivarPoly:
    """F.swap_xy(): F read as a polynomial in x over K(y)."""
    facts = F.facts
    if facts.swapped is None:
        facts.swapped = F.swap_xy()
    return facts.swapped


def curve_point(F: BivarPoly):
    """The first good point of F's own field, or None."""
    facts = F.facts
    if facts.point is None:
        facts.point = next(good_points(F, F.field), False)
    return None if facts.point is False else facts.point[0]


def curve_fibres(F: BivarPoly):
    """good_points(F, F.field) for F with a good point: the first, kept on
    the record with its fibre, then the walk resumed after it."""
    xi, fy = F.facts.point
    yield xi, fy
    yield from good_points(F, F.field, xi.v + 1)


def curve_disc(F: BivarPoly):
    """resultant_y(F, F_y), the discriminant of F up to a power of lc_y F."""
    facts = F.facts
    if facts.disc is None:
        facts.disc = resultant_y(F, curve_dy(F))
    return facts.disc


def curve_disc_factors(F: BivarPoly) -> list:
    """poly_factor(curve_disc(F)) for F squarefree in y."""
    facts = F.facts
    if facts.disc_factors is None:
        facts.disc_factors = poly_factor(curve_disc(F))
    return facts.disc_factors


def curve_squarefree(F: BivarPoly) -> bool:
    """squarefree_in_y(F)."""
    facts = F.facts
    if facts.squarefree is None:
        facts.squarefree = squarefree_in_y(F)
    return facts.squarefree


def curve_monic(F: BivarPoly) -> YPoly:
    """The monic y-model F / lc_y(F) over K(x)."""
    facts = F.facts
    if facts.monic is None:
        facts.monic = YPoly.from_bivar(F).monic()
    return facts.monic


def squarefree_in_y(F: BivarPoly) -> bool:
    """Is F separable and squarefree as a polynomial in y over K(x)?  A good
    point of K certifies it at once.  Without one it reads the fact that
    ramification_locus reads too: F and F_y share a factor of positive
    y-degree iff the discriminant Res_y(F, F_y) is zero."""
    return curve_point(F) is not None or not (curve_dy(F).is_zero() or curve_disc(F).is_zero())


def eisenstein_at(F: BivarPoly, P: RatPlace) -> bool:
    """Generalized Eisenstein test: the Newton polygon of F at P is one
    segment of length m = deg_y F whose slope has denominator m in lowest
    terms.  It is read off F's own coefficients: the monic model F / lc_y F
    has the same polygon moved down by v_P(lc_y F).  True certifies F
    irreducible over K(x) with P totally ramified."""
    m = F.deg_y()
    if m < 1 or F.ycoeff(0).is_zero():
        return False  # constant in y, or y divides F
    segs = newton_polygon(
        (i, P.order(c)) for i, c in enumerate(F.ycoeffs) if not c.is_zero()
    )
    return len(segs) == 1 and segs[0].length == m and segs[0].slope.denominator == m
