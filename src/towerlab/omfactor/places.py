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

separability_defect alone decides whether F defines a separable extension
in y (side='y': in x): a positive degree, a nonzero derivative, no square
factor.  places_above and the ramification locus raise what it finds, and
check_theorem reads it as a precondition.

This module owns the fibres F(xi, y).  good_fibre alone decides which
are good: those that keep degree deg_y F and are squarefree.  good_points
walks a field with it; basicfield's point count and constant-field
certificate ask it at one point per Frobenius orbit.  curve_fibres is the
irreducibility test's one stream: GF(q)'s good fibres, the first kept on
the record, or without one the first of the smallest extension that has
one.  The squarefree certificate, Musser's degree analysis and the Hensel
reconstruction in omfactor.irreducibility all take their fibres from it.
The Eisenstein test reads the Newton polygon of F's own coefficients.

The facts about F that do not depend on P are derived once per curve and
kept in the dict F.facts, which takes no part in F's equality and is freed
with F.  This module owns every entry but one, and each curve_* reader
below fills its own at first read through one memo, _fact: "dy" the
y-derivative, "point" the first good point of GF(q) with its fibre (None if
there is none), "squarefree" the squarefree verdict, "monic" the monic
y-model, "swapped" the swapped curve for side='y' (with a record of its
own), and "disc" and "disc_factors" the discriminant and its factorization.
So the irreducibility test, the ramification locus and every places_above
call on the same F share one computation of each.  The one other entry,
"constant_field_base", is basicfield._constant_field_is_base's verdict,
filled through the same memo: it needs the ramification table, which
builds on this module.
"""

from __future__ import annotations

from ..errors import TowerlabError
from ..ffield import (
    BivarPoly,
    FFElem,
    FiniteField,
    _pderiv,
    _pgcd,
    check_budget,
    make_field,
    poly_factor,
    resultant_y,
)
from ..ratfunc import RatPlace
from ..record import Record
from .maclane import INF, Inseparable, decompose, exact_val
from .newton import newton_polygon
from .ypoly import YPoly


class _Handle:
    """Mutable engine state behind a PlaceExt: the integral model and the
    branch of the place.  V starts as the branch decompose returned, and
    exact_val deepens it only as far as a value needs."""

    __slots__ = ("side", "H", "M", "pi", "V")

    def __init__(self, side, H, M, pi, V):
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
    monic integral model, the monogenic-generator bound.  The three are
    report fields; d_range is the one way to read d.  The _Handle
    behind valuation_of takes no part in equality or the repr; it builds
    a stage past the place's branch only when a valuation (a wild place's
    dmax, or valuation_of) needs one.
    """

    __slots__ = (
        "base", "side", "e", "f", "dmin", "dmax", "d_exact", "refinement",
        "_handle",
    )

    @property
    def d_range(self) -> tuple[int, int]:
        """(lo, hi) with lo <= d(Q|P) <= hi: (d, d) once d_exact is known."""
        d = self.d_exact
        return (self.dmin, self.dmax) if d is None else (d, d)

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
        lo, hi = self.d_range
        return (
            f"place above {self.base!r} [{self.side}-side]: e={self.e} f={self.f} "
            f"d in [{lo},{hi}] via {chain}"
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
    H, pi = G, P.uniformizer()
    if M:
        # coefficient j of pi^(mM) * G(z / pi^M) is G_j * pi^((m-j)M)
        H = YPoly(G.field, [c * pi ** ((m - j) * M) if j < m else c
                            for j, c in enumerate(G.coeffs)])
    return H, M, pi


def places_above(
    F: BivarPoly, P: RatPlace, side: str = "x", max_depth: int = 8
) -> list[PlaceExt]:
    """All places of K(x,y) (defined by F irreducible separable in y) above
    the place P of K(x); side='y' reads F as a polynomial in x over K(y).

    Raises what require_separable raises, and DepthExceeded when refinement
    exceeds max_depth levels.
    """
    require_separable(F, side)
    F = curve_swapped(F) if side == "y" else F
    if P.field != F.field:
        raise ValueError("place and polynomial over different constant fields")
    H, M, pi = monic_integral_model(F, P)
    p = F.field.p
    Hd = None  # H'(z), built for the first wild place
    out = []
    for V, levels in decompose(P, H, max_depth):
        handle = _Handle(side, H, M, pi, V)
        e = V.E
        f = V.res_deg
        if e % p:
            dmin = dmax = e - 1
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


def separability_defect(F: BivarPoly, side: str = "x") -> str | None:
    """Why F defines no separable extension in y over K(x) (side='y': in x
    over K(y)), or None if it does: a degree below 1, a vanishing
    derivative, or a square factor.  The reason names the variable."""
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    G, v = (F, "y") if side == "x" else (curve_swapped(F), "x")
    if G.deg_y() < 1:
        return f"deg_{v} F = {G.deg_y()} < 1: F defines no extension in {v}"
    if curve_dy(G).is_zero():
        return f"F is inseparable in {v}: dF/d{v} = 0"
    if not curve_squarefree(G):
        return f"F is not squarefree in {v}"
    return None


def require_separable(F: BivarPoly, side: str = "x") -> None:
    """Raise what separability_defect finds: Inseparable, or TowerlabError for the degree."""
    why = separability_defect(F, side)
    if why is not None and why.startswith("deg_"):
        raise TowerlabError(why)
    if why is not None:
        raise Inseparable(why)


def good_fibre(F: BivarPoly, xi: FFElem):
    """F(xi, y) when the fibre at xi is good, None otherwise: a good fibre
    keeps degree deg_y F and is squarefree, exactly when
    lc_y F * Res_y(F, F_y) does not vanish at xi."""
    fy = F.eval_x(xi)
    if fy.degree() == F.deg_y():
        d = _pderiv(xi.field, fy.ints)
        if d and len(_pgcd(xi.field, fy.ints, d)) == 1:
            return fy
    return None


def good_points(F: BivarPoly, K: FiniteField, start: int = 0):
    """Yield (xi, F(xi, y)) for each xi in K (an extension of F's field), in
    encoding order from the encoding start on, at which the fibre is good.

    The first such point certifies F squarefree and separable in y over
    K(x): by Gauss's lemma a square factor A^2 of F can be taken in
    K[x][y], and where lc_y F does not vanish neither does lc_y A, so
    A(xi, y) keeps its positive degree and its square divides F(xi, y).
    No point decides nothing: y^2 - (x^5 - x) over GF(5) is squarefree but
    is y^2 at every point.

    lc_y F * Res_y(F, F_y) has degree at most 2m deg_x F.  A walk past more
    bad points than that proves F not squarefree, with no good point
    anywhere, so it stops instead of running through all of K.
    """
    bad = 2 * F.deg_y() * F.deg_x()
    for v in range(start, K.order):
        xi = FFElem(K, v)
        fy = good_fibre(F, xi)
        if fy is not None:
            yield xi, fy
            continue
        bad -= 1
        if bad < 0:
            return


# -- the per-curve record: each reader computes its fact once per F ---------


def _fact(F: BivarPoly, name: str, make):
    """F.facts[name], set to make(F) at first read."""
    facts = F.facts
    if name not in facts:
        facts[name] = make(F)
    return facts[name]


def curve_dy(F: BivarPoly) -> BivarPoly:
    """F.derivative_y()."""
    return _fact(F, "dy", BivarPoly.derivative_y)


def curve_swapped(F: BivarPoly) -> BivarPoly:
    """F.swap_xy(): F read as a polynomial in x over K(y)."""
    return _fact(F, "swapped", BivarPoly.swap_xy)


def curve_point(F: BivarPoly):
    """The first good point of F's own field, or None."""
    point = _fact(F, "point", lambda F: next(good_points(F, F.field), None))
    return None if point is None else point[0]


def curve_fibres(F: BivarPoly):
    """The good fibres (xi, F(xi, y)) of GF(q), F's own field, the first
    taken from the record.  Without one, the first good fibre of the
    smallest GF(q^s) that has one, and no more: the first GF(q^s) with more
    than 2m deg_x F elements has one (good_points), and each field's walk,
    at most 2m deg_x F + 1 fibres of m * (deg_x F + m) products, is
    budgeted first.  F must be squarefree in y."""
    if curve_point(F) is not None:
        xi, fy = F.facts["point"]
        yield xi, fy
        yield from good_points(F, F.field, xi.v + 1)
        return
    base = F.field
    m, n = F.deg_y(), F.deg_x()
    s = 1
    while base.order**s <= 2 * m * n:
        s += 1
        check_budget(f"good-point walk over GF({base.order}^{s})",
                     min(base.order**s, 2 * m * n + 1) * m * (n + m))
        for point in good_points(F, make_field(base.p, base.k * s)):
            yield point
            return
    raise TowerlabError(f"no good point up to GF({base.order}^{s}) for a squarefree F: engine bug")


def curve_disc(F: BivarPoly):
    """resultant_y(F, F_y), the discriminant of F up to a power of lc_y F."""
    return _fact(F, "disc", lambda F: resultant_y(F, curve_dy(F)))


def curve_disc_factors(F: BivarPoly) -> list:
    """poly_factor(curve_disc(F)) for F squarefree in y."""
    return _fact(F, "disc_factors", lambda F: poly_factor(curve_disc(F)))


def curve_squarefree(F: BivarPoly) -> bool:
    """squarefree_in_y(F)."""
    return _fact(F, "squarefree", squarefree_in_y)


def curve_monic(F: BivarPoly) -> YPoly:
    """The monic y-model F / lc_y(F) over K(x)."""
    return _fact(F, "monic", lambda F: YPoly.from_bivar(F).monic())


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
