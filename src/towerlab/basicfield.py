"""Global analysis of the basic field K(x,y): ramification table,
Riemann-Hurwitz genus, and an independent zeta-function genus oracle.

The genus route: collect all places above the ramification locus (zeros of
the y-discriminant, zeros of the leading y-coefficient, and infinity), sum
different exponents against residue degrees, and solve
2g - 2 = -2m + deg Diff.  Tame places contribute exactly e-1; wild places
contribute a [dmin, dmax] window, so the result may be an interval.

The zeta route never looks at differents: it counts places of each degree
by residual factorization (Kummer-Dedekind at unramified places, the full
engine on the locus), turns counts into point counts over constant-field
extensions, computes the L-polynomial's coefficients in one pass of
Newton's identities, and reads the genus off the least degree that fits.  reconcile_different plays the two routes against
each other to pin a single missing wild exponent.

Both routes need the full constant field to be GF(q).  The Riemann-Hurwitz
route certifies it by a gcd of absolute residue degrees: those of the
locus places, then those that places_above finds, all with e = 1, above
the places of degree 1 and 2 outside the locus.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TowerlabError
from .ffield import (
    BivarPoly,
    FFPoly,
    _monic_irreducibles,
    _pow_mod,
    make_field,
    poly_factor,
    poly_gcd,
)
from .omfactor import Inseparable, places_above
from .omfactor.places import curve_disc, curve_disc_factors, curve_dy
from .ratfunc import RatPlace
from .record import Record

INF = math.inf

# Largest constant-field extension GF(q^k) that the default genus cap may have
# _point_count walk: the smallest power of two at or above the largest walk
# the benchmark makes, GF(5^6) with 15,625 elements.  An explicit cap is not
# held to it.
POINT_COUNT_BUDGET = 2**14


class CapTooSmall(TowerlabError):
    """zeta_genus could not fit a consistent L-polynomial under its cap."""


class PointCountTooLarge(TowerlabError):
    """The default genus cap would count points over a field of more than
    POINT_COUNT_BUDGET elements."""


class InconsistentOracle(TowerlabError):
    """The two genus routes contradict each other: an engine bug somewhere."""


class RamTable(Record):
    """Rows of (rational place, places above it) covering the ramification
    locus of F, with m = deg_y F; unramified locus rows are kept (they
    witness the checks).  rows is a tuple of (RatPlace, tuple[PlaceExt])."""

    __slots__ = ("F", "m", "rows")

    def all_places(self):
        for _, pls in self.rows:
            yield from pls

    def different_degree_bounds(self) -> tuple[int, int]:
        lo = hi = 0
        for P, pls in self.rows:
            for pl in pls:
                w = pl.f * P.degree()
                # d_exact supersedes the a-priori window once it is known
                # (tame places at construction, wild ones after reconciling).
                if pl.d_exact is not None:
                    lo += pl.d_exact * w
                    hi += pl.d_exact * w
                else:
                    lo += pl.dmin * w
                    hi += pl.dmax * w
        return lo, hi

    def missing_exact(self) -> list:
        return [pl for pl in self.all_places() if pl.d_exact is None]


class GenusResult(Record):
    """genus is the smallest value consistent with the different-degree
    bounds, the pair diff_degree_bounds (and equals the true genus when
    exact is True)."""

    __slots__ = ("genus", "exact", "diff_degree_bounds")


def ramification_locus(F: BivarPoly) -> list[RatPlace]:
    """Places of K(x) where K(x,y)/K(x) can ramify: zeros of the
    y-discriminant, zeros of the leading y-coefficient, and infinity."""
    if curve_dy(F).is_zero():
        raise Inseparable("derivative in y vanishes")
    if curve_disc(F).is_zero():
        raise Inseparable("defining polynomial is not squarefree in y")
    field = F.field
    polys = set()
    for g, _mult in curve_disc_factors(F):
        if g.degree() >= 1:
            polys.add(g)
    for g, _mult in poly_factor(F.ycoeff(F.deg_y())):
        if g.degree() >= 1:
            polys.add(g)
    # poly_factor certifies every factor monic irreducible
    out = [
        RatPlace.finite(g, certified=True)
        for g in sorted(polys, key=lambda g: g.sort_key())
    ]
    out.append(RatPlace.infinity(field))
    return out


def ram_table(F: BivarPoly, max_depth: int = 8) -> RamTable:
    rows = []
    for P in ramification_locus(F):
        rows.append((P, tuple(places_above(F, P, max_depth=max_depth))))
    return RamTable(F=F, m=F.deg_y(), rows=tuple(rows))


def _constant_field_is_base(rt: RamTable) -> bool:
    """gcd of absolute residue degrees hitting 1 certifies that the full
    constant field is the base field."""
    g = 0
    for P, pls in rt.rows:
        for pl in pls:
            g = math.gcd(g, pl.f * P.degree())
            if g == 1:
                return True
    # places outside the locus split etale: their residual factor degrees
    # are residue degrees too
    F = rt.F
    locus = {P for P, _ in rt.rows}
    for d in (1, 2):
        # lazily: over a large field the first place or two usually decide
        for f in _monic_irreducibles(F.field, d):
            P = RatPlace.finite(FFPoly._of(F.field, f), certified=True)
            if P in locus:
                continue
            for fdeg in _unramified_fprofile(F, P):
                g = math.gcd(g, fdeg * d)
                if g == 1:
                    return True
    return g == 1


def _unramified_fprofile(F: BivarPoly, P: RatPlace) -> list[int]:
    """Residue degrees of the places above a place outside the
    ramification locus, each of which has e = 1."""
    pls = places_above(F, P)
    if any(pl.e != 1 for pl in pls):
        raise TowerlabError("ramified place outside the ramification locus")
    return [pl.f for pl in pls]


def genus_basic(F: BivarPoly, max_depth: int = 8) -> GenusResult:
    """Riemann-Hurwitz genus of K(x,y) over the exact constant field, from
    the ramification table.  Requires F irreducible and separable in y with
    full constant field equal to the base field (certified by place-degree
    gcd; raises TowerlabError otherwise)."""
    rt = ram_table(F, max_depth=max_depth)
    return genus_from_table(rt)


def genus_from_table(rt: RamTable) -> GenusResult:
    if not _constant_field_is_base(rt):
        raise TowerlabError(
            "constant field extension detected; the genus formula needs the "
            "full constant field to be the base field"
        )
    m = rt.m
    lo, hi = rt.different_degree_bounds()
    if not rt.missing_exact():
        if lo % 2:
            raise TowerlabError("odd different degree: engine bug")
        g = (lo - 2 * m + 2) // 2
        if g < 0:
            raise TowerlabError("negative genus from exact differents: engine bug")
        return GenusResult(genus=g, exact=True, diff_degree_bounds=(lo, lo))
    # total different degree is even (2g-2 = D-2m with integer g)
    feas = [D for D in range(lo, hi + 1) if D % 2 == 0 and D >= 2 * m - 2]
    if not feas:
        raise TowerlabError("no feasible different degree: engine bug")
    g = (feas[0] - 2 * m + 2) // 2
    return GenusResult(
        genus=g, exact=(len(feas) == 1), diff_degree_bounds=(feas[0], feas[-1])
    )


def _count_roots(f: FFPoly) -> int:
    """Number of distinct roots of f in its own coefficient field."""
    fld = f.field
    y = FFPoly(fld, [0, 1])
    frob = _pow_mod(y, fld.order, f)
    return poly_gcd(frob - y, f).degree()


def _point_count(F: BivarPoly, k: int, locus_data) -> int:
    """Number of points of the function field over the degree-k constant
    extension: sum of deg Q over places Q with deg Q | k.

    Good fibers x = xi are etale, so their points are plain roots of
    F(xi, y); fibers over the ramification locus (including infinity) are
    counted from the engine's (e, f) data instead.  Conjugate fibers have
    equal counts, so only one representative per Frobenius orbit is
    evaluated."""
    base = F.field
    q = base.order
    K = base if k == 1 else make_field(base.p, base.k * k)
    bad = [poly for _degQs, poly in locus_data if poly is not None]
    total = 0
    for xi in K.elements():
        # smallest conjugate is the orbit representative
        t0 = xi.to_int()
        a = xi**q
        orbit = 1
        smallest = True
        while a != xi:
            if a.to_int() < t0:
                smallest = False
                break
            orbit += 1
            a = a**q
        if not smallest:
            continue
        if any(bp.eval(xi).is_zero() for bp in bad):
            continue
        fy = F.eval_x(xi)
        total += orbit * _count_roots(fy)
    for degQs, _poly in locus_data:
        total += sum(dq for dq in degQs if k % dq == 0)
    return total


def zeta_genus(F: BivarPoly, g_cap: int, table: RamTable | None = None) -> int:
    """Genus by place counting: fit the L-polynomial of the function field
    from the numbers of places of degree up to 2*g_cap.  The places over the
    locus are read off the rows of `table`, ram_table(F) when not given;
    _point_count counts the rest.

    Independent of different exponents.  Raises CapTooSmall when no
    L-polynomial of degree <= 2*g_cap matches the counts, and TowerlabError
    when the constant field visibly extends (gcd of place degrees > 1)."""
    if g_cap < 0:
        raise ValueError("g_cap must be >= 0")
    field = F.field
    q = field.order
    kmax = max(2 * g_cap, 1)
    locus_data = [
        ([pl.f * P.degree() for pl in pls], P.poly)
        for P, pls in (ram_table(F) if table is None else table).rows
    ]
    S = {k: _point_count(F, k, locus_data) for k in range(1, kmax + 1)}
    # place counts by degree, via Moebius inversion of S_k = sum_{d|k} d*N_d;
    # their degree gcd certifies the constant field
    N = {}
    for d in range(1, kmax + 1):
        s = S[d] - sum(e * N[e] for e in range(1, d) if d % e == 0)
        if s < 0 or s % d:
            raise TowerlabError("place counts are not consistent: engine bug")
        N[d] = s // d
    degree_gcd = 0
    for d, n in N.items():
        if n > 0:
            degree_gcd = math.gcd(degree_gcd, d)
    if degree_gcd > 1:
        raise TowerlabError(
            "constant field extension detected (all place degrees divisible "
            f"by {degree_gcd}); zeta genus needs absolute irreducibility"
        )
    a = {k: q**k + 1 - S[k] for k in range(1, kmax + 1)}
    # Newton's identities, j*c_j = -sum_{i<=j} a_i c_{j-i}, give the
    # coefficients c_j of the L-polynomial's series from the counts alone.
    # Genus g fits when c_1..c_2g are integral, the functional equation
    # c_{2g-j} = q^{g-j} c_j holds, and c_j = 0 for 2g < j <= kmax (by
    # induction on j that is a_j matching the degree-2g L-polynomial).
    c = [Fraction(1)]
    for j in range(1, kmax + 1):
        c.append(-sum(a[i] * c[j - i] for i in range(1, j + 1)) / j)
    for g in range(0, g_cap + 1):
        if (
            all(cj.denominator == 1 for cj in c[1 : 2 * g + 1])
            and all(c[2 * g - j] == q ** (g - j) * c[j] for j in range(0, g + 1))
            and not any(c[2 * g + 1 :])
        ):
            return g
    raise CapTooSmall(
        f"no L-polynomial of genus <= {g_cap} fits the place counts"
    )


def reconcile_different(rt: RamTable, oracle_genus: int) -> RamTable:
    """Fill in at most one missing exact different exponent so that
    Riemann-Hurwitz reproduces oracle_genus; raise InconsistentOracle when
    arithmetic or bounds refuse."""
    missing = rt.missing_exact()
    target = 2 * oracle_genus - 2 + 2 * rt.m
    if not missing:
        lo, hi = rt.different_degree_bounds()
        if lo != target:
            raise InconsistentOracle(
                f"exact different degree {lo} but oracle needs {target}"
            )
        return rt
    if len(missing) > 1:
        raise InconsistentOracle("more than one wild place lacks an exact different")
    gap = missing[0]
    known = 0
    w_gap = None
    for P, pls in rt.rows:
        for pl in pls:
            w = pl.f * P.degree()
            if pl is gap:
                w_gap = w
            else:
                known += (pl.d_exact if pl.d_exact is not None else pl.dmin) * w
    rem = target - known
    if w_gap is None:
        raise InconsistentOracle("missing place not in its own table")
    if rem % w_gap:
        raise InconsistentOracle(
            f"oracle leaves non-integral different {rem}/{w_gap}"
        )
    d = rem // w_gap
    if not (gap.dmin <= d <= gap.dmax):
        raise InconsistentOracle(
            f"reconciled different {d} outside bounds [{gap.dmin},{gap.dmax}]"
        )
    new_rows = []
    for P, pls in rt.rows:
        new_pls = tuple(
            pl.replace(d_exact=d) if pl is gap else pl for pl in pls
        )
        new_rows.append((P, new_pls))
    return RamTable(F=rt.F, m=rt.m, rows=tuple(new_rows))
