"""Global analysis of the basic field K(x,y): ramification table,
Riemann-Hurwitz genus, and an independent zeta-function genus oracle.

The genus route: collect all places above the ramification locus (zeros of
the y-discriminant, zeros of the leading y-coefficient, and infinity), sum
different exponents against residue degrees, and solve
2g - 2 = -2m + deg Diff.  Each d is read as PlaceExt.d_range: e-1 at a tame
place, a [dmin, dmax] window at a wild one until d is known.  So deg Diff
lies in [lo, hi], and the genus window runs from the least genus that lo
allows to RamTable.genus_bound, which the bidegree bound may hold below hi.

The zeta route never looks at differents: it counts the points over each
constant-field extension GF(q^k), as the roots of the good fibres F(xi, y)
off the locus (one xi per Frobenius orbit), plus the degree f * deg P of
each place above the locus, read off the ramification table, that divides
k.  From those it derives the places of each degree, computes the
L-polynomial's coefficients in one pass of Newton's identities, and reads
the genus off its degree 2g, the last nonzero coefficient.  That is exact
only when the counts reach the genus bound, the one upper bound that the
window and the certificate below read too: a cap below it is refused
(CapTooSmall), and a walk predicted past ffield.WORK_BUDGET is refused
(BudgetExceeded), both before any count.

reconcile_different plays the two routes against each other to pin a
single missing wild exponent.

Both routes need the full constant field to be GF(q), and both ask one
exact rule, _constant_field_is_base: the constant field's degree divides
m, every locus degree and every k with a point over GF(q^k), and by
Hasse-Weil their gcd over k <= K + 1 is 1 exactly when that degree is.
The points come from the point count's own walk, _fibre_points, whose
good fibres places.good_fibre alone decides; places_above runs only on
the locus, from ram_table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import TowerlabError
from .ffield import (
    BivarPoly,
    FFPoly,
    FiniteField,
    _pow_mod,
    check_budget,
    make_field,
    poly_factor,
    poly_gcd,
)
from .omfactor.places import _fact, curve_disc_factors, good_fibre, places_above, require_separable
from .ratfunc import RatPlace
from .record import Record

INF = math.inf


class CapTooSmall(TowerlabError):
    """zeta_genus was asked for a cap below the genus bound, where its counts
    stop short of S_2g and a smaller genus can fit by accident."""


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
        """(lo, hi) bounding deg Diff, the sum of d(Q|P) * deg Q."""
        return tuple(
            sum(pl.d_range[end] * pl.residue_degree_abs() for pl in self.all_places())
            for end in (0, 1)
        )

    def missing_exact(self) -> list:
        return [pl for pl in self.all_places() if pl.d_exact is None]

    def genus_bound(self) -> int:
        """The top of the genus window over GF(q), when that is the full
        constant field: the least of the bidegree's (m - 1)(deg_x F - 1) and
        Riemann-Hurwitz's (hi - 2m + 2) // 2, hi the top of deg Diff."""
        m, hi = self.m, self.different_degree_bounds()[1]
        return max(0, min((m - 1) * (self.F.deg_x() - 1), (hi - 2 * m + 2) // 2))


class GenusResult(Record):
    """genus is the smallest value consistent with the different-degree
    window diff_degree_bounds, whose top is the table's genus_bound (and
    equals the true genus when exact is True)."""

    __slots__ = ("genus", "exact", "diff_degree_bounds")

    @property
    def genus_hi(self) -> int:
        """The largest genus consistent with the bounds (lo, hi): by
        Riemann-Hurwitz each 2 of different degree past lo adds one."""
        lo, hi = self.diff_degree_bounds
        return self.genus + (hi - lo) // 2


def ramification_locus(F: BivarPoly) -> list[RatPlace]:
    """Places of K(x) where K(x,y)/K(x) can ramify: zeros of the
    y-discriminant, zeros of the leading y-coefficient, and infinity.
    Raises what require_separable(F) raises."""
    require_separable(F)
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


def _orbit_reps(base: FiniteField, k: int):
    """Yield (xi, size of its orbit) for each xi of GF(q^k), q = |base|,
    that is the smallest, by encoding, of its conjugates xi^(q^j) over
    GF(q): one point per place of degree dividing k.  An orbit's size
    divides k, so one not closed by j = k - 1 has size k."""
    q = base.order
    K = base if k == 1 else make_field(base.p, base.k * k)
    for xi in K.elements():
        a = xi
        for j in range(1, k):
            a = a**q
            if a == xi:
                yield xi, j
                break
            if a.v < xi.v:
                break
        else:
            yield xi, k


def _constant_field_is_base(rt: RamTable) -> bool:
    """Whether the full constant field is GF(q), exactly: a fact of the curve,
    kept as rt.F.facts["constant_field_base"], so a job that asks it of two
    tables of one F walks once."""
    return _fact(rt.F, "constant_field_base", lambda F: _constant_field_degree_is_one(rt))


def _constant_field_degree_is_one(rt: RamTable) -> bool:
    """The constant field's degree c over GF(q) divides m, every place degree
    and every k with a point over GF(q^k).  When c = 1 the genus is at most
    g = rt.genus_bound(), and Hasse-Weil (Stichtenoth Thm 5.2.3) puts a
    point over GF(q^k) at every k >= K, the least k with
    q^k + 1 > 2g q^(k/2).  So c = 1 iff the gcd of m, the locus
    degrees and the k <= K + 1 with a point is 1, as gcd(K, K + 1) = 1."""
    F, m = rt.F, rt.m
    degrees = [pl.residue_degree_abs() for pl in rt.all_places()]
    c = math.gcd(m, *degrees)
    if c == 1:
        return True
    q, g = F.field.order, rt.genus_bound()
    K = next(k for k in itertools.count(1) if (q**k + 1) ** 2 > 4 * g * g * q**k)
    for k in range(1, K + 2):
        # a k that c divides cannot lower the gcd; a point over GF(q^k) is a
        # locus place of degree dividing k or a root of a good fibre
        if k % c and (any(k % d == 0 for d in degrees) or any(_fibre_points(F, k))):
            c = math.gcd(c, k)
            if c == 1:
                return True
    return False


def _require_constant_field_base(rt: RamTable) -> None:
    if not _constant_field_is_base(rt):
        raise TowerlabError(
            "constant field extension detected; the genus formula needs the "
            "full constant field to be the base field"
        )


def genus_basic(F: BivarPoly, max_depth: int = 8) -> GenusResult:
    """Riemann-Hurwitz genus of K(x,y) over the exact constant field, from
    the ramification table.  Requires F irreducible and separable in y with
    full constant field equal to the base field (_constant_field_is_base;
    raises TowerlabError otherwise)."""
    rt = ram_table(F, max_depth=max_depth)
    return genus_from_table(rt)


def genus_from_table(rt: RamTable) -> GenusResult:
    _require_constant_field_base(rt)
    m = rt.m
    lo, hi = rt.different_degree_bounds()  # lo == hi iff every d is exact
    if lo == hi and lo % 2:
        raise TowerlabError("odd different degree: engine bug")
    if lo == hi and lo < 2 * m - 2:
        raise TowerlabError("negative genus from exact differents: engine bug")
    # 2g - 2 = D - 2m: the window runs from the least even D >= lo and
    # >= 2m - 2 (g >= 0) to the genus bound's D, past hi only when it clamps
    D_lo, D_hi = max(lo + lo % 2, 2 * m - 2), 2 * rt.genus_bound() + 2 * m - 2
    if D_lo > min(D_hi, hi):
        raise TowerlabError("no feasible different degree: engine bug")
    return GenusResult(
        genus=D_lo // 2 - m + 1, exact=D_lo == D_hi, diff_degree_bounds=(D_lo, D_hi)
    )


def _count_roots(f: FFPoly) -> int:
    """Number of distinct roots of f in its own coefficient field."""
    fld = f.field
    y = FFPoly(fld, [0, 1])
    frob = _pow_mod(y, fld.order, f)
    return poly_gcd(frob - y, f).degree()


def _fibre_points(F: BivarPoly, k: int):
    """Yield the points over GF(q^k) of the good fibres, one Frobenius orbit
    at a time: orbit size times the roots of F(xi, y)."""
    for xi, orbit in _orbit_reps(F.field, k):
        fy = good_fibre(F, xi)
        if fy is not None:
            yield orbit * _count_roots(fy)


def _point_count(F: BivarPoly, k: int, locus_degrees) -> int:
    """Number of points of the function field over the degree-k constant
    extension: sum of deg Q over places Q with deg Q | k.

    Good fibers x = xi are etale, so their points are plain roots of
    F(xi, y); a fiber is bad exactly over the ramification locus, whose
    places (infinity too) are counted from locus_degrees, their absolute
    residue degrees, instead.  Conjugate fibers have equal counts, so only
    one representative per Frobenius orbit is evaluated."""
    return sum(_fibre_points(F, k)) + sum(dq for dq in locus_degrees if k % dq == 0)


def zeta_genus(F: BivarPoly, g_cap: int, table: RamTable | None = None) -> int:
    """Genus by place counting: fit the L-polynomial of the function field
    from the numbers of places of degree up to 2*g_cap.  The places over the
    locus are read off the rows of `table`, ram_table(F) when not given;
    _point_count counts the rest.

    Independent of different exponents, and exact: g_cap must reach the
    table's genus_bound(), so the counts reach S_2g, and c_2g = q^g is the
    last nonzero c_j: g is half its index.  Raises BudgetExceeded before
    any count when the walk is predicted past WORK_BUDGET, CapTooSmall,
    naming the bound, when g_cap lies below it, TowerlabError when the
    constant field is not GF(q) (_constant_field_is_base, as for the
    Riemann-Hurwitz route), and InconsistentOracle when the c_j fit no
    L-polynomial of that degree, which only wrong counts can cause."""
    field = F.field
    q = field.order
    kmax = max(2 * g_cap, 1)
    # the walk, bounded by every element of GF(q^k) as a fibre of eval_x and a
    # Frobenius power, m * (deg_x F + m * bitlen(q^k)) products, is checked
    # field by field: a huge cap stops at the first field past the budget
    m, n = F.deg_y(), F.deg_x()
    work = 0
    for k in range(1, kmax + 1):
        work += q**k * m * (n + m * (q**k).bit_length())
        check_budget(f"point count at cap {g_cap} over GF({q}^k), k <= {k}", work)
    rt = ram_table(F) if table is None else table
    bound = rt.genus_bound()
    if g_cap < bound:
        raise CapTooSmall(
            f"cap {g_cap} is below the genus bound {bound}: a smaller genus "
            "could fit the counts"
        )
    _require_constant_field_base(rt)
    locus_degrees = [pl.residue_degree_abs() for pl in rt.all_places()]
    S = {k: _point_count(F, k, locus_degrees) for k in range(1, kmax + 1)}
    # place counts by degree, via Moebius inversion of S_k = sum_{d|k} d*N_d,
    # must be whole and nonnegative
    N = {}
    for d in range(1, kmax + 1):
        s = S[d] - sum(e * N[e] for e in range(1, d) if d % e == 0)
        if s < 0 or s % d:
            raise TowerlabError("place counts are not consistent: engine bug")
        N[d] = s // d
    a = {k: q**k + 1 - S[k] for k in range(1, kmax + 1)}
    # Newton's identities, j*c_j = -sum_{i<=j} a_i c_{j-i}, give the
    # coefficients c_j of the L-polynomial's series from the counts alone.
    # The counts reach S_2g, so c_2g = q^g is the last nonzero c_j; genus g
    # fits when c_1..c_g are integral and the functional equation
    # c_{2g-j} = q^{g-j} c_j holds, which makes c_{g+1}..c_2g integral too
    c = [Fraction(1)]
    for j in range(1, kmax + 1):
        c.append(-sum(a[i] * c[j - i] for i in range(1, j + 1)) / j)
    g, odd = divmod(max(j for j, cj in enumerate(c) if cj), 2)
    if (
        odd
        or any(cj.denominator != 1 for cj in c[1 : g + 1])
        or any(c[2 * g - j] != q ** (g - j) * c[j] for j in range(g + 1))
    ):
        raise InconsistentOracle(
            f"no L-polynomial of genus <= {g_cap} fits the place counts, though "
            f"the cap reaches the genus bound {bound}: engine bug"
        )
    return g


def reconcile_different(rt: RamTable, oracle_genus: int) -> RamTable:
    """Fill in at most one missing exact different exponent so that
    Riemann-Hurwitz reproduces oracle_genus; raise InconsistentOracle when
    arithmetic or bounds refuse."""
    missing = rt.missing_exact()
    target = 2 * oracle_genus - 2 + 2 * rt.m
    lo, _ = rt.different_degree_bounds()
    if not missing:
        if lo != target:
            raise InconsistentOracle(
                f"exact different degree {lo} but oracle needs {target}"
            )
        return rt
    if len(missing) > 1:
        raise InconsistentOracle("more than one wild place lacks an exact different")
    gap = missing[0]
    # the other places add lo - g_lo * w_gap to the target, the gap d * w_gap
    g_lo, g_hi = gap.d_range
    w_gap = gap.residue_degree_abs()
    rem = target - lo + g_lo * w_gap
    if rem % w_gap:
        raise InconsistentOracle(
            f"oracle leaves non-integral different {rem}/{w_gap}"
        )
    d = rem // w_gap
    if not (g_lo <= d <= g_hi):
        raise InconsistentOracle(
            f"reconciled different {d} outside bounds [{g_lo},{g_hi}]"
        )
    rows = tuple(
        (P, tuple(pl.replace(d_exact=d) if pl is gap else pl for pl in pls))
        for P, pls in rt.rows
    )
    return RamTable(F=rt.F, m=rt.m, rows=rows)
