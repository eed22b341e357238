import importlib.util
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from towerlab import basicfield, checker, ffield
from towerlab.basicfield import (
    CapTooSmall,
    InconsistentOracle,
    genus_basic,
    genus_from_table,
    ram_table,
    ramification_locus,
    reconcile_different,
    zeta_genus,
)
from towerlab.checker import FamilyParams, build_family
from towerlab.cli import parse_poly
from towerlab.errors import TowerlabError
from towerlab.ffield import BivarPoly, FFElem, FFPoly, make_field, poly_factor
from towerlab.omfactor import is_irreducible_over_ratfield, monic_integral_model, places_above
from towerlab.omfactor.places import curve_disc, curve_dy
from towerlab.ratfunc import finite_places_of_degree
from helpers import (
    F2,
    F3,
    F5,
    bivar,
    cli_report_curves,
    cubic2,
    elliptic5,
    family_curves,
    family_F,
    family_params,
    genus_by_search,
    genus_window_by_list,
    hyper3,
    kummer5,
    line2,
    sweep_pool,
    unipoly,
)


def test_the_genus_bound_is_the_bidegree_bound_or_the_top_of_the_window():
    # genus_bound is the least of the bidegree's (m - 1)(deg_x F - 1) and
    # Riemann-Hurwitz's (hi + 2 - 2m) // 2, and the window's top, genus_hi,
    # is that bound; the curves that the genus formula refuses are left out
    windows = closed_by_bidegree = 0
    for F in sweep_pool() + cli_report_curves() + family_curves():
        try:
            rt = ram_table(F)
            gr = genus_from_table(rt)
        except TowerlabError:
            continue
        lo, hi = rt.different_degree_bounds()
        bidegree = (rt.m - 1) * (F.deg_x() - 1)
        assert rt.genus_bound() == max(0, min(bidegree, (hi + 2 - 2 * rt.m) // 2)), F
        assert gr.genus_hi == rt.genus_bound(), F
        windows += not gr.exact
        closed_by_bidegree += gr.exact and lo != hi
    assert windows >= 10
    assert closed_by_bidegree >= 3


def test_ramification_locus_elliptic():
    # y^2 = x^3 + x ramifies over the roots of x^3 + x = x(x+2)(x+3) and infinity
    locus = ramification_locus(elliptic5())
    assert [repr(P) for P in locus] == [
        "place(x)",
        "place(x + 2)",
        "place(x + 3)",
        "place(infinity)",
    ]


def test_ramification_locus_family_contains_required_places():
    locus = {repr(P) for P in ramification_locus(family_F(2))}
    assert {"place(x)", "place(x + 1)", "place(infinity)"} <= locus


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 3), (2, 6)])
def test_ramification_locus_of_the_family_is_x_x1_infinity(p, k):
    # F = g*(y^m + y) - x^m with g = x + 1 and m = q + 1 has F_y = g*(y^q + 1),
    # so its discriminant is a unit times powers of x and x + 1; at q = 64
    # it is the determinant of a 129-square Sylvester matrix
    K = make_field(p, k)
    params = FamilyParams(q=p**k, a=K.zero(), b=K.one(), g=FFPoly(K, [1, 1]))
    locus = ramification_locus(build_family(params).F)
    assert [repr(P) for P in locus] == ["place(x)", "place(x + 1)", "place(infinity)"]


def test_ramification_locus_line_is_trivial():
    assert [repr(P) for P in ramification_locus(line2())] == ["place(infinity)"]


def test_ram_table_elliptic_rows():
    rt = ram_table(elliptic5())
    assert rt.m == 2
    assert len(rt.rows) == 4
    for _, pls in rt.rows:
        assert [(pl.e, pl.f, pl.d_exact) for pl in pls] == [(2, 1, 1)]
    assert rt.missing_exact() == []
    assert rt.different_degree_bounds() == (4, 4)


def test_genus_elliptic():
    g = genus_basic(elliptic5())
    assert (g.genus, g.exact, g.diff_degree_bounds) == (1, True, (4, 4))


def test_genus_line():
    g = genus_basic(line2())
    assert (g.genus, g.exact) == (0, True)


def test_genus_tame_curves():
    for F, expect, bounds in [
        (cubic2(), 0, (4, 4)),
        (kummer5(), 0, (4, 4)),
        (hyper3(), 2, (6, 6)),
    ]:
        g = genus_basic(F)
        assert (g.genus, g.exact, g.diff_degree_bounds) == (expect, True, bounds)


def test_genus_family_is_interval_before_reconcile():
    rt = ram_table(family_F(2))
    assert rt.different_degree_bounds() == (6, 10)
    g = genus_from_table(rt)
    assert (g.genus, g.exact, g.diff_degree_bounds) == (1, False, (6, 10))
    assert len(rt.missing_exact()) == 1


# -- PlaceExt.d_range, the one reading of d ------------------------------------


def test_d_range_is_e_minus_one_at_a_tame_place():
    tame = [pl for pl in ram_table(family_F(2)).all_places() if pl.e % 2]
    assert tame
    for pl in tame:
        assert pl.d_range == (pl.e - 1, pl.e - 1) == (pl.dmin, pl.dmax)


def test_d_range_is_the_window_at_a_wild_place_and_collapses_when_reconciled():
    rt = ram_table(family_F(2))
    (wild,) = rt.missing_exact()
    assert wild.d_range == (wild.dmin, wild.dmax) == (2, 6)
    assert "d in [2,6]" in str(wild)
    fixed = next(pl for pl in reconcile_different(rt, 2).all_places() if pl.e == 2)
    assert fixed.d_range == (4, 4)
    assert (fixed.dmin, fixed.dmax) == (2, 6)  # the report fields stay
    assert "d in [4,4]" in str(fixed)


def test_an_exact_wild_d_reaches_the_climb_through_d_range(monkeypatch):
    # a wild place whose d is known hands that d to the climb, not its dmin
    found = checker.places_above

    def exact_wild(F, P, side="x", max_depth=8):
        return [pl.replace(d_exact=4) if pl.d_exact is None else pl
                for pl in found(F, P, side, max_depth)]

    tower = build_family(family_params(2))
    f = unipoly(F2, [0, 1])
    assert checker.check_theorem(tower.F, f).hypotheses.d_prime_min == 2
    monkeypatch.setattr(checker, "places_above", exact_wild)
    v = checker.check_theorem(tower.F, f)
    assert v.witnesses["Q_wild"].d_range == (4, 4)
    assert v.hypotheses.d_prime_min == 4


class _Bounds:
    """A table that answers only what genus_from_table reads past its
    constant-field check: m, the different-degree bounds and the genus
    bound, here from a bidegree bound given outright."""

    def __init__(self, lo, hi, m, bidegree):
        self.m, self.bounds, self.bidegree = m, (lo, hi), bidegree

    def different_degree_bounds(self):
        return self.bounds

    def genus_bound(self):
        return max(0, min(self.bidegree, (self.bounds[1] - 2 * self.m + 2) // 2))


def _closed_form(lo, hi, m, bidegree):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basicfield, "_constant_field_is_base", lambda rt: True)
        return genus_from_table(_Bounds(lo, hi, m, bidegree))


def _window_or_error(window, *args):
    try:
        return window(*args)
    except TowerlabError as exc:
        return type(exc), str(exc)


@given(
    lo=st.integers(0, 60),
    width=st.integers(0, 60),
    m=st.integers(1, 20),
    bidegree=st.integers(0, 40),
)
@example(lo=6, width=4, m=3, bidegree=4)  # the q = 2 family: both ends even
@example(lo=5, width=6, m=3, bidegree=40)  # odd ends
@example(lo=1, width=8, m=4, bidegree=40)  # lo below 2m - 2
@example(lo=7, width=0, m=3, bidegree=40)  # exact and odd
@example(lo=2, width=0, m=3, bidegree=40)  # exact and below 2m - 2
@example(lo=2, width=4, m=5, bidegree=40)  # empty window: every even D < 2m - 2
@example(lo=5, width=1, m=1, bidegree=40)  # one feasible D: the window collapses
@example(lo=6, width=6, m=3, bidegree=1)  # the bidegree closes the window
@example(lo=10, width=0, m=3, bidegree=2)  # an exact genus 3 above the bidegree bound
@example(lo=3072, width=1048576, m=1025, bidegree=1048576)  # the family at q = 1024
def test_the_closed_form_genus_window_matches_the_list_of_feasible_degrees(lo, width, m, bidegree):
    hi = lo + width
    assert _window_or_error(_closed_form, lo, hi, m, bidegree) == _window_or_error(
        genus_window_by_list, lo, hi, m, bidegree
    )


def test_zeta_matches_riemann_hurwitz_on_exact_curves():
    for F, g in [
        (elliptic5(), 1),
        (line2(), 0),
        (cubic2(), 0),
        (kummer5(), 0),
        (hyper3(), 2),
    ]:
        assert genus_basic(F).genus == g
        assert zeta_genus(F, g + 1) == g


def test_zeta_cap_too_small():
    with pytest.raises(CapTooSmall, match="below the genus bound 2"):
        zeta_genus(hyper3(), 1)


# genus-2 curves whose counts up to GF(q^2) fit a smaller genus: at cap 1
# the point count once returned 0, 1, 1 and 1
GENUS_2_FITTING_LESS = [
    (F2, "y^2+y+x^5"),
    (F2, "(x^2+1)*y^3+x^2*y^2+x*y+x"),
    (F2, "y^3+x^2*y^2+(x^2+x+1)*y+x^2"),
    (F3, "y^3+2*x^2*y^2+2*x^2*y+(x^2+x)"),
]


@pytest.mark.parametrize("field,text", GENUS_2_FITTING_LESS, ids=[t for _, t in GENUS_2_FITTING_LESS])
def test_a_cap_below_the_genus_bound_is_refused_not_fitted(field, text):
    F = parse_poly(text, field)
    rt = ram_table(F)
    assert rt.genus_bound() >= 2
    with pytest.raises(CapTooSmall, match=f"below the genus bound {rt.genus_bound()}"):
        zeta_genus(F, 1, rt)
    assert zeta_genus(F, rt.genus_bound(), rt) == 2


def test_a_negative_cap_is_below_every_genus_bound():
    with pytest.raises(CapTooSmall, match="cap -1 is below the genus bound 0"):
        zeta_genus(cubic2(), -1)


def test_counts_that_fit_no_genus_at_the_bound_are_an_inconsistent_oracle(monkeypatch):
    # at or above the bound the true genus always fits, so only wrong counts
    # leave every genus unfitted: one point over every GF(5^k) gives
    # c_1 = -5 and c_2 = 0, which neither genus 0 nor genus 1 fits
    monkeypatch.setattr(basicfield, "_point_count", lambda F, k, locus_degrees: 1)
    with pytest.raises(InconsistentOracle, match="genus bound 1: engine bug"):
        zeta_genus(elliptic5(), 1)


def test_counts_that_break_the_functional_equation_are_an_inconsistent_oracle(monkeypatch):
    # 6 points over GF(5) and 28 over GF(25) give c_1 = 0 and c_2 = 1: the
    # last nonzero coefficient sits at 2, but genus 1 needs c_2 = 5
    monkeypatch.setattr(basicfield, "_point_count", lambda F, k, locus_degrees: {1: 6, 2: 28}[k])
    with pytest.raises(InconsistentOracle, match="genus bound 1: engine bug"):
        zeta_genus(elliptic5(), 1)


@st.composite
def _small_curves(draw):
    """F over GF(2) or GF(3) with deg_x F <= 3 and y-degree 2 or 3."""
    field = draw(st.sampled_from([F2, F3]))
    dy = draw(st.integers(2, 3))
    monomials = [(i, j) for i in range(4) for j in range(dy + 1)]
    coeffs = draw(st.lists(st.integers(0, field.order - 1), min_size=len(monomials),
                           max_size=len(monomials)))
    return bivar(field, {ij: field.elem(c) for ij, c in zip(monomials, coeffs) if c})


@settings(max_examples=10, deadline=None)
@given(F=_small_curves())
def test_the_point_count_refuses_every_cap_below_the_bound_and_is_exact_at_it(F):
    assume(F.deg_y() >= 2 and not F.derivative_y().is_zero())
    assume(is_irreducible_over_ratfield(F))
    rt = ram_table(F)
    assume(basicfield._constant_field_is_base(rt))
    gr = genus_from_table(rt)
    bound = rt.genus_bound()
    try:
        z = zeta_genus(F, max(1, bound), rt)
    except ffield.BudgetExceeded:
        assume(False)
    assert gr.genus <= z <= gr.genus_hi
    for cap in range(1, bound):
        with pytest.raises(CapTooSmall):
            zeta_genus(F, cap, rt)


@settings(max_examples=10, deadline=None)
@given(F=_small_curves())
def test_the_genus_read_off_the_counts_is_the_least_genus_that_fits_them(F):
    # the counts that zeta_genus takes at cap max(1, bound), handed to the
    # search over g that it once ran
    assume(F.deg_y() >= 2 and not F.derivative_y().is_zero())
    assume(is_irreducible_over_ratfield(F))
    rt = ram_table(F)
    assume(basicfield._constant_field_is_base(rt))
    cap, counts, point_count = max(1, rt.genus_bound()), {}, basicfield._point_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basicfield, "_point_count",
                   lambda F, k, locus: counts.setdefault(k, point_count(F, k, locus)))
        try:
            z = zeta_genus(F, cap, rt)
        except ffield.BudgetExceeded:
            assume(False)
    assert sorted(counts) == list(range(1, 2 * cap + 1))
    assert z == genus_by_search(counts, F.field.order, cap)


def test_zeta_genus_reads_a_given_table_without_rebuilding_it(monkeypatch):
    F = hyper3()
    rt = ram_table(F)

    def rebuilt(*args, **kwargs):
        raise AssertionError("zeta_genus rebuilt the table it was given")

    monkeypatch.setattr(basicfield, "ram_table", rebuilt)
    assert zeta_genus(F, 2, rt) == 2


def test_reconcile_identity_when_nothing_missing():
    rt = ram_table(elliptic5())
    rt2 = reconcile_different(rt, 1)
    assert rt2.different_degree_bounds() == (4, 4)
    assert genus_from_table(rt2) == genus_from_table(rt)


def test_reconcile_fills_wild_different():
    F = family_F(2)
    rt = ram_table(F)
    z = zeta_genus(F, 4)
    assert z == 2
    rt2 = reconcile_different(rt, z)
    assert rt2.missing_exact() == []
    assert rt2.different_degree_bounds() == (8, 8)
    wild = next(pl for pl in rt2.all_places() if pl.e == 2)
    assert wild.d_exact == 4
    g = genus_from_table(rt2)
    assert (g.genus, g.exact) == (2, True)


def test_reconcile_rejects_out_of_window_oracle():
    # a genus-4 oracle would need the wild different to be 8, beyond dmax = 6
    rt = ram_table(family_F(2))
    with pytest.raises(InconsistentOracle):
        reconcile_different(rt, 4)


def test_genus_swap_invariance():
    # swapping the roles of x and y keeps the function field hence the genus
    F = family_F(2)
    Fs = F.swap_xy()
    assert zeta_genus(Fs, 4) == 2
    rts = reconcile_different(ram_table(Fs), 2)
    assert genus_from_table(rts).genus == 2
    E = elliptic5()
    assert genus_basic(E.swap_xy()).genus == genus_basic(E).genus
    K = kummer5()
    assert genus_basic(K.swap_xy()).genus == genus_basic(K).genus


def test_constant_field_extension_detected():
    # y^2 + 1 splits over GF(9): K(x, y) = GF(9)(x) and the formula must refuse
    A = bivar(F3, {(0, 2): 1, (0, 0): 1})
    with pytest.raises(TowerlabError, match="constant field"):
        genus_basic(A)
    # y^2 = 2 (x^2+1)^2 over GF(5): sqrt(2) generates GF(25) inside the field;
    # the certificate has to skip ramified fibers when scanning for degree one
    B = bivar(F5, {(0, 2): 1, (4, 0): -2, (2, 0): -4, (0, 0): -2})
    with pytest.raises(TowerlabError, match="constant field"):
        genus_basic(B)


def test_random_curves_nonnegative_genus_even_different():
    rng = random.Random(7301)
    fields = [F2, F3, F5]
    done = 0
    while done < 20:
        field = rng.choice(fields)
        dy = rng.randint(2, 3)
        d = {(0, dy): 1}
        for j in range(dy + 1):
            for i in range(3):
                if rng.random() < 0.4:
                    d[(i, j)] = rng.randrange(1, field.order)
        d.setdefault((1, 0), 1)
        F = bivar(field, {k: field.elem(v) for k, v in d.items()})
        if F.deg_y() < 2 or F.derivative_y().is_zero():
            continue
        if not is_irreducible_over_ratfield(F):
            continue
        try:
            g = genus_basic(F)
        except TowerlabError:
            continue
        assert g.genus >= 0
        lo, hi = g.diff_degree_bounds
        assert lo % 2 == 0 and hi % 2 == 0  # feasible window is even
        done += 1


# -- residue degrees outside the locus -------------------------------------------


def _kummer_dedekind_fprofile(F, P):
    """The degrees of the irreducible factors of the reduction of the
    monic integral model at P (Kummer-Dedekind; P outside the locus)."""
    H, _M, _pi = monic_integral_model(F, P)
    hbar = FFPoly(P.residue_field(), [P.residue(c) for c in H.coeffs])
    assert hbar.degree() == H.degree()
    factors = poly_factor(hbar)
    assert all(mult == 1 for _, mult in factors)
    return sorted(g.degree() for g, _ in factors)


@pytest.mark.parametrize("make", [elliptic5, kummer5, cubic2, hyper3, lambda: family_F(3)])
def test_unramified_fprofile_matches_kummer_dedekind(make):
    F = make()
    locus = set(ramification_locus(F))
    outside = [
        P
        for d in (1, 2)
        for P in finite_places_of_degree(F.field, d)
        if P not in locus
    ]
    assert outside
    for P in outside:
        pls = places_above(F, P)
        assert [pl.e for pl in pls] == [1] * len(pls), P
        assert sorted(pl.f for pl in pls) == _kummer_dedekind_fprofile(F, P), P


# (field, F, full constant field is GF(q)) for curves whose locus places
# leave a residue-degree gcd with m above 1, so the certificate walks the
# good fibres of GF(q^k) for the k up to its Hasse-Weil bound.  The five
# genus-2 curves over GF(3) have no point over GF(3), so their places of
# degree at most 2 all have degree 2, and a point over GF(27) certifies
# them; the GF(2) curve of bidegree (6, 6) has constant field GF(4)
CONSTANT_FIELD_WALKS = [
    (F5, "y^3+3*y^2+(3*x^2+2)*y+2*x^3+x^2", True),
    (F5, "y^2+3*x*y+4*x^2+3*x+1", True),
    (F5, "y^3+y^2+2*x^2*y+4*x^3+x^2+3*x+1", True),
    (F5, "y^2+3*x^2", False),
    (F5, "y^2+3", False),
    (F2, "y^3+y^2+(x^2+x+1)*y+x^3+x^2", True),
    (F2, "y^2+y+1", False),
    (F2, "y^3+y+1", False),
    (F3, "y^2+x^2+x+2", True),
    (F3, "y^2+y+2", False),
    (F3, "y^2+2*y+x^6+x^5+x^3+2*x^2+x+2", True),
    (F3, "y^2+(x^2+x+2)*y+x^6+x^5+x^3+2*x^2+x+2", True),
    (F3, "y^2+2*x*y+x^6+x^4+2*x^2+1", True),
    (F3, "y^2+y+x^6+2*x^3+2*x^2+x+2", True),
    (F3, "y^2+(2*x^3+1)*y+2*x^6+2*x^2+x+2", True),
    (
        F2,
        "y^6+(x^3+x+1)*y^5+(x^6+x^5+x^4+x+1)*y^4+(x^5+x^3+x^2)*y^3"
        "+(x^5+x^3+x+1)*y^2+(x^5+x^2+x+1)*y+(x^6+x^4+x^3+x^2+1)",
        False,
    ),
]


@pytest.mark.parametrize("K, text, want", CONSTANT_FIELD_WALKS)
def test_the_constant_field_certificate_reads_the_good_fibres(monkeypatch, K, text, want):
    rt = ram_table(parse_poly(text, K))
    assert math.gcd(rt.m, *(pl.residue_degree_abs() for pl in rt.all_places())) > 1
    # off the locus the certificate counts roots of fibres; it runs no
    # MacLane engine
    monkeypatch.setattr(basicfield, "places_above", None)
    assert basicfield._constant_field_is_base(rt) is want


def test_the_constant_field_certificate_agrees_with_irreducibility_over_gf_q_m():
    # for a prime m the constant field is GF(q) or GF(q^m), and it is GF(q^m)
    # exactly when F splits over GF(q^m)(x): an oracle that counts no points
    rng = random.Random(6)
    answers = Counter()
    while sum(answers.values()) < 300:
        p, b = rng.choice([(2, 1), (3, 1), (2, 2), (5, 1)])
        K, m, e = make_field(p, b), rng.choice([2, 3]), rng.randint(0, 3)
        # y^m plus terms x^i y^j with i <= (m - j) e: the places at infinity
        # often leave a degree gcd above 1, so the walk runs
        coeffs = {(0, m): FFElem(K, 1)}
        for j in range(m):
            for i in range((m - j) * e + 1):
                if rng.random() < 0.5:
                    coeffs[(i, j)] = FFElem(K, rng.randrange(1, K.order))
        F = BivarPoly.from_coeff_dict(K, coeffs)
        if F.derivative_y().is_zero() or not is_irreducible_over_ratfield(F):
            continue
        rt = ram_table(F)
        want = is_irreducible_over_ratfield(F.map_field(make_field(p, b * m)))
        assert basicfield._constant_field_is_base(rt) is want, (K, F)
        walks = math.gcd(m, *(pl.residue_degree_abs() for pl in rt.all_places())) > 1
        answers[walks, want] += 1
    assert answers[True, True] and answers[True, False] and answers[False, True]


@pytest.mark.parametrize("p, b, k", [(2, 1, 1), (2, 1, 4), (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_the_orbit_representatives_are_the_smallest_of_each_frobenius_orbit(p, b, k):
    # the point count and the constant-field certificate read one walk
    base = make_field(p, b)
    K = make_field(p, b * k)
    want = {}
    for xi in K.elements():
        orbit, a = {xi.v}, xi**base.order
        while a != xi:
            orbit.add(a.v)
            a = a**base.order
        want[min(orbit)] = len(orbit)
    assert [(xi.v, n) for xi, n in basicfield._orbit_reps(base, k)] == sorted(want.items())


# -- the L-polynomial fit at every cap -----------------------------------------

_spec = importlib.util.spec_from_file_location(
    "bench_workloads",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "workloads.py"),
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# zeta_genus on each benchmark genus curve at caps 1-6: the genus, or None
# for CapTooSmall.  A cap below the curve's genus bound is refused before any
# count: family2's bound is its window's top, 3, though its counts up to
# GF(2^4) already fit genus 2
ZETA_AT_CAPS = {
    "cubic2": [0, 0, 0, 0, 0, 0],
    "elliptic5": [1, 1, 1, 1, 1, 1],
    "family2": [None, None, 2, 2, 2, 2],
    "hyper3": [None, 2, 2, 2, 2, 2],
    "kummer5": [0, 0, 0, 0, 0, 0],
}


def _counts_from_the_zeta_function(monkeypatch, genus):
    """Count points over GF(q^k) directly for k <= 2*genus, and beyond that
    from the L-polynomial those counts determine (the zeta function is
    rational): the true counts, without enumerating GF(q^12).  The work
    budget predicts that enumeration, which never runs here, so it is
    lifted."""
    monkeypatch.setattr(ffield, "WORK_BUDGET", math.inf)
    count = basicfield._point_count
    seen = {}

    def point_count(F, k, locus_degrees):
        if k <= 2 * genus:
            seen[k] = count(F, k, locus_degrees)
            return seen[k]
        q = F.field.order
        a = {j: q**j + 1 - seen[j] for j in range(1, 2 * genus + 1)}
        c = [Fraction(1)]
        for j in range(1, 2 * genus + 1):
            c.append(-sum(a[i] * c[j - i] for i in range(1, j + 1)) / j)
        for j in range(2 * genus + 1, k + 1):
            a[j] = -sum(c[i] * a[j - i] for i in range(1, 2 * genus + 1))
        return int(q**k + 1 - a[k])

    monkeypatch.setattr(basicfield, "_point_count", point_count)


@pytest.mark.parametrize("name", sorted(workloads.GENUS_CURVES))
def test_zeta_genus_at_caps_one_to_six(monkeypatch, name):
    _counts_from_the_zeta_function(monkeypatch, workloads.GENUS_CURVES[name]["genus"])
    got = []
    for cap in range(1, 7):
        try:
            got.append(zeta_genus(workloads.genus_curve(name), cap))
        except CapTooSmall:
            got.append(None)
    assert got == ZETA_AT_CAPS[name]


# -- the discriminant bound on the differents -------------------------------------


def test_the_discriminant_bounds_the_differents_at_every_locus_place():
    # for H the monic P-integral model of F at P, sum_Q f_Q d(Q|P) =
    # v_P(disc H) - 2 ind_P(H), and v_P(disc H) = M m(m-1) + v_P(R)
    # - (m + m') v_P(lc_y F) with R = Res_y(F, F_y) and m' = deg_y F_y.  So
    # the low ends of the d windows sum to at most v_P(disc H), and exact
    # differents to it minus an even index
    curves = sweep_pool() + cli_report_curves() + [family_F(q) for q in (2, 3, 4, 5)]
    curves += [workloads.genus_curve(name) for name in sorted(workloads.GENUS_CURVES)]
    counts = [0, 0, 0]  # locus places, with every d exact, with equality
    for F in dict.fromkeys(curves):
        Fy = curve_dy(F)
        if Fy.is_zero():
            continue  # y^2 + x over GF(4) has no place table
        m, m_dy, R, lc = F.deg_y(), Fy.deg_y(), curve_disc(F), F.ycoeff(F.deg_y())
        for P, pls in ram_table(F).rows:
            M = monic_integral_model(F, P)[1]
            v_disc = M * m * (m - 1) + P.order(R) - (m + m_dy) * P.order(lc)
            lo = sum(pl.f * pl.d_range[0] for pl in pls)
            assert lo <= v_disc, (F, P)
            counts[0] += 1
            if all(pl.d_range[0] == pl.d_range[1] for pl in pls):
                assert (v_disc - lo) % 2 == 0, (F, P)
                counts[1] += 1
                counts[2] += lo == v_disc
    assert counts == [129, 117, 84]
