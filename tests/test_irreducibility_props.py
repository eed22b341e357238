"""Property tests for the irreducibility test over GF(q)(x), and for its
degree-analysis and Eisenstein certificates in particular.

sympy cannot serve as the oracle here: its factorization raises
NotImplementedError for multivariate polynomials over finite fields.  The
reference is the Hensel reconstruction alone (`_reconstruct_subsets`
called directly), which is complete on separable squarefree inputs.
Reducible inputs are built as products G*H, some with a factor G that
looks like two linear factors at every point of GF(q), so that degree
analysis can never rule the split out and the reconstruction must find it.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from towerlab import ffield
from towerlab.errors import TowerlabError
from towerlab.ffield import BivarPoly, BudgetExceeded, FFElem, FFPoly, make_field, poly_factor, poly_gcd
from towerlab.omfactor import eisenstein_at, is_irreducible_over_ratfield
from towerlab.omfactor.irreducibility import (
    _degree_analysis,
    _reconstruct_subsets,
    _subset_products,
)
from towerlab.omfactor.newton import newton_polygon
from towerlab.omfactor.places import (
    curve_disc,
    curve_dy,
    curve_fibres,
    curve_monic,
    curve_point,
    good_fibre,
    good_points,
    squarefree_in_y,
)
from towerlab.omfactor.ypoly import YPoly
from towerlab.ratfunc import RatPlace, finite_places_of_degree
from helpers import F2, F3, F5, bivar, cli_report_curves, family_curves, sweep_pool

FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2), "GF(5)": (5, 1), "GF(9)": (3, 2)}

SETTINGS = settings(max_examples=60, deadline=None)


def _bivar(K, max_dy, max_dx, min_dy=1):
    """A random F with deg_y F in [min_dy, max_dy], deg_x at most max_dx."""

    def build(dy):
        col = st.lists(st.integers(0, K.order - 1), min_size=max_dx + 1, max_size=max_dx + 1)
        lc = col.filter(any)
        return st.tuples(st.lists(col, min_size=dy, max_size=dy), lc).map(
            lambda cols: BivarPoly(K, cols[0] + [cols[1]])
        )

    return st.integers(min_dy, max_dy).flatmap(build)


def _case(draw_more):
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: draw_more(make_field(*FIELDS[name]))
    )


def _hidden_quadratic(K):
    """G irreducible over K(x) with G(a, y) = (y - 1)(y + 1), or y(y + 1) in
    characteristic 2, at every a in K: the constant term vanishes on K."""
    q = K.order
    vanish = {(q, 0): 1, (1, 0): K.p - 1}  # x^q - x
    if K.p == 2:
        # y^2 + y + x(x^q + x): Artin-Schreier with odd pole order q + 1
        d = {(0, 2): 1, (0, 1): 1, (q + 1, 0): 1, (2, 0): 1}
    else:
        # y^2 - 1 - (x^q - x), whose constant term is squarefree of odd degree
        d = {(0, 2): 1, (0, 0): K.p - 1}
        for k, v in vanish.items():
            d[k] = (d.get(k, 0) - v) % K.p
    return BivarPoly.from_coeff_dict(K, {k: K.elem(v) for k, v in d.items() if v})


def _reconstruct(F):
    """The reference: the Hensel reconstruction from F's first good fibre."""
    return _reconstruct_subsets(F, *next(curve_fibres(F)))


@SETTINGS
@given(_case(lambda K: _bivar(K, 4, 2, min_dy=2)))
def test_agrees_with_hensel_reconstruction(F):
    assume(not F.ycoeff(0).is_zero() and not F.derivative_y().is_zero())
    assume(squarefree_in_y(F))
    try:
        want = _reconstruct(F)
    except BudgetExceeded:
        assume(False)
    assert is_irreducible_over_ratfield(F) == want
    if curve_point(F) is not None and _degree_analysis(F, good_points(F, F.field)) is None:
        assert want  # the certificate is only ever given to irreducible F


def test_agrees_with_hensel_reconstruction_on_the_benchmark_curves(monkeypatch):
    family = family_curves((2, 3, 4, 5, 7, 8, 9, 16, 27))
    curves = sweep_pool() + cli_report_curves() + family
    fibres = []
    eval_x = BivarPoly.eval_x
    with monkeypatch.context() as mp:
        mp.setattr(BivarPoly, "eval_x", lambda G, xi: fibres.append(G) or eval_x(G, xi))
        got = [is_irreducible_over_ratfield(F) for F in curves]
    # the Eisenstein test at infinity settles the family without a fibre
    assert not any(G is F for G in fibres for F in family)
    # the reference needs F separable in y; y^2 + x over GF(4) is not, and
    # without content in x or y it is irreducible over GF(q)(x) iff over GF(q)(y)
    want = [_reconstruct(F.swap_xy() if curve_dy(F).is_zero() else F) for F in curves]
    assert got == want == [True] * len(curves)


@SETTINGS
@given(_case(lambda K: st.lists(_bivar(K, 2, 3), min_size=1, max_size=6)))
def test_subset_products_follow_the_combinations_order(lifted):
    # polynomials over K[[x]]/(x^4), as the Hensel lift returns them; the
    # reference is the image of each exact product
    K = lifted[0].field
    R = RatPlace.finite(FFPoly._of(K, [0, 1]), certified=True).local(4)
    local = [YPoly.from_bivar(G).local(R)[0] for G in lifted]
    for r in range(1, len(lifted) + 1):
        want = []
        for S in itertools.combinations(lifted, r):
            prod = S[0]
            for G in S[1:]:
                prod = prod * G
            want.append(YPoly.from_bivar(prod).local(R)[0])
        assert list(_subset_products(local, r)) == want


def _degree_analysis_by_factoring(F, points):
    """The reference: Musser's degree analysis on the factors that
    poly_factor finds at each point; None, or the point with the fewest."""
    left, best = set(range(1, F.deg_y())), None
    for xi, fy in points:
        degrees = [g.degree() for g, _ in poly_factor(fy)]
        sums = {0}
        for d in degrees:
            sums |= {k + d for k in sums}
        left &= sums
        if not left:
            return None
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), xi)
    return best[1]


@SETTINGS
@given(_case(lambda K: st.tuples(_bivar(K, 3, 2), _bivar(K, 3, 2), st.booleans())))
def test_degree_analysis_matches_factoring_every_fibre(GHs):
    G, H, product = GHs
    F = G * H if product else G
    assume(F.deg_y() >= 2 and curve_point(F) is not None)
    got = _degree_analysis(F, good_points(F, F.field))
    want = _degree_analysis_by_factoring(F, good_points(F, F.field))
    if want is None:
        assert got is None
    else:
        assert got == (want, F.eval_x(want))


@SETTINGS
@given(_case(lambda K: st.tuples(_bivar(K, 2, 2), _bivar(K, 3, 2))))
def test_products_are_reducible(GH):
    G, H = GH
    assert not is_irreducible_over_ratfield(G * H)


@SETTINGS
@given(_case(lambda K: st.tuples(st.just(_hidden_quadratic(K)), _bivar(K, 2, 2))))
def test_products_hidden_at_every_point_are_reducible(GH):
    G, H = GH
    assert is_irreducible_over_ratfield(G)
    F = G * H
    if curve_point(F) is not None:
        assert _degree_analysis(F, good_points(F, F.field)) is not None
    assert not is_irreducible_over_ratfield(F)


def _eisenstein_on_monic_model(F, P):
    """The Eisenstein test on the polygon of the monic model F / lc_y F."""
    G = YPoly.from_bivar(F).monic()
    m = G.degree()
    pts = {i: P.valuation(c) for i, c in enumerate(G.coeffs) if not c.is_zero()}
    if m < 1 or 0 not in pts:
        return False
    segs = newton_polygon(pts.items())
    return len(segs) == 1 and segs[0].length == m and segs[0].slope.denominator == m


@SETTINGS
@given(_case(lambda K: _bivar(K, 4, 3)))
def test_eisenstein_on_own_coefficients_matches_the_monic_model(F):
    K = F.field
    places = [RatPlace.infinity(K)] + finite_places_of_degree(K, 1) + finite_places_of_degree(K, 2)
    for P in places:
        assert eisenstein_at(F, P) == _eisenstein_on_monic_model(F, P), P


def _euclid_squarefree(F):
    """The reference: gcd(G, G') = 1 over K(x) for the monic model G."""
    G = curve_monic(F)
    return G.gcd(G.derivative()).degree() == 0


@SETTINGS
@given(
    _case(lambda K: st.tuples(_bivar(K, 3, 2), _bivar(K, 2, 1), st.booleans())),
)
def test_squarefree_in_y_matches_euclid_over_ratfield(FGs):
    F, G, square = FGs
    if square:
        F = G * G * F  # forced repeated factor G
    assert squarefree_in_y(F) == _euclid_squarefree(F)


@pytest.mark.parametrize(
    "K, F, want",
    [
        (F5, {(0, 2): 1, (5, 0): -1, (1, 0): 1}, True),  # y^2 - (x^5 - x)
        # (y - x)^2 (y + 1)
        (F3, {(0, 3): 1, (0, 2): 1, (1, 2): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1}, False),
    ],
)
def test_squarefree_in_y_without_a_good_point(K, F, want):
    F = bivar(K, F)
    assert curve_point(F) is None
    assert squarefree_in_y(F) == _euclid_squarefree(F) == want


@SETTINGS
@given(_case(lambda K: _bivar(K, 3, 2)))
def test_a_fibre_is_good_exactly_off_the_zeros_of_lc_times_the_discriminant(F):
    # the point count skips a locus point by this predicate alone, over GF(q)
    # and its extensions
    assume(not curve_dy(F).is_zero())
    bad = F.ycoeff(F.deg_y()) * curve_disc(F)
    K = F.field
    for L in (K, make_field(K.p, 2 * K.k)):
        for v in range(min(L.order, 30)):
            xi = FFElem(L, v)
            assert (good_fibre(F, xi) is None) == bad.eval(xi).is_zero(), xi


def _no_point_below_gf2_7():
    """L y^3 + (L + x + 1) y + (L + 1) over GF(2), L = lcm(x^64 + x,
    x^32 + x, x^16 + x) of degree 106: L vanishes on GF(2^s) for s <= 6, so
    the first good point lies in GF(2^7), and 2m deg_x F = 636 guarantees one
    only in GF(2^10)."""
    x, one = FFPoly(F2, [0, 1]), FFPoly(F2, [1])
    L = one
    for n in (64, 32, 16):
        g = x**n + x
        L = (L * g).exact_div(poly_gcd(L, g))
    assert L.degree() == 106
    return BivarPoly(F2, [L + one, L + x + one, FFPoly(F2, []), L])


def test_the_good_point_walk_runs_to_the_field_that_must_have_one(monkeypatch):
    F = _no_point_below_gf2_7()
    assert curve_point(F) is None
    xi, fy = next(curve_fibres(F))
    assert xi.field.order == 2**7 and fy.degree() == 3
    assert is_irreducible_over_ratfield(F)
    # each field's walk is checked before it starts: GF(2^7)'s is predicted
    # at 128 fibres of 3 * (106 + 3) products, and the smaller fields pass
    monkeypatch.setattr(ffield, "WORK_BUDGET", 128 * 327 - 1)
    with pytest.raises(BudgetExceeded, match=r"good-point walk over GF\(2\^7\)"):
        next(curve_fibres(_no_point_below_gf2_7()))


def test_a_walk_without_a_good_point_is_an_engine_error():
    # (y - x)^2 (y + 1) over GF(3) is good nowhere, and GF(27) has more than
    # 2m deg_x F = 12 elements: the walk ends there with an error that is
    # no refusal of work
    F = bivar(F3, {(0, 3): 1, (0, 2): 1, (1, 2): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1})
    with pytest.raises(TowerlabError, match=r"no good point up to GF\(3\^3\)") as info:
        next(curve_fibres(F))
    assert not isinstance(info.value, BudgetExceeded)
