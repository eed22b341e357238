"""The MacLane engine in O_P/P^N: the precision certificate, the raises,
and the norm identity as an oracle for the values it computes.

Values are computed on images truncated at P^N.  A value below N is exact,
a needed value that reaches N doubles N, and exact zeros are decided on the
exact polynomials.  Starting every decomposition at N = 1 must therefore
change nothing but the number of raises.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from towerlab.basicfield import ramification_locus
from towerlab.cli import parse_poly
from towerlab.errors import TowerlabError
from towerlab.ffield import BivarPoly, make_field, resultant_y
from towerlab.omfactor import Inseparable, maclane, monic_integral_model, places_above
from towerlab.omfactor.places import curve_monic
from towerlab.ratfunc import RatFunc, RatPlace
from helpers import F2, F3, F4, bivar, cli_report_curves, family_F, family_curves, sweep_pool, unipoly

INF = math.inf


def _rows(F):
    """Every place above the locus, read over K(y) where F is inseparable in
    y (as the CLI does): its invariants and refinement levels."""
    if F.derivative_y().is_zero():
        F = F.swap_xy()
    return [
        [(pl.e, pl.f, pl.dmin, pl.dmax, pl.d_exact, pl.refinement) for pl in places_above(F, P)]
        for P in ramification_locus(F)
    ]


def _count_raises(monkeypatch):
    raises = []
    raise_past = maclane._Precision.raise_past

    def counted(self, bound):
        raises.append((self.ring.N, bound))
        return raise_past(self, bound)

    monkeypatch.setattr(maclane._Precision, "raise_past", counted)
    return raises


def test_starting_at_precision_one_changes_no_row(monkeypatch):
    curves = sweep_pool() + cli_report_curves() + family_curves()
    want = [_rows(F) for F in curves]
    raises = _count_raises(monkeypatch)
    monkeypatch.setattr(maclane, "start_precision", lambda m, low_val: 1)
    # fresh copies: nothing from the first run is kept on the record but facts
    got = [_rows(BivarPoly(F.field, F.ycoeffs)) for F in curves]
    assert got == want
    assert len(raises) > 100


def _curves_of_the_start_checks():
    return sweep_pool() + cli_report_curves() + family_curves() + family_curves((16, 25, 27, 32, 49, 64))


def test_the_normal_start_needs_no_raise_on_the_benchmark_curves(monkeypatch):
    # the locus first (analyze, genus)
    raises = _count_raises(monkeypatch)
    for F in _curves_of_the_start_checks():
        _rows(F)
    assert raises == []


def test_without_the_discriminant_a_place_raises_at_most_twice(monkeypatch):
    # places_above on a fresh copy before any locus (family verification,
    # check-theorem) has no v_P(disc H) on the record; the start is read off
    # H alone, so it needs no raise at all and gives the same rows
    raises = _count_raises(monkeypatch)
    for F in _curves_of_the_start_checks():
        if F.derivative_y().is_zero():
            F = F.swap_xy()
        want = _rows(BivarPoly(F.field, F.ycoeffs))
        locus = ramification_locus(BivarPoly(F.field, F.ycoeffs))
        got = []
        for P in locus:
            raises.clear()
            pls = places_above(F, P)
            assert raises == []
            got.append([(pl.e, pl.f, pl.dmin, pl.dmax, pl.d_exact, pl.refinement) for pl in pls])
        assert F.facts.disc_factors is None
        assert got == want


def test_the_raises_of_a_place_do_not_depend_on_the_call_order(monkeypatch):
    K = make_field(5)
    P = RatPlace.finite(unipoly(K, [0, 1]))
    raises = _count_raises(monkeypatch)
    logs = []
    for locus_first in (False, True):
        F = parse_poly("(y-x-x^20)*(y-x-x^2)", K)
        if locus_first:
            ramification_locus(F)
        raises.clear()
        places_above(F, P)
        logs.append(list(raises))
    assert logs[0] == logs[1] != []


def test_a_zero_value_is_decided_exactly_without_raising(monkeypatch):
    # (y - x)(y - x - 1) over GF(3) at x = 0: y - x vanishes on its own
    # component, an infinite stage whose key is the exact factor y - x
    F = bivar(F3, {(0, 2): 1, (1, 1): 1, (0, 1): 2, (2, 0): 1, (1, 0): 1})
    P = RatPlace.finite(unipoly(F3, [0, 1]))
    raises = _count_raises(monkeypatch)
    values = sorted(pl.valuation_of(bivar(F3, {(0, 1): 1, (1, 0): 2})) for pl in places_above(F, P))
    assert values == [0, INF]
    assert raises == []


def test_a_terminal_slope_far_above_the_discriminant(monkeypatch):
    # the roots x + x^20 and x + x^2 over GF(5) differ in value 2, so
    # v_P(disc H) = 4 at x = 0; after the key y - x the polygon of H has its
    # first point at v(H(x, x)) = 22, and the precision is raised until the
    # slopes -20 and -2 are certified
    K = make_field(5)
    F = parse_poly("(y-x-x^20)*(y-x-x^2)", K)
    P = RatPlace.finite(unipoly(K, [0, 1]))
    raises = _count_raises(monkeypatch)
    pls = places_above(F, P)
    assert sorted(pl._handle.V.stage().keyval for pl in pls) == [2, 20]
    # N starts at v(H(x, 0)) + deg H + 1 = 2 + 2 + 1
    assert [N for N, _bound in raises] == [5, 10, 20]


def test_a_raise_past_the_bound_is_an_engine_fault():
    P = RatPlace.finite(unipoly(F3, [0, 1]))
    prec = maclane._Precision(P.local(4))
    prec.raise_past(7)
    assert prec.ring.N == 8
    # a value bounded by 7 cannot reach N = 8
    with pytest.raises(maclane.PrecisionExceeded):
        prec.raise_past(7)


def test_an_integral_model_with_too_small_a_shift_is_refused():
    # x*y^2 + y + 1 over GF(2) at x = 0: the monic model y^2 + y/x + 1/x
    # needs z = y * x (M = 1); decompose on M = 0 must refuse it
    F = parse_poly("x*y^2+y+1", F2)
    P = RatPlace.finite(unipoly(F2, [0, 1]))
    H, M, _pi = monic_integral_model(F, P)
    assert M == 1 and maclane.decompose(P, H)
    with pytest.raises(TowerlabError, match="not integral"):
        maclane.decompose(P, curve_monic(F))
    with pytest.raises(TowerlabError, match="negative value"):
        P.local(4).embed(-1, [1])


# -- the norm identity -------------------------------------------------------------

SMALL = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


@st.composite
def _curves(draw):
    """A pool curve, or a curve over GF(2), GF(3), GF(4) or GF(5) of y-degree
    2 to 4 and x-degree at most 3, separable and squarefree in y."""
    if draw(st.booleans()):
        pool = sweep_pool()
        return pool[draw(st.integers(0, len(pool) - 1))]
    K = draw(st.sampled_from(SMALL))
    m = draw(st.integers(2, 4))
    coeff = st.lists(st.integers(0, K.order - 1), max_size=4)
    F = BivarPoly(K, [draw(coeff) for _ in range(m)] + [draw(coeff.filter(any))])
    try:
        ramification_locus(F)
    except Inseparable:
        assume(False)
    return F


def _v(P, f):
    return P.valuation(RatFunc(f))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_norm_identity(data):
    # sum over Q | P of f_Q * nu_Q(G) = v_P(Res_y(F, G)) - deg_y G * v_P(lc_y F)
    F = data.draw(_curves())
    K = F.field
    locus = ramification_locus(F)
    P = locus[data.draw(st.integers(0, len(locus) - 1))]
    cols = data.draw(st.lists(st.lists(st.integers(0, K.order - 1), max_size=4),
                              min_size=1, max_size=4))
    G = BivarPoly(K, cols)
    assume(not G.is_zero())
    # a power of a finite place's polynomial puts the values of G well above
    # the starting precision, so that the raise path runs
    j = data.draw(st.sampled_from([0, 0, 3, 9, 17]))
    if j and P.poly is not None:
        G = G * BivarPoly(K, [P.poly**j])
    R = resultant_y(F, G)
    assume(not R.is_zero())
    left = sum(pl.f * pl.valuation_of(G) for pl in places_above(F, P))
    right = _v(P, R) - G.deg_y() * _v(P, F.ycoeff(F.deg_y()))
    assert left == right


def test_norm_identity_on_the_family_with_raises(monkeypatch):
    raises = _count_raises(monkeypatch)
    F = family_F(2)
    P = RatPlace.finite(unipoly(F2, [0, 1]))
    G = bivar(F2, {(20, 1): 1, (21, 0): 1})  # x^20 * (y + x)
    left = sum(pl.f * pl.valuation_of(G) for pl in places_above(F, P))
    right = _v(P, resultant_y(F, G)) - _v(P, F.ycoeff(F.deg_y()))
    assert left == right > 20
    assert raises


def test_a_closed_branch_values_y_without_building_its_residue_field(monkeypatch):
    # above x + 1, the first pool curve over GF(2) has a branch closed by a
    # residual factor of degree 2; its terminal stage, built only to answer
    # valuations, reads no residue and so adjoins no root
    F = sweep_pool()[0]
    K = F.field
    assert K.order == 2
    built = []
    adjoin = maclane.Adjoin
    monkeypatch.setattr(maclane, "Adjoin", lambda *args: built.append(args) or adjoin(*args))
    pls = places_above(F, RatPlace.finite(unipoly(K, [1, 1])))
    closed = [pl for pl in pls if (pl.e, pl.f) == (1, 2)]
    assert len(closed) == 1
    branch = closed[0]._handle.V
    assert isinstance(branch, maclane.Closed) and branch.psi.degree() == 2
    built.clear()
    assert closed[0].valuation_of(bivar(K, {(0, 1): 1})) == 0
    assert built == []
