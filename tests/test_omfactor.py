import math
import random
from fractions import Fraction

import pytest

from towerlab.ffield import FFPoly
from towerlab.ratfunc import RatPlace
from towerlab.omfactor import (
    eisenstein_at,
    is_irreducible_over_ratfield,
    monic_integral_model,
    newton_polygon,
    places_above,
)
from towerlab.omfactor.newton import DegeneratePolygon, slope_length_pairs
from towerlab.omfactor.maclane import DepthExceeded, Inseparable
from helpers import F2, F3, F4, F5, bivar, family_F, unipoly


def _Px(field):
    return RatPlace.finite(unipoly(field, [0, 1]))


def _Pinf(field):
    return RatPlace.infinity(field)


# -- Newton polygons ----------------------------------------------------------


def test_newton_polygon_two_faces():
    segs = newton_polygon([(0, 3), (1, 0), (3, 0)])
    assert [(s.slope, s.length) for s in segs] == [(Fraction(-3), 1), (Fraction(0), 2)]


def test_newton_polygon_single_fractional_face():
    segs = newton_polygon([(0, -2), (1, 0), (3, 0)])
    assert [(s.slope, s.length) for s in segs] == [(Fraction(2, 3), 3)]


def test_newton_polygon_flat():
    segs = newton_polygon([(0, 0), (1, 0)])
    assert [(s.slope, s.length) for s in segs] == [(Fraction(0), 1)]


def test_newton_polygon_ignores_infinite_points():
    segs = newton_polygon([(0, 3), (1, math.inf), (2, 0)])
    assert [(s.slope, s.length) for s in segs] == [(Fraction(-3, 2), 2)]


def test_newton_polygon_degenerate():
    with pytest.raises(DegeneratePolygon):
        newton_polygon([(0, 1)])
    with pytest.raises(DegeneratePolygon):
        newton_polygon([(0, math.inf), (1, math.inf)])


def test_slope_length_pairs_vanishing_constant_term():
    # missing index 0 contributes a face of slope -infinity
    out = slope_length_pairs({1: Fraction(0), 3: Fraction(0)})
    assert out == [(-math.inf, 1), (Fraction(0), 2)]


def test_newton_polygon_additivity():
    # polygon of a product is the slope-sorted union of the factor polygons
    rng = random.Random(7201)
    for _ in range(30):
        field = rng.choice([F2, F3, F5])
        P = rng.choice([_Px(field), _Pinf(field)])

        def rand_F():
            d = {}
            dy = rng.randint(1, 3)
            for j in range(dy + 1):
                for i in range(rng.randint(0, 2) + 1):
                    if rng.random() < 0.6:
                        d[(i, j)] = rng.randrange(1, field.order)
            d[(0, dy)] = 1
            d.setdefault((rng.randint(0, 2), 0), 1)
            return bivar(field, {k: field.elem(v) for k, v in d.items()})

        A, B = rand_F(), rand_F()

        def poly_points(F):
            from towerlab.ratfunc import RatFunc

            return [(j, P.valuation(RatFunc(F.ycoeff(j)))) for j in range(F.deg_y() + 1)]

        try:
            sa = newton_polygon(poly_points(A))
            sb = newton_polygon(poly_points(B))
            sab = newton_polygon(poly_points(A * B))
        except DegeneratePolygon:
            continue
        merged = {}
        for s in sa + sb:
            merged[s.slope] = merged.get(s.slope, 0) + s.length
        got = {s.slope: s.length for s in sab}
        assert got == merged


# -- places above a rational place -------------------------------------------


def test_places_above_family_at_zero_of_x():
    # the q = 2 family: one unramified place with nu(y) = 3 and one wild
    # double place whose construction needs a single key-polynomial refinement
    F = family_F(2)
    pls = places_above(F, _Px(F2))
    assert sorted((pl.e, pl.f) for pl in pls) == [(1, 1), (2, 1)]
    tame = next(pl for pl in pls if pl.e == 1)
    wild = next(pl for pl in pls if pl.e == 2)
    assert tame.refinement == (("y", Fraction(-3), "u + 1"),)
    assert tame.valuation_of(bivar(F2, {(0, 1): 1})) == 3
    assert wild.refinement == (
        ("y", Fraction(0), "u + 1"),
        ("y + 1", Fraction(-3, 2), "u + 1"),
    )
    assert (wild.dmin, wild.dmax, wild.d_exact) == (2, 6, None)
    assert tame.d_exact == 0


def test_places_above_family_y_side():
    # over the zero of y the extension K(x,y)/K(y) is totally ramified
    F = family_F(2)
    Py = RatPlace.finite(unipoly(F2, [0, 1]))
    pls = places_above(F, Py, side="y")
    assert [(pl.e, pl.f) for pl in pls] == [(3, 1)]
    assert pls[0].side == "y"
    assert pls[0].refinement == (("y", Fraction(-1, 3), "u + 1"),)


def test_places_above_fundamental_identity_elliptic():
    from helpers import elliptic5

    E = elliptic5()
    for P in [_Px(F5), _Pinf(F5)]:
        pls = places_above(E, P)
        assert sum(pl.e * pl.f for pl in pls) == 2


def test_places_above_inert_place():
    # y^2 + y + 1 stays irreducible over the residue field at x = 0 of GF(2)
    F = bivar(F2, {(0, 2): 1, (0, 1): 1, (0, 0): 1, (1, 1): 1})
    pls = places_above(F, _Px(F2))
    assert [(pl.e, pl.f) for pl in pls] == [(1, 2)]
    assert pls[0].residue_degree_abs() == 2


def test_places_above_depth_cap():
    with pytest.raises(DepthExceeded):
        places_above(family_F(2), _Px(F2), max_depth=1)


def test_places_above_inseparable():
    F = bivar(F2, {(0, 2): 1, (1, 0): 1})  # y^2 - x in char 2
    with pytest.raises(Inseparable):
        places_above(F, _Px(F2))


def test_different_bounds_accessor():
    F = family_F(2)
    pls = places_above(F, _Px(F2))
    wild = next(pl for pl in pls if pl.e == 2)
    assert (wild.dmin, wild.dmax, wild.d_exact) == (2, 6, None)
    tame = next(pl for pl in pls if pl.e == 1)
    assert (tame.dmin, tame.dmax, tame.d_exact) == (0, 0, 0)


def test_tame_different_is_e_minus_one():
    from helpers import kummer5

    K = kummer5()
    for P in [_Px(F5), RatPlace.finite(unipoly(F5, [1, 1])), _Pinf(F5)]:
        for pl in places_above(K, P):
            assert pl.d_exact == pl.e - 1


def test_eisenstein_examples():
    assert eisenstein_at(family_F(2), _Pinf(F2))
    assert eisenstein_at(bivar(F2, {(0, 2): 1, (1, 0): 1}), _Px(F2))
    assert not eisenstein_at(bivar(F2, {(0, 2): 1, (2, 0): 1}), _Px(F2))


def test_eisenstein_family_all_q():
    for q in (2, 3, 4, 5):
        F = family_F(q)
        assert eisenstein_at(F, _Pinf(F.field))


def test_monic_integral_model():
    from towerlab.ratfunc import RatFunc

    F = family_F(2)
    P = _Pinf(F2)
    H, M, pi = monic_integral_model(F, P)
    assert H.coeffs[-1] == RatFunc.const(F2, 1)
    assert P.valuation(pi) == 1
    assert M >= 1  # F has a pole at infinity, so a rescale is forced
    for c in H.coeffs:
        if not c.is_zero():
            assert P.valuation(c) >= 0


def test_is_irreducible_examples():
    assert is_irreducible_over_ratfield(family_F(2))
    assert is_irreducible_over_ratfield(bivar(F2, {(0, 3): 1, (1, 0): 1}))
    assert not is_irreducible_over_ratfield(bivar(F2, {(0, 2): 1, (2, 0): 1}))
    # (y - x)(y - x - 1) expanded
    red = bivar(F2, {(0, 2): 1, (0, 1): 1, (1, 1): 0, (2, 0): 1, (1, 0): 1})
    assert not is_irreducible_over_ratfield(red)
    # Artin-Schreier y^2 + y + x
    assert is_irreducible_over_ratfield(bivar(F2, {(0, 2): 1, (0, 1): 1, (1, 0): 1}))


def test_is_irreducible_all_family_instances():
    for q in (2, 3, 4, 5):
        assert is_irreducible_over_ratfield(family_F(q))


def test_place_str_mentions_invariants():
    pl = places_above(family_F(2), _Px(F2))[0]
    s = str(pl)
    assert "e=" in s and "f=" in s


def test_place_valuation_is_multiplicative():
    F = family_F(2)
    wild = next(pl for pl in places_above(F, _Px(F2)) if pl.e == 2)
    rng = random.Random(7202)
    for _ in range(20):
        d1 = {(rng.randint(0, 2), rng.randint(0, 2)): 1 for _ in range(3)}
        d2 = {(rng.randint(0, 2), rng.randint(0, 2)): 1 for _ in range(3)}
        A, B = bivar(F2, d1), bivar(F2, d2)
        if A.is_zero() or B.is_zero():
            continue
        va, vb, vab = wild.valuation_of(A), wild.valuation_of(B), wild.valuation_of(A * B)
        assert vab == va + vb
