import random

import pytest

from towerlab.ffield import FFPoly, poly_factor
from towerlab.ratfunc import (
    PoleAtPlace,
    RatFunc,
    RatPlace,
    finite_places_of_degree,
)
from helpers import F2, F3, F4, unipoly


def _P(field, coeffs):
    return RatPlace.finite(unipoly(field, coeffs))


def test_valuation_examples():
    r = RatFunc(unipoly(F2, [0, 0, 0, 1]), unipoly(F2, [1, 1]))  # x^3/(x+1)
    assert _P(F2, [0, 1]).valuation(r) == 3
    assert _P(F2, [1, 1]).valuation(r) == -1
    assert RatPlace.infinity(F2).valuation(r) == -2
    s = RatFunc(unipoly(F2, [1, 1]) ** 2)
    assert _P(F2, [1, 1]).valuation(s) == 2


def test_valuation_of_zero_is_infinite():
    import math

    z = RatFunc(unipoly(F2, []))
    assert _P(F2, [0, 1]).valuation(z) == math.inf
    assert RatPlace.infinity(F2).valuation(z) == math.inf


def test_residue_examples():
    r = RatFunc(unipoly(F2, [1, 1]), unipoly(F2, [0, 1]))  # (x+1)/x
    assert _P(F2, [1, 1]).residue(r) == F2.zero()
    s = RatFunc(unipoly(F2, [0, 0, 1]), unipoly(F2, [1, 1, 1]))  # x^2/(x^2+x+1)
    assert RatPlace.infinity(F2).residue(s) == F2.one()
    t = RatFunc(unipoly(F2, [1]), unipoly(F2, [0, 1]))  # 1/x
    with pytest.raises(PoleAtPlace):
        _P(F2, [0, 1]).residue(t)


def test_unit_residue():
    r = RatFunc(unipoly(F2, [0, 0, 0, 1]), unipoly(F2, [1, 1]))  # x^3/(x+1)
    # r / x^3 evaluated at x = 0 is 1/(0+1) = 1
    assert _P(F2, [0, 1]).unit_residue(r) == F2.one()


def test_place_degrees():
    assert _P(F2, [0, 1]).degree() == 1
    assert _P(F2, [1, 1, 1]).degree() == 2
    assert RatPlace.infinity(F2).degree() == 1


def test_residue_field_of_quadratic_place():
    P = _P(F2, [1, 1, 1])
    R = P.residue_field()
    assert R.order == 4


def test_lift_roundtrip():
    P = _P(F3, [1, 0, 1])  # x^2 + 1 irreducible over GF(3)
    R = P.residue_field()
    for alpha in R.elements():
        assert P.residue(P.lift(alpha)) == alpha


def test_uniformizer():
    for P in [_P(F2, [0, 1]), _P(F2, [1, 1, 1]), RatPlace.infinity(F2)]:
        assert P.valuation(P.uniformizer()) == 1


def test_finite_places_of_degree():
    d1 = finite_places_of_degree(F2, 1)
    assert [repr(P) for P in d1] == ["place(x)", "place(x + 1)"]
    d2 = finite_places_of_degree(F2, 2)
    assert [repr(P) for P in d2] == ["place(x^2 + x + 1)"]
    assert len(finite_places_of_degree(F3, 1)) == 3
    assert len(finite_places_of_degree(F3, 2)) == 3


def _random_ratfunc(field, rng):
    def rand_poly(dmax):
        return unipoly(field, [rng.randrange(field.order) for _ in range(rng.randint(1, dmax))] + [1])

    return RatFunc(rand_poly(4), rand_poly(4))


def _support_places(r):
    field = r.field
    places = {RatPlace.infinity(field)}
    for poly in (r.num, r.den):
        if poly.degree() >= 1:
            for g, _ in poly_factor(poly):
                if g.degree() >= 1:
                    places.add(RatPlace.finite(g))
    return places


def test_product_formula():
    # sum over all places of v_P(r) * deg P = 0
    rng = random.Random(7101)
    for _ in range(50):
        field = rng.choice([F2, F3, F4])
        r = _random_ratfunc(field, rng)
        if r.is_zero():
            continue
        total = sum(P.valuation(r) * P.degree() for P in _support_places(r))
        assert total == 0


def test_valuation_multiplicative_and_ultrametric():
    rng = random.Random(7102)
    for _ in range(40):
        field = rng.choice([F2, F3])
        r = _random_ratfunc(field, rng)
        s = _random_ratfunc(field, rng)
        for P in [_P(field, [0, 1]), RatPlace.infinity(field)]:
            vr, vs = P.valuation(r), P.valuation(s)
            assert P.valuation(r * s) == vr + vs
            if not (r + s).is_zero():
                v_sum = P.valuation(r + s)
                assert v_sum >= min(vr, vs)
                if vr != vs:
                    assert v_sum == min(vr, vs)


def test_ratfunc_normalization_and_equality():
    a = RatFunc(unipoly(F2, [0, 0, 1]), unipoly(F2, [0, 1]))  # x^2/x
    b = RatFunc(unipoly(F2, [0, 1]))
    assert a == b
    assert hash(a) == hash(b)
