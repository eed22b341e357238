"""Property tests for P-adic data at places of K(x), canonical fraction
arithmetic, and the squarefree certificate at a point.

valuation, residue and unit_residue are checked against an oracle that
strips P from the numerator and denominator by repeated division and
evaluates the full polynomials at rho by Horner, on places of degree 1-3
over GF(2), GF(4) and GF(5).  rho is the root the ratfunc module docstring
names: the class of x over a prime field, else the smallest root of P in
GF(q^d).  Fraction arithmetic is checked against the fraction multiplied
out and, over GF(2), GF(3), GF(5) and GF(7), against sympy's lowest terms.
"""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, symbols

from towerlab.ffield import Adjoin, FFPoly, embed, is_irreducible, make_field, poly_gcd, roots_in_field
from towerlab.omfactor import Inseparable, is_irreducible_over_ratfield, places_above
from towerlab.omfactor.places import curve_point
from towerlab.ratfunc import PoleAtPlace, RatFunc, RatPlace
from helpers import F5, bivar, unipoly

FIELDS = {"GF(2)": (2, 1), "GF(4)": (2, 2), "GF(5)": (5, 1)}
MORE_FIELDS = {"GF(2)": (2, 1), "GF(3)": (3, 1), "GF(4)": (2, 2), "GF(5)": (5, 1), "GF(7)": (7, 1)}

SETTINGS = settings(max_examples=60, deadline=None)


def _polys(F, max_len, nonzero=False):
    ints = st.lists(st.integers(0, F.order - 1), min_size=1 if nonzero else 0, max_size=max_len)
    if nonzero:
        ints = ints.filter(any)
    return ints.map(lambda cs: FFPoly(F, cs))


def _place_polys(F):
    def monic(d):
        return st.lists(st.integers(0, F.order - 1), min_size=d, max_size=d).map(
            lambda cs: FFPoly(F, cs + [1])
        )

    return st.integers(1, 3).flatmap(monic).filter(is_irreducible)


def _fraction_at(F, P):
    """u * P^a / (w * P^b) with u, w random: valuations of either sign."""
    return st.builds(
        lambda u, a, w, b: RatFunc(u * P**a, w * P**b),
        _polys(F, 4, nonzero=True),
        st.integers(0, 3),
        _polys(F, 3, nonzero=True),
        st.integers(0, 3),
    )


def _case(draw_more, fields=FIELDS):
    return st.sampled_from(sorted(fields)).flatmap(
        lambda name: draw_more(make_field(*fields[name]))
    )


def _strip(f, P):
    v = 0
    while True:
        q, r = divmod(f, P)
        if not r.is_zero():
            return v, f
        v, f = v + 1, q


def _rho(P):
    K = P.field
    if P.degree() == 1:
        return embed(-P.coeff(0), make_field(K.p, K.k))
    if K.k == 1:
        return Adjoin(K, P).field.gen()
    return roots_in_field(P, make_field(K.p, K.k * P.degree()))[0]


def _horner(f, rho):
    acc = rho.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * rho + embed(c, rho.field)
    return acc


def _oracle(P, r):
    """(valuation, residue or PoleAtPlace, unit residue) of nonzero r."""
    a, num = _strip(r.num, P)
    b, den = _strip(r.den, P)
    rho = _rho(P)
    v = a - b
    unit = _horner(num, rho) / _horner(den, rho)
    residue = rho.field.zero() if v > 0 else PoleAtPlace if v < 0 else unit
    return v, residue, unit


def _observed(place, r):
    try:
        residue = place.residue(r)
    except PoleAtPlace:
        residue = PoleAtPlace
    return place.valuation(r), residue, place.unit_residue(r)


@SETTINGS
@given(
    _case(
        lambda F: _place_polys(F).flatmap(
            lambda P: st.tuples(st.just(P), st.lists(_fraction_at(F, P), min_size=1, max_size=4))
        )
    )
)
def test_padic_data_matches_the_oracle(case):
    P, rs = case
    place = RatPlace.finite(P)
    # twice over: the second round reads the remembered data
    for _ in range(2):
        for r in rs:
            assert _observed(place, r) == _oracle(P, r), (P, r)


@SETTINGS
@given(
    _case(
        lambda F: st.tuples(_place_polys(F), _place_polys(F)).filter(lambda PQ: PQ[0] != PQ[1]).flatmap(
            lambda PQ: st.tuples(st.just(PQ), _fraction_at(F, PQ[0] * PQ[1]))
        )
    )
)
def test_one_coefficient_at_two_places(case):
    (P, Q), r = case
    at_p, at_q = RatPlace.finite(P), RatPlace.finite(Q)
    for _ in range(2):
        assert _observed(at_p, r) == _oracle(P, r)
        assert _observed(at_q, r) == _oracle(Q, r)


@SETTINGS
@given(_case(lambda F: st.tuples(_polys(F, 5, nonzero=True), _polys(F, 5, nonzero=True))))
def test_unit_residue_at_infinity_is_the_leading_coefficient_ratio(case):
    num, den = case
    r = RatFunc(num, den)
    place = RatPlace.infinity(r.field)
    # the residue of r * x^v(r), the definition of the leading unit
    x = RatFunc(FFPoly(r.field, [0, 1]))
    assert place.unit_residue(r) == place.residue(r * x ** place.valuation(r))


@SETTINGS
@given(
    _case(
        lambda F: st.tuples(
            st.one_of(st.none(), _place_polys(F)),
            _polys(F, 4, nonzero=True),
            st.integers(0, 4),
            st.integers(1, 6),
        ),
        MORE_FIELDS,
    )
)
def test_the_local_lead_is_the_exact_valuation_and_unit_residue(case):
    # f = u * P^a (u alone at infinity) in O_P/P^N, shifted by pi^s into
    # O_P as YPoly.local does: the ring's val and unit read the truncated image
    P, u, a, N = case
    place = RatPlace.infinity(u.field) if P is None else RatPlace.finite(P)
    f = u if P is None else u * P**a
    ring = place.local(N)
    v, unit = ring.split(RatFunc(f))
    assert v == place.order(f)
    s = max(0, -v)
    image = ring.embed(v + s, unit)
    if v + s < N:
        assert ring.val(image) == v + s
        assert ring.unit(image) == place.unit_residue(RatFunc(f))
    else:
        assert image == ()


def test_valuation_and_unit_residue_at_two_places():
    F = make_field(5)
    x, x1 = unipoly(F, [0, 1]), unipoly(F, [1, 1])
    r = RatFunc(unipoly(F, [2]) * x**2, x1)  # 2x^2/(x+1)
    at_x, at_x1 = RatPlace.finite(x), RatPlace.finite(x1)
    for _ in range(2):
        assert at_x.valuation(r) == 2
        assert at_x1.valuation(r) == -1
        assert at_x.unit_residue(r) == F.elem(2)  # 2/(0+1)
        assert at_x1.unit_residue(r) == F.elem(2)  # 2*(-1)^2
        assert at_x.residue(r) == F.zero()
        with pytest.raises(PoleAtPlace):
            at_x1.residue(r)


# -- canonical fraction arithmetic, against sympy over GF(p) -------------------

X = symbols("x")


def _is_canonical(r):
    if r.num.is_zero():
        return r.den.is_one()
    return r.den.lc() == r.field.one() and poly_gcd(r.num, r.den).is_one()


def _sympy(f):
    return Poly(list(reversed(f.ints)), X, modulus=f.field.p)


def _lowest_terms(num, den):
    """num/den divided by their gcd and scaled to a monic denominator, by
    sympy, as (num, den) coefficient lists low to high."""
    p = num.field.p
    if num.is_zero():
        return [], [1]
    num, den = _sympy(num), _sympy(den)
    g = num.gcd(den)
    num, den = num.exquo(g), den.exquo(g)
    inv = pow(int(den.LC()) % p, -1, p)
    return tuple([int(c) * inv % p for c in reversed(f.all_coeffs())] for f in (num, den))


def _check_ops(r, s):
    """Each result is canonical and equal to the fraction multiplied out;
    over a prime field its num and den are sympy's lowest terms."""
    unreduced = {
        "+": (r.num * s.den + s.num * r.den, r.den * s.den),
        "-": (r.num * s.den - s.num * r.den, r.den * s.den),
        "*": (r.num * s.num, r.den * s.den),
        "^3": (r.num**3, r.den**3),
    }
    got = {"+": r + s, "-": r - s, "*": r * s, "^3": r**3}
    if not s.is_zero():
        unreduced["/"] = (r.num * s.den, r.den * s.num)
        got["/"] = r / s
    if not r.is_zero():
        unreduced["inverse"] = (r.den, r.num)
        got["inverse"] = r.inverse()
    for op, (num, den) in unreduced.items():
        assert _is_canonical(got[op]), op
        assert got[op].num * den == got[op].den * num, op
        if r.field.k == 1:
            assert (got[op].num.ints, got[op].den.ints) == _lowest_terms(num, den), op


def _shared_denominators(F):
    """r = n/(g*s1) and t = (c*s1 - n*s2)/(g*s1*s2): the denominators share
    g*s1, and r + t = c/(g*s2) cancels s1 out of the numerator."""
    monic = _polys(F, 3).map(lambda f: FFPoly(F, f.ints + [1]))
    return st.builds(
        lambda n, c, g, s1, s2: (
            RatFunc(n, g * s1),
            RatFunc(c * s1 - n * s2, g * s1 * s2),
        ),
        _polys(F, 4),
        _polys(F, 3),
        monic,
        monic,
        monic,
    )


@SETTINGS
@given(_case(lambda F: st.tuples(st.just(F), _shared_denominators(F)), MORE_FIELDS))
def test_fraction_arithmetic_with_shared_denominators_is_canonical(case):
    _F, (r, t) = case
    _check_ops(r, t)
    _check_ops(t, r)
    _check_ops(r, r)
    _check_ops(r, -r)


def test_fraction_arithmetic_branches():
    F = make_field(5)
    x = unipoly(F, [0, 1])
    x1 = unipoly(F, [1, 1])
    one = unipoly(F, [1])
    a = RatFunc(one, x * x1)  # 1/(x(x+1))
    b = RatFunc(x, x * x1)  # = 1/(x+1) after normalising
    cases = [
        (a, RatFunc(unipoly(F, [1, 2]), x * x1)),  # equal denominators, 1 + (2x+1) cancels x+1
        (a, -a),  # equal denominators, cancels to zero
        (RatFunc(one, x), RatFunc(one, x1)),  # coprime denominators
        (a, b),  # shared factor x+1; numerator 1 + x cancels it
        (a, RatFunc(one, x1 * x1)),  # shared factor x+1, no cancellation
        (RatFunc(x, x1), RatFunc(x1, x * x)),  # each numerator shares a factor with the other denominator
        (RatFunc(unipoly(F, [0, 2]), x1), RatFunc(unipoly(F, [0, 3]) * x1, one)),  # non-monic numerator as divisor
    ]
    for r, s in cases:
        _check_ops(r, s)
        _check_ops(s, r)
    assert a + RatFunc(x, x * x1) == RatFunc(one, x)
    assert (a - a).den.is_one()
    assert RatFunc(x, x1) * RatFunc(x1, x * x) == RatFunc(one, x)


# -- squarefree certificate at a point -------------------------------------------


def test_squarefree_certificate_found():
    F = bivar(F5, {(0, 2): 1, (1, 0): -1})  # y^2 - x
    assert curve_point(F) == F5.elem(1)


def test_squarefree_without_a_certifying_point_reaches_euclid():
    # y^2 - (x^5 - x): squarefree, but y^2 at every point of GF(5)
    F = bivar(F5, {(0, 2): 1, (5, 0): -1, (1, 0): 1})
    assert curve_point(F) is None
    P = RatPlace.finite(unipoly(F5, [0, 1]))
    pls = places_above(F, P)
    assert [(pl.e, pl.f) for pl in pls] == [(2, 1)]
    assert is_irreducible_over_ratfield(F)


def test_square_factor_in_y_still_raises():
    # (y - x)^2 * (y + 1) over GF(5): separable derivative, square factor
    F = bivar(F5, {(0, 3): 1, (0, 2): 1, (1, 2): -2, (1, 1): -2, (2, 1): 1, (2, 0): 1})
    assert not F.derivative_y().is_zero()
    assert curve_point(F) is None
    with pytest.raises(Inseparable, match="not squarefree"):
        places_above(F, RatPlace.finite(unipoly(F5, [0, 1])))
    assert not is_irreducible_over_ratfield(F)
