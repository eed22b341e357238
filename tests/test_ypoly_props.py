"""Property tests for the MacLane kernels: the phi-adic expansion and the
division of YPoly, and canonical form of RatFunc arithmetic.

f ranges over K(x)[y] with coefficients that are often true fractions, phi
over monic polynomials of degree 1-3, on GF(2), GF(4) and GF(5).  The
expansion is checked against its defining properties, which determine it
uniquely: sum c_i phi^i = f with deg c_i < deg phi.  In O_P/P^N, at place(x),
a place of degree 2 and infinity, the expansion of a P-integral f's image
in a monic P-integral key's image is checked against the images of f's
exact digits, and the ring's valuation against the exact one; there, and
over GF(9) too, the images of f + g, f - g, -f and f*g are the sums,
differences, negatives and products of the images.
"""

import pytest
from hypothesis import given, settings, strategies as st

from towerlab.cli import _Parser
from towerlab.ffield import BivarPoly, FFPoly, make_field, poly_gcd
from towerlab.omfactor import YPoly
from towerlab.ratfunc import RatFunc, RatPlace, finite_places_of_degree

FIELDS = {"GF(2)": (2, 1), "GF(4)": (2, 2), "GF(5)": (5, 1)}
LOCAL_FIELDS = {**FIELDS, "GF(9)": (3, 2)}

SETTINGS = settings(max_examples=60, deadline=None)


def _polys(F, max_len, nonzero=False):
    ints = st.lists(st.integers(0, F.order - 1), min_size=1 if nonzero else 0, max_size=max_len)
    if nonzero:
        ints = ints.filter(any)
    return ints.map(lambda cs: FFPoly(F, cs))


def _ratfuncs(F):
    polys = _polys(F, 4).map(RatFunc)
    fractions = st.builds(RatFunc, _polys(F, 4), _polys(F, 3, nonzero=True))
    return st.one_of(polys, fractions)


def _ypolys(F, max_len):
    return st.lists(_ratfuncs(F), max_size=max_len).map(lambda cs: YPoly(F, cs))


def _monic(F):
    low = st.integers(1, 3).flatmap(lambda d: st.lists(_ratfuncs(F), min_size=d, max_size=d))
    return low.map(lambda cs: YPoly(F, cs + [RatFunc.const(F, 1)]))


@st.composite
def _field_and(draw, make):
    F = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    return F, draw(make(F))


def _is_canonical(r):
    return r.den.lc() == r.field.one() and (
        r.den.is_one() if r.num.is_zero() else poly_gcd(r.num, r.den).is_one()
    )


@SETTINGS
@given(_field_and(lambda F: st.tuples(st.lists(_ypolys(F, 7), min_size=1, max_size=3), _monic(F))))
def test_expansion_is_the_phi_adic_expansion(case):
    F, (fs, phi) = case
    for f in fs:
        cs = f.expand_in(phi)
        assert isinstance(cs, tuple)
        assert all(c.degree() < phi.degree() for c in cs)
        assert all(c.is_zero() or not c.lc().is_zero() for c in cs)
        if f.is_zero():
            assert cs == (f,)
        else:
            assert len(cs) == f.degree() // phi.degree() + 1
            assert not cs[-1].is_zero()
        total = YPoly(F, [])
        for c in reversed(cs):
            total = total * phi + c
        assert total == f
    for f in fs:
        # remembered on phi, and equal to the expansion in a fresh equal key
        cs = f.expand_in(phi)
        assert f.expand_in(phi) is cs
        assert YPoly(F, f.coeffs).expand_in(YPoly(F, phi.coeffs)) == cs


@SETTINGS
@given(_field_and(lambda F: st.tuples(_ypolys(F, 7), _ypolys(F, 4))))
def test_divmod_identity(case):
    F, (a, b) = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert r.degree() < b.degree()
    assert q * b + r == a


def test_expansion_base_must_be_monic_and_nonconstant():
    F = make_field(5)
    f = YPoly(F, [1, 2, 3])
    for phi in (YPoly(F, [1]), YPoly(F, [1, 2])):
        with pytest.raises(ValueError):
            f.expand_in(phi)


@SETTINGS
@given(_field_and(lambda F: st.tuples(_ratfuncs(F), _ratfuncs(F))))
def test_ratfunc_arithmetic_is_canonical(case):
    F, (r, s) = case
    built = {
        "+": (r + s, RatFunc(r.num * s.den + s.num * r.den, r.den * s.den)),
        "-": (r - s, RatFunc(r.num * s.den - s.num * r.den, r.den * s.den)),
        "*": (r * s, RatFunc(r.num * s.num, r.den * s.den)),
        "neg": (-r, RatFunc(-r.num, r.den)),
    }
    for op, (got, want) in built.items():
        assert _is_canonical(got), op
        assert (got.num, got.den) == (want.num, want.den), op


@st.composite
def _local_case(draw, fields=FIELDS):
    """(place, N, f, g, phi): f, g and the monic phi (of degree 1 or 2)
    P-integral over K(x), their coefficients of value 0 to about 6 at the
    place."""
    F = make_field(*fields[draw(st.sampled_from(sorted(fields)))])
    place = draw(st.one_of(
        st.just(RatPlace.finite(FFPoly(F, [0, 1]))),
        st.sampled_from(finite_places_of_degree(F, 2)),
        st.just(RatPlace.infinity(F)),
    ))

    def integral(r, k):
        return r if r.is_zero() else r * place.uniformizer() ** (k - min(0, place.valuation(r)))

    coeffs = st.builds(integral, _ratfuncs(F), st.integers(0, 3))
    f, g = (YPoly(F, draw(st.lists(coeffs, max_size=7))) for _ in range(2))
    phi = YPoly(F, draw(st.lists(coeffs, min_size=1, max_size=2)) + [RatFunc.const(F, 1)])
    return place, draw(st.integers(1, 6)), f, g, phi


@SETTINGS
@given(_local_case())
def test_the_local_expansion_is_the_image_of_the_exact_one(case):
    place, N, f, _, phi = case
    ring = place.local(N)
    (g, s), (key, t) = f.local(ring), phi.local(ring)
    assert s == t == 0
    exact = f.expand_in(phi)
    got = list(g.expand_in(key))
    want = [c.local(ring)[0] for c in exact]
    # top digits may vanish mod P^N, and the expansion of 0 is (0,)
    for digits in (got, want):
        while digits and digits[-1].is_zero():
            digits.pop()
    assert got == want
    assert all(type(a) is tuple for d in got for a in d.coeffs)
    for i, c in enumerate(exact):
        image = got[i].coeffs if i < len(got) else ()
        for j, r in enumerate(c.coeffs):
            a = image[j] if j < len(image) else ()
            v = place.valuation(r)
            if v < N:
                assert ring.val(a) == v
            else:
                assert a == ()


@SETTINGS
@given(_local_case(LOCAL_FIELDS))
def test_local_arithmetic_is_the_image_of_the_exact_one(case):
    place, N, f, g, _ = case
    ring = place.local(N)
    (a, s), (b, t) = f.local(ring), g.local(ring)
    assert s == t == 0
    for got, exact in ((a + b, f + g), (a - b, f - g), (-a, -f), (a * b, f * g)):
        assert got == exact.local(ring)[0]
    assert a.coeff(len(a.coeffs)) == ()


def _read_back(text, F):
    """The YPoly of a text in x, y and the generator g of F, as the CLI
    parser reads it."""
    def const(v):
        return BivarPoly(F, [FFPoly(F, [v])])

    env = {"x": BivarPoly(F, [FFPoly(F, [0, 1])]), "y": BivarPoly(F, [FFPoly(F, []), FFPoly(F, [1])]),
           "g": const(F.gen().v)}
    return YPoly.from_bivar(_Parser(text, env, lambda n: const(n % F.p)).parse())


def test_text_of_a_sum_coefficient_reads_back_over_gf4():
    F = make_field(2, 2)
    h = (F.gen() + 1).v
    f = YPoly(F, [1, FFPoly(F, [h, h]), 1])  # y^2 + ((g+1)x + (g+1))y + 1
    assert f.to_str() == "y^2 + ((g + 1)*x + (g + 1))*y + 1"
    assert _read_back(f.to_str(), F) == f


@pytest.mark.parametrize("pk", [(2, 2), (3, 2)])
@SETTINGS
@given(data=st.data())
def test_text_of_a_polynomial_ypoly_reads_back(pk, data):
    F = make_field(*pk)
    f = data.draw(st.lists(_polys(F, 4).map(RatFunc), max_size=5).map(lambda cs: YPoly(F, cs)))
    assert _read_back(f.to_str(), F) == f
