"""Property and differential tests for the integer-backed field core.

* hypothesis checks the field axioms and the Frobenius on prime fields, on
  table-backed fields (order <= ZECH_MAX_ORDER) and on packed fields above
  the bound, and compares every product with textbook multiplication of
  digit vectors modulo the field's modulus;
* FFPoly division and gcd are checked against their defining identities;
* sympy's factorization over GF(p) is an independent oracle for
  poly_factor and is_irreducible, and its resultant for resultant_y over
  GF(p); over GF(p^k) the Bareiss elimination in tests/helpers.py is the
  reference;
* roots_in_field is checked against enumerating every element of the
  target, and on fields too large to enumerate against a root count from
  gcd(x^(q^n) - x, f);
* the packed polynomial kernels of fields above the table bound are checked
  against element-by-element products, long division and modular powers;
* Adjoin's value and lift are checked as inverse maps, and value against
  FFPoly.eval at the root, in each of its three forms;
* pinned values (computed by the earlier tuple-per-element implementation)
  fix the encoding, reprs, sort keys and factor lists, which reports
  depend on.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Poly, symbols

import towerlab.ffield as ffield
from towerlab.ffield import (
    ZECH_MAX_ORDER,
    Adjoin,
    BivarPoly,
    FFElem,
    FFPoly,
    _pdivmod,
    _pmul,
    _pow_mod,
    _ppowmod,
    _psub,
    _pxgcd,
    _smallest_modulus,
    is_irreducible,
    make_field,
    poly_factor,
    poly_gcd,
    resultant_y,
    roots_in_field,
)
from towerlab.cli import parse_poly
from towerlab.omfactor import YPoly
from towerlab.ratfunc import RatFunc, RatPlace, finite_places_of_degree
from helpers import bareiss_resultant_y, textbook_mul

FIELDS = {
    "GF(2)": (2, 1),
    "GF(5)": (5, 1),
    "GF(4)": (2, 2),
    "GF(2^8)": (2, 8),
    "GF(3^6)": (3, 6),
    "GF(5^8)": (5, 8),
    "GF(2^11)": (2, 11),
}
TABLE_BACKED = ("GF(4)", "GF(2^8)", "GF(3^6)")
PACKED = ("GF(5^8)", "GF(2^11)")

SETTINGS = settings(max_examples=60, deadline=None)


def _field(name):
    return make_field(*FIELDS[name])


def _elements(F):
    return st.integers(0, F.order - 1).map(F.elem)


def test_tables_are_built_on_first_use_and_only_within_the_bound():
    # GF(2^10) sits on the bound; a private copy, which no other test can
    # touch, starts without tables
    F = ffield._ZechField(2, 10, _smallest_modulus(2, 10))
    assert F.order == ZECH_MAX_ORDER
    assert "_tables" not in vars(F)
    a, b = F.elem(3), F.elem(1000)
    assert a * b == textbook_mul(F, a, b)
    assert "_tables" in vars(F)
    for name in TABLE_BACKED + PACKED:
        G = _field(name)
        G.elem(2) * G.elem(3)
        assert ("_tables" in vars(G)) == (name in TABLE_BACKED)


@pytest.mark.parametrize("name", sorted(FIELDS))
@SETTINGS
@given(data=st.data())
def test_field_axioms(name, data):
    F = _field(name)
    a, b, c = (data.draw(_elements(F)) for _ in range(3))
    zero, one = F.zero(), F.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and (a - b) + b == a
    assert a * b == textbook_mul(F, a, b)
    if not a.is_zero():
        assert a * a.inverse() == one
        assert (b / a) * a == b
        assert a ** (F.order - 1) == one
    # the Frobenius is a ring endomorphism and x^q = x
    p = F.p
    assert (a + b) ** p == a**p + b**p
    assert (a * b) ** p == a**p * b**p
    assert a**F.order == a


@pytest.mark.parametrize("name", ["GF(2)", "GF(5)", *TABLE_BACKED])
def test_every_nonzero_element_has_an_inverse_in_small_fields(name):
    F = _field(name)
    one = F.one()
    for a in F.elements():
        if not a.is_zero():
            assert a * a.inverse() == one


def _polys(F, min_size=0, max_size=8):
    return st.lists(st.integers(0, F.order - 1), min_size=min_size, max_size=max_size).map(
        lambda cs: FFPoly(F, cs)
    )


@pytest.mark.parametrize("name", sorted(FIELDS))
@SETTINGS
@given(data=st.data())
def test_poly_divmod_identity_and_gcd(name, data):
    F = _field(name)
    f = data.draw(_polys(F))
    g = data.draw(_polys(F, min_size=1))
    h = data.draw(_polys(F, min_size=1, max_size=4))
    assume(not g.is_zero() and not h.is_zero())
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    d = poly_gcd(f * h, g * h)
    assert d.lc() == F.one()
    assert ((f * h) % d).is_zero() and ((g * h) % d).is_zero()
    assert (d % h.monic()).is_zero()
    assert poly_gcd(f, g) == poly_gcd(g, f)


# -- sympy oracle over GF(p) -----------------------------------------------------

X = symbols("x")


def _sympy_factors(f):
    """Monic irreducible factors of f with multiplicities, by sympy."""
    p = f.field.p
    _, facs = Poly(list(reversed(f.ints)), X, modulus=p).factor_list()
    out = []
    for g, mult in facs:
        cs = [c % p for c in reversed(g.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append(((len(cs) - 1, tuple(c * inv % p for c in cs)), mult))
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    cs=st.lists(st.integers(0, 6), min_size=2, max_size=12),
)
def test_poly_factor_and_is_irreducible_match_sympy(p, cs):
    f = FFPoly(make_field(p), cs)
    assume(f.degree() >= 1)
    ours = [(g.sort_key(), mult) for g, mult in poly_factor(f)]
    assert ours == _sympy_factors(f)
    sympy_irreducible = Poly(list(reversed(f.ints)), X, modulus=p).is_irreducible
    assert is_irreducible(f) == sympy_irreducible


@settings(max_examples=100, deadline=None)
@given(pk=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), data=st.data())
def test_squarefree_decomposition_groups_are_squarefree_coprime_and_multiply_back(pk, data):
    # multiplicities that are multiples of p, and one past, exercise the
    # p-th root step and its merge with the multiplicities mod p
    F = make_field(*pk)
    p = F.p
    f = FFPoly(F, [1])
    for _ in range(data.draw(st.integers(1, 4))):
        g = FFPoly(F, data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=3)) + [1])
        f = f * g ** data.draw(st.sampled_from([1, 2, 3, p, p + 1, 2 * p, p * p, p * p + 1]))
    groups = [(m, FFPoly(F, g)) for m, g in ffield._squarefree_decomposition(F, f.ints)]
    mults = [m for m, _ in groups]
    assert mults == sorted(set(mults))
    prod = FFPoly(F, [1])
    for m, g in groups:
        assert g.degree() >= 1 and g.lc() == F.one()
        assert poly_gcd(g, g.derivative()).is_one()
        prod = prod * g**m
    assert prod == f
    for (_, g), (_, h) in itertools.combinations(groups, 2):
        assert poly_gcd(g, h).is_one()


# -- resultant_y -----------------------------------------------------------------

Y = symbols("y")


def _bivars(F, max_dy=5, max_dx=3):
    col = st.lists(st.integers(0, F.order - 1), max_size=max_dx + 1)
    return st.lists(col, min_size=1, max_size=max_dy + 1).map(lambda cols: BivarPoly(F, cols))


def _resultant_pair(F, data):
    """(A, B), both nonzero: random, a curve and its y-derivative (sparse in
    characteristic p), or two curves times a common factor (resultant 0)."""
    A = data.draw(_bivars(F))
    shape = data.draw(st.sampled_from(["random", "derivative", "common factor"]))
    if shape == "derivative":
        B = A.derivative_y()
    else:
        B = data.draw(_bivars(F))
    if shape == "common factor":
        C = data.draw(_bivars(F, max_dy=2, max_dx=1))
        assume(C.deg_y() >= 1)
        A, B = A * C, B * C
    assume(not A.is_zero() and not B.is_zero())
    return A, B


def _sympy_poly(G):
    terms = {(j, i): c for j, col in enumerate(G.ycoeffs) for i, c in enumerate(col.ints)}
    return Poly.from_dict(terms, Y, X, modulus=G.field.p)


def _sympy_resultant(A, B):
    p = A.field.p
    r = Poly(_sympy_poly(A).resultant(_sympy_poly(B)), X, modulus=p)
    return FFPoly(A.field, [int(c) % p for c in reversed(r.all_coeffs())])


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_resultant_y_matches_sympy(p, data):
    A, B = _resultant_pair(make_field(p), data)
    m, n = A.deg_y(), B.deg_y()
    # sympy 1.14 returns -1 for Res(y, y^3 + 1), whose Sylvester matrix is
    # triangular with determinant 1: it is asked with the higher degree first
    if m >= n:
        want = _sympy_resultant(A, B)
    else:
        want = _sympy_resultant(B, A) * (-1) ** (m * n)
    assert resultant_y(A, B) == want


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_bivar_text_parses_back_to_the_polynomial(p, data):
    K = make_field(p)
    F = data.draw(_bivars(K))
    assert parse_poly(F.to_str(), K) == F


@pytest.mark.parametrize("pk", [(2, 2), (2, 3), (3, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resultant_y_matches_bareiss_elimination(pk, data):
    A, B = _resultant_pair(make_field(*pk), data)
    assert resultant_y(A, B) == bareiss_resultant_y(A, B)


# -- pinned values ---------------------------------------------------------------

PINNED = {(2, 2): {'modulus': (1, 1, 1),
          'repr': ['1', 'g', '1', 'g + 1'],
          'mul': [1, 2, 1, 3, 2, 3, 2, 1, 1, 2, 1, 3, 3, 1, 3, 2],
          'inv': [1, 3, 1, 2],
          'gen_pow': [3, 2, 2],
          'to_str': 'x^4 + (g + 1)*x^3 + x^2 + g*x + 1',
          'sort_keys': [[1, 2, 1, 3, 1], [1, 0, 3, 3, 1, 1, 1], [2, 1, 1], [3]],
          'factor': [('x + 1', 2), ('x + g', 6), ('x^2 + g*x + 1', 1)]},
 (3, 2): {'modulus': (1, 0, 1),
          'repr': ['1', '2', 'g', '2*g + 2'],
          'mul': [1, 2, 3, 8, 2, 1, 6, 4, 3, 6, 2, 7, 8, 4, 7, 6],
          'inv': [1, 2, 6, 7],
          'gen_pow': [2, 6, 1],
          'to_str': 'x^4 + (2*g + 2)*x^3 + g*x^2 + 2*x + 1',
          'sort_keys': [[1, 2, 3, 8, 1], [1, 1, 7, 2, 4, 6, 3], [6, 4, 6], [4, 4]],
          'factor': [('x + 2', 2),
                     ('x^2 + g*x + (2*g)', 1),
                     ('x^3 + (2*g)*x^2 + 2', 2)]},
 (2, 8): {'modulus': (1, 1, 0, 1, 1, 0, 0, 0, 1),
          'repr': ['1',
                   'g',
                   'g^6 + g^4 + g^2 + 1',
                   'g^7 + g^6 + g^5 + g^4 + g^3 + g^2 + g + 1'],
          'mul': [1, 2, 85, 255, 2, 4, 170, 229, 85, 170, 161, 248, 255, 229, 248, 19],
          'inv': [1, 141, 36, 28],
          'gen_pow': [4, 128, 203],
          'to_str': 'x^4 + (g^7 + g^6 + g^5 + g^4 + g^3 + g^2 + g + 1)*x^3 + (g^6 + '
                    'g^4 + g^2 + 1)*x^2 + g*x + 1',
          'sort_keys': [[1, 2, 85, 255, 1],
                        [1, 0, 4, 255, 69, 250, 85],
                        [64, 251, 36],
                        [65, 121]],
          'factor': [('x + (g^4 + g^2 + g)', 2),
                     ('x + (g^7 + g^6 + g^2 + g)', 2),
                     ('x^2 + (g^6 + g^3)*x + (g^5 + g^2)', 1),
                     ('x^2 + (g^5 + g^3 + g^2 + g + 1)*x + (g^7 + g^5 + g^4 + g^3 + g)',
                      2)]},
 (5, 3): {'modulus': (1, 1, 0, 1),
          'repr': ['1', '2', 'g^2 + 3*g + 1', '4*g^2 + 4*g + 4'],
          'mul': [1, 2, 41, 124, 2, 4, 57, 93, 41, 57, 20, 33, 124, 93, 33, 74],
          'inv': [1, 3, 48, 96],
          'gen_pow': [25, 54, 76],
          'to_str': 'x^4 + (4*g^2 + 4*g + 4)*x^3 + (g^2 + 3*g + 1)*x^2 + 2*x + 1',
          'sort_keys': [[1, 2, 41, 124, 1],
                        [1, 4, 56, 83, 89, 30, 41],
                        [96, 45, 48],
                        [55, 90]],
          'factor': [('x + (g^2 + 4*g + 1)', 2),
                     ('x + (3*g^2 + 3*g)', 1),
                     ('x + (4*g^2 + 1)', 1),
                     ('x^3 + (3*g^2 + 3)*x^2 + (3*g^2 + g)*x + (g^2)', 2)]},
 (3, 6): {'modulus': (2, 1, 0, 0, 0, 0, 1),
          'repr': ['1', '2', 'g^5', '2*g^5 + 2*g^4 + 2*g^3 + 2*g^2 + 2*g + 2'],
          'mul': [1, 2, 243, 728, 2, 1, 486, 364, 243, 486, 567, 2, 728, 364, 2, 588],
          'inv': [1, 2, 364, 486],
          'gen_pow': [9, 21, 529],
          'to_str': 'x^4 + (2*g^5 + 2*g^4 + 2*g^3 + 2*g^2 + 2*g + 2)*x^3 + (g^5)*x^2 + '
                    '2*x + 1',
          'sort_keys': [[1, 2, 243, 728, 1],
                        [1, 1, 487, 242, 203, 1, 243],
                        [421, 0, 364],
                        [588, 420]],
          'factor': [('x + (g^4 + 2*g + 1)', 1),
                     ('x + (2*g^5 + g^4 + 2*g^3 + 2*g^2 + 1)', 1),
                     ('x^4 + (2*g^5 + 2*g^4 + 2*g^3 + 2*g^2 + 2*g + 2)*x^3 + (g^5)*x^2 '
                      '+ 2*x + 1',
                      2)]},
 (5, 8): {'modulus': (2, 0, 0, 0, 0, 0, 0, 0, 1),
          'repr': ['1',
                   '2',
                   'g^7 + 3*g^6 + g^5 + 3*g^4 + g^3 + 3*g^2 + g + 3',
                   '4*g^7 + 4*g^6 + 4*g^5 + 4*g^4 + 4*g^3 + 4*g^2 + 4*g + 4'],
          'mul': [1,
                  2,
                  130208,
                  390624,
                  2,
                  4,
                  179036,
                  292968,
                  130208,
                  179036,
                  348552,
                  349778,
                  390624,
                  292968,
                  349778,
                  243327],
          'inv': [1, 3, 229107, 13],
          'gen_pow': [25, 78125, 625],
          'to_str': 'x^4 + (4*g^7 + 4*g^6 + 4*g^5 + 4*g^4 + 4*g^3 + 4*g^2 + 4*g + '
                    '4)*x^3 + (g^7 + 3*g^6 + g^5 + 3*g^4 + g^3 + 3*g^2 + g + 3)*x^2 + '
                    '2*x + 1',
          'sort_keys': [[1, 2, 130208, 390624, 1],
                        [1, 4, 179035, 260416, 168891, 349775, 130208],
                        [291523, 245215, 229107],
                        [196633, 144446]],
          'factor': [('x^2 + (4*g^7 + 3*g^6 + g^5 + 2*g^4 + 4*g^3 + 3*g^2 + 2*g + 4)*x '
                      '+ (2*g^7 + 4*g^6 + 3*g^5 + g^4 + 2*g^3 + 4*g^2 + g + 2)',
                      1),
                     ('x^4 + (4*g^7 + 4*g^6 + 4*g^5 + 4*g^4 + 4*g^3 + 4*g^2 + 4*g + '
                      '4)*x^3 + (g^7 + 3*g^6 + g^5 + 3*g^4 + g^3 + 3*g^2 + g + 3)*x^2 '
                      '+ 2*x + 1',
                      2)]},
 (2, 11): {'modulus': (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
           'repr': ['1',
                    'g',
                    'g^9 + g^7 + g^5 + g^3 + g',
                    'g^10 + g^9 + g^8 + g^7 + g^6 + g^5 + g^4 + g^3 + g^2 + g + 1'],
           'mul': [1,
                   2,
                   682,
                   2047,
                   2,
                   4,
                   1364,
                   2043,
                   682,
                   1364,
                   1772,
                   411,
                   2047,
                   2043,
                   411,
                   1362],
           'inv': [1, 1026, 1753, 1539],
           'gen_pow': [4, 128, 1098],
           'to_str': 'x^4 + (g^10 + g^9 + g^8 + g^7 + g^6 + g^5 + g^4 + g^3 + g^2 + g '
                     '+ 1)*x^3 + (g^9 + g^7 + g^5 + g^3 + g)*x^2 + g*x + 1',
           'sort_keys': [[1, 2, 682, 2047, 1],
                         [1, 0, 4, 2047, 278, 409, 682],
                         [2001, 1302, 1753],
                         [2000, 691]],
           'factor': [('x + (g + 1)', 1),
                      ('x + (g^8 + g^7 + g^5 + g^3 + g^2)', 2),
                      ('x + (g^9 + g^4 + g^3)', 2),
                      ('x + (g^9 + g^7 + g^4 + g^3 + g + 1)', 2),
                      ('x + (g^10 + g^8 + g^7 + g^5 + g^4 + g^2)', 1),
                      ('x + (g^10 + g^9 + g^7 + g^6 + g^4)', 2)]}}
QUOTIENT = {'modulus': [2, 2, 0, 1], 'rho': [3, 9, 4, 12, 13, 16, 25, 20], 'repr': 'g^2 + g + 1'}


def _samples(F):
    return [F.elem(v) for v in (1, 2, F.order // 3, F.order - 1)]


@pytest.mark.parametrize("pk", sorted(PINNED))
def test_pinned_encodings_reprs_and_sort_keys(pk):
    want = PINNED[pk]
    F = make_field(*pk)
    xs = _samples(F)
    assert F.modulus == want["modulus"]
    assert [repr(x) for x in xs] == want["repr"]
    assert [(a * b).to_int() for a in xs for b in xs] == want["mul"]
    assert [a.inverse().to_int() for a in xs if not a.is_zero()] == want["inv"]
    assert [(F.gen() ** e).to_int() for e in (2, 7, 100)] == want["gen_pow"]
    f = FFPoly(F, xs + [F.one()])
    g = FFPoly(F, xs[:3])
    assert f.to_str() == want["to_str"]
    keys = [f.sort_key(), (f * g).sort_key(), *(h.sort_key() for h in divmod(f, g))]
    assert [list(key[1]) for key in keys] == want["sort_keys"]
    assert [key[0] for key in keys] == [len(k) - 1 for k in want["sort_keys"]]
    assert [(h.to_str(), m) for h, m in poly_factor(f * f * g)] == want["factor"]


def test_pinned_residue_field_of_a_place():
    # GF(3)[x]/(x^3 + 2x + 2), with rho the class of x
    P = RatPlace.finite(FFPoly(make_field(3), [2, 2, 0, 1]))
    R = P.residue_field()
    rho = R.gen()
    assert R.modulus == tuple(QUOTIENT["modulus"])
    assert [(rho**e).to_int() for e in range(1, 9)] == QUOTIENT["rho"]
    assert repr(rho**5) == QUOTIENT["repr"]
    assert make_field(3, 3, (2, 2, 0, 1)) is R


# smallest monic irreducible moduli, as computed before the search skipped
# candidates with a root in GF(p)
MODULI = {
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 20): (1, 1, 1) + (0,) * 17 + (1,),
    (7, 4): (1, 1, 0, 0, 1),
}


@pytest.mark.parametrize("pk", sorted(MODULI))
def test_pinned_canonical_moduli(pk):
    assert _smallest_modulus(*pk) == MODULI[pk]


# -- roots_in_field ----------------------------------------------------------------

# (source, target) pairs whose target is small enough to enumerate; the
# last two are packed fields above the table bound
ROOT_PAIRS = [
    ((2, 1), (2, 8)),
    ((3, 1), (3, 6)),
    ((5, 1), (5, 4)),
    ((2, 2), (2, 6)),
    ((5, 2), (5, 4)),
    ((2, 1), (2, 11)),
    ((5, 1), (5, 5)),
]


def _canonical_image(src, target):
    """src's generator in target: the smallest root of src's modulus there,
    found by enumeration."""
    if src.k == 1:
        return None
    mod = FFPoly(make_field(src.p), list(src.modulus))
    return min(x.to_int() for x in target.elements() if mod.eval(x).is_zero())


def _roots_by_enumeration(f, target):
    src = f.field
    gen = _canonical_image(src, target)
    cs = []
    for c in f.ints:
        acc = 0
        for d in reversed(src._digits(c)):
            acc = target._add(target._mul(acc, gen), d) if gen is not None else d
        cs.append(acc)
    g = FFPoly(target, cs)
    return [x for x in target.elements() if g.eval(x).is_zero()]


def _factor_product(F, data):
    """A random f over F: a nonzero constant times monic factors of degree
    1 to 4, each to the power 1 or 2 (so reducible, with repeated factors,
    and with factor degrees that may not divide the target's degree)."""
    n = data.draw(st.integers(1, 3))
    f = FFPoly(F, [data.draw(st.integers(1, F.order - 1))])
    for _ in range(n):
        d = data.draw(st.integers(1, 4))
        cs = [data.draw(st.integers(0, F.order - 1)) for _ in range(d)] + [1]
        f = f * FFPoly(F, cs) ** data.draw(st.integers(1, 2))
    return f


@pytest.mark.parametrize("src_pk, target_pk", ROOT_PAIRS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_roots_in_field_match_enumeration(src_pk, target_pk, data):
    src, target = make_field(*src_pk), make_field(*target_pk)
    f = _factor_product(src, data)
    got = roots_in_field(f, target)
    assert all(r.field is target for r in got)
    assert got == _roots_by_enumeration(f, target)


def test_roots_in_field_fixed_cases():
    F2, F5 = make_field(2), make_field(5)
    F64 = make_field(2, 6)
    # x^3 + x + 1 (degree 3 divides 6) times x^2 + x + 1 squared times x
    f = FFPoly(F2, [1, 1, 0, 1]) * FFPoly(F2, [1, 1, 1]) ** 2 * FFPoly(F2, [0, 1])
    got = roots_in_field(f, F64)
    assert len(got) == 6 and got == _roots_by_enumeration(f, F64)
    # the same f has no degree-3 roots in GF(2^8): only x and x^2 + x + 1
    assert len(roots_in_field(f, make_field(2, 8))) == 3
    # a quadratic irreducible over GF(5) has no root in GF(5^5)
    g = FFPoly(F5, [2, 0, 1])
    assert roots_in_field(g, make_field(5, 5)) == []
    assert len(roots_in_field(g, make_field(5, 4))) == 2
    # constants have no roots, in any target
    assert roots_in_field(FFPoly(F5, [3]), make_field(5, 4)) == []


def _irreducible(F, d, seed):
    rng = random.Random(seed)
    while True:
        f = FFPoly(F, [rng.randrange(F.order) for _ in range(d)] + [1])
        if is_irreducible(f):
            return f


def _root_count(f, target):
    """The number of distinct roots of f in target, from the degree of
    gcd(x^(q^n) - x, f) over f's own field GF(q), with q^n = |target|."""
    src = f.field
    x = FFPoly(src, [0, 1])
    h = x
    for _ in range(target.k // src.k):
        h = _pow_mod(h, src.order, f)
    return poly_gcd(h - x, f).degree()


@pytest.mark.parametrize("p, k, degrees", [(5, 20, (1, 2, 3, 4, 10)), (2, 20, (1, 2, 3, 5, 10))])
def test_roots_in_large_fields_are_roots_counted_and_seed_free(p, k, degrees, monkeypatch):
    F, target = make_field(p), make_field(p, k)
    factors = [_irreducible(F, d, seed=d) for d in degrees]
    f = factors[0]  # squared below: a repeated root
    for g in factors:
        f = f * g
    got = roots_in_field(f, target)
    assert len(got) == _root_count(f, target) == sum(d for d in degrees if k % d == 0)
    assert len(set(got)) == len(got)
    assert [r.to_int() for r in got] == sorted(r.to_int() for r in got)
    for r in got:
        assert f.eval(r).is_zero()
    monkeypatch.setattr(ffield, "FACTOR_SEED", 12345)
    assert roots_in_field(f, target) == got


# -- packed polynomial kernels ---------------------------------------------------------

KERNEL_FIELDS = [(5, 5), (5, 20), (2, 11), (3, 7)]


def _ref_mul(F, a, b):
    """Schoolbook product through the field's element arithmetic."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = F._add(out[i + j], F._mul(ai, bj))
    return out


def _ref_divmod(F, a, b):
    """Long division through the field's element arithmetic."""
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    inv = F._inv(b[-1])
    for i in range(len(a) - 1 - db, -1, -1):
        f = F._mul(rem[i + db], inv)
        q[i] = f
        for j, bj in enumerate(b):
            rem[i + j] = F._sub(rem[i + j], F._mul(f, bj))
    rem = rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    while q and not q[-1]:
        q.pop()
    return q, rem


def _ref_powmod(F, a, e, m):
    """a^e mod m by repeated reference products and divisions."""
    out = [1]
    for _ in range(e):
        out = _ref_divmod(F, _ref_mul(F, out, a), m)[1]
    return _ref_divmod(F, out, m)[1]


def _kernel_poly(F, data, max_len=40):
    n = data.draw(st.integers(1, max_len))
    cs = [data.draw(st.integers(0, F.order - 1)) for _ in range(n - 1)]
    return cs + [data.draw(st.integers(1, F.order - 1))]


@pytest.mark.parametrize("pk", KERNEL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_packed_kernels_match_element_arithmetic(pk, data):
    F = make_field(*pk)
    a, b = _kernel_poly(F, data), _kernel_poly(F, data)
    assert _pmul(F, a, b) == _ref_mul(F, a, b)
    if len(a) < len(b):
        a, b = b, a
    assert _pdivmod(F, a, b) == _ref_divmod(F, a, b)
    ab = _ref_mul(F, a, b)
    assert _pdivmod(F, ab, b) == (a, [])
    m = _kernel_poly(F, data, max_len=12)
    if len(m) > 1:
        e = data.draw(st.integers(0, 12))
        assert _ppowmod(F, a[:12], e, m) == _ref_powmod(F, a[:12], e, m)


@pytest.mark.parametrize("pk", KERNEL_FIELDS)
def test_packed_kernels_at_the_slot_width_bound(pk):
    # every digit p - 1 maximises each slot sum; a divisor whose digits are
    # all 1 makes every negated divisor digit p - 1
    F = make_field(*pk)
    top = F.order - 1
    ones = (F.order - 1) // (F.p - 1)
    for n in (1, 2, 7, 40):
        a = [top] * n
        assert _pmul(F, a, a) == _ref_mul(F, a, a)
        assert _pmul(F, a, [top] * 40) == _ref_mul(F, a, [top] * 40)
        for b in ([top] * n, [ones] * n, [top] * (n - 1) + [ones]):
            big = [top] * 79
            assert _pdivmod(F, big, b) == _ref_divmod(F, big, b)
            assert _pdivmod(F, _ref_mul(F, a, b), b) == (a, [])
            if n in (2, 7):
                # a square of a remainder with every digit p - 1
                low = [top] * (n - 1)
                assert _ppowmod(F, low, 2, b) == _ref_powmod(F, low, 2, b)
                assert _ppowmod(F, big, 5, b) == _ref_powmod(F, big, 5, b)


@pytest.mark.parametrize("name", ["GF(2)", "GF(5)", "GF(3^6)", "GF(5^8)"])
@SETTINGS
@given(data=st.data())
def test_a_product_cut_below_x_n_is_the_textbook_product_cut(name, data):
    # n below, at and past len(a) + len(b) - 1; the reference multiplies
    # every pair of coefficients as digit vectors
    F = _field(name)
    a, b = _kernel_poly(F, data, max_len=12), _kernel_poly(F, data, max_len=12)
    full = [F.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            full[i + j] += textbook_mul(F, F.elem(ai), F.elem(bj))
    for n in (data.draw(st.integers(0, len(full) - 1)), len(full), len(full) + data.draw(st.integers(1, 3))):
        want = [c.v for c in full[:n]]
        while want and not want[-1]:
            want.pop()
        assert _pmul(F, a, b, n) == want


# -- Ben-Or irreducibility over GF(Q) --------------------------------------------------


def _mobius(n):
    out = 1
    for r in range(2, n + 1):
        if n % r == 0:
            n //= r
            if n % r == 0:
                return 0
            out = -out
    return out


def _monic_polys(F, n):
    """Every monic polynomial of degree n over F, as coefficient lists."""
    for v in range(F.order**n):
        cs = []
        for _ in range(n):
            v, c = divmod(v, F.order)
            cs.append(c)
        yield cs + [1]


@pytest.mark.parametrize("pk, top", [((2, 2), 4), ((2, 3), 3), ((3, 2), 3)])
def test_is_irreducible_counts_and_trial_division_over_extension_fields(pk, top):
    # trial division by every monic g of degree 1..n/2 is the reference, and
    # the count per degree is the necklace number (1/n) sum mu(d) Q^(n/d)
    F = make_field(*pk)
    Q = F.order
    divisors = [cs for d in range(1, top // 2 + 1) for cs in _monic_polys(F, d)]
    for n in range(1, top + 1):
        count = 0
        for cs in _monic_polys(F, n):
            reducible = any(
                len(g) <= n // 2 + 1 and not _pdivmod(F, cs, g)[1] for g in divisors
            )
            irreducible = is_irreducible(FFPoly(F, cs))
            assert irreducible == (not reducible), cs
            count += irreducible
        necklace = sum(_mobius(d) * Q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert count == necklace == len(finite_places_of_degree(F, n))


@pytest.mark.parametrize("name", PACKED)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_is_irreducible_on_packed_fields(name, data):
    F = _field(name)
    a = FFPoly(F, _kernel_poly(F, data, max_len=4) + [1])
    b = FFPoly(F, _kernel_poly(F, data, max_len=4) + [1])
    assert not is_irreducible(a * b)
    fac = poly_factor(a)
    assert is_irreducible(a) == (len(fac) == 1 and fac[0][0].degree() == a.degree())


@pytest.mark.parametrize("pk", [(5, 1), (3, 2), (2, 11)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pxgcd_is_a_monic_gcd_with_its_bezout_coefficient(pk, data):
    # a prime, a table-backed and a packed field
    F = make_field(*pk)
    a, b = _kernel_poly(F, data, max_len=8), _kernel_poly(F, data, max_len=8)
    common = _kernel_poly(F, data, max_len=3)
    a, b = _pmul(F, a, common), _pmul(F, b, common)
    g, s = _pxgcd(F, a, b)
    assert g == poly_gcd(FFPoly(F, a), FFPoly(F, b)).ints
    assert g[-1] == 1
    assert _pdivmod(F, _psub(F, _pmul(F, s, a), g), b)[1] == []
    assert len(s) < len(b) - len(g) + 1


# -- one extension step ---------------------------------------------------------------


# quotient: whether psi is drawn so that K1 is the quotient GF(p)[u]/(psi)
# with z the class of u, which holds exactly when K0 is prime and deg psi >= 2.
# A prime K0 draws deg psi in 2..4 with it and a linear psi without; any
# other K0 draws deg psi in 1..4 and never gets the quotient.
@pytest.mark.parametrize(
    "pk, quotient",
    [
        ((2, 1), False),
        ((2, 1), True),
        ((3, 1), False),
        ((3, 1), True),
        ((2, 2), False),
        ((3, 2), False),
        ((5, 1), True),
    ],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_adjoin_value_and_lift_are_inverse(pk, quotient, data):
    K0 = make_field(*pk)
    coeff = st.integers(0, K0.order - 1)
    lo, hi = (2, 4) if quotient else (1, 1 if K0.k == 1 else 4)
    d = data.draw(st.integers(lo, hi))
    psi = FFPoly(K0, data.draw(st.lists(coeff, min_size=d, max_size=d)) + [1])
    assume(is_irreducible(psi))
    ext = Adjoin(K0, psi)
    K1, z = ext.field, FFElem(ext.field, ext.z)
    if quotient:
        assert K1 is make_field(K0.p, d, psi.ints) and z == K1.gen()
    elif d == 1:
        assert K1 is K0 and z == -psi.coeff(0)
    else:
        assert K1 is make_field(K0.p, K0.k * d) and z == roots_in_field(psi, K1)[0]
    a = FFPoly(K0, data.draw(st.lists(coeff, max_size=d - 1))).ints
    assert ext.lift(ext.value(a)) == a
    c = data.draw(st.integers(0, K1.order - 1))
    assert len(ext.lift(c)) <= d
    assert ext.value(ext.lift(c)) == c
    b = FFPoly(K0, data.draw(st.lists(coeff, max_size=2 * d + 2)))
    assert ext.value(b.ints) == b.eval(z).v


# -- int operands ---------------------------------------------------------------------


@pytest.mark.parametrize("pk", [(2, 2), (3, 2), (5, 5)])
def test_int_operands_mean_n_times_one_in_every_type(pk):
    F = make_field(*pk)
    p, Q = F.p, F.order
    x = FFPoly(F, [0, 1])
    g = FFPoly(F, [F.gen()])
    samples = [
        F.gen(),
        x + g,
        BivarPoly(F, [x, g]),
        RatFunc(x + g, x),
        YPoly(F, [RatFunc(x + g, x), RatFunc(g)]),
    ]
    for n in (-1, p, p + 1, Q, Q + 1):
        # r < p is an encoding and n*1 alike
        r = n % p
        assert F.one() * n == F.elem(r)
        for X in samples:
            assert X * n == n * X == X * r
            assert X + n == n + X == X + r
            assert X - n == X - r
            assert n - X == r - X
