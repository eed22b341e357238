import gc
import os
import random
import subprocess
import sys
import weakref
from math import isqrt

import pytest

import towerlab.ffield as ffield
from towerlab.basicfield import ramification_locus
from towerlab.ffield import (
    PRIMALITY_BOUND,
    ZECH_MAX_ORDER,
    BivarPoly,
    FFPoly,
    NoEmbedding,
    NotPrime,
    PrimalityUndecided,
    _ExtensionField,
    _ben_or,
    _monic_irreducibles,
    _smallest_modulus,
    _ZechField,
    embed,
    is_irreducible,
    is_prime,
    make_field,
    poly_factor,
    poly_gcd,
    qth_root,
    resultant_y,
    roots_in_field,
)
from towerlab.omfactor import is_irreducible_over_ratfield, places_above
from towerlab.omfactor.maclane import Inseparable
from towerlab.ratfunc import RatFunc, RatPlace
from helpers import F2, F3, F4, F5, bareiss_resultant_y, bivar, modulus_field, textbook_mul, unipoly


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    for n in range(10**5 + 1):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n


def test_is_prime_on_pseudoprimes_and_large_primes():
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 9)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_refuses_past_its_bound():
    # the bound itself is a strong pseudoprime to every fixed base
    with pytest.raises(PrimalityUndecided, match=str(PRIMALITY_BOUND)):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(PrimalityUndecided):
        is_prime(2**89 - 1)
    # a small factor still answers at any size
    assert not is_prime(2**89)
    assert not is_prime(3 * (2**89 - 1))


def test_make_field_gf4_canonical_modulus():
    # smallest irreducible quadratic over GF(2) is x^2 + x + 1
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)


def test_field_element_enumeration_and_encoding():
    F9 = make_field(3, 2)
    elems = list(F9.elements())
    assert len(elems) == 9
    assert len(set(elems)) == 9
    for e in elems:
        assert F9.elem(e.to_int()) == e


def test_inverses():
    F8 = make_field(2, 3)
    for e in F8.elements():
        if not e.is_zero():
            assert e * e.inverse() == F8.one()


def test_poly_factor_y3_plus_y_gf2():
    f = unipoly(F2, [0, 1, 0, 1])  # y^3 + y = y (y+1)^2
    assert poly_factor(f) == [
        (unipoly(F2, [0, 1]), 1),
        (unipoly(F2, [1, 1]), 2),
    ]


def test_poly_factor_y4_plus_y_gf3():
    f = unipoly(F3, [0, 1, 0, 0, 1])  # y^4 + y = y (y+1)^3 over GF(3)
    assert poly_factor(f) == [
        (unipoly(F3, [0, 1]), 1),
        (unipoly(F3, [1, 1]), 3),
    ]


def test_a_power_of_x_is_peeled_off_without_a_division_per_unit_of_multiplicity(monkeypatch):
    # x^16001 (x+1)^2 over GF(5) once cost 16001 rounds of degree-16001
    # divisions; Yun's algorithm takes a few per p-th root
    x, x1 = unipoly(F5, [0, 1]), unipoly(F5, [1, 1])
    divisions = []
    pdivmod = ffield._pdivmod
    monkeypatch.setattr(ffield, "_pdivmod", lambda *a: divisions.append(1) or pdivmod(*a))
    assert poly_factor(x**16001 * x1**2) == [(x, 16001), (x1, 2)]
    assert poly_factor(x**5 * x1**5) == [(x, 5), (x1, 5)]
    assert poly_factor(x**3) == [(x, 3)]
    assert len(divisions) < 100


@pytest.mark.parametrize("root", [0, 1])
def test_a_4001st_power_takes_no_division_per_unit_of_multiplicity(monkeypatch, root):
    # (x+1)^4001 over GF(5) took 1.34 s with a gcd and a division per unit
    g = unipoly(F5, [root, 1])
    divisions = []
    pdivmod = ffield._pdivmod
    monkeypatch.setattr(ffield, "_pdivmod", lambda *a: divisions.append(1) or pdivmod(*a))
    assert ffield._squarefree_decomposition(F5, (g**4001).ints) == [(4001, g.ints)]
    assert poly_factor(g**4001) == [(g, 4001)]
    assert len(divisions) < 100


def test_poly_factor_expand_roundtrip():
    rng = random.Random(7001)
    fields = [F2, F3, F4, F5, make_field(3, 2)]
    for _ in range(60):
        field = rng.choice(fields)
        deg = rng.randint(1, 8)
        coeffs = [rng.randrange(field.order) for _ in range(deg)] + [1]
        f = FFPoly(field, [field.elem(c) for c in coeffs])
        fac = poly_factor(f)
        prod = FFPoly(field, [f.lc()])
        total = 0
        for g, mult in fac:
            assert g.lc() == field.one()
            prod = prod * g**mult
            total += g.degree() * mult
        assert prod == f
        assert total == f.degree()


def test_qth_root_prime_field():
    c = qth_root(F3.elem(2), 3)
    assert c == F3.elem(2)  # 2^3 = 8 = 2 in GF(3)


def test_qth_root_gf4():
    g = F4.gen()
    c = qth_root(g, 2)
    assert c == g * g
    assert c * c == g


def test_qth_root_inverts_frobenius_everywhere():
    for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 4)]:
        field = make_field(p, k)
        for s in range(1, k + 1):
            q = p**s
            for b in field.elements():
                assert qth_root(b, q) ** q == b


def test_embed_properties():
    rng = random.Random(7002)
    pairs = [(make_field(2), make_field(2, 3)), (F4, make_field(2, 4)), (make_field(3, 2), make_field(3, 4))]
    for src, dst in pairs:
        images = {embed(e, dst) for e in src.elements()}
        assert len(images) == src.order  # injective
        for _ in range(100):
            a = src.elem(rng.randrange(src.order))
            b = src.elem(rng.randrange(src.order))
            assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)
            assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)


def test_embed_rejects_non_subfield():
    with pytest.raises(NoEmbedding):
        embed(F4.gen(), make_field(2, 3))


def test_roots_in_field():
    f = unipoly(F5, [1, 0, 1])  # x^2 + 1 = (x+2)(x+3) over GF(5)
    assert [r.to_int() for r in roots_in_field(f)] == [2, 3]
    g = unipoly(F2, [1, 1, 1])  # irreducible over GF(2)
    assert roots_in_field(g) == []
    rs = roots_in_field(g, F4)
    assert len(rs) == 2
    for r in rs:
        assert r * r + r + F4.one() == F4.zero()


def test_resultant_y_detects_common_factor():
    # (y - x)(y - 1) and (y - x)(y + 1) share y - x
    A = bivar(F5, {(0, 2): 1, (1, 1): -1, (0, 1): -1, (1, 0): 1})
    B = bivar(F5, {(0, 2): 1, (1, 1): -1, (0, 1): 1, (1, 0): -1})
    assert resultant_y(A, B).is_zero()
    C = bivar(F5, {(0, 1): 1, (0, 0): 1})  # y + 1, coprime to y - x
    D = bivar(F5, {(0, 1): 1, (1, 0): -1})
    assert not resultant_y(C, D).is_zero()


# (field, F, G or None for F_y, Res_y(F, G) low to high or None where only
# the Bareiss reference gives the value)
RESULTANT_CASES = {
    "both of y-degree 0": (F5, {(1, 0): 1, (0, 0): 1}, {(1, 0): 1}, [1]),
    "F of y-degree 0": (F5, {(1, 0): 1, (0, 0): 1}, {(0, 2): 1, (1, 0): 1}, [1, 2, 1]),
    "G of y-degree 0": (F5, {(0, 2): 1, (1, 0): 1}, {(1, 0): 1, (0, 0): 1}, [1, 2, 1]),
    # m < n with m*n odd: lc(F)^3 * G(x); the Sylvester matrix of y and
    # y^3 + 1 is triangular with determinant 1
    "m < n, m*n odd": (F5, {(0, 1): 1, (1, 0): -1}, {(0, 3): 1, (0, 0): 1}, [1, 0, 0, 1]),
    "y before y^3 + 1": (F5, {(0, 1): 1}, {(0, 3): 1, (0, 0): 1}, [1]),
    "m > n, m*n odd": (F5, {(0, 3): 1, (0, 0): 1}, {(0, 1): 1, (1, 0): -1}, [-1, 0, 0, -1]),
    # y^5 + x*y^2 + y + x over GF(5): F_y = 2x*y + 1
    "sparse F_y over GF(5)": (F5, {(0, 5): 1, (1, 2): 1, (0, 1): 1, (1, 0): 1}, None, None),
    # y^6 + x*y^4 + y^2 + x over GF(3): F_y = x*y^3 + 2y
    "sparse F_y over GF(3)": (F3, {(0, 6): 1, (1, 4): 1, (0, 2): 1, (1, 0): 1}, None, None),
    # (y - x)^2 (y + 1) over GF(3) shares y - x with its F_y
    "common factor": (
        F3, {(0, 3): 1, (0, 2): 1, (1, 2): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1}, None, [],
    ),
    # (x + 1)*y + x: Res(F, F_y) = x + 1, and Res(F, y^2 + 1) = x^2 + (x + 1)^2
    "F linear, with its F_y": (F5, {(1, 1): 1, (0, 1): 1, (1, 0): 1}, None, [1, 1]),
    "F linear": (F5, {(1, 1): 1, (0, 1): 1, (1, 0): 1}, {(0, 2): 1, (0, 0): 1}, [1, 2, 2]),
}


@pytest.mark.parametrize("name", sorted(RESULTANT_CASES))
def test_resultant_y_degenerate_cases(name):
    K, f, g, want = RESULTANT_CASES[name]
    F = bivar(K, f)
    G = F.derivative_y() if g is None else bivar(K, g)
    if name.startswith("sparse"):
        assert G.deg_y() < F.deg_y() - 1
    R = resultant_y(F, G)
    assert R == bareiss_resultant_y(F, G)
    if want is not None:
        assert R == unipoly(K, want)


def test_poly_gcd():
    f = unipoly(F2, [0, 1]) * unipoly(F2, [1, 1]) ** 2
    g = unipoly(F2, [1, 1]) * unipoly(F2, [1, 1, 1])
    assert poly_gcd(f, g) == unipoly(F2, [1, 1])


def test_bivar_swap_roundtrip_and_eval():
    F = bivar(F5, {(0, 2): 1, (3, 0): -1, (1, 0): -1, (2, 1): 2})
    assert F.swap_xy().swap_xy() == F
    for xi in F5.elements():
        for eta in F5.elements():
            assert F.eval_x(xi).eval(eta) == F.swap_xy().eval_x(eta).eval(xi)


def test_derivative_reduces_exponent_mod_p():
    # over GF(4) every y-power here is even, so the derivative vanishes;
    # int coercion is digit encoding, which would give 2 -> g if unreduced
    g = F4.gen()
    F = bivar(F4, {(0, 4): g + F4.one(), (1, 2): g, (0, 0): g})
    assert F.derivative_y().is_zero()
    f = FFPoly(F4, [g, F4.zero(), F4.one()])
    assert f.derivative().is_zero()
    F9 = make_field(3, 2)
    k = FFPoly(F9, [F9.zero(), F9.one(), F9.zero(), F9.one()])
    assert k.derivative() == FFPoly(F9, [F9.one()])


def test_bivar_degrees_and_str():
    F = bivar(F2, {(1, 3): 1, (0, 3): 1, (1, 1): 1, (0, 1): 1, (3, 0): 1})
    assert F.deg_y() == 3
    assert F.deg_x() == 3
    assert F.to_str() == "(x + 1)*y^3 + (x + 1)*y + x^3"


# -- Zech tables: generator by an order test --------------------------------------


def _walk_tables(F):
    """(log, exp, zech) by the original construction: walk the powers of each
    candidate g >= p until one has order q - 1 (reference copy)."""
    p, q1 = F.p, F.order - 1

    def mul(a, b):
        return _ExtensionField._mul(F, a, b)

    for g in range(p, F.order):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = mul(x, g)
        if len(exp) == q1:
            break
    log = [None] * F.order
    for i, x in enumerate(exp):
        log[x] = i
    zech = None
    if p != 2:
        zech = [log[x - x % p + (x % p + 1) % p] for x in exp]
    return log, exp + exp, zech


def _table_fields():
    """Private (not interned) copies of every table-backed canonical field,
    and of a few other moduli like those of residue fields GF(p)[x]/(P)."""
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        k = 2
        while p**k <= ZECH_MAX_ORDER:
            out.append((p, k, _smallest_modulus(p, k)))
            k += 1
    base = {p: make_field(p) for p in (2, 3, 5, 7, 31)}
    for p, k in ((2, 6), (2, 10), (3, 4), (5, 2), (5, 4), (7, 2), (7, 3), (31, 2)):
        # the largest monic irreducible modulus: t is rarely primitive there
        for v in range(p**k - 1, -1, -1):
            digits = [(v // p**i) % p for i in range(k)]
            if is_irreducible(FFPoly(base[p], digits + [1])):
                out.append((p, k, tuple(digits) + (1,)))
                break
    return out


@pytest.mark.parametrize("p,k,modulus", _table_fields())
def test_zech_tables_match_the_power_walk(p, k, modulus):
    F = _ZechField(p, k, modulus)
    assert F._tables == _walk_tables(_ZechField(p, k, modulus))


def test_the_modulus_search_over_a_large_prime_skips_the_binomials():
    # 3 does not divide 10^9 + 6, so no x^3 + c is irreducible, and the
    # search walks past all 10^9 + 7 of them without a test; in a fresh
    # interpreter, so that a search that does test them fails on the timeout
    code = """
import time
from towerlab.ffield import make_field
start = time.process_time()
F = make_field(10**9 + 7, 3)
print(time.process_time() - start, F.modulus)
"""
    src = os.path.dirname(os.path.dirname(ffield.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    seconds, modulus = proc.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert modulus.strip() == "(5, 1, 0, 1)"
    # x^3 + x + c is reducible for c < 5
    base = make_field(10**9 + 7)
    assert not any(_ben_or(base, [c, 1, 0, 1]) for c in range(5))


def _first_of_the_full_walk(F, d):
    """The first monic irreducible of degree d over F, walking every
    encoding from 0, binomials included."""
    Q = F.order
    for v in range(Q**d):
        f = [(v // Q**i) % Q for i in range(d)] + [1]
        if _ben_or(F, f):
            return f


def _binomials_ruled_out(Q, d):
    """Lidl-Niederreiter, Finite Fields, Thm 3.75: no x^d + c is irreducible
    over GF(Q) when a prime r | d does not divide Q - 1, or 4 | d and
    Q != 1 mod 4."""
    primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
    return any((Q - 1) % r for r in primes) or (d % 4 == 0 and Q % 4 != 1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (5, 2)])
def test_the_binomial_skip_keeps_every_first_modulus(monkeypatch, p, k):
    F = make_field(p, k)
    Q = F.order
    tested = []

    def ben_or(F, f):
        tested.append(f)
        return _ben_or(F, f)

    monkeypatch.setattr(ffield, "_ben_or", ben_or)
    d = 1
    while d <= 6 and Q**d <= 2 * 10**5:
        tested.clear()
        assert next(_monic_irreducibles(F, d)) == _first_of_the_full_walk(F, d), (Q, d)
        # the walk tests no binomial exactly where the theorem rules them out,
        # and then none of them is irreducible
        skipped = d > 1 and tested[0] == [0, 1] + [0] * (d - 2) + [1]
        assert skipped == _binomials_ruled_out(Q, d), (Q, d)
        if skipped:
            assert not any(_ben_or(F, [c] + [0] * (d - 1) + [1]) for c in range(Q)), (Q, d)
        d += 1


# GF(8), GF(16), GF(32), GF(9), GF(27), GF(25), GF(49) and GF(343)
MODULUS_FIELDS = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2), (7, 3)]


@pytest.mark.parametrize("p,k", MODULUS_FIELDS)
def test_a_modulus_has_tables_iff_it_is_canonical(p, k):
    C = make_field(p, k)
    for m in _monic_irreducibles(make_field(p), k):
        F = modulus_field(p, m)
        canonical = tuple(m) == _smallest_modulus(p, k)
        F.elem(2) * F.elem(p)
        assert ("_tables" in vars(F)) == canonical, m
        assert (F is C) == canonical, m


def test_a_place_on_the_canonical_modulus_shares_the_canonical_field():
    # in a fresh interpreter, so that no other test has built these fields:
    # a place whose P is the canonical modulus interns the table-backed field
    # first, and make_field(p, k) then returns that same object
    code = """
from towerlab import ffield
from towerlab.ffield import Adjoin, FFPoly, _smallest_modulus, make_field
from towerlab.ratfunc import RatPlace
for p, k in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
    m = _smallest_modulus(p, k)
    assert (p, k) not in ffield._canonical and (p, m) not in ffield._fields, (p, k)
    place = RatPlace(make_field(p), FFPoly(make_field(p), list(m)))
    F = place.residue_field()
    assert type(F) is ffield._ZechField, (p, k)
    assert make_field(p, k) is F, (p, k)
    assert Adjoin(make_field(p), FFPoly(make_field(p), list(m))).field is F, (p, k)
print("ok")
"""
    src = os.path.dirname(os.path.dirname(ffield.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


@pytest.mark.parametrize("p,k", MODULUS_FIELDS)
def test_products_and_inverses_agree_with_the_textbook_product_in_every_modulus(p, k):
    rng = random.Random(20261019 + 100 * p + k)
    for m in _monic_irreducibles(make_field(p), k):
        F = modulus_field(p, m)
        for _ in range(20):
            a, b = F.elem(rng.randrange(F.order)), F.elem(rng.randrange(1, F.order))
            assert a * b == textbook_mul(F, a, b), (m, a, b)
            assert textbook_mul(F, b, b.inverse()) == F.one(), (m, b)


def test_a_field_is_interned_while_referenced_and_freed_after():
    # x^2 + 3x + 5 is irreducible over GF(13), and not the canonical modulus
    modulus = (5, 3, 1)
    assert _smallest_modulus(13, 2) != modulus
    F = modulus_field(13, modulus)
    assert modulus_field(13, modulus) is F
    a = F.elem(20)
    assert a * a.inverse() == F.one()
    ref = weakref.ref(F)
    del F
    assert a.field is modulus_field(13, modulus)
    del a
    # no reference cycle holds a field: it goes with its last reference
    assert ref() is None
    # nor does a residue field outlive its place and its elements
    place = RatPlace(F3, unipoly(F3, [2, 2, 0, 1]))  # x^3 + 2x + 2
    res = place.residue_field()
    assert res.modulus == (2, 2, 0, 1)
    b = place.residue(RatFunc(unipoly(F3, [0, 1])))
    assert b * b.inverse() == res.one()
    ref = weakref.ref(res)
    del place, res, b
    assert ref() is None


def _residue_fields() -> list:
    return [F for F in list(ffield._fields.values()) if ffield._canonical.get((F.p, F.k)) is not F]


def _live_residue_fields() -> int:
    gc.collect()
    return len(_residue_fields())


def test_fresh_curves_leave_no_residue_fields_behind():
    # residue fields whose factor tables the engine filled go with their
    # places too, and no table keeps an entry past its reach
    rng = random.Random(20261019)
    fields = [F2, F3, F4, F5]
    filled = weakref.WeakSet()
    seen = set()

    def batch(n):
        for i in range(n):
            field = fields[i % 4]
            d = {(0, 3): 1}
            for j in range(4):
                for e in range(3):
                    if rng.random() < 0.45:
                        d[(e, j)] = rng.randrange(1, field.order)
            F = BivarPoly.from_coeff_dict(field, {key: field.elem(v) for key, v in d.items()})
            if F.derivative_y().is_zero() or not is_irreducible_over_ratfield(F):
                continue
            try:
                locus = ramification_locus(F)
            except Inseparable:
                continue
            for P in locus:
                places_above(F, P)
            for K in _residue_fields():
                if K._factors:
                    filled.add(K)
                    seen.add((K.p, K.modulus))

    batch(60)
    first = _live_residue_fields()
    batch(60)
    assert _live_residue_fields() <= first
    assert seen
    assert len(filled) <= first
    for K in ffield._fields.values():
        assert all(K.order ** (len(key) - 1) <= ffield.ZECH_MAX_ORDER for key in K._factors)


def test_poly_factor_linear_matches_the_general_path():
    # a linear f is returned as is; a product of two coprime linear
    # polynomials goes through the general path and must list the same
    # factors in the same form
    for F in (F2, F3, F4, F5, make_field(3, 2)):
        for lc in range(1, F.order):
            for c in range(F.order):
                f = FFPoly(F, [c, lc])
                assert poly_factor(f) == [(f.monic(), 1)]
                h = FFPoly(F, [F.elem(c + 1).v, 1])
                if h != f.monic():
                    want = sorted(poly_factor(f) + poly_factor(h), key=lambda fm: fm[0].sort_key())
                    assert poly_factor(f * h) == want
