"""The MacLane engine's stage values and residuals, on decompositions of the
sweep benchmark's curve pool (bench/goldens.json) and of the CLI report
curves.

StageVal computes E * V(f) as an int and keeps it per polynomial; val()
returns an int when the value is integral and a Fraction otherwise.  An
augmentation that does not collapse takes the residual factor psi its key
was lifted from instead of recomputing residual(key).  The slopes recorded
in refinement levels stay Fractions, since decompose orders results that
tie on (E, f) by str(levels).
"""

import json
import math
import os
from fractions import Fraction
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from towerlab.basicfield import ramification_locus
from towerlab.checker import FamilyParams, build_family
from towerlab.cli import parse_poly
from towerlab.ffield import BivarPoly, FFPoly, make_field
from towerlab.omfactor import newton_polygon, places_above
from towerlab.omfactor.maclane import decompose
from towerlab.omfactor.places import monic_integral_model
from towerlab.omfactor.ypoly import YPoly
from towerlab.ratfunc import RatFunc, RatPlace
from helpers import F5, unipoly

INF = math.inf
GOLDENS = os.path.join(os.path.dirname(__file__), "..", "bench", "goldens.json")

# the curves of the CLI report jobs: (p, k, F) for analyze/genus, and the
# family at q = 8, 9, 16, 27 with a = 0, b = 1, g = x + 1
CLI_CURVES = [
    (2, 1, "(x+1)*y^3+(x+1)*y+x^3"),
    (5, 1, "y^2-x^3-x"),
    (2, 2, "y^2+x"),
    (5, 1, "(x^2+1)*y^4+3*y^3+3*x*y^2+(x^2+2*x+4)*y+(x^2+2)"),
]
FAMILY_Q = [(8, 2, 3), (9, 3, 2), (16, 2, 4), (27, 3, 3)]


def _pool_curves():
    with open(GOLDENS) as fh:
        pool = json.load(fh)["sweep"]["pool"]
    out = []
    for spec in pool:
        K = make_field(spec["p"], spec["k"])
        out.append(BivarPoly.from_coeff_dict(
            K, {(i, j): K.elem(v) for i, j, v in spec["terms"]}))
    return out


def _cli_curves():
    out = [parse_poly(F, make_field(p, k)) for p, k, F in CLI_CURVES]
    for q, p, s in FAMILY_Q:
        K = make_field(p, s)
        params = FamilyParams(q=q, a=K.zero(), b=K.one(), g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out


def _decompositions(curves):
    """(place, H, decompose(place, H)) at every locus place of each curve,
    read over K(y) where it is inseparable in y (as the CLI does)."""
    out = []
    for F in curves:
        if F.derivative_y().is_zero():
            F = F.swap_xy()
        for P in ramification_locus(F):
            H = monic_integral_model(F, P)[0]
            out.append((P, H, decompose(P, H)))
    return out


@lru_cache(maxsize=None)
def pool_decompositions():
    return _decompositions(_pool_curves())


@lru_cache(maxsize=None)
def cli_decompositions():
    return _decompositions(_cli_curves())


@lru_cache(maxsize=None)
def pool_stages():
    """Every terminal valuation of the pool's decompositions, with its H."""
    return [(V, H) for _, H, res in pool_decompositions() for V, _ in res]


# -- values --------------------------------------------------------------------


def _expansion(f, phi):
    """The phi-adic digits of f by repeated division."""
    digits = []
    while not f.is_zero():
        f, r = divmod(f, phi)
        digits.append(r)
    return digits or [f]


def _reference_val(S, f):
    """min_i (v(c_i) + i * lambda) over the phi-expansion of f, in Fractions;
    v is the previous stage, or the place's valuation at stage zero."""
    if f.is_zero():
        return INF
    best = INF
    for i, c in enumerate(_expansion(f, S.phi)):
        if c.is_zero():
            continue
        if S.prev is None:
            cv = Fraction(S.place.valuation(c.coeff(0)))
        else:
            cv = _reference_val(S.prev, c)
        if S.keyval == INF:
            if i == 0:
                best = min(best, cv)
            continue
        best = min(best, cv + i * Fraction(S.keyval))
    return best


def _ratfunc(field, place, data):
    """A coefficient with numerator of degree <= 2 times pi^e, e in [-6, 3]."""
    num = data.draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=3))
    e = data.draw(st.integers(-6, 3))
    return RatFunc(FFPoly(field, num)) * place.uniformizer() ** e


def _ypoly(field, place, deg, data):
    return YPoly(field, [_ratfunc(field, place, data) for _ in range(deg)])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_stage_values_match_a_fraction_reference(data):
    stages = pool_stages()
    V, H = stages[data.draw(st.integers(0, len(stages) - 1))]
    chain = V.chain()
    S = chain[data.draw(st.integers(0, len(chain) - 1))]
    field, place = H.field, S.place
    # sum c_i phi^i with deg c_i < deg phi, plus H and the keys themselves
    f = YPoly(field, [])
    for i in range(data.draw(st.integers(0, 5))):
        c = _ypoly(field, place, S.phi.degree(), data)
        f = f + c * S.phi**i
    for g in [f, H] + [T.phi for T in chain]:
        for T in chain:
            want = _reference_val(T, g)
            for got in (T.val(g), T.val(g)):  # the second from the memo
                assert got == want
                if want != INF:
                    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_key_values_are_ints_when_integral():
    seen = set()
    for V, _ in pool_stages():
        for S in V.chain():
            if S.keyval == INF:
                continue
            kv = Fraction(S.keyval)
            assert type(S.keyval) is (int if kv.denominator == 1 else Fraction)
            assert kv * S.E == S.rel_n
            seen.add(kv.denominator == 1)
    assert seen == {True, False}


# -- residuals -----------------------------------------------------------------


def test_residual_of_each_key_is_its_stored_psi():
    """The invariant psi reuse rests on: every augmented stage's psi is the
    monic residual of its key at the stage below."""
    checked = 0
    for _, _, res in pool_decompositions() + cli_decompositions():
        for V, _ in res:
            for S in V.chain()[1:]:
                assert S.prev.residual(S.phi).monic() == S.psi
                checked += 1
    assert checked > 100


def test_a_collapsed_stage_takes_the_residual_one_stage_down():
    # (y^2 - x - x^2)(y^2 - x - 2x^2) over GF(5): stage one has key y^2 - x
    # and residual (u + 3)(u + 4) for H; each factor lifts to a key of the
    # same degree, so the augmentation collapses onto stage zero, where the
    # key's residual is u + 4 (the factor it came from is not)
    F = parse_poly("(y^2-x-x^2)*(y^2-x-2*x^2)", F5)
    P = RatPlace.finite(unipoly(F5, [0, 1]))
    res = decompose(P, YPoly.from_bivar(F))
    assert [levels[1][2] for _, levels in res] == ["u + 3", "u + 4"]
    for V, _ in res:
        assert V.nstages == 2 and V.phi.degree() == 2
        assert V.psi == V.prev.residual(V.phi).monic()
        assert V.psi.to_str("u") == "u + 4"


def test_augmentations_yield_the_residual_of_each_key():
    for P, H, res in cli_decompositions():
        for V, _ in res:
            for S in V.chain():
                if S.keyval == INF:
                    continue
                for W, key, _lam, psi in S.augmentations(H):
                    assert S.residual(key).monic() == psi
                    if key.degree() > S.phi.degree():
                        assert W.prev is S and W.psi == psi


# -- slopes and the order of results ----------------------------------------------


def test_slopes_stay_fractions():
    assert all(type(s.slope) is Fraction for s in newton_polygon([(0, 4), (1, 2), (3, 0)]))
    n = 0
    for F in _pool_curves()[:12] + _cli_curves()[:2]:
        for P in ramification_locus(F):
            for pl in places_above(F, P):
                for _key, slope, _res in pl.refinement:
                    assert slope is None or type(slope) is Fraction
                    n += slope is not None
    assert n > 20


def test_decompose_orders_ties_by_the_refinement_levels():
    # (y^2 - x)((y - x^2)^2 - x^5) over GF(5) has two places above x = 0,
    # both with E = 2 and f = 1: slope -1/2 on the first polygon, and slope
    # -2 then -5/2 after the key y - x^2
    F = parse_poly("(y^2-x)*((y-x^2)^2-x^5)", F5)
    P = RatPlace.finite(unipoly(F5, [0, 1]))
    res = decompose(P, YPoly.from_bivar(F))
    assert [(V.E, V.res_deg) for V, _ in res] == [(2, 1), (2, 1)]
    assert [levels for _, levels in res] == [
        (("y", Fraction(-1, 2), "u + 4"),),
        (("y", Fraction(-2), "u + 4"), ("y + 4*x^2", Fraction(-5, 2), "u + 4")),
    ]
    assert [str(pl.refinement) for pl in places_above(F, P)] == [
        "(('y', Fraction(-1, 2), 'u + 4'),)",
        "(('y', Fraction(-2, 1), 'u + 4'), ('y + 4*x^2', Fraction(-5, 2), 'u + 4'))",
    ]
