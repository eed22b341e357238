"""The MacLane engine's stage values and residuals, on decompositions of the
sweep benchmark's curve pool (bench/goldens.json) and of the CLI report
curves.

StageVal computes E * V(f) as an int and keeps it per polynomial; val()
returns an int when the value is integral and a Fraction otherwise.  An
augmentation that does not collapse takes the residual factor psi its key
was lifted from instead of recomputing residual(key).  The slopes recorded
in refinement levels stay Fractions, since decompose orders results that
tie on (E, f) by str(levels).  A residual factor of multiplicity one
closes its branch (a Closed) whose stage is built on first use; built, it
is the stage the eager engine made, augmenting along every factor.  The
valuation at a place, read by the theorem of the residual polynomial,
agrees with the constant-term test kept in helpers as its reference.
"""

import importlib.util
import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from towerlab.basicfield import ramification_locus
from towerlab.checker import FamilyParams, build_family
from towerlab.cli import parse_poly
from towerlab.ffield import BivarPoly, FFPoly, make_field, poly_factor
from towerlab.omfactor import Inseparable, newton_polygon, places_above
from towerlab.omfactor.maclane import Closed, StageVal, decompose, exact_val
from towerlab.omfactor.places import monic_integral_model
from towerlab.omfactor.ypoly import YPoly
from towerlab.ratfunc import RatFunc, RatPlace
from helpers import (
    F5,
    cli_report_curves,
    constant_term_exact_val,
    family_curves,
    sweep_pool,
    unipoly,
)

INF = math.inf
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
GOLDENS = os.path.join(BENCH, "goldens.json")

# the sweep benchmark's curves and substitutions
_spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

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
    return [(V.stage(), H) for _, H, res in pool_decompositions() for V, _ in res]


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
            for S in V.stage().chain()[1:]:
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
        V = V.stage()
        assert len(V.chain()) == 2 and V.phi.degree() == 2
        assert V.psi == V.prev.residual(V.phi).monic()
        assert V.psi.to_str("u") == "u + 4"


def test_augmentations_yield_the_residual_of_each_key():
    for P, H, res in cli_decompositions():
        for V, _ in res:
            for S in V.stage().chain():
                if S.keyval == INF:
                    continue
                for W, key, _lam, psi in S.augmentations(H):
                    if key is None:  # a closed branch: build its stage
                        W = W.stage()
                        key = W.phi
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


# -- closed branches -------------------------------------------------------------

SMALL_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


def _family_curves():
    """The family with a = 0, b = 1, g = x + 1 for every q <= 9."""
    out = []
    for q, p, s in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2)]:
        K = make_field(p, s)
        params = FamilyParams(q=q, a=K.zero(), b=K.one(), g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out


@st.composite
def _curves(draw):
    """A curve over GF(2), GF(3), GF(4) or GF(5) of y-degree 2 to 4 and
    x-degree at most 3, with a nonzero discriminant in y."""
    K = draw(st.sampled_from(SMALL_FIELDS))
    m = draw(st.integers(2, 4))
    coeff = st.lists(st.integers(0, K.order - 1), max_size=4)
    cols = [draw(coeff) for _ in range(m)] + [draw(coeff.filter(any))]
    F = BivarPoly(K, cols)
    try:
        ramification_locus(F)
    except Inseparable:
        assume(False)
    return F


def _signature(S):
    return [(T.phi, T.keyval, T.psi) for T in S.chain()]


def _eager_closing(V, H, psi):
    """The stage the eager engine built for a residual factor psi of
    multiplicity one of H at V: it augmented along the key lifted from psi
    at every new value, and exactly one augmentation had projection 1."""
    key = V.keypol_from_residual(psi)
    hits = [
        W for W in (V.augment(key, v, psi) for v in V.new_values(H, key))
        if W.projection(H) == 1
    ]
    assert len(hits) == 1
    return hits[0]


def _check_closed_branches(H, res) -> int:
    """Build every closed branch of one decomposition and compare it, and
    one more step from it, with the eager engine; returns the count."""
    n = 0
    for B, _ in res:
        if not isinstance(B, Closed):
            continue
        W = B.stage()
        assert B.stage() is W
        assert W.projection(H) == 1
        assert (W.E, W.res_deg) == (B.E, B.res_deg)
        eager = _eager_closing(B.V, H, B.psi)
        assert _signature(W) == _signature(eager)
        if W.rel_n is not None:
            (psi, mult), = poly_factor(W.residual(H))
            assert mult == 1
            assert _signature(Closed(W, psi, H).stage()) == _signature(_eager_closing(eager, H, psi))
        n += 1
    return n


def test_closed_branches_build_the_eager_stage():
    family = _decompositions(_family_curves())
    n = sum(
        _check_closed_branches(H, res)
        for _, H, res in pool_decompositions() + cli_decompositions() + family
    )
    assert n > 200


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(F=_curves())
def test_closed_branches_of_drawn_curves_build_the_eager_stage(F):
    for _, H, res in _decompositions([F]):
        _check_closed_branches(H, res)


def test_pinned_curve_augment_count(monkeypatch):
    # every place above the locus of the sweep's pinned curve is tame and
    # ends in a closed branch; the two augmentations go along a double
    # residual factor at the degree-2 and the degree-10 place, which each
    # have a place with e = 2 above them (13 when every branch was augmented)
    F = workloads.make_curve(workloads.PINNED)
    calls = []
    augment = StageVal.augment

    def counting(self, *args):
        calls.append(args)
        return augment(self, *args)

    monkeypatch.setattr(StageVal, "augment", counting)
    locus = ramification_locus(F)
    assert [P.degree() for P in locus] == [1, 1, 2, 10, 1]
    for P in locus:
        places_above(F, P)
    assert len(calls) == 2


def _place_rows(F):
    locus = ramification_locus(F)
    return workloads.place_rows(locus, [places_above(F, P) for P in locus])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_places_above_isomorphic_copies(data):
    # x -> a*x + b fixes the infinite place of K(x) and maps every finite
    # place to one of the same degree; y -> c*y is a K(x)-automorphism
    if data.draw(st.booleans()):
        pool = _pool_curves()
        F = pool[data.draw(st.integers(0, len(pool) - 1))]
    else:
        F = data.draw(_curves())
    K = F.field
    a, c = (K.elem(data.draw(st.integers(1, K.order - 1))) for _ in range(2))
    b = K.elem(data.draw(st.integers(0, K.order - 1)))
    assert _place_rows(workloads.substitute(F, a, b, c)) == _place_rows(F)


# -- valuations at a place ------------------------------------------------------


def _drawn_ypoly(rng, H, place):
    """A polynomial of y-degree below deg H whose coefficients are drawn
    polynomials in x of degree <= 2 times pi^e, e in [-3, 2]: at infinity
    every nonconstant polynomial in x is not integral."""
    K = H.field
    cs = []
    for _ in range(rng.randint(1, H.degree())):
        num = FFPoly(K, [rng.randrange(K.order) for _ in range(rng.randint(1, 3))])
        cs.append(RatFunc(num) * place.uniformizer() ** rng.randint(-3, 2))
    return YPoly(K, cs)


def test_the_residual_rule_matches_the_constant_term_reference(monkeypatch):
    """exact_val reads nu_Q by the theorem of the residual polynomial; the
    constant-term test it replaced agrees at every place above the locus of
    the sweep pool, the pinned curve, the CLI report curves, the family at
    q <= 9, and (y - x - x^20)(y - x - x^2) over GF(5), whose terminal stage
    of key value 2 has u times a linear factor as the residual of H.  The
    g are H' and seeded random polynomials, threaded through one branch per
    place as the place's handle does; a third of them are multiplied by the
    reference's key, so that psi often divides R_V(g) and the rule has to
    build the stage past the branch."""
    built = []
    stage = Closed.stage
    monkeypatch.setattr(Closed, "stage", lambda self: built.append(self) or stage(self))
    rng = random.Random(20261019)
    curves = sweep_pool() + cli_report_curves() + family_curves()
    curves.append(parse_poly("(y-x-x^20)*(y-x-x^2)", F5))
    drawn = hits = u_factors = 0
    for F in curves:
        if F.derivative_y().is_zero():
            F = F.swap_xy()
        for P in ramification_locus(F):
            H = monic_integral_model(F, P)[0]
            # one decomposition each, so neither side shares the other's stages
            for (branch, _), (ref, _) in zip(decompose(P, H), decompose(P, H)):
                if isinstance(branch, StageVal) and branch.rel_n is not None:
                    u_factors += branch.residual(H).ints[0] == 0
                ref = ref.stage()
                for i in range(7):
                    g = H.derivative() if i == 0 else _drawn_ypoly(rng, H, P)
                    if i > 4:
                        g = g * ref.phi % H
                    if g.is_zero():
                        continue
                    want, ref = constant_term_exact_val(ref, H, g)
                    n = len(built)
                    got, branch = exact_val(branch, H, g)
                    assert got == want
                    drawn += 1
                    hits += len(built) > n
    assert drawn > 1500
    assert hits > 200
    assert u_factors >= 1
