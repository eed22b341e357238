import pytest

from towerlab.checker import (
    FAMILY_MAX_Q,
    FamilyParams,
    InvalidParams,
    InvalidTower,
    TowerSpec,
    build_family,
    check_theorem,
    family_field,
    verify_family_facts,
)
from towerlab.cli import parse_poly, parse_unipoly
from towerlab.ffield import is_prime
from towerlab.pyramid import RamHypotheses
from helpers import F2, F3, F4, F5, bivar, elliptic5, family_params, kummer5, unipoly


# -- family parameters --------------------------------------------------------


def test_family_params_derived_values():
    p2 = family_params(2)
    assert p2.m == 3
    assert p2.c == F2.one()
    p4 = family_params(4)
    assert p4.m == 5
    assert p4.c == F4.gen()  # g^4 = g in GF(4)
    assert p4.c ** 4 == p4.b


@pytest.mark.parametrize(
    "q,field,a,b,g_coeffs",
    [
        (2, F2, 0, 0, [1, 1]),  # b = 0
        (2, F2, 0, 1, [0, 1]),  # g(a) = 0
        (2, F2, 0, 1, [1, 0, 0, 1]),  # deg g = m
        (2, F2, 0, 1, [1]),  # gcd(m - deg g, m) = 3
    ],
)
def test_family_params_constraint_violations(q, field, a, b, g_coeffs):
    with pytest.raises(InvalidParams, match="constraint violated"):
        FamilyParams(q=q, a=field.elem(a), b=field.elem(b), g=unipoly(field, g_coeffs))


def test_family_params_q_must_match_characteristic():
    with pytest.raises(InvalidParams, match="power of the field characteristic"):
        FamilyParams(q=3, a=F2.zero(), b=F2.one(), g=unipoly(F2, [1, 1]))
    with pytest.raises(InvalidParams):
        FamilyParams(q=6, a=F5.zero(), b=F5.one(), g=unipoly(F5, [1, 1]))


def test_family_field_splits_every_prime_power_up_to_the_bound():
    found = {}
    for q in range(-3, FAMILY_MAX_Q + 1):
        try:
            K = family_field(q)
            found[q] = (K.p, K.k)
        except InvalidParams as exc:
            assert "not a prime power" in str(exc)
    want = {
        p**s: (p, s)
        for p in range(2, FAMILY_MAX_Q + 1)
        if is_prime(p)
        for s in range(1, FAMILY_MAX_Q.bit_length())
        if p**s <= FAMILY_MAX_Q
    }
    assert found == want
    # a q past the bound is refused before it is split, however large
    for q in (FAMILY_MAX_Q + 1, 3**40, 10**18 + 9, 6**30):
        with pytest.raises(InvalidParams, match=f"FAMILY_MAX_Q = {FAMILY_MAX_Q}"):
            family_field(q)


def test_family_params_mixed_fields_rejected():
    with pytest.raises(InvalidParams):
        FamilyParams(q=2, a=F2.zero(), b=F3.one(), g=unipoly(F2, [1, 1]))


def test_build_family_q2_polynomial():
    tower = build_family(family_params(2))
    assert tower.F == bivar(F2, {(1, 3): 1, (0, 3): 1, (1, 1): 1, (0, 1): 1, (3, 0): 1})
    assert tower.F.to_str() == "(x + 1)*y^3 + (x + 1)*y + x^3"
    assert tower.m == 3
    assert not tower.skew


def test_tower_spec_from_poly_rejects_degenerate():
    with pytest.raises(InvalidTower):
        TowerSpec.from_poly(bivar(F2, {(0, 1): 1, (1, 0): 1}))  # deg_y = 1
    with pytest.raises(InvalidTower):
        TowerSpec.from_poly(bivar(F2, {(0, 2): 1, (1, 1): 1}))  # y(y + x) reducible


def test_tower_spec_skew_flag():
    spec = TowerSpec.from_poly(elliptic5())
    assert spec.skew  # deg_x 3 != deg_y 2


# -- family verification ------------------------------------------------------


def test_verify_family_facts_q2():
    rep = verify_family_facts(family_params(2))
    assert rep.all_pass
    assert [c.name for c in rep.checks] == ["a", "b", "c", "d", "e", "f", "g"]
    assert all(c.passed for c in rep.checks)
    assert set(rep.witnesses) == {"Q", "Q_wild"}
    assert rep.witnesses["Q"].e == 1
    assert rep.witnesses["Q_wild"].e == 2
    assert (rep.witnesses["Q_wild"].dmin, rep.witnesses["Q_wild"].dmax) == (2, 6)
    assert rep.notes  # the skew caveat is always spelled out


@pytest.mark.parametrize("q", [3, 4, 5])
def test_verify_family_facts_other_q(q):
    rep = verify_family_facts(family_params(q))
    assert rep.all_pass
    assert rep.witnesses["Q_wild"].e == q
    assert rep.witnesses["Q"].e == 1


def test_family_checks_name_consumed_constraints():
    rep = verify_family_facts(family_params(2))
    details = {c.name: c.detail for c in rep.checks}
    assert "gcd(m - deg g, m)" in details["a"]
    assert "g(a) != 0" in details["b"]


# -- the infinite-genus criterion ---------------------------------------------


def test_check_theorem_holds_q2():
    tower = build_family(family_params(2))
    v = check_theorem(tower.F, unipoly(F2, [0, 1]))
    assert v.holds
    assert v.failed_conditions == ()
    assert v.conclusion == "InfiniteGenus"
    assert v.hypotheses == RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=2)
    assert set(v.witnesses) == {"Q_y_side", "Q_x_side", "Q_wild"}
    assert v.witnesses["Q_y_side"].e == 3
    assert v.witnesses["Q_x_side"].e == 1
    assert v.witnesses["Q_wild"].e == 2


@pytest.mark.parametrize(
    "q,expect",
    [
        (3, RamHypotheses(m=4, n=1, r=3, p=3, d_prime_min=3)),
        (4, RamHypotheses(m=5, n=1, r=4, p=2, d_prime_min=4)),
        (5, RamHypotheses(m=6, n=1, r=5, p=5, d_prime_min=5)),
    ],
)
def test_check_theorem_holds_other_q(q, expect):
    tower = build_family(family_params(q))
    K = tower.F.field
    v = check_theorem(tower.F, unipoly(K, [0, 1]))
    assert v.holds
    assert v.hypotheses == expect


def test_check_theorem_elliptic_fails_named():
    v = check_theorem(elliptic5(), unipoly(F5, [0, 1]))
    assert not v.holds
    assert v.conclusion is None
    assert v.failed_conditions == (
        "precondition: non-skew required, deg_x F = 3 != deg_y F = 2",
        "(1) P_f(y) is not totally ramified: (e, f) pairs [(1, 1), (1, 1), (1, 1)], need exactly [(2, 1)]",
        "(3) no wildly ramified place above P_f(x) with index prime to m: indices [2], p = 5",
    )


def test_check_theorem_kummer_fails_named():
    v = check_theorem(kummer5(), unipoly(F5, [0, 1]))
    assert not v.holds
    assert v.failed_conditions == (
        "(1) P_f(y) is not totally ramified: (e, f) pairs [(1, 1), (2, 1)], need exactly [(3, 1)]",
        "(3) no wildly ramified place above P_f(x) with index prime to m: indices [3], p = 5",
    )


def test_check_theorem_wrong_f_is_a_condition_failure():
    # x + 1 is a fine parameter choice but the distinguished place moves away
    tower = build_family(family_params(2))
    v = check_theorem(tower.F, unipoly(F2, [1, 1]))
    assert not v.holds
    assert any("(1)" in fc for fc in v.failed_conditions)


def test_check_theorem_trivial_inputs_short_circuit():
    tower = build_family(family_params(2))
    v = check_theorem(tower.F, unipoly(F2, [0, 0, 1]))  # f = x^2 reducible
    assert v.failed_conditions == ("precondition: f must be monic irreducible of degree >= 1",)
    v = check_theorem(bivar(F2, {(0, 1): 1, (1, 0): 1}), unipoly(F2, [0, 1]))
    assert v.failed_conditions == ("precondition: deg_y F = 1 < 2, not a tower step",)
    v = check_theorem(bivar(F2, {(0, 2): 1, (1, 1): 1}), unipoly(F2, [0, 1]))
    assert v.failed_conditions == ("precondition: F is reducible over K(x)",)


# one curve per verdict that the curves above do not reach, from a seeded
# search over small random curves; "(1) no x-side place matches" and
# IdentificationFailed never came up, as neither can on a correct engine:
# a place with nu(f(y)) > 0 lies over P_f(y), where Q is the only place


def _verdict(field, F, f):
    return check_theorem(parse_poly(F, field), parse_unipoly(f, field, "--f"))


@pytest.mark.parametrize(
    "field,F,why",
    [
        # F_y = y^2 is not zero: F is inseparable in x only, as x^2 in x
        (F2, "(x^2+1)*y^4+y^3+1", "F is inseparable in x: dF/dx = 0"),
        (F3, "y^3-x", "F is inseparable in y: dF/dy = 0"),
        (F3, "(y^2+x)^2", "F is not squarefree in y"),
        (F2, "y^2+y+1", "deg_x F = 0 < 1: F defines no extension in x"),
    ],
)
def test_check_theorem_names_F_not_separable_before_its_irreducibility(field, F, why):
    assert _verdict(field, F, "x").failed_conditions == (f"precondition: {why}",)


def test_check_theorem_names_p_dividing_m():
    v = _verdict(F2, "(x^4+x+1)*y^4+y^3+x*y^2+x^2", "x")
    assert v.failed_conditions == (
        "(1) ramification over P_f(y) cannot be tame: p = 2 divides m = 4",
        "(1) P_f(y) is not totally ramified: (e, f) pairs [(2, 1), (2, 1)], need exactly [(4, 1)]",
        "(3) no wildly ramified place above P_f(x) with index prime to m: indices [1, 3], p = 2",
    )
    assert v.notes == ("(2) not evaluated: no place Q identified",)


def test_check_theorem_names_an_index_sharing_a_factor_with_m():
    v = _verdict(F3, "y^2+(x^2+x)*y+x^2", "x")
    assert v.failed_conditions == (
        "(2) gcd(e(Q|P_f(x)), m) = 2 != 1 (e = 2, m = 2)",
        "(3) no wildly ramified place above P_f(x) with index prime to m: indices [2], p = 3",
    )
    assert v.notes == ()
    assert v.witnesses["Q_x_side"].e == v.witnesses["Q_y_side"].e == 2


def test_check_theorem_notes_several_wild_witnesses():
    v = _verdict(F2, "x^4*y^5+x^5*y^4+x*y^3+y+x+1", "x")
    assert v.failed_conditions == (
        "(1) P_f(y) is not totally ramified: (e, f) pairs [(1, 1), (4, 1)], need exactly [(5, 1)]",
    )
    assert v.notes == (
        "(2) not evaluated: no place Q identified",
        "(3) has 2 wild witnesses; reporting the first",
    )
    assert list(v.witnesses) == ["Q_wild"] and v.witnesses["Q_wild"].e == 2


def test_check_theorem_refuses_F_reducible_over_K_y():
    # the content x + 1 is a unit over K(x) but a factor over K(y)
    v = _verdict(F2, "(x+1)*(y^3+x)", "x")
    assert v.failed_conditions == ("precondition: F is reducible over K(y)",)
    assert not v.holds and v.witnesses == {}


def test_check_theorem_constant_field_extension_invariance():
    # the same family equation read over GF(4) satisfies the criterion with
    # identical numerical hypotheses
    tower = build_family(family_params(2))
    F4F = tower.F.map_field(F4)
    v = check_theorem(F4F, unipoly(F4, [F4.zero(), F4.one()]))
    assert v.holds
    assert v.hypotheses == RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=2)


def test_check_theorem_feeds_climb():
    from towerlab.pyramid import climb

    tower = build_family(family_params(2))
    v = check_theorem(tower.F, unipoly(F2, [0, 1]))
    rep = climb(v.hypotheses, 5)
    assert rep.verdict == "InfiniteGenus"
