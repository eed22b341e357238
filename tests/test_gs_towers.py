"""Reference towers from the literature that the criterion must not certify.

The Garcia-Stichtenoth tower (y^q + y)(x^(q-1) + 1) = x^q over GF(q^2)
(Garcia-Stichtenoth, J. Number Theory 1996) is asymptotically good: the
genus of its n-th field grows like the field's degree, so it does not have
the infinite genus that the paper's criterion certifies.  Its basic field
has genus (q - 1)^2.  The tame tower y^2 = (x^2 + 1)/(2x), here
2xy^2 - x^2 - 1, over GF(9) and GF(25) is asymptotically good as well
(Garcia-Stichtenoth-Rueck, "On tame towers over finite fields", 2003), and
its basic field is elliptic.

check_theorem certifying any pair (F, x + c) of these towers would be a
soundness bug in the checker.  The genus (q - 1)^2 and the verdicts are
the reference; they are never adjusted to a checker's output.  The genus
windows pin what the engine proves today, before wild differents are exact:
their top is the bidegree bound (deg_y F - 1)(deg_x F - 1) = (q - 1)^2.
"""

import pytest

from towerlab.basicfield import genus_from_table, ram_table, zeta_genus
from towerlab.checker import check_theorem
from towerlab.cli import parse_poly
from towerlab.ffield import FFPoly, make_field


def gs_tower(q, p, k):
    K = make_field(p, k)
    return K, parse_poly(f"(y^{q}+y)*(x^{q - 1}+1)-x^{q}", K)


def tame_tower(p):
    K = make_field(p, 2)
    return K, parse_poly("2*x*y^2-x^2-1", K)


def verdicts(K, F):
    """check_theorem on (F, x + c) for every c of K, by c."""
    return {c: check_theorem(F, FFPoly(K, [c, K.one()])) for c in K.elements()}


GS = [(2, 2, 2), (3, 3, 2), (4, 2, 4)]


@pytest.mark.parametrize("q,p,k,window", [
    (2, 2, 2, (1, 1)),
    (3, 3, 2, (3, 4)),
    (4, 2, 4, (5, 9)),
])
def test_the_gs_genus_window_contains_the_literature_genus(q, p, k, window):
    _K, F = gs_tower(q, p, k)
    gr = genus_from_table(ram_table(F))
    assert (gr.genus, gr.genus_hi) == window
    assert gr.genus <= (q - 1) ** 2 <= gr.genus_hi


def test_the_point_count_genus_of_the_gs_tower_at_q_2_is_one():
    _K, F = gs_tower(2, 2, 2)
    assert zeta_genus(F, 2) == 1


@pytest.mark.parametrize("q,p,k", GS)
def test_no_pair_of_the_gs_tower_is_certified_and_each_fails_p_divides_m(q, p, k):
    K, F = gs_tower(q, p, k)
    vs = verdicts(K, F)
    assert len(vs) == q * q
    for c, v in vs.items():
        assert not v.holds, c
        assert v.conclusion is None and v.hypotheses is None, c
        assert any(
            r.startswith("(1)") and "divides m" in r for r in v.failed_conditions
        ), (c, v.failed_conditions)


@pytest.mark.parametrize("p", [3, 5])
def test_the_tame_gs_tower_has_genus_one(p):
    _K, F = tame_tower(p)
    gr = genus_from_table(ram_table(F))
    assert (gr.genus, gr.exact) == (1, True)


@pytest.mark.parametrize("p,c_only_3", [(3, 2), (5, 4)])
def test_no_pair_of_the_tame_gs_tower_is_certified(p, c_only_3):
    K, F = tame_tower(p)
    vs = verdicts(K, F)
    assert len(vs) == p * p
    assert not any(v.holds for v in vs.values())
    # exactly one f = x + c fails condition (3) alone: x + 2 over GF(9),
    # x + 4 over GF(25)
    only_3 = [
        c for c, v in vs.items()
        if all(r.startswith("(3)") for r in v.failed_conditions)
    ]
    assert only_3 == [K.elem(c_only_3)]
