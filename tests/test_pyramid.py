from fractions import Fraction

import pytest

from towerlab.pyramid import (
    BothWild,
    InvalidHypotheses,
    RamHypotheses,
    abhyankar_e,
    climb,
    different_transitivity,
    pyramid_graph,
    render_pyramid,
    series_divergence,
    walk_bound,
)

H = RamHypotheses(m=3, n=1, r=2, p=2)


def test_hypotheses_defaults():
    assert H.d_prime_min == 2  # defaults to the wild floor r
    assert RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=None) == H
    h2 = RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=5)
    assert h2.d_prime_min == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=1, n=1, r=2, p=2),  # m too small
        dict(m=3, n=0, r=2, p=2),  # n too small
        dict(m=3, n=1, r=0, p=2),  # r too small
        dict(m=3, n=1, r=2, p=1),  # p not a characteristic
        dict(m=3, n=1, r=2, p=0),  # p = 0 is refused, not divided by
        dict(m=3, n=1, r=4, p=4),  # a composite p is no characteristic
        dict(m=4, n=1, r=2, p=2),  # gcd(m, p) != 1
        dict(m=3, n=3, r=2, p=2),  # gcd(n, m) != 1
        dict(m=3, n=1, r=3, p=3),  # gcd(r, m) != 1
        dict(m=3, n=1, r=2, p=5),  # r not divisible by p
        dict(m=3, n=1, r=2, p=2, d_prime_min=1),  # below the wild floor
        dict(m=3, n=1, r=2, p=2, d_prime_min=0),  # 0 is a value, not "use r"
    ],
)
def test_hypotheses_validation(kwargs):
    with pytest.raises(InvalidHypotheses):
        RamHypotheses(**kwargs)


def test_abhyankar_tame_lcm():
    assert abhyankar_e(3, 2, 5) == 6
    assert abhyankar_e(4, 6, 5) == 12
    assert abhyankar_e(1, 7, 3) == 7


def test_abhyankar_both_wild_rejected():
    with pytest.raises(BothWild):
        abhyankar_e(4, 6, 2)


def test_different_transitivity():
    # d(P''|P) = e(P''|P') d(P'|P) + d(P''|P')
    assert different_transitivity(2, 3, 1) == 5
    assert different_transitivity(0, 1, 7) == 7


def test_climb_canonical_levels():
    rep = climb(H, 3)
    assert rep.verdict == "InfiniteGenus"
    assert rep.c == Fraction(1, 2)
    assert [lv.d_bound for lv in rep.levels] == [2, 4, 10, 28]
    assert [lv.degree for lv in rep.levels] == [1, 3, 9, 27]
    assert rep.levels[0].genus_contribution == Fraction(1, 3)
    assert rep.series_partial_sums[:4] == (
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
    )


def test_climb_series_and_verdict_come_from_series_divergence():
    rep = climb(H, 4)
    series = series_divergence(Fraction(1, 2), H.m, 5)
    assert rep.series_terms == series.terms == (Fraction(1, 6),) * 5
    assert rep.series_partial_sums == series.partial_sums
    assert series.verdict == "Diverges"
    assert rep.verdict == "InfiniteGenus"


def test_climb_bound_closed_form():
    # with the default d'_min = r the bound telescopes to m^i - 1 + r
    for h in [
        H,
        RamHypotheses(m=4, n=1, r=3, p=3),
        RamHypotheses(m=5, n=1, r=4, p=2),
        RamHypotheses(m=3, n=2, r=4, p=2),
        RamHypotheses(m=5, n=3, r=2, p=2, d_prime_min=6),
    ]:
        rep = climb(h, 20)
        for lv in rep.levels:
            deg = h.m**lv.i
            assert lv.degree == deg
            assert lv.d_bound == deg * h.d_prime_min + (deg - 1) * (1 - h.r)
            assert 2 * lv.d_bound >= deg  # certified ratio >= 1/2
            if h.d_prime_min == h.r:
                assert lv.d_bound == deg - 1 + h.r


def test_walk_bound_matches_climb():
    for h in [
        H,
        RamHypotheses(m=4, n=1, r=3, p=3),
        RamHypotheses(m=5, n=1, r=4, p=2),
        RamHypotheses(m=3, n=2, r=4, p=2),
    ]:
        rep = climb(h, 4)
        for i in range(5):
            assert walk_bound(h, i) == rep.levels[i].d_bound


def test_pyramid_graph_structure():
    g = pyramid_graph(H, 2)
    top = 3
    # every (lo, hi) with 0 <= lo <= hi <= 3 except the missing apex (3, 3)
    assert len(g.nodes) == 9
    assert (top, top) not in g.nodes
    lab = g.edges
    # bottom diamonds carry the defining indices
    assert lab[((0, 1), (0, 0))] == 1  # n
    assert lab[((0, 1), (1, 1))] == 3  # m
    assert lab[((1, 2), (1, 1))] == 1
    assert lab[((1, 2), (2, 2))] == 3
    assert lab[((2, 3), (2, 2))] == 2  # r on the right flank
    # Abhyankar propagation: the right flank keeps r, up-left edges keep m
    assert lab[((1, 3), (1, 2))] == 2
    assert lab[((1, 3), (2, 3))] == 3
    assert lab[((0, 3), (0, 2))] == 2
    assert lab[((0, 3), (1, 3))] == 3
    assert lab[((0, 2), (0, 1))] == 1
    assert lab[((0, 2), (1, 2))] == 3


def test_series_divergence_constant():
    rep = series_divergence(Fraction(1, 2), 3)
    assert rep.verdict == "Diverges"
    assert "period sum 1/6" in rep.certificate
    assert rep.partial_sums[2] == Fraction(1, 2)


def test_series_divergence_inconclusive_at_zero_ratio():
    # zero terms certify nothing, and convergence is never claimed
    rep = series_divergence(0, 3, horizon=4)
    assert rep.verdict == "Inconclusive"
    assert rep.certificate is None
    assert rep.terms == rep.partial_sums == (0,) * 4


def test_series_divergence_input_validation():
    with pytest.raises(InvalidHypotheses, match="step degrees must be >= 1"):
        series_divergence(Fraction(1, 2), 0)
    with pytest.raises(InvalidHypotheses, match="c terms must be >= 0"):
        series_divergence(Fraction(-1), 3)
    with pytest.raises(InvalidHypotheses, match="horizon must be >= 1"):
        series_divergence(Fraction(1, 2), 3, horizon=0)


def test_render_pyramid_level_one():
    assert render_pyramid(H, 1) == (
        "            P'\n"
        "        2 /    \\ 3\n"
        "      P           Q'\n"
        "  1 /    \\ 3  2 /\n"
        "P0          P1"
    )


def test_climb_report_carries_ratio_note():
    rep = climb(H, 2)
    assert any("1/2" in note for note in rep.notes)
