"""The per-curve record (the dict F.facts, whose entries omfactor.places owns)
behind the irreducibility test, the ramification locus and places_above.

Facts kept on one F must never change a result: a reused F gives what an
equal fresh copy gives, each fact is computed once however many places ask
for it, and the record stays out of F's value.  The guard at the end runs
the benchmark's sweep pool through the three layers, fresh and reused, and
compares the place tables with the committed golden digests.
"""

import importlib.util
import json
import os

import pytest

from towerlab.basicfield import ram_table, ramification_locus
from towerlab.ffield import BivarPoly
from towerlab.omfactor import is_irreducible_over_ratfield, places, places_above
from towerlab.omfactor.irreducibility import _reconstruct_subsets
from helpers import elliptic5, family_F, hyper3, kummer5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _copy(F):
    return BivarPoly(F.field, F.ycoeffs)


def _table(F, side):
    G = places.curve_swapped(F) if side == "y" else F
    return [(P, places_above(F, P, side=side)) for P in ramification_locus(_copy(G))]


@pytest.mark.parametrize("make", [elliptic5, kummer5, hyper3, lambda: family_F(3)])
@pytest.mark.parametrize("side", ["x", "y"])
def test_places_above_on_a_reused_curve_equals_a_fresh_copy(make, side):
    F = make()
    is_irreducible_over_ratfield(F)
    first = _table(F, side)
    again = _table(F, side)
    fresh = _table(_copy(F), side)
    assert first == again == fresh
    # side y reads the record of the swapped curve, kept on F's own record
    G = F.facts["swapped"] if side == "y" else F
    assert G.facts["squarefree"] is True


def test_ram_table_derives_each_fact_once(monkeypatch):
    F = elliptic5()
    calls = {"squarefree_in_y": 0, "derivative_y": 0}
    squarefree_in_y = places.squarefree_in_y
    derivative_y = BivarPoly.derivative_y

    def counted_squarefree(G):
        calls["squarefree_in_y"] += 1
        return squarefree_in_y(G)

    def counted_derivative(G):
        calls["derivative_y"] += 1
        return derivative_y(G)

    monkeypatch.setattr(places, "squarefree_in_y", counted_squarefree)
    monkeypatch.setattr(BivarPoly, "derivative_y", counted_derivative)
    rt = ram_table(F)
    assert len(rt.rows) >= 3
    assert calls == {"squarefree_in_y": 1, "derivative_y": 1}


def test_record_stays_out_of_the_value():
    F = family_F(2)
    G = _copy(F)
    assert not hasattr(F, "__dict__")
    ram_table(F)
    assert F._facts is not None and G._facts is None
    assert F == G and hash(F) == hash(G)
    assert len({F, G}) == 1


def test_swapped_curve_is_shared_and_equal_to_swap_xy():
    F = kummer5()
    S = places.curve_swapped(F)
    assert places.curve_swapped(F) is S
    assert S == F.swap_xy()


# -- guard: the sweep pool against its goldens ----------------------------------


def _goldens():
    with open(os.path.join(ROOT, "bench", "goldens.json")) as fh:
        g = json.load(fh)["sweep"]
    specs = g["pool"] + [workloads.PINNED]
    return specs, g["digests"] + [g["pinned_digest"]]


def _digest(F):
    assert is_irreducible_over_ratfield(F)
    locus = ramification_locus(F)
    return workloads.digest(workloads.place_rows(locus, [places_above(F, P) for P in locus]))


def test_sweep_pool_place_tables_match_goldens_fresh_and_reused():
    specs, want = _goldens()
    curves = [workloads.make_curve(spec) for spec in specs]
    assert [_digest(F) for F in curves] == want
    # the same objects again, in reverse order: every fact now comes from
    # the record, and none may leak from one curve into another
    assert [_digest(F) for F in reversed(curves)] == want[::-1]
    assert [_digest(workloads.make_curve(spec)) for spec in specs] == want


def test_irreducibility_evaluates_each_fibre_once(monkeypatch):
    # curve_point keeps the first good fibre on the record, and the degree
    # analysis resumes the walk after it instead of starting over: on the
    # sweep pool every evaluation is of a distinct (F, xi).  Only the
    # Eisenstein test at infinity comes first, so curves that a finite
    # Eisenstein place used to settle walk their fibres too
    curves = [workloads.make_curve(spec) for spec in _goldens()[0]]
    calls = []
    eval_x = BivarPoly.eval_x

    def counted(G, xi):
        calls.append((id(G), xi.field, xi.v))
        return eval_x(G, xi)

    monkeypatch.setattr(BivarPoly, "eval_x", counted)
    for F in curves:
        assert is_irreducible_over_ratfield(F)
    assert len(curves) == 41
    assert len(calls) == len(set(calls)) == 75
    # the reconstruction takes GF(q)'s good point from the record and walks
    # only the extensions of a curve without one
    copies = [_copy(F) for F in curves]
    for F in copies:
        places.curve_point(F)
        assert _reconstruct_subsets(F, *next(places.curve_fibres(F)))
    assert len(calls) == len(set(calls)) == 75 + 68
