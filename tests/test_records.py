"""The record contract of the library's immutable value classes.

Each record is checked against a frozen dataclass with the same fields and
values, which serves as the reference for construction, equality, hashing
and the repr.
"""

import dataclasses
from fractions import Fraction

import pytest

from towerlab.basicfield import (
    GenusResult,
    RamTable,
    genus_from_table,
    ram_table,
    reconcile_different,
    zeta_genus,
)
from towerlab.checker import (
    FamilyCheck,
    FamilyParams,
    FamilyReport,
    InvalidParams,
    TheoremVerdict,
    TowerSpec,
    build_family,
    check_theorem,
    verify_family_facts,
)
from towerlab.cli import JobSpec
from towerlab.omfactor import NPSegment, PlaceExt, newton_polygon, places_above
from towerlab.pyramid import (
    InvalidHypotheses,
    PyramidGraph,
    PyramidLevel,
    PyramidReport,
    RamHypotheses,
    SeriesReport,
    climb,
    pyramid_graph,
    series_divergence,
)
from towerlab.ratfunc import RatPlace
from towerlab.record import FrozenInstanceError, Record
from helpers import F2, elliptic5, family_F, family_params, unipoly

H = RamHypotheses(3, 1, 2, 2)


def _samples():
    params = family_params(2)
    spec = build_family(params)
    F = family_F(2)
    place = places_above(elliptic5(), RatPlace.finite(unipoly(elliptic5().field, [0, 1])))[0]
    return [
        H,
        PyramidLevel(0, 1, 2, Fraction(1, 3)),
        climb(H, 2),
        pyramid_graph(H, 1),
        series_divergence(Fraction(1, 2), 3),
        spec,
        params,
        FamilyCheck("a", "title", True, "detail"),
        verify_family_facts(params),
        check_theorem(F, unipoly(F2, [0, 1])),
        ram_table(elliptic5()),
        GenusResult(1, True, (4, 4)),
        newton_polygon([(0, 2), (2, 0)])[0],
        place,
        JobSpec("genus", {"F": "y^2-x^3-x", "q": 5}),
    ]


SAMPLES = _samples()
CLASSES = [
    RamHypotheses, PyramidLevel, PyramidReport, PyramidGraph, SeriesReport,
    TowerSpec, FamilyParams, FamilyCheck, FamilyReport, TheoremVerdict,
    RamTable, GenusResult, NPSegment, PlaceExt, JobSpec,
]


def _values(rec):
    return {f: getattr(rec, f) for f in rec.__slots__}


def _reference(rec):
    """A frozen dataclass twin of rec, built from the same values."""
    spec = [
        (f, object, dataclasses.field(compare=f != "_handle", repr=f != "_handle"))
        for f in rec.__slots__
    ]
    cls = dataclasses.make_dataclass(type(rec).__name__, spec, frozen=True)
    return cls(**_values(rec))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_samples_cover_every_record_class():
    assert [type(s) for s in SAMPLES] == CLASSES
    assert all(issubclass(c, Record) for c in CLASSES)
    assert not any(hasattr(s, "__dict__") for s in SAMPLES)


@pytest.mark.parametrize("rec", SAMPLES, ids=[c.__name__ for c in CLASSES])
def test_record_contract(rec):
    cls, values = type(rec), _values(rec)
    ref = _reference(rec)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == rec and by_keyword == rec
    assert not by_position != rec
    assert repr(rec) == repr(ref)
    assert _hash_or_error(rec) == _hash_or_error(ref)
    if _hash_or_error(rec) is not TypeError:
        assert hash(by_keyword) == hash(rec)
    assert rec != ref and rec != tuple(values.values())
    for f in rec.__slots__:
        with pytest.raises(AttributeError):
            setattr(rec, f, values[f])
        with pytest.raises(FrozenInstanceError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, extra=None)


@pytest.mark.parametrize("rec", SAMPLES, ids=[c.__name__ for c in CLASSES])
def test_record_missing_field_is_refused(rec):
    values = list(_values(rec).values())
    required = [f for f in rec.__slots__ if f not in type(rec)._defaults]
    with pytest.raises(TypeError, match=repr(required[-1])):
        type(rec)(*values[: len(required) - 1])


@pytest.mark.parametrize("rec", SAMPLES, ids=[c.__name__ for c in CLASSES])
def test_record_inequality_per_compared_field(rec):
    if type(rec) in (RamHypotheses, FamilyParams):
        return  # validated on construction; covered by the tests below
    for f in rec.__slots__:
        other = rec.replace(**{f: object()})
        assert (other == rec) == (f == "_handle")


def test_records_of_different_classes_differ():
    class Segment(Record):
        __slots__ = ("slope", "length")

    seg = NPSegment(Fraction(1, 2), 2)
    assert seg != Segment(Fraction(1, 2), 2)
    assert Segment(1, 2) == Segment(1, 2) and hash(Segment(1, 2)) == hash((1, 2))


def test_place_handle_outside_equality_and_repr():
    pl = SAMPLES[CLASSES.index(PlaceExt)]
    twin = pl.replace(_handle=None)
    assert twin == pl and hash(twin) == hash(pl)
    assert "_handle" not in repr(pl) and repr(twin) == repr(pl)
    assert repr(pl).startswith("PlaceExt(base=")
    assert pl.replace(d_exact=99) != pl


def test_ram_hypotheses_default_and_validation():
    assert H.d_prime_min == H.r == 2
    assert RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=5).d_prime_min == 5
    assert RamHypotheses(3, 1, 2, 2, 2) == H
    assert repr(H) == "RamHypotheses(m=3, n=1, r=2, p=2, d_prime_min=2)"
    with pytest.raises(InvalidHypotheses, match="d_prime_min >= r"):
        RamHypotheses(3, 1, 2, 2, 1)
    with pytest.raises(InvalidHypotheses, match="m >= 2"):
        RamHypotheses(m=1, n=1, r=2, p=2)
    with pytest.raises(InvalidHypotheses, match=r"p \| r"):
        RamHypotheses(3, 1, 1, 2)


def test_family_params_derived_fields_and_validation():
    params = family_params(2)
    assert params.m == 3
    assert params.c ** 2 == params.b
    # m and c are derived whatever is passed for them
    again = FamilyParams(params.q, params.a, params.b, params.g, m=99, c=None)
    assert again == params and again.m == 3
    K = params.a.field
    with pytest.raises(InvalidParams, match="b != 0"):
        FamilyParams(q=2, a=K.zero(), b=K.zero(), g=params.g)
    with pytest.raises(InvalidParams, match="not a power"):
        FamilyParams(q=3, a=K.zero(), b=K.one(), g=params.g)


def test_simple_record_reprs():
    assert repr(NPSegment(Fraction(1, 2), 2)) == "NPSegment(slope=Fraction(1, 2), length=2)"
    assert repr(GenusResult(genus=1, exact=False, diff_degree_bounds=(4, 6))) == (
        "GenusResult(genus=1, exact=False, diff_degree_bounds=(4, 6))"
    )
    assert repr(JobSpec("climb", {})) == "JobSpec(command='climb', params={})"
    assert repr(FamilyCheck("a", "t", True, "d")) == (
        "FamilyCheck(name='a', title='t', passed=True, detail='d')"
    )
    assert repr(PyramidLevel(1, 3, 4, Fraction(2, 9))) == (
        "PyramidLevel(i=1, degree=3, d_bound=4, genus_contribution=Fraction(2, 9))"
    )


def test_reconcile_replaces_only_the_wild_different():
    F = family_F(2)
    rt = ram_table(F)
    rt2 = reconcile_different(rt, zeta_genus(F, 4))
    assert rt2.different_degree_bounds() == (8, 8)
    assert genus_from_table(rt2).genus == 2
    (old,) = rt.missing_exact()
    new = next(pl for pl in rt2.all_places() if pl.e == old.e and pl.base == old.base)
    assert (new.d_exact, old.d_exact) == (4, None)
    assert new.replace(d_exact=None) == old
    assert new._handle is old._handle
    assert sum(1 for _ in rt2.all_places()) == sum(1 for _ in rt.all_places())
