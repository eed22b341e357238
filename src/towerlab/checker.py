"""Infinite-genus criterion for recursive towers, and a witness family.

A recursive tower over K = GF(q) is the chain T_0 = K(x_0),
T_{i+1} = T_i(x_{i+1}) with F(x_i, x_{i+1}) = 0 for a fixed bivariate F.
check_theorem() mechanically verifies, on the basic field K(x, y), the
three ramification conditions that force the genus ratio
g(T_i) / [T_i : T_0] to infinity:

  (1) there is a single place Q above the zero of f(y), totally and tamely
      ramified (e = m = deg_y F, gcd(m, p) = 1), and the same place Q lies
      above the zero of f(x);
  (2) gcd(e(Q | P_{f(x)}), m) = 1;
  (3) some place Q' above the zero of f(x) is wildly ramified with
      gcd(e(Q' | P_{f(x)}), m) = 1.

When they hold, the conclusion is InfiniteGenus and the data (m, n, r, p)
is handed to pyramid.climb as a RamHypotheses packet.  Condition failures
are collected and named, never silently dropped; only inputs on which the
analysis cannot run at all (reducible F, m < 2, bad f) short-circuit.

The built-in family: over K of characteristic p, for q = p^s and
m = q + 1,

    g(x) * [(y - a)^m + b(y - a)] = (x - a)^m

with g(a) != 0, deg g < m, b != 0 and gcd(m - deg g, m) = 1.  The last
constraint is exactly what makes the defining polynomial Eisenstein at the
pole of x.  verify_family_facts() re-derives the ramification facts that
make check_theorem succeed on every member: two places over the zero of
x - a with indices 1 and q, the e = 1 place being the common zero of y - a
with e = m on the y side, and the e = q place wild.  Note the equation is
non-skew (deg_x = deg_y = m) even though such families are sometimes
labeled skew; the report carries the computed flag plus a note.
"""

from __future__ import annotations

import math

from .errors import TowerlabError
from .ffield import (
    BivarPoly,
    FFPoly,
    FiniteField,
    _prime_divisors,
    is_irreducible,
    make_field,
    qth_root,
)
from .omfactor import (
    PlaceExt,
    eisenstein_at,
    is_irreducible_over_ratfield,
    places_above,
)
from .omfactor.places import curve_swapped, separability_defect
from .pyramid import RamHypotheses
from .ratfunc import RatPlace
from .record import Record

__all__ = [
    "FAMILY_MAX_Q",
    "InvalidParams",
    "InvalidTower",
    "IdentificationFailed",
    "TowerSpec",
    "FamilyParams",
    "FamilyCheck",
    "FamilyReport",
    "TheoremVerdict",
    "family_field",
    "build_family",
    "verify_family_facts",
    "check_theorem",
]

#: The largest q the family is built for.  Cold, with compiled bytecode, on a
#: shared 2-vCPU x86-64 host with Python 3.11, `family --g x+1` took 5.3-6.7 s
#: at q = 4096 and 53 s at the prime q = 4093, the worst q the bound admits;
#: q = 16384 printed nothing in 30 s.  A larger q is refused, not attempted.
FAMILY_MAX_Q = 2**12

SKEW_NOTE = (
    "the defining equation is non-skew: deg_x F = deg_y F = m; descriptions "
    "of this family as skew conflict with that degree count, so the computed "
    "flag is reported as is"
)


class InvalidParams(TowerlabError):
    """A FamilyParams constraint is violated; the message names it."""


class InvalidTower(TowerlabError):
    """A TowerSpec invariant is violated (reducible F or step degree < 2)."""


class IdentificationFailed(TowerlabError):
    """Cross-side matching of the distinguished place Q was ambiguous."""


class TowerSpec(Record):
    """A recursive tower, reduced to its defining data.

    F is the BivarPoly and base its FiniteField.  m is the tower step degree
    deg_y F; skew records deg_x F != deg_y F (a skew tower does not have
    [T_{i+1} : T_i] constant, which the climb relies on).  from_poly
    verifies F is irreducible over K(x).
    """

    __slots__ = ("F", "base", "m", "skew")

    @classmethod
    def from_poly(cls, F: BivarPoly) -> "TowerSpec":
        m = F.deg_y()
        if m < 2:
            raise InvalidTower(f"tower step degree deg_y F = {m} < 2")
        if not is_irreducible_over_ratfield(F):
            raise InvalidTower("F is reducible over K(x)")
        return cls(F=F, base=F.field, m=m, skew=F.deg_x() != m)


class FamilyParams(Record):
    """Parameters (q, a, b, g) of the witness family; m and c are derived.

    q is an int, a and b are FFElems and g is an FFPoly.  Construction
    sets m = q + 1 and c, the q-th root of b, whatever was passed for
    them.  c exists and is unique in any finite field of characteristic p
    when q is a power of p: it turns (y-a)^q + b into the q-th power
    (y - a + c)^q, the algebraic heart of the wild place.
    """

    __slots__ = ("q", "a", "b", "g", "m", "c")
    _defaults = {"m": 0, "c": None}

    def __post_init__(self):
        self.check_q(self.q)
        K = self.a.field
        if self.b.field != K or self.g.field != K:
            raise InvalidParams("a, b, g must share one coefficient field")
        q = self.q
        if q < 2:
            raise InvalidParams("q must be at least 2")
        try:
            c = qth_root(self.b, q)
        except ValueError as exc:  # q is not a power of the characteristic
            raise InvalidParams(str(exc)) from None
        m = q + 1
        if self.b.is_zero():
            raise InvalidParams("constraint violated: b != 0")
        if self.g.eval(self.a).is_zero():
            raise InvalidParams("constraint violated: g(a) != 0")
        if self.g.degree() >= m:
            raise InvalidParams(f"constraint violated: deg g < m = {m}")
        if math.gcd(m - self.g.degree(), m) != 1:
            raise InvalidParams(
                f"constraint violated: gcd(m - deg g, m) = "
                f"{math.gcd(m - self.g.degree(), m)} != 1"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", c)

    @staticmethod
    def check_q(q: int) -> None:
        """Refuse a q past FAMILY_MAX_Q, before anything is built over GF(q)."""
        if q > FAMILY_MAX_Q:
            raise InvalidParams(f"q = {q} is past the family's bound FAMILY_MAX_Q = {FAMILY_MAX_Q}")


def family_field(q: int) -> FiniteField:
    """GF(q) for the family's q, refused (InvalidParams) past FAMILY_MAX_Q,
    before q is factored, or when q is no prime power."""
    FamilyParams.check_q(q)
    primes = _prime_divisors(max(q, 1))
    if len(primes) != 1:
        raise InvalidParams(f"q = {q} is not a prime power")
    p, s = primes[0], 1
    while p**s < q:
        s += 1
    return make_field(p, s)


def build_family(params: FamilyParams) -> TowerSpec:
    """Expand g(x)[(y-a)^m + b(y-a)] - (x-a)^m into a TowerSpec."""
    K = params.a.field
    a, b, m = params.a, params.b, params.m
    y_minus_a = BivarPoly(K, [FFPoly(K, [-a]), FFPoly(K, [K.one()])])
    x_minus_a = FFPoly(K, [-a, K.one()])
    F = params.g * (y_minus_a**m + y_minus_a * b) - BivarPoly(K, [x_minus_a**m])
    spec = TowerSpec.from_poly(F)
    if spec.skew or spec.m != m:
        raise InvalidTower("family expansion lost the degree pattern")
    return spec


class FamilyCheck(Record):
    """One named check: name, title and detail strings, and passed."""

    __slots__ = ("name", "title", "passed", "detail")


class FamilyReport(Record):
    """The checks of one family member: its FamilyParams and TowerSpec, a
    tuple of FamilyChecks, witness PlaceExts by name, and note strings."""

    __slots__ = ("params", "tower", "checks", "witnesses", "notes")

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_family_facts(params: FamilyParams) -> FamilyReport:
    """Re-derive the family's ramification facts one check at a time.

    Each check records the constraint it actually consumed, since the
    parameter constraints are used in different places: the Eisenstein
    argument needs gcd(m - deg g, m) = 1, the place count over the zero of
    x - a needs g(a) != 0, and the wild index needs b != 0.
    """
    ts = build_family(params)
    F, K = ts.F, ts.base
    a, b, q, m = params.a, params.b, params.q, params.m
    x_minus_a = FFPoly(K, [-a, K.one()])
    y_minus_a = BivarPoly(K, [FFPoly(K, [-a]), FFPoly(K, [K.one()])])
    P_inf = RatPlace.infinity(K)
    P_xa = RatPlace.finite(x_minus_a)
    checks = []

    ok = eisenstein_at(F, P_inf)
    checks.append(
        FamilyCheck(
            "a",
            "Eisenstein at the pole of x",
            ok,
            f"one Newton segment of length m = {m} with slope denominator m; "
            f"uses gcd(m - deg g, m) = 1",
        )
    )

    pls = places_above(F, P_xa, side="x")
    witnesses = {}
    for pl in pls:
        if pl.e == 1 and "Q" not in witnesses:
            witnesses["Q"] = pl
        elif pl.e == q and "Q_wild" not in witnesses:
            witnesses["Q_wild"] = pl
    efs = sorted((pl.e, pl.f) for pl in pls)
    ok = efs == [(1, 1), (q, 1)]
    checks.append(
        FamilyCheck(
            "b",
            "two places over the zero of x - a",
            ok,
            f"(e, f) pairs {efs}, expected [(1, 1), ({q}, 1)]; "
            f"uses g(a) != 0 and b != 0",
        )
    )

    Q = next((pl for pl in pls if pl.e == 1), None)
    if Q is None:
        checks.append(
            FamilyCheck("c", "tame place is the zero of y - a", False,
                        "no e = 1 place found over the zero of x - a")
        )
        checks.append(
            FamilyCheck("d", "tame place totally ramified on the y side",
                        False, "skipped: no e = 1 place")
        )
    else:
        vy = Q.valuation_of(y_minus_a)
        checks.append(
            FamilyCheck(
                "c",
                "tame place is the zero of y - a",
                vy == m,
                f"valuation of y - a at the e = 1 place is {vy}, expected m = {m}",
            )
        )
        ply = places_above(F, P_xa, side="y")
        efs_y = sorted((pl.e, pl.f) for pl in ply)
        checks.append(
            FamilyCheck(
                "d",
                "tame place totally ramified on the y side",
                efs_y == [(m, 1)],
                f"(e, f) pairs over the zero of y - a: {efs_y}, "
                f"expected [({m}, 1)]",
            )
        )

    vg = P_xa.order(params.g)
    checks.append(
        FamilyCheck(
            "e",
            "g has no zero at x = a",
            vg == 0,
            f"valuation of g at the zero of x - a is {vg}; "
            f"restates g(a) != 0 as a place-level fact",
        )
    )

    ok = params.c**q == b
    checks.append(
        FamilyCheck(
            "f",
            "c is a q-th root of b",
            ok,
            f"c = {params.c!r}, c^{q} = {params.c ** q!r}, b = {b!r}",
        )
    )

    checks.append(
        FamilyCheck(
            "g",
            "degree pattern is non-skew",
            not ts.skew,
            f"deg_x F = {F.deg_x()}, deg_y F = {F.deg_y()}",
        )
    )

    return FamilyReport(
        params=params,
        tower=ts,
        checks=tuple(checks),
        witnesses=witnesses,
        notes=(SKEW_NOTE,),
    )


class TheoremVerdict(Record):
    """Whether conditions (1)-(3) hold, witness PlaceExts by name, the names
    of the failed conditions, the conclusion ("InfiniteGenus" when holds,
    else None), the RamHypotheses for the climb (or None) and notes."""

    __slots__ = (
        "holds", "witnesses", "failed_conditions", "conclusion", "hypotheses",
        "notes",
    )


def check_theorem(F: BivarPoly, f: FFPoly, max_depth: int = 8) -> TheoremVerdict:
    """Verify conditions (1)-(3) for the pair (F, f).

    Preconditions that make the analysis meaningless (in order: deg_y F < 2,
    f not monic irreducible, F not separable in y or in x, F reducible over
    K(x) or K(y)) short-circuit with a named failure.  Everything else is
    evaluated exhaustively so the verdict lists every violated condition.

    Cross-side identification of Q: a place of K(x, y) is the same object
    no matter which side computed it, and its normalized valuation is
    intrinsic.  The y-side witness pins down nu_Q(f(x)) and nu_Q(f(y)) plus
    the absolute residue degree; exactly one x-side place may match that
    fingerprint.  None matching fails condition (1); several matching is
    IdentificationFailed, reported rather than guessed.
    """
    K = F.field
    p = K.p
    m = F.deg_y()

    def bail(reason: str) -> TheoremVerdict:
        return TheoremVerdict(
            holds=False,
            witnesses={},
            failed_conditions=(reason,),
            conclusion=None,
            hypotheses=None,
            notes=(),
        )

    if m < 2:
        return bail(f"precondition: deg_y F = {m} < 2, not a tower step")
    if f.degree() < 1 or f.lc() != K.one() or not is_irreducible(f):
        return bail("precondition: f must be monic irreducible of degree >= 1")
    for side in ("x", "y"):
        why = separability_defect(F, side)
        if why is not None:
            return bail(f"precondition: {why}")
    if not is_irreducible_over_ratfield(F):
        return bail("precondition: F is reducible over K(x)")
    if not is_irreducible_over_ratfield(curve_swapped(F)):
        return bail("precondition: F is reducible over K(y)")

    failed: list[str] = []
    notes: list[str] = []
    witnesses: dict[str, PlaceExt] = {}
    if F.deg_x() != m:
        failed.append(
            f"precondition: non-skew required, deg_x F = {F.deg_x()} != "
            f"deg_y F = {m}"
        )
    if math.gcd(m, p) != 1:
        failed.append(f"(1) ramification over P_f(y) cannot be tame: p = {p} divides m = {m}")

    P_f = RatPlace.finite(f, certified=True)
    f_of_x = BivarPoly(K, [f])
    f_of_y = f_of_x.swap_xy()

    pls_y = places_above(F, P_f, side="y", max_depth=max_depth)
    pls_x = places_above(F, P_f, side="x", max_depth=max_depth)

    Q_y = None
    if len(pls_y) == 1 and pls_y[0].e == m:
        Q_y = pls_y[0]
        witnesses["Q_y_side"] = Q_y
    else:
        failed.append(
            "(1) P_f(y) is not totally ramified: (e, f) pairs "
            f"{sorted((pl.e, pl.f) for pl in pls_y)}, need exactly [({m}, 1)]"
        )

    Q_x = None
    if Q_y is not None:
        n_val = Q_y.valuation_of(f_of_x)
        if n_val <= 0:
            failed.append(
                "(1) the place over P_f(y) does not lie over P_f(x): "
                f"nu_Q(f(x)) = {n_val}"
            )
        else:
            fp = (n_val, m, Q_y.residue_degree_abs())
            cands = [
                pl
                for pl in pls_x
                if (pl.e, pl.valuation_of(f_of_y), pl.residue_degree_abs()) == fp
            ]
            if not cands:
                failed.append(
                    "(1) no x-side place matches the fingerprint "
                    f"(e, nu(f(y)), residue degree) = {fp}"
                )
            elif len(cands) > 1:
                raise IdentificationFailed(
                    f"{len(cands)} x-side places share the fingerprint {fp}; "
                    "refusing to guess which is Q"
                )
            else:
                Q_x = cands[0]
                witnesses["Q_x_side"] = Q_x

    if Q_x is not None and math.gcd(Q_x.e, m) != 1:
        failed.append(
            f"(2) gcd(e(Q|P_f(x)), m) = {math.gcd(Q_x.e, m)} != 1 "
            f"(e = {Q_x.e}, m = {m})"
        )
    if Q_x is None:
        notes.append("(2) not evaluated: no place Q identified")

    wilds = [pl for pl in pls_x if pl.e % p == 0 and math.gcd(pl.e, m) == 1]
    if wilds:
        witnesses["Q_wild"] = wilds[0]
        if len(wilds) > 1:
            notes.append(
                f"(3) has {len(wilds)} wild witnesses; reporting the first"
            )
    else:
        failed.append(
            "(3) no wildly ramified place above P_f(x) with index prime to "
            f"m: indices {sorted(pl.e for pl in pls_x)}, p = {p}"
        )

    holds = not failed
    hyps = None
    if holds:
        hyps = RamHypotheses(
            m=m,
            n=witnesses["Q_x_side"].e,
            r=witnesses["Q_wild"].e,
            p=p,
            d_prime_min=witnesses["Q_wild"].d_range[0],
        )
    return TheoremVerdict(
        holds=holds,
        witnesses=witnesses,
        failed_conditions=tuple(failed),
        conclusion="InfiniteGenus" if holds else None,
        hypotheses=hyps,
        notes=tuple(notes),
    )
