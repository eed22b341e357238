"""Inductive (key-polynomial) valuations on GF(q)(x)[y] over a fixed place
of GF(q)(x), after MacLane.

A stage-zero valuation assigns a value lambda to a monic linear key phi and
acts on a polynomial through its phi-expansion:

    V(sum c_i phi^i) = min_i ( v_P(c_i) + i*lambda ).

An augmentation [V, phi' -> lambda'] re-expands in a new key phi' (monic, of
degree a multiple of deg phi) and evaluates coefficients recursively in V.
Chains of augmentations approximate the places of K(x)[y]/(H) above P; a
chain is terminal for H once the Newton polygon of H relative to its key has
a single lattice step on the face of slope -lambda (projection 1).

The graded residue ring of a stage is k[s, t, 1/t] with s the image of phi
(grade lambda) and t the image of the previous-stage uniformizer (grade
1/E_prev).  Residual polynomials live in k[u] with u = s^d/t^n; they drive
both branch detection (factor the residual of H) and key construction
(lift a residual factor back to a key polynomial).

Same-degree augmentations collapse onto the previous stage, so chains keep
strictly increasing key degrees; the stage invariants then satisfy
deg phi = E * f with E the ramification index and f the residue degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import TowerlabError
from ..ffield import (
    FFElem,
    FFPoly,
    embed,
    gfp_solve,
    is_irreducible,
    make_field,
    poly_factor,
    roots_in_field,
)
from ..ratfunc import RatFunc, RatPlace
from .newton import slope_length_pairs
from .ypoly import YPoly

INF = math.inf


class DepthExceeded(TowerlabError):
    """Raised when the decomposition needs more refinement levels than allowed."""


class Inseparable(TowerlabError):
    """Raised when the defining polynomial is not separable and squarefree in y."""


def _stage_data(prev_E: int, keyval):
    """(E, rel_n, rel_d, inv_a, inv_b) for a stage of key value keyval over a
    previous stage with value group (1/prev_E)Z."""
    if keyval == INF:
        return prev_E, None, 1, 0, 1
    lamE = Fraction(keyval) * prev_E
    rel_d = lamE.denominator
    rel_n = lamE.numerator
    E = prev_E * rel_d
    inv_a = pow(rel_n, -1, rel_d) if rel_d > 1 else 0
    inv_b = (1 - inv_a * rel_n) // rel_d
    return E, rel_n, rel_d, inv_a, inv_b


class StageVal:
    """One stage of an inductive valuation.  Immutable; augment() returns a
    new object (collapsing onto the previous stage for same-degree keys)."""

    __slots__ = (
        "place",
        "prev",
        "phi",
        "keyval",
        "E",
        "rel_n",
        "rel_d",
        "inv_a",
        "inv_b",
        "resfield",
        "psi",
        "z",
        "res_deg",
        "nstages",
        "_lift_cols",
    )

    def __init__(self, place: RatPlace, prev, phi: YPoly, keyval, psi: FFPoly | None):
        self.place = place
        self.prev = prev
        self.phi = phi
        self.keyval = keyval if keyval == INF else Fraction(keyval)
        prev_E = 1 if prev is None else prev.E
        self.E, self.rel_n, self.rel_d, self.inv_a, self.inv_b = _stage_data(
            prev_E, keyval
        )
        self._lift_cols = None
        if prev is None:
            if phi.degree() != 1 or not phi.lc() == RatFunc.const(phi.field, 1):
                raise ValueError("stage-zero key must be monic linear")
            self.psi = None
            self.z = None
            self.resfield = place.residue_field()
            self.res_deg = 1
            self.nstages = 1
        else:
            if psi is None:
                raise ValueError("augmented stage requires its residual")
            self.psi = psi
            frel = psi.degree()
            if frel == 1:
                self.resfield = prev.resfield
                self.z = -psi.coeff(0)
            else:
                self.resfield = make_field(
                    place.field.p, prev.resfield.k * frel
                )
                self.z = roots_in_field(psi, self.resfield)[0]
            self.res_deg = prev.res_deg * frel
            self.nstages = prev.nstages + 1

    # -- construction ----------------------------------------------------------

    @classmethod
    def stage_zero(cls, place: RatPlace, phi: YPoly, keyval) -> "StageVal":
        return cls(place, None, phi, keyval, None)

    def augment(self, phi_new: YPoly, keyval) -> "StageVal":
        """MacLane augmentation with same-degree collapse."""
        if phi_new.degree() == self.phi.degree():
            if self.prev is None:
                return StageVal.stage_zero(self.place, phi_new, keyval)
            return self.prev._augment_stage(phi_new, keyval)
        return self._augment_stage(phi_new, keyval)

    def _augment_stage(self, phi_new: YPoly, keyval) -> "StageVal":
        psi = self.residual(phi_new)
        psi = psi.monic()
        return StageVal(self.place, self, phi_new, keyval, psi)

    # -- the valuation ------------------------------------------------------------

    def _coeff_val(self, c: YPoly):
        if self.prev is None:
            return self.place.valuation(c.coeff(0))
        return self.prev.val(c)

    def val(self, f: YPoly):
        if f.is_zero():
            return INF
        if f.degree() < self.phi.degree():
            return self._coeff_val(f)
        best = INF
        for i, c in enumerate(f.expand_in(self.phi)):
            if c.is_zero():
                continue
            cv = self._coeff_val(c)
            if self.keyval == INF:
                if i == 0:
                    best = min(best, cv)
                continue
            t = cv if i == 0 else cv + i * self.keyval
            if t < best:
                best = t
        return best

    # -- graded residue machinery ------------------------------------------------

    def graded_reduction(self, f: YPoly):
        """(fbar, i0, j0, v): f reduces to s^i0 t^j0 fbar(s^d/t^n) of grade v."""
        if f.is_zero():
            raise ValueError("graded reduction of zero")
        if self.keyval == INF:
            raise TowerlabError("no graded reduction at an infinite stage")
        d, n = self.rel_d, self.rel_n
        terms = {}
        if self.prev is None:
            P = self.place
            for i, c in enumerate(f.expand_in(self.phi)):
                if c.is_zero():
                    continue
                r = c.coeff(0)
                vc = P.valuation(r)
                terms[i] = (i * n + vc * d, P.unit_residue(r), None)
        else:
            for i, c in enumerate(f.expand_in(self.phi)):
                if c.is_zero():
                    continue
                c1, i1, j1, vc = self.prev.graded_reduction(c)
                vnum = Fraction(vc) * self.E + i * n
                if vnum.denominator != 1:
                    raise TowerlabError("grade not in the value lattice")
                terms[i] = (int(vnum), c1, (i1, j1))
        Vf = min(t[0] for t in terms.values())
        i0 = (self.inv_a * Vf) % d
        j0 = (Vf - i0 * n) // d
        coeff_map: dict[int, FFElem] = {}
        for i, (vnum, payload, ij) in terms.items():
            if vnum != Vf:
                continue
            if (i - i0) % d != 0:
                raise TowerlabError("expansion index off the value lattice")
            m = (i - i0) // d
            if self.prev is None:
                coeff_map[m] = payload
            else:
                cconst, mm = self.graded_map(payload, *ij)
                if mm != j0 - m * n:
                    raise TowerlabError("graded map grade mismatch")
                coeff_map[m] = cconst
        top = max(coeff_map)
        R = FFPoly(
            self.resfield,
            [coeff_map.get(t, self.resfield.zero()) for t in range(top + 1)],
        )
        return R, i0, j0, Fraction(Vf, self.E)

    def residual(self, f: YPoly) -> FFPoly:
        return self.graded_reduction(f)[0]

    def graded_map(self, fbar: FFPoly, i1: int, j1: int):
        """Image in this stage's graded ring of the previous-stage homogeneous
        element s0^i1 t0^j1 fbar(s0^d0/t0^n0); returns (c, m) meaning c*t^m."""
        prev = self.prev
        n_, d_, a_, b_ = prev.rel_n, prev.rel_d, prev.inv_a, prev.inv_b
        m = i1 * n_ + j1 * d_
        c = fbar.eval(self.z)
        exp = i1 * b_ - j1 * a_
        if exp:
            c = c * self.z**exp
        return c, m

    def _const_lift(self, c: FFElem) -> FFPoly:
        """Express c in resfield as a polynomial in z over the previous
        stage's residue constant field."""
        parent = self.prev.resfield if self.prev else self.place.residue_field()
        if self.psi is None or self.psi.degree() == 1:
            return FFPoly(parent, [c])
        frel = self.psi.degree()
        if self._lift_cols is None:
            cols = []
            for a in range(frel):
                za = self.z**a
                for b in range(parent.k):
                    basis = embed(parent.elem([0] * b + [1]), self.resfield)
                    cols.append((basis * za).digits())
            self._lift_cols = cols
        sol = gfp_solve(self.resfield.p, self._lift_cols, c.digits())
        k = parent.k
        coeffs = [parent.elem(sol[a * k : (a + 1) * k]) for a in range(frel)]
        return FFPoly(parent, coeffs)

    def graded_map_lift(self, c: FFElem, m: int):
        """Inverse of graded_map on elements c*t^m; returns (f0, i, j) in the
        previous stage's graded ring."""
        prev = self.prev
        n_, d_, a_, b_ = prev.rel_n, prev.rel_d, prev.inv_a, prev.inv_b
        i = a_ * m
        if 0 <= i < d_:
            j = b_ * m
            f0 = self._const_lift(c)
        else:
            v, i = divmod(a_ * m, d_)
            j = n_ * v + b_ * m
            f0 = self._const_lift(c * self.z**v)
        return f0, i, j

    def graded_reduction_lift(self, h: FFPoly, i: int | None = None, j: int | None = None) -> YPoly:
        """A polynomial whose graded reduction is s^i t^j h(s^d/t^n).  With
        the defaults (i=0, j=n*deg h) the lift is monic in phi."""
        if self.keyval == INF:
            raise TowerlabError("no lifts at an infinite stage")
        n, d = self.rel_n, self.rel_d
        if i is None:
            i = 0
        if j is None:
            j = n * h.degree()
        field = self.phi.field
        pi = self.place.uniformizer()
        # Horner in phi^d: the term of h's coefficient k sits at phi^(i + k*d)
        phi_d = self.phi**d
        F = YPoly(field, [])
        for k in range(h.degree(), -1, -1):
            F = F * phi_d
            c = h.coeff(k)
            if c.is_zero():
                continue
            jj = j - k * n
            if self.prev is None:
                C = YPoly(field, [self.place.lift(c) * pi**jj])
            else:
                f0, i0, j0 = self.graded_map_lift(c, jj)
                C = self.prev.graded_reduction_lift(f0, i0, j0)
            F = F + C
        return F * self.phi**i if i else F

    def keypol_from_residual(self, h: FFPoly) -> YPoly:
        lifted = self.graded_reduction_lift(h)
        if not lifted.lc() == RatFunc.const(lifted.field, 1):
            raise TowerlabError("key lift is not monic")
        return lifted

    # -- approximation driver ------------------------------------------------------

    def newton_slopes(self, f: YPoly, P: YPoly | None = None):
        if P is None:
            P = self.phi
        vals = {}
        for i, c in enumerate(f.expand_in(P)):
            if not c.is_zero():
                vals[i] = self.val(c)
        return slope_length_pairs(vals)

    def new_values(self, G: YPoly, P: YPoly):
        if G == P:
            return [INF]
        ss = [-s for s, _ in self.newton_slopes(G, P)]
        vP = self.val(P)
        return [s for s in ss if s > vP]

    def is_key(self, f: YPoly) -> bool:
        if self.keyval == INF:
            return False
        vf = self.val(f)
        cc = f.expand_in(self.phi)
        nn = len(cc) - 1
        top = cc[nn]
        if not (top.degree() == 0 and top.coeff(0) == RatFunc.const(f.field, 1)):
            return False
        if nn == 0:
            return False
        if nn * self.keyval != vf:
            return False
        c0 = cc[0]
        v0 = INF if c0.is_zero() else self._coeff_val(c0)
        if v0 > vf:
            # equivalence-divisible by the current key
            return nn == 1
        return is_irreducible(self.residual(f))

    def new_keys(self, G: YPoly):
        """Candidate keys for augmenting along G, as (key, residual factor)
        pairs.  The residual factor u itself is skipped: the branches it
        marks belong to steeper segments handled by sibling valuations."""
        if self.val(G) == INF:
            return []
        R = self.residual(G)
        fac = poly_factor(R)
        if len(fac) == 1 and fac[0][1] == 1:
            G0 = G.monic()
            if self.is_key(G0):
                return [(G0, fac[0][0])]
        gen = FFPoly(self.resfield, [self.resfield.zero(), self.resfield.one()])
        return [
            (self.keypol_from_residual(psi), psi) for psi, _ in fac if psi != gen
        ]

    def augmentations(self, G: YPoly):
        out = []
        for key, psi in self.new_keys(G):
            for v in self.new_values(G, key):
                out.append((self.augment(key, v), key, v, psi))
        return out

    def projection(self, G: YPoly) -> int:
        v = self.val(G)
        if v == INF:
            return 1
        ii = []
        for i, c in enumerate(G.expand_in(self.phi)):
            if c.is_zero():
                continue
            t = self._coeff_val(c) if i == 0 else self._coeff_val(c) + i * self.keyval
            if t == v:
                ii.append(i)
        return ii[-1] - ii[0]

    # -- display ------------------------------------------------------------------

    def chain(self) -> list["StageVal"]:
        out = []
        v = self
        while v is not None:
            out.append(v)
            v = v.prev
        return list(reversed(out))

    def __repr__(self):
        parts = [
            f"({v.phi.to_str()}, {'+inf' if v.keyval == INF else v.keyval})"
            for v in self.chain()
        ]
        return f"val[{self.place!r}: " + ", ".join(parts) + "]"


def decompose(place: RatPlace, H: YPoly, max_depth: int = 8):
    """All terminal inductive valuations for the monic, integral, squarefree
    separable polynomial H over the given place.

    Returns a list of (StageVal, levels) pairs.  Each level is one
    refinement decision (key polynomial string, segment slope, residual
    string); a factor detected on the first polygon needs one level, each
    recursion step adds one more.  A place cut out by y itself (infinite
    first slope) carries the single level ("y", None, None).  The
    fundamental equality sum(E * f) = deg H is checked and a TowerlabError
    raised on violation (an engine bug, not user error).
    """
    m = H.degree()
    field = H.field
    y = YPoly.variable(field)
    vals = {}
    for i, c in enumerate(H.coeffs):
        if not c.is_zero():
            vals[i] = place.valuation(c)
    work = []
    results = []
    for slope, _length in slope_length_pairs(vals):
        if slope == -INF:
            V0 = StageVal.stage_zero(place, y, INF)
            results.append((V0, ((y.to_str(), None, None),)))
        else:
            work.append((StageVal.stage_zero(place, y, -slope), ()))
    while work:
        V, levels = work.pop()
        if len(levels) >= max_depth:
            raise DepthExceeded(
                f"decomposition at {place!r} exceeded {max_depth} refinement levels"
            )
        slope_here = None if V.keyval == INF else -V.keyval
        for W, _key, _lam, psi in V.augmentations(H):
            lev = levels + ((V.phi.to_str(), slope_here, psi.to_str("u")),)
            if W.projection(H) == 1:
                results.append((W, lev))
            else:
                work.append((W, lev))
    total = sum(V.E * V.res_deg for V, _ in results)
    if total != m:
        raise TowerlabError(
            f"fundamental equality violated: sum e*f = {total} != {m}"
        )
    results.sort(key=lambda vt: (vt[0].E, vt[0].res_deg, str(vt[1])))
    return results


def improve(V: StageVal, H: YPoly) -> StageVal:
    """One more augmentation step along H from a terminal valuation; raises
    if the step is not unique (which would mean V was not terminal)."""
    hits = [W for W, _, _, _ in V.augmentations(H) if W.projection(H) == 1]
    if len(hits) != 1:
        raise TowerlabError("expected a unique refinement of a terminal valuation")
    W = hits[0]
    if W.E != V.E or W.res_deg != V.res_deg:
        raise TowerlabError("terminal invariants changed during refinement")
    return W


def exact_val(V: StageVal, H: YPoly, g: YPoly, max_rounds: int = 200):
    """The exact valuation of g at the place approximated by V, improving V
    along H as needed.  Returns (value, final_V); value is INF when g
    vanishes at the place (g divisible by H's local factor).

    The value of the phi-expansion constant term is exact whenever it is the
    strict minimum among term values, because coefficients of degree below
    deg phi take their final values on a collapsed chain.
    """
    if g.is_zero():
        return INF, V
    for _ in range(max_rounds):
        if V.keyval == INF or g.degree() < V.phi.degree():
            return V.val(g), V
        cc = g.expand_in(V.phi)
        v0 = INF if cc[0].is_zero() else V._coeff_val(cc[0])
        rest = INF
        for i in range(1, len(cc)):
            if cc[i].is_zero():
                continue
            t = V._coeff_val(cc[i]) + i * V.keyval
            if t < rest:
                rest = t
        if v0 < rest:
            return v0, V
        V = improve(V, H)
    raise TowerlabError(
        "valuation did not stabilize; is the element zero at this place?"
    )
