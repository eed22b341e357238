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
(lift a residual factor back to a key polynomial).  The constants of an
augmented stage form one ffield.Adjoin step over the previous stage's: its
residue field is prev.resfield(z) for a root z of the stage's residual psi
(prev.resfield itself when psi is linear).  graded_map carries a
previous-stage residue into this ring by evaluation at z, and
graded_map_lift inverts it with Adjoin.lift.

Same-degree augmentations collapse onto the previous stage, so chains keep
strictly increasing key degrees; the stage invariants then satisfy
deg phi = E * f with E the ramification index and f the residue degree.

A residual factor psi of multiplicity one closes its branch without an
augmentation: by the theorem of the residual polynomial (Guardia-Montes-
Nart, Trans. AMS 2012) the place it marks has E equal to the stage's and
residue degree deg psi times the stage's.  Such a branch is a Closed; its
terminal stage (key lift, new value, augmentation) is built on first use,
which only valuations at the place ask for.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import TowerlabError
from ..ffield import (
    Adjoin,
    FFElem,
    FFPoly,
    is_irreducible,
    poly_factor,
)
from ..ratfunc import RatFunc, RatPlace
from .newton import slope_length_pairs
from .ypoly import YPoly

INF = math.inf


class DepthExceeded(TowerlabError):
    """Raised when the decomposition needs more refinement levels than allowed."""


class Inseparable(TowerlabError):
    """Raised when the defining polynomial is not separable and squarefree in y."""


def _qval(n, d: int):
    """n/d as an int when d divides n, else as a Fraction; INF stays INF."""
    if n == INF:
        return INF
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _stage_data(prev_E: int, keyval):
    """(E, rel_n, rel_d, inv_a, inv_b) for a stage of key value keyval over a
    previous stage with value group (1/prev_E)Z; keyval is an int or a
    Fraction, and rel_n / rel_d = keyval * prev_E in lowest terms."""
    if keyval == INF:
        return prev_E, None, 1, 0, 1
    n, d = keyval.numerator * prev_E, keyval.denominator
    g = math.gcd(n, d)
    rel_n, rel_d = n // g, d // g
    E = prev_E * rel_d
    inv_a = pow(rel_n, -1, rel_d) if rel_d > 1 else 0
    inv_b = (1 - inv_a * rel_n) // rel_d
    return E, rel_n, rel_d, inv_a, inv_b


class StageVal:
    """One stage of an inductive valuation.  Immutable; augment() returns a
    new object (collapsing onto the previous stage for same-degree keys).

    Values lie in (1/E)Z, so the engine computes E * V(f), an int, and
    keeps it per polynomial for the life of the stage; keyval * E = rel_n.
    val() and keyval are ints when integral and Fractions otherwise.
    """

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
        "ext",
        "res_deg",
        "nstages",
        "_vals",
    )

    def __init__(self, place: RatPlace, prev, phi: YPoly, keyval, psi: FFPoly | None):
        self.place = place
        self.prev = prev
        self.phi = phi
        prev_E = 1 if prev is None else prev.E
        self.E, self.rel_n, self.rel_d, self.inv_a, self.inv_b = _stage_data(
            prev_E, keyval
        )
        self.keyval = INF if self.rel_n is None else _qval(self.rel_n, self.E)
        self._vals = {}
        if prev is None:
            if phi.degree() != 1 or not phi.lc() == RatFunc.const(phi.field, 1):
                raise ValueError("stage-zero key must be monic linear")
            self.psi = None
            self.ext = None
            self.resfield = place.residue_field()
            self.res_deg = 1
            self.nstages = 1
        else:
            if psi is None:
                raise ValueError("augmented stage requires its residual")
            self.psi = psi
            self.ext = Adjoin(prev.resfield, psi)
            self.resfield = self.ext.field
            self.res_deg = prev.res_deg * psi.degree()
            self.nstages = prev.nstages + 1

    # -- construction ----------------------------------------------------------

    @classmethod
    def stage_zero(cls, place: RatPlace, phi: YPoly, keyval) -> "StageVal":
        return cls(place, None, phi, keyval, None)

    def augment(self, phi_new: YPoly, keyval, psi: FFPoly) -> "StageVal":
        """MacLane augmentation with same-degree collapse.  psi is the monic
        residual of phi_new at this stage (the factor phi_new was lifted
        from); a collapse onto the previous stage takes the residual there."""
        if phi_new.degree() == self.phi.degree():
            prev = self.prev
            if prev is None:
                return StageVal.stage_zero(self.place, phi_new, keyval)
            psi = prev.residual(phi_new).monic()
            return StageVal(self.place, prev, phi_new, keyval, psi)
        return StageVal(self.place, self, phi_new, keyval, psi)

    # -- the valuation ------------------------------------------------------------

    def _coeff_sval(self, c: YPoly):
        """E * v(c) for c of degree below deg phi, v the previous stage (the
        place's valuation at stage zero); INF for c = 0."""
        if not c.coeffs:
            return INF
        if self.prev is None:
            return self.rel_d * self.place.valuation(c.coeffs[0])
        return self.rel_d * self.prev._sval(c)

    def _terms(self, cc: tuple) -> list:
        """E * (v(c_i) + i * keyval) over a phi-expansion cc = (c_0, c_1, ...)
        of f = sum c_i phi^i; INF where c_i = 0 and, at an infinite stage,
        for every i > 0."""
        cv = self._coeff_sval
        n = self.rel_n
        if n is None:
            return [cv(cc[0])] + [INF] * (len(cc) - 1)
        return [cv(c) + i * n for i, c in enumerate(cc)]

    def _sval(self, f: YPoly):
        """E * V(f), an int, or INF for f = 0."""
        v = self._vals.get(f)
        if v is None:
            if f.degree() < self.phi.degree():
                v = self._coeff_sval(f)
            else:
                v = min(self._terms(f.expand_in(self.phi)))
            self._vals[f] = v
        return v

    def val(self, f: YPoly):
        return _qval(self._sval(f), self.E)

    # -- graded residue machinery ------------------------------------------------

    def graded_reduction(self, f: YPoly):
        """(fbar, i0, j0, G): f reduces to s^i0 t^j0 fbar(s^d/t^n), of grade
        G/E."""
        if f.is_zero():
            raise ValueError("graded reduction of zero")
        if self.rel_n is None:
            raise TowerlabError("no graded reduction at an infinite stage")
        d, n = self.rel_d, self.rel_n
        # only the terms of least value reduce; the rest vanish in the grade
        cc = f.expand_in(self.phi)
        terms = self._terms(cc)
        Vf = min(terms)
        i0 = (self.inv_a * Vf) % d
        j0 = (Vf - i0 * n) // d
        coeff_map: dict[int, FFElem] = {}
        for i, c in enumerate(cc):
            if terms[i] != Vf:
                continue
            if (i - i0) % d != 0:
                raise TowerlabError("expansion index off the value lattice")
            m = (i - i0) // d
            if self.prev is None:
                coeff_map[m] = self.place.unit_residue(c.coeff(0))
            else:
                c1, i1, j1, _ = self.prev.graded_reduction(c)
                cconst, mm = self.graded_map(c1, i1, j1)
                if mm != j0 - m * n:
                    raise TowerlabError("graded map grade mismatch")
                coeff_map[m] = cconst
        top = max(coeff_map)
        R = FFPoly(
            self.resfield,
            [coeff_map.get(t, self.resfield.zero()) for t in range(top + 1)],
        )
        return R, i0, j0, Vf

    def residual(self, f: YPoly) -> FFPoly:
        return self.graded_reduction(f)[0]

    def graded_map(self, fbar: FFPoly, i1: int, j1: int):
        """Image in this stage's graded ring of the previous-stage homogeneous
        element s0^i1 t0^j1 fbar(s0^d0/t0^n0); returns (c, m) meaning c*t^m."""
        prev, ext = self.prev, self.ext
        n_, d_, a_, b_ = prev.rel_n, prev.rel_d, prev.inv_a, prev.inv_b
        m = i1 * n_ + j1 * d_
        c = FFElem(ext.field, ext.value(fbar.ints))
        exp = i1 * b_ - j1 * a_
        if exp:
            c = c * FFElem(ext.field, ext.z) ** exp
        return c, m

    def graded_map_lift(self, c: FFElem, m: int):
        """Inverse of graded_map on elements c*t^m; returns (f0, i, j) in the
        previous stage's graded ring."""
        prev, ext = self.prev, self.ext
        n_, d_, a_, b_ = prev.rel_n, prev.rel_d, prev.inv_a, prev.inv_b
        i = a_ * m
        if 0 <= i < d_:
            j = b_ * m
        else:
            v, i = divmod(a_ * m, d_)
            j = n_ * v + b_ * m
            c = c * FFElem(ext.field, ext.z) ** v
        return FFPoly._of(ext.parent, ext.lift(c.v)), i, j

    def graded_reduction_lift(self, h: FFPoly, i: int | None = None, j: int | None = None) -> YPoly:
        """A polynomial whose graded reduction is s^i t^j h(s^d/t^n).  With
        the defaults (i=0, j=n*deg h) the lift is monic in phi."""
        if self.rel_n is None:
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

    def newton_slopes(self, f: YPoly, P: YPoly):
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
        if self.rel_n is None:
            return False
        vf = self._sval(f)
        cc = f.expand_in(self.phi)
        nn = len(cc) - 1
        top = cc[nn]
        if not (top.degree() == 0 and top.coeff(0) == RatFunc.const(f.field, 1)):
            return False
        if nn == 0:
            return False
        if nn * self.rel_n != vf:
            return False
        if self._coeff_sval(cc[0]) > vf:
            # equivalence-divisible by the current key
            return nn == 1
        return is_irreducible(self.residual(f))

    def augmentations(self, G: YPoly):
        """The branches of G one step past this stage, as (W, key, lam, psi)
        per monic residual factor psi of G.  A factor of multiplicity one
        closes its branch: W is a Closed, and key and lam are None until it
        is built.  Any other factor augments along the key lifted from it,
        once per new value lam.  The factor u itself is skipped: the
        branches it marks belong to steeper segments handled by sibling
        valuations."""
        if self._sval(G) == INF:
            return []
        fac = poly_factor(self.residual(G))
        gen = FFPoly(self.resfield, [self.resfield.zero(), self.resfield.one()])
        out = []
        for psi, mult in fac:
            if psi == gen:
                continue
            if mult == 1:
                out.append((Closed(self, psi, G, len(fac) == 1), None, None, psi))
                continue
            key = self.keypol_from_residual(psi)
            for v in self.new_values(G, key):
                out.append((self.augment(key, v, psi), key, v, psi))
        return out

    def projection(self, G: YPoly) -> int:
        v = self._sval(G)
        if v == INF:
            return 1
        ii = [i for i, t in enumerate(self._terms(G.expand_in(self.phi))) if t == v]
        return ii[-1] - ii[0]

    def stage(self) -> "StageVal":
        """The terminal stage of a branch: a StageVal is its own (see
        Closed.stage)."""
        return self

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


class Closed:
    """A branch closed by a residual factor psi of multiplicity one of H at
    stage V.  By the theorem of the residual polynomial its place has
    E = V.E and residue degree V.res_deg * deg psi, so decompose needs no
    augmentation for it; stage() builds the terminal StageVal on first
    use."""

    __slots__ = ("V", "psi", "H", "sole", "E", "res_deg", "_stage")

    def __init__(self, V: StageVal, psi: FFPoly, H: YPoly, sole: bool):
        self.V = V
        self.psi = psi
        self.H = H
        self.sole = sole  # psi is the only factor of the residual of H
        self.E = V.E
        self.res_deg = V.res_deg * psi.degree()
        self._stage = None

    def stage(self) -> StageVal:
        """The terminal stage: [V, H -> +inf] when psi is the only factor
        and H itself is a key, else the augmentation along the key lifted
        from psi at its one new value.  Raises TowerlabError unless it has
        projection 1 and the branch's E and residue degree."""
        if self._stage is None:
            V, psi, H = self.V, self.psi, self.H
            H0 = H.monic()
            if self.sole and V.is_key(H0):
                W = V.augment(H0, INF, psi)
            else:
                key = V.keypol_from_residual(psi)
                vals = V.new_values(H, key)
                if len(vals) != 1:
                    raise TowerlabError("a closed branch has more than one new value")
                W = V.augment(key, vals[0], psi)
            if W.projection(H) != 1 or W.E != self.E or W.res_deg != self.res_deg:
                raise TowerlabError("a closed branch built a non-terminal stage")
            self._stage = W
        return self._stage


def decompose(place: RatPlace, H: YPoly, max_depth: int = 8):
    """All terminal inductive valuations for the monic, integral, squarefree
    separable polynomial H over the given place.

    Returns a list of (branch, levels) pairs.  A branch is a terminal
    StageVal or a Closed; both carry E and res_deg, and stage() gives the
    terminal StageVal (a Closed builds it then).  Each level is one
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
        # a Fraction: ties in (E, f) are ordered by str(levels) below
        slope_here = None if V.rel_n is None else Fraction(-V.rel_n, V.E)
        for W, _key, _lam, psi in V.augmentations(H):
            lev = levels + ((V.phi.to_str(), slope_here, psi.to_str("u")),)
            if isinstance(W, Closed) or W.projection(H) == 1:
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
    hits = [
        W for W, _, _, _ in V.augmentations(H)
        if isinstance(W, Closed) or W.projection(H) == 1
    ]
    if len(hits) != 1:
        raise TowerlabError("expected a unique refinement of a terminal valuation")
    W = hits[0].stage()
    if W.E != V.E or W.res_deg != V.res_deg:
        raise TowerlabError("terminal invariants changed during refinement")
    return W


def exact_val(V: StageVal, H: YPoly, g: YPoly):
    """The exact valuation of g at the place approximated by V, improving V
    along H as needed.  Returns (value, final_V); value is INF when g
    vanishes at the place (g divisible by H's local factor).

    The value of the phi-expansion constant term is exact whenever it is the
    strict minimum among term values, because coefficients of degree below
    deg phi take their final values on a collapsed chain.
    """
    if g.is_zero():
        return INF, V
    for _ in range(200):
        if V.rel_n is None or g.degree() < V.phi.degree():
            return V.val(g), V
        terms = V._terms(g.expand_in(V.phi))
        if terms[0] < min(terms[1:]):
            return _qval(terms[0], V.E), V
        V = improve(V, H)
    raise TowerlabError(
        "valuation did not stabilize; is the element zero at this place?"
    )
