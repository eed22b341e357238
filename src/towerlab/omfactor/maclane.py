"""Inductive (key-polynomial) valuations on GF(q)(x)[y] over a fixed place
of GF(q)(x), after MacLane.

A stage-zero valuation assigns a value lambda to a monic linear key phi and
acts on a polynomial through its phi-expansion:

    V(sum c_i phi^i) = min_i ( v_P(c_i) + i*lambda ).

Stage zero with key y and value 0 is the Gauss valuation, min_i v_P(c_i)
on sum c_i y^i, and the Newton polygon of H in y at that stage is the
first polygon of a decomposition; newton_slopes reads it like every later
one.
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
augmented stage form one ffield.Adjoin step over the previous stage's,
built on first read: its residue field is prev.resfield(z) for a root z of
the stage's residual psi.  That is prev.resfield itself when psi is linear,
GF(p)[u]/(psi) with z the class of u when prev.resfield is prime, and the
canonical field with the smallest root of psi otherwise; a residual over a
prime step is therefore written in g = z, a root of the psi printed before.
graded_map carries a previous-stage residue into this ring by evaluation
at z, and graded_map_lift inverts it with Adjoin.lift.

Same-degree augmentations collapse onto the previous stage, so chains keep
strictly increasing key degrees; the stage invariants then satisfy
deg phi = E * f with E the ramification index and f the residue degree.

A residual factor psi of multiplicity one closes its branch without an
augmentation: by the theorem of the residual polynomial (MacLane 1936;
Guardia-Montes-Nart, Trans. AMS 2012) the place it marks has E equal to
the stage's and residue degree deg psi times the stage's.  Such a branch
is a Closed.  The same theorem is the one rule for valuations at the place
(exact_val): nu(g) = E * V(g) unless psi divides R_V(g), and only then is
the next stage built (key lift, one new value, augmentation) and the test
repeated there.

Keys, key values and residuals are exact.  Values are computed in O_P/P^N
(ratfunc.LocalRing) on the images of the exact polynomials, at the
precision N that a decomposition's stages share (`_Precision`), after
Guardia-Montes-Nart and Bauch-Nart-Stainsby (LMS J. Comput. Math. 2013).
The certificate: keys are monic and P-integral and every stage is >= 0 on
O_P[y], so a polynomial known mod P^N has, at every stage, the value of its
image whenever that value is below N; the same holds for a residual (it
reads only terms of that least value) and for a Newton polygon whose first
and last points lie below N (every other point then lies above it).  A
public method takes exact polynomials and checks exactly these values;
when one reaches N it doubles N for the decomposition and computes again.
The first N is read off H alone (start_precision), so a decomposition
depends only on P and H.
The value that reached N is bounded by `_bound`, from the top digits of
the exact expansions, so the raises stop there, and a value that passes
its bound is an engine fault (PrecisionExceeded).  Values that are truly
infinite are decided on the exact polynomials: H(x, 0) = 0, a key dividing
H, and a polynomial divisible by the key of an infinite stage.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import TowerlabError
from ..ffield import Adjoin, FFElem, FFPoly, FiniteField, poly_factor
from ..ratfunc import RatPlace
from .newton import slope_length_pairs
from .ypoly import YPoly

INF = math.inf


class DepthExceeded(TowerlabError):
    """Raised when the decomposition needs more refinement levels than allowed."""


class Inseparable(TowerlabError):
    """Raised when the defining polynomial is not separable and squarefree in y."""


class PrecisionExceeded(TowerlabError):
    """Raised when a value reaches the precision N although the exact
    polynomials bound it below N: an engine bug, never a user error."""


def start_precision(m: int, low_val: int) -> int:
    """The first N of a decomposition of H of degree m: v_P of H's lowest
    nonzero coefficient plus m plus one, and at least 1 (an H that is not
    integral must reach the check in decompose).  Only a cost hint: without
    the m term a warm benchmark `sweep` pass raises N about 42 times."""
    return max(1, low_val + m + 1)


class _Precision:
    """The ring O_P/P^N a decomposition's stages compute in, raised in place
    (N doubled) when a value they need reaches N, and the images there of
    the exact polynomials they were asked about, each converted once."""

    __slots__ = ("ring", "_images")

    def __init__(self, ring):
        self.ring = ring
        self._images = {}  # without it a warm sweep pass takes 72-75% more CPU (30/30 pairs)

    def local(self, f: YPoly) -> tuple[YPoly, int]:
        """f.local(ring) at the current ring, converted once."""
        out = self._images.get(f)
        if out is None:
            out = self._images[f] = f.local(self.ring)
        return out

    def raise_past(self, bound) -> None:
        """Double N; bound is an upper bound of the value that reached it."""
        ring = self.ring
        if ring.N > bound:
            raise PrecisionExceeded(
                f"a value at {ring.place!r} bounded by {bound} reached N = {ring.N}"
            )
        self.ring = ring.place.local(max(1, 2 * ring.N))
        self._images = {}


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

    Values lie in (1/E)Z, so the engine computes E * V(f), an int;
    keyval * E = rel_n.  val() and keyval are ints when integral and
    Fractions otherwise.  The stages of one decomposition share their
    precision `prec`.
    """

    __slots__ = (
        "place",
        "prec",
        "prev",
        "phi",
        "keyval",
        "E",
        "rel_n",
        "rel_d",
        "inv_a",
        "inv_b",
        "psi",
        "res_deg",
        "_ext",
    )

    def __init__(self, place: RatPlace, prev, phi: YPoly, keyval, psi: FFPoly | None,
                 prec: _Precision):
        self.place = place
        self.prec = prec
        self.prev = prev
        self.phi = phi
        prev_E = 1 if prev is None else prev.E
        self.E, self.rel_n, self.rel_d, self.inv_a, self.inv_b = _stage_data(
            prev_E, keyval
        )
        self.keyval = INF if self.rel_n is None else _qval(self.rel_n, self.E)
        self._ext = None
        if prev is None:
            if phi.degree() != 1 or not phi.lc().is_one():
                raise ValueError("stage-zero key must be monic linear")
            self.psi = None
            self.res_deg = 1
        else:
            if psi is None:
                raise ValueError("augmented stage requires its residual")
            self.psi = psi
            self.res_deg = prev.res_deg * psi.degree()

    # the residue field is built on first read: the terminal stage of a
    # Closed branch reads it only when a valuation goes one stage further

    @property
    def ext(self) -> Adjoin:
        """The step prev.resfield(z), z a root of psi (augmented stages)."""
        if self._ext is None:
            self._ext = Adjoin(self.prev.resfield, self.psi)
        return self._ext

    @property
    def resfield(self) -> FiniteField:
        return self.place.residue_field() if self.prev is None else self.ext.field

    # -- construction ----------------------------------------------------------

    def augment(self, phi_new: YPoly, keyval, psi: FFPoly) -> "StageVal":
        """MacLane augmentation with same-degree collapse.  psi is the monic
        residual of phi_new at this stage (the factor phi_new was lifted
        from); a collapse onto the previous stage takes the residual there."""
        if phi_new.degree() == self.phi.degree():
            prev = self.prev
            if prev is None:
                return StageVal(self.place, None, phi_new, keyval, None, self.prec)
            psi = prev.residual(phi_new).monic()
            return StageVal(self.place, prev, phi_new, keyval, psi, self.prec)
        return StageVal(self.place, self, phi_new, keyval, psi, self.prec)

    # -- the valuation on local polynomials ------------------------------------------

    def _key(self) -> YPoly:
        """The key's image at the current precision, which every local
        polynomial a computation holds is at."""
        return self.prec.local(self.phi)[0]

    def _coeff_sval(self, c: YPoly):
        """E * v(c) for a local c of degree below deg phi, v the previous
        stage (the place's valuation at stage zero); INF for c = 0."""
        if not c.coeffs:
            return INF
        if self.prev is None:
            return self.rel_d * c.field.val(c.coeffs[0])
        return self.rel_d * self.prev._sval(c)

    def _terms(self, cc: tuple) -> list:
        """E * (v(c_i) + i * keyval) over a phi-expansion cc = (c_0, c_1, ...)
        of f = sum c_i phi^i; INF where c_i = 0 and, at an infinite stage,
        for every i > 0."""
        n, sval = self.rel_n, self._coeff_sval
        if n is None:
            return [sval(cc[0])] + [INF] * (len(cc) - 1)
        return [sval(c) + i * n for i, c in enumerate(cc)]

    def _sval(self, f: YPoly):
        """E * V(f) for a local f, an int, or INF for f = 0 mod P^N; a
        value >= E * N is only a lower bound."""
        if f.degree() < self.phi.degree():
            return self._coeff_sval(f)
        return min(self._terms(f.expand_in(self._key())))

    def _bound(self, f: YPoly):
        """An upper bound of E * V(f) for an exact f, nonzero at a finite
        stage: V(f) <= V(c_n) + n * keyval for the top digit c_n."""
        cc = f.expand_in(self.phi)
        top = cc[-1]
        if self.prev is None:
            b = self.place.valuation(top.coeffs[0])
        else:
            b = self.prev._bound(top)
        return self.rel_d * b + (len(cc) - 1) * self.rel_n

    def _exact_sval(self, f: YPoly):
        """E * V(f) for an exact f, certified; INF for f = 0 and for f
        divisible by the key of an infinite stage."""
        if f.is_zero():
            return INF
        if self.rel_n is None:
            r = None if f is self.phi else f % self.phi
            if r is None or r.is_zero():
                return INF
            if self.prev is None:
                return self.place.valuation(r.coeffs[0])
            return self.prev._exact_sval(r)
        while True:
            ring = self.prec.ring
            g, s = self.prec.local(f)
            v = self._sval(g)
            if v < ring.N * self.E:
                return v - s * self.E
            self.prec.raise_past(Fraction(self._bound(f), self.E) + s)

    def val(self, f: YPoly):
        return _qval(self._exact_sval(f), self.E)

    # -- graded residue machinery ------------------------------------------------

    def graded_reduction(self, f: YPoly):
        """(fbar, i0, j0, G): the P-integral f reduces to s^i0 t^j0
        fbar(s^d/t^n), of grade G/E."""
        if f.is_zero():
            raise ValueError("graded reduction of zero")
        if self.rel_n is None:
            raise TowerlabError("no graded reduction at an infinite stage")
        self._exact_sval(f)  # certifies V(f) at the current precision
        g, s = self.prec.local(f)
        if s:
            raise ValueError("graded reduction of a polynomial that is not P-integral")
        return self._reduce(g)

    def _reduce(self, f: YPoly):
        """graded_reduction of a local f whose value is certified."""
        d, n = self.rel_d, self.rel_n
        # only the terms of least value reduce; the rest vanish in the grade
        cc = f.expand_in(self._key())
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
                coeff_map[m] = c.field.unit(c.coeffs[0])
            else:
                c1, i1, j1, _ = self.prev._reduce(c)
                cconst, mm = self.graded_map(c1, i1, j1)
                if mm != j0 - m * n:
                    raise TowerlabError("graded map grade mismatch")
                coeff_map[m] = cconst
        K = self.resfield
        R = FFPoly(K, [coeff_map.get(t, K.zero()) for t in range(max(coeff_map) + 1)])
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
        # Horner in phi^d: the term of h's coefficient k sits at phi^(i + k*d)
        phi_d = self.phi if d == 1 else self.phi**d
        F = YPoly(field, [])
        for k in range(h.degree(), -1, -1):
            F = F * phi_d
            c = h.coeff(k)
            if c.is_zero():
                continue
            jj = j - k * n
            if self.prev is None:
                r = self.place.lift(c)
                C = YPoly(field, [r * self.place.uniformizer() ** jj if jj else r])
            else:
                f0, i0, j0 = self.graded_map_lift(c, jj)
                C = self.prev.graded_reduction_lift(f0, i0, j0)
            F = F + C
        return F * self.phi**i if i else F

    def keypol_from_residual(self, h: FFPoly) -> YPoly:
        lifted = self.graded_reduction_lift(h)
        if not lifted.lc().is_one():
            raise TowerlabError("key lift is not monic")
        return lifted

    # -- approximation driver ------------------------------------------------------

    def newton_slopes(self, f: YPoly, P: YPoly):
        """(slope, length) pairs of the Newton polygon of the monic,
        P-integral f in the key P at this stage.  Its first point is digit 0,
        or the first digit that is exactly nonzero when P divides f."""
        while True:
            ring = self.prec.ring
            cc = self.prec.local(f)[0].expand_in(self.prec.local(P)[0])
            top = ring.N * self.E
            vals = [self._sval(c) for c in cc]
            first = 0
            if vals[0] >= top:
                first = next(i for i, c in enumerate(f.expand_in(P)) if not c.is_zero())
            for i in (first, len(cc) - 1):
                if vals[i] >= top:
                    self.prec.raise_past(Fraction(self._bound(f.expand_in(P)[i]), self.E))
                    break
            else:
                return slope_length_pairs(
                    {i: v for i, v in enumerate(vals) if i >= first and v < top}, self.E
                )

    def new_values(self, G: YPoly, P: YPoly):
        if G == P:
            return [INF]
        ss = [-s for s, _ in self.newton_slopes(G, P)]
        vP = self.val(P)
        return [s for s in ss if s > vP]

    def augmentations(self, G: YPoly):
        """The branches of G one step past this stage, as (W, key, lam, psi)
        per monic residual factor psi of G.  A factor of multiplicity one
        closes its branch: W is a Closed, and key and lam are None until it
        is built.  Any other factor augments along the key lifted from it,
        once per new value lam.  The factor u itself is skipped: the
        branches it marks belong to steeper segments handled by sibling
        valuations."""
        if self._exact_sval(G) == INF:
            return []
        fac = poly_factor(self.residual(G))
        gen = FFPoly(self.resfield, [self.resfield.zero(), self.resfield.one()])
        out = []
        for psi, mult in fac:
            if psi == gen:
                continue
            if mult == 1:
                out.append((Closed(self, psi, G), None, None, psi))
                continue
            key = self.keypol_from_residual(psi)
            for v in self.new_values(G, key):
                out.append((self.augment(key, v, psi), key, v, psi))
        return out

    def projection(self, G: YPoly) -> int:
        v = self._exact_sval(G)
        if v == INF:
            return 1
        g = self.prec.local(G)[0]
        ii = [i for i, t in enumerate(self._terms(g.expand_in(self._key()))) if t == v]
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

    __slots__ = ("V", "psi", "H", "E", "res_deg", "_stage")

    def __init__(self, V: StageVal, psi: FFPoly, H: YPoly):
        self.V = V
        self.psi = psi
        self.H = H
        self.E = V.E
        self.res_deg = V.res_deg * psi.degree()
        self._stage = None

    def stage(self) -> StageVal:
        """The terminal stage: the augmentation along the key lifted from
        psi at its one new value.  Raises TowerlabError unless it has
        projection 1 and the branch's E and residue degree."""
        if self._stage is None:
            V, psi, H = self.V, self.psi, self.H
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
    recursion step adds one more.  The first polygon is H's polygon in y
    at the Gauss valuation (stage zero with key y and value 0), read and
    certified by newton_slopes like every later one; each of its finite
    slopes starts a stage zero on y.  A place cut out by y itself (infinite
    first slope) carries the single level ("y", None, None).  The
    fundamental equality sum(E * f) = deg H is checked and a TowerlabError
    raised on violation (an engine bug, not user error).
    """
    m = H.degree()
    y = YPoly.variable(H.field)
    low = next(c for c in H.coeffs if not c.is_zero())
    prec = _Precision(place.local(start_precision(m, place.valuation(low))))
    if prec.local(H)[1]:
        raise TowerlabError(f"H is not integral at {place!r}")
    gauss = StageVal(place, None, y, 0, None, prec)
    work = []
    results = []
    for slope, _length in gauss.newton_slopes(H, y):
        if slope == -INF:
            V0 = StageVal(place, None, y, INF, None, prec)
            results.append((V0, ((y.to_str(), None, None),)))
        else:
            work.append((StageVal(place, None, y, -slope, None, prec), ()))
    while work:
        V, levels = work.pop()
        if len(levels) >= max_depth:
            raise DepthExceeded(
                f"decomposition at {place!r} exceeded {max_depth} refinement levels"
            )
        # a Fraction: ties in (E, f) are ordered by str(levels) below
        slope_here = None if V.rel_n is None else Fraction(-V.rel_n, V.E)
        key = V.phi.to_str()
        for W, _key, _lam, psi in V.augmentations(H):
            lev = levels + ((key, slope_here, psi.to_str("u")),)
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


def exact_val(branch, H: YPoly, g: YPoly):
    """The exact valuation of g at the place of a branch of H (a Closed or
    a terminal StageVal, as decompose returns them), in units of v_P.
    Returns (value, branch'), branch' the branch as deep as the value
    needed.

    The theorem of the residual polynomial (MacLane 1936; Guardia-Montes-
    Nart, Trans. AMS 2012) decides it: at the place of a Closed(V, psi) the
    value is V(g) unless psi divides R_V(g), and only then is the next
    stage built (Closed.stage) and the test repeated there.  A terminal
    finite StageVal W is the branch Closed(W, psi), psi the factor of
    R_W(H) other than u, linear since W has projection 1.  An infinite
    stage is exact: the value is INF when its key, a factor of H, divides g.
    """
    if g.is_zero():
        return INF, branch
    for _ in range(200):
        if not isinstance(branch, Closed):
            if branch.rel_n is None:
                return branch.val(g), branch
            R = branch.residual(H)
            k = next(i for i, c in enumerate(R.ints) if c)
            branch = Closed(branch, FFPoly._of(R.field, R.ints[k:]).monic(), H)
        V = branch.V
        v = V._exact_sval(g)
        # the certified image; its shift only moves R_V(g) by a power of t
        if not (V._reduce(V.prec.local(g)[0])[0] % branch.psi).is_zero():
            return _qval(v, V.E), branch
        branch = branch.stage()
    raise TowerlabError(
        "valuation did not stabilize; is the element zero at this place?"
    )
