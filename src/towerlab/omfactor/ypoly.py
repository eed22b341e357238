"""Polynomials in y over GF(q)(x), and over the local rings O_P/P^N.

A YPoly's coefficients are RatFuncs or ratfunc.LocalElems (O_P/P^N, one
LocalRing, which then is the polynomial's `field`); `local` converts the
first kind into the second.  Division and the phi-adic expansion use only
subtraction, multiplication, is_zero and is_one of the coefficients, so
they are one code path for both.

Division runs on coefficient lists (`_divmod_coeffs`): the leading term of
each step is known to cancel and is never computed, and a monic divisor, as
every MacLane key is, costs no multiply by an inverse.  The phi-adic
expansion `expand_in` is repeated division by the monic key phi; for a
linear key that is synthetic division (a Taylor shift).  The MacLane engine
expands the same polynomial in the same key many times (the valuation, the
residual polynomial, the Newton polygon and the projection all start from
it), so each key keeps the expansions made in it, as tuples, for as long as
the key itself lives.  monic() returns the polynomial itself when it is
monic already, as every key and every integral model H is.
"""

from __future__ import annotations

import operator

from ..ffield import BivarPoly, FFPoly, FiniteField, _power, _sum_text
from ..ratfunc import LocalElem, RatFunc


def _trimmed(cs: list) -> tuple:
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _divmod_coeffs(a, b: tuple) -> tuple[list, list]:
    """Quotient and remainder lists of a by b (coefficient sequences,
    low-to-high, b trimmed and nonzero).  The remainder has len(b) - 1
    entries, untrimmed; the quotient is trimmed when a is."""
    m = len(b) - 1
    rem = list(a)
    if len(rem) <= m:
        return [], rem
    lc = b[m]
    inv = None if lc.is_one() else lc.inverse()
    low = [(j, c) for j, c in enumerate(b[:m]) if not c.is_zero()]
    q = [None] * (len(rem) - m)
    for i in range(len(q) - 1, -1, -1):
        # rem[i + m] cancels against t * lc; it is never read again
        t = rem[i + m]
        if not t.is_zero():
            if inv is not None:
                t = t * inv
            for j, c in low:
                rem[i + j] = rem[i + j] - t * c
        q[i] = t
    return q, rem[:m]


class YPoly:
    """Dense polynomial in y, low-to-high, trimmed: RatFunc coefficients over
    the constant field `field`, or LocalElem ones over the LocalRing
    `field` (made by `local`)."""

    __slots__ = ("field", "coeffs", "_expansions", "_hash")

    def __init__(self, field: FiniteField, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, RatFunc):
                cs.append(c)
            elif isinstance(c, FFPoly):
                cs.append(RatFunc(c))
            else:
                cs.append(RatFunc.const(field, c))
        for c in cs:
            if c.field is not field:
                raise ValueError("coefficient over the wrong constant field")
        self.field = field
        self.coeffs = _trimmed(cs)
        self._expansions = None
        self._hash = None

    @classmethod
    def _of(cls, field: FiniteField, coeffs: tuple) -> "YPoly":
        """Wrap a trimmed coefficient tuple over field without checks."""
        f = cls.__new__(cls)
        f.field = field
        f.coeffs = coeffs
        f._expansions = None
        f._hash = None
        return f

    @classmethod
    def from_bivar(cls, F: BivarPoly) -> "YPoly":
        return cls(F.field, [RatFunc(c) for c in F.ycoeffs])

    @classmethod
    def variable(cls, field: FiniteField) -> "YPoly":
        return cls(field, [RatFunc.const(field, 0), RatFunc.const(field, 1)])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc.const(self.field, 0)

    def lc(self) -> RatFunc:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coeffs[-1]

    def monic(self) -> "YPoly":
        if self.is_zero():
            return self
        lc = self.lc()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return YPoly._of(self.field, _trimmed([c * inv for c in self.coeffs]))

    def _coerce(self, other):
        if isinstance(other, YPoly):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            other %= self.field.p  # n means n*1, as for FFElem
        if isinstance(other, (RatFunc, FFPoly, int)):
            return YPoly(self.field, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly._of(self.field, _trimmed([self.coeff(i) + other.coeff(i) for i in range(n)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly._of(self.field, _trimmed([self.coeff(i) - other.coeff(i) for i in range(n)]))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return YPoly._of(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return YPoly(self.field, [])
        zero = RatFunc.const(self.field, 0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return YPoly._of(self.field, _trimmed(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(operator.mul, self, n, YPoly(self.field, [1]))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = _divmod_coeffs(self.coeffs, other.coeffs)
        return YPoly._of(self.field, tuple(q)), YPoly._of(self.field, _trimmed(r))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "YPoly":
        return YPoly(self.field, [self.coeff(i) * i for i in range(1, len(self.coeffs))])

    def expand_in(self, phi: "YPoly") -> tuple["YPoly", ...]:
        """phi-adic expansion in a monic nonconstant phi: f = sum c_i phi^i
        with deg c_i < deg phi.  Returns (c_0, c_1, ...), of length exactly
        floor(deg f / deg phi) + 1 for nonzero f, and (0,) for f = 0.  The
        result is remembered on phi, so repeated calls return the same tuple
        (without that, a warm sweep pass takes 10-30% more CPU, 29/30 and 12/14 pairs)."""
        memo = phi._expansions
        if memo is None:
            if phi.degree() < 1 or not phi.lc().is_one():
                raise ValueError("expansion base must be monic and nonconstant")
            memo = phi._expansions = {}
        out = memo.get(self)
        if out is None:
            cs = self.coeffs
            if len(phi.coeffs) == 2 and phi.coeffs[0].is_zero():
                # phi = y, digits are coefficients: family --q 1024 +11-27% CPU without (20/20, 8/10 pairs)
                digits = [YPoly._of(self.field, () if c.is_zero() else (c,)) for c in cs]
            else:
                digits = []
                while cs:
                    cs, r = _divmod_coeffs(cs, phi.coeffs)
                    digits.append(YPoly._of(self.field, _trimmed(r)))
            out = memo[self] = tuple(digits) if digits else (self,)
        return out

    def local(self, ring) -> tuple["YPoly", int]:
        """(g, s) for an exact polynomial and ring = O_P/P^N: s >= 0 is the
        least shift that makes P^s * self P-integral, and g the image of
        P^s * self in O_P/P^N[y]."""
        parts = [None if c.is_zero() else ring.split(c) for c in self.coeffs]
        s = max([0] + [-p[0] for p in parts if p is not None])
        cs = [LocalElem(ring, ()) if p is None else ring.embed(p[0] + s, p[1]) for p in parts]
        return YPoly._of(ring, _trimmed(cs)), s

    def subst_scaled(self, s: RatFunc) -> "YPoly":
        """The polynomial f(s*y): coefficient i is multiplied by s^i."""
        out = []
        power = RatFunc.const(self.field, 1)
        for c in self.coeffs:
            out.append(c * power)
            power = power * s
        return YPoly._of(self.field, _trimmed(out))

    def gcd(self, other: "YPoly") -> "YPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __eq__(self, other):
        return (
            isinstance(other, YPoly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        # cached for the expansion and image memos: +4-6% sweep CPU uncached (24/30, 9/14, 16/20 pairs)
        if self._hash is None:
            self._hash = hash((self.field, self.coeffs))
        return self._hash

    def to_str(self, var: str = "y") -> str:
        texts = [None if c.is_zero() else c.to_str("x") for c in self.coeffs]
        return _sum_text(texts, var, lambda t, i: i > 0 and _wrapped(self.coeffs[i], t))

    __repr__ = to_str


def _wrapped(c: RatFunc, text: str) -> bool:
    """Whether c goes in parentheses before y^i, i > 0: a sum, or a*x^j with j > 0
    and a != 1; a quotient n/(d), which reads left to right, unless n already is."""
    if c.den.degree() > 0:
        return not text.startswith("(")
    n = c.num.ints
    return sum(1 for a in n if a) > 1 or (len(n) > 1 and n[-1] != 1)
