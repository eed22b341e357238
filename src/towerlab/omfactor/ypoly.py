"""Polynomials in y over the rational function field GF(q)(x).

This is the ring in which key polynomials and local defining equations live.
Coefficients are RatFunc elements, so division by any nonzero leading
coefficient is exact and no content bookkeeping is needed.

Division runs on coefficient lists (`_divmod_coeffs`): the leading term of
each step is known to cancel and is never computed, and a monic divisor, as
every MacLane key is, costs no multiply by an inverse.  The phi-adic
expansion `expand_in` is repeated division by the monic key phi; for a
linear key that is synthetic division (a Taylor shift).  The MacLane engine
expands the same polynomial in the same key many times (the valuation, the
residual polynomial, the Newton polygon and the projection all start from
it), so each key keeps the expansions made in it, as tuples, for as long as
the key itself lives.

The coefficients' own arithmetic is canonical-fraction arithmetic (see
ratfunc), and their P-adic valuations and unit residues are remembered by
the place, so the engine may ask for them as often as it likes.  monic()
returns the polynomial itself when it is monic already, as every key and
every integral model H is.
"""

from __future__ import annotations

from ..ffield import BivarPoly, FFPoly, FiniteField
from ..ratfunc import RatFunc


def _trimmed(cs: list) -> tuple:
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _divmod_coeffs(a, b: tuple) -> tuple[list, list]:
    """Quotient and remainder lists of a by b (RatFunc sequences,
    low-to-high, b trimmed and nonzero).  The remainder has len(b) - 1
    entries, untrimmed; the quotient is trimmed when a is."""
    m = len(b) - 1
    rem = list(a)
    if len(rem) <= m:
        return [], rem
    lc = b[m]
    inv = None if lc.num.is_one() and lc.den.is_one() else lc.inverse()
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
    """Dense polynomial in y with RatFunc coefficients, low-to-high, trimmed."""

    __slots__ = ("field", "coeffs", "_expansions")

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

    @classmethod
    def _of(cls, field: FiniteField, coeffs: tuple) -> "YPoly":
        """Wrap a trimmed tuple of RatFuncs over field without checks."""
        f = cls.__new__(cls)
        f.field = field
        f.coeffs = coeffs
        f._expansions = None
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
        if lc.num.is_one() and lc.den.is_one():
            return self
        inv = lc.inverse()
        return YPoly(self.field, [c * inv for c in self.coeffs])

    def is_one(self) -> bool:
        return self.degree() == 0 and self.coeffs[0] == RatFunc.const(self.field, 1)

    def _coerce(self, other):
        if isinstance(other, YPoly):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, (RatFunc, FFPoly, int)):
            return YPoly(self.field, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return YPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return YPoly(self.field, [-c for c in self.coeffs])

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
        return YPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = YPoly(self.field, [1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = _divmod_coeffs(self.coeffs, other.coeffs)
        return YPoly._of(self.field, tuple(q)), YPoly._of(self.field, _trimmed(r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "YPoly") -> "YPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q

    def derivative(self) -> "YPoly":
        # i % p, not i: int coercion is digit encoding, not reduction mod p.
        return YPoly(
            self.field,
            [self.coeff(i) * (i % self.field.p) for i in range(1, len(self.coeffs))],
        )

    def expand_in(self, phi: "YPoly") -> tuple["YPoly", ...]:
        """phi-adic expansion in a monic nonconstant phi: f = sum c_i phi^i
        with deg c_i < deg phi.  Returns (c_0, c_1, ...), of length exactly
        floor(deg f / deg phi) + 1 for nonzero f, and (0,) for f = 0.  The
        result is remembered on phi, so repeated calls return the same tuple.
        """
        memo = phi._expansions
        if memo is None:
            if phi.degree() < 1 or not phi.lc() == RatFunc.const(phi.field, 1):
                raise ValueError("expansion base must be monic and nonconstant")
            memo = phi._expansions = {}
        out = memo.get(self)
        if out is None:
            cs = self.coeffs
            digits = []
            while cs:
                cs, r = _divmod_coeffs(cs, phi.coeffs)
                digits.append(YPoly._of(self.field, _trimmed(r)))
            out = memo[self] = tuple(digits) if digits else (self,)
        return out

    def subst_scaled(self, s: RatFunc) -> "YPoly":
        """The polynomial f(s*y): coefficient i is multiplied by s^i."""
        out = []
        power = RatFunc.const(self.field, 1)
        for c in self.coeffs:
            out.append(c * power)
            power = power * s
        return YPoly(self.field, out)

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
        return hash((self.field, self.coeffs))

    def to_str(self, var: str = "y") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            cs = c.to_str("x")
            if i == 0:
                terms.append(cs)
                continue
            ys = var if i == 1 else f"{var}^{i}"
            if cs == "1":
                terms.append(ys)
            else:
                if ("+" in cs or "/" in cs or "*" in cs) and not (
                    cs.startswith("(") and cs.endswith(")")
                ):
                    cs = "(" + cs + ")"
                terms.append(f"{cs}*{ys}")
        return " + ".join(terms)

    def __repr__(self):
        return self.to_str()
