"""Polynomials in y over the rational function field GF(q)(x).

This is the ring in which key polynomials and local defining equations live.
Coefficients are RatFunc elements, so division by any nonzero leading
coefficient is exact and no content bookkeeping is needed.
"""

from __future__ import annotations

from ..ffield import BivarPoly, FFPoly, FiniteField
from ..ratfunc import RatFunc


class YPoly:
    """Dense polynomial in y with RatFunc coefficients, low-to-high, trimmed."""

    __slots__ = ("field", "coeffs")

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
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

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
        inv = self.lc().inverse()
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
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return YPoly(self.field, []), self
        zero = RatFunc.const(self.field, 0)
        q = [zero] * (dq + 1)
        inv_lc = other.lc().inverse()
        for i in range(dq, -1, -1):
            top = rem[i + other.degree()]
            if top.is_zero():
                continue
            factor = top * inv_lc
            q[i] = factor
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - factor * b
        return YPoly(self.field, q), YPoly(self.field, rem)

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

    def expand_in(self, phi: "YPoly") -> list["YPoly"]:
        """phi-adic expansion: f = sum c_i phi^i with deg c_i < deg phi.
        Returns [c_0, c_1, ...] without trailing-zero trimming issues (list
        length is exactly floor(deg f / deg phi) + 1 for nonzero f)."""
        if phi.degree() < 1:
            raise ValueError("expansion base must be nonconstant")
        out = []
        rem = self
        if rem.is_zero():
            return [rem]
        while not rem.is_zero():
            rem, c = divmod(rem, phi)
            out.append(c)
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
