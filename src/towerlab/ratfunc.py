"""The rational function field K(x) over K = GF(q): elements, places,
valuations and residues.

Places of K(x) are the monic irreducible polynomials p(x) together with the
place at infinity.  The valuation at a finite place counts p-multiplicity in
numerator minus denominator; at infinity it is deg(den) - deg(num).  Every
valuation returns the +infinity sentinel (math.inf) on the zero element.

The residue field at a finite place of degree d is K(rho) for a root rho
of p(x), one ffield.Adjoin step built on first use: over a prime field
q = p it is GF(p)[x]/(p(x)) with rho the class of x, otherwise the
canonical GF(q^d) with rho the smallest root of p(x) there.  At a place of
degree 1, infinity included, it is K itself.  lift() inverts evaluation at
rho on polynomials of degree < d.

A finite place computes the p-adic data of a nonzero coefficient r once and
keeps it, keyed by the value of r, for as long as the place lives: v(r) and
the remainders mod p(x) of num/p^a and den/p^b, where p^a and p^b are the
powers of p(x) dividing them, plus the unit residue once asked for.
valuation, residue and unit_residue all read it.  The record sits on the
place rather than on the coefficient because equal coefficients recur as
distinct objects (one pass of the sweep benchmark asks about 2,300
(place, object) pairs but only about 1,050 (place, value) pairs), and
because places are short-lived while a coefficient may meet many of them.

Residues come from the remainder, f(rho) = (f mod p)(rho): at a degree-1
place that remainder is the constant f(a); over a prime field its
coefficients are the digits of f(rho); only otherwise is there a Horner
evaluation (Adjoin.value), of a polynomial of degree < d.

RatFunc arithmetic keeps num/den canonical (coprime, monic denominator)
with Henrici's rules (Knuth, TAOCP 2, 4.5.1), as Python's fractions module
does for integers: a sum takes gcd(d1, d2) = g and then only gcd(num, g); a
product takes the cross gcds gcd(n1, d2) and gcd(n2, d1); an inverse or a
power of a canonical fraction is coprime already.  The rules run on the
coefficient lists (FFPoly.ints) with ffield's list kernels, and only each
result is wrapped in FFPolys.
"""

from __future__ import annotations

import math

from .errors import TowerlabError
from .ffield import (
    Adjoin,
    FFElem,
    FFPoly,
    FiniteField,
    _intern,
    _monic_irreducibles,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _pscale,
    _psub,
    is_irreducible,
)

#: Sentinel for the valuation of 0.
INF = math.inf


class PoleAtPlace(TowerlabError):
    """Raised when a residue is requested at a pole."""


class RatFunc:
    """An element of GF(q)(x), stored as num/den with den monic and
    gcd(num, den) = 1; zero is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num: FFPoly, den: FFPoly | None = None):
        F = num.field
        if den is None:
            self.num, self.den = num, FFPoly._of(F, [1])
            return
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if den.field is not F:
            raise ValueError("numerator and denominator over different fields")
        n, d = num.ints, den.ints
        if not n:
            d = [1]
        else:
            g = _pgcd(F, n, d)
            if len(g) > 1:
                n, d = _quo(F, n, g), _quo(F, d, g)
            n, d = _monic_den(F, n, d)
        self.num = FFPoly._of(F, n)
        self.den = FFPoly._of(F, d)

    @classmethod
    def _of(cls, num: FFPoly, den: FFPoly) -> "RatFunc":
        """Wrap a num/den pair already in canonical form without checks."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def const(cls, field: FiniteField, c) -> "RatFunc":
        v = field.elem(c).v
        return cls._of(FFPoly._of(field, [v] if v else []), FFPoly._of(field, [1]))

    @property
    def field(self) -> FiniteField:
        return self.num.field

    def is_zero(self) -> bool:
        return not self.num.ints

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, FFPoly):
            return RatFunc(other)
        if isinstance(other, int):
            other %= self.field.p  # n means n*1, as for FFElem
        if isinstance(other, (int, FFElem)):
            return RatFunc.const(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, _padd)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, _psub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _product(self.field, self.num.ints, self.den.ints, other.num.ints, other.den.ints)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _product(self.field, self.num.ints, self.den.ints, other.den.ints, other.num.ints)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # den/num is coprime already; only the new denominator needs scaling
        return _wrap(self.field, *_monic_den(self.field, self.den.ints, self.num.ints))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._of(self.num**n, self.den**n)

    def __eq__(self, other):
        if isinstance(other, (int, FFElem, FFPoly)):
            coerced = self._coerce(other)
            return coerced is not None and self == coerced
        return (
            isinstance(other, RatFunc)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((tuple(self.num.ints), tuple(self.den.ints)))

    def to_str(self, var: str = "x") -> str:
        ns = self.num.to_str(var)
        if self.den.degree() == 0:
            return ns
        ds = self.den.to_str(var)
        if "+" in ns or self.num.degree() > 0:
            ns = "(" + ns + ")" if "+" in ns else ns
        return f"{ns}/({ds})"

    def __repr__(self):
        return self.to_str()


# -- Henrici's fraction arithmetic (Knuth, TAOCP 2, 4.5.1) ------------------------
#
# The operands are canonical, so a gcd is only ever taken with a factor of a
# denominator, and each result is canonical without a final gcd.


def _wrap(F: FiniteField, num: list[int], den: list[int]) -> RatFunc:
    """The RatFunc of canonical coefficient lists num and den."""
    return RatFunc._of(FFPoly._of(F, num), FFPoly._of(F, den))


def _quo(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a."""
    return _pdivmod(F, a, b)[0]


def _monic_den(F: FiniteField, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num and den scaled so den is monic."""
    lc = den[-1]
    if lc == 1:
        return num, den
    inv = F._inv(lc)
    return _pscale(F, num, inv), _pscale(F, den, inv)


def _sum(a: RatFunc, b: RatFunc, kernel) -> RatFunc:
    """a + b or a - b, as kernel is _padd or _psub."""
    F = a.num.field
    n1, d1, n2, d2 = a.num.ints, a.den.ints, b.num.ints, b.den.ints
    if d1 == d2:
        num = kernel(F, n1, n2)
        if len(d1) == 1:
            return _wrap(F, num, d1)
        if not num:
            return _wrap(F, num, [1])
        g = _pgcd(F, num, d1)
        if len(g) == 1:
            return _wrap(F, num, d1)
        return _wrap(F, _quo(F, num, g), _quo(F, d1, g))
    # d1 = 1 shares nothing with d2, and needs no division to show it
    g = d1 if len(d1) == 1 else _pgcd(F, d1, d2)
    if len(g) == 1:
        return _wrap(F, kernel(F, _pmul(F, n1, d2), _pmul(F, n2, d1)), _pmul(F, d1, d2))
    s = _quo(F, d1, g)
    t = kernel(F, _pmul(F, n1, _quo(F, d2, g)), _pmul(F, n2, s))
    if not t:
        return _wrap(F, t, [1])
    g2 = _pgcd(F, t, g)
    if len(g2) == 1:
        return _wrap(F, t, _pmul(F, s, d2))
    return _wrap(F, _quo(F, t, g2), _pmul(F, s, _quo(F, d2, g2)))


def _product(F: FiniteField, n1: list[int], d1: list[int], n2: list[int], d2: list[int]) -> RatFunc:
    """(n1/d1) * (n2/d2) for coprime pairs with d1 monic; d2 need not be
    monic, so a quotient is the product with the flipped divisor."""
    if not n1 or not n2:
        return _wrap(F, [], [1])
    if len(d2) > 1:
        g = _pgcd(F, n1, d2)
        if len(g) > 1:
            n1, d2 = _quo(F, n1, g), _quo(F, d2, g)
    if len(d1) > 1:
        g = _pgcd(F, n2, d1)
        if len(g) > 1:
            n2, d1 = _quo(F, n2, g), _quo(F, d1, g)
    return _wrap(F, *_monic_den(F, _pmul(F, n1, n2), _pmul(F, d1, d2)))


class RatPlace:
    """A place of GF(q)(x): either the zero locus of a monic irreducible
    polynomial, or the place at infinity."""

    __slots__ = ("field", "poly", "_ext", "_padic")

    def __init__(self, field: FiniteField, poly: FFPoly | None, certified: bool = False):
        """certified=True skips the irreducibility test of a poly the caller
        has already proved irreducible."""
        if poly is not None:
            if poly.field is not field:
                raise ValueError("place polynomial over the wrong field")
            if poly.degree() < 1 or not poly.lc() == field.one():
                raise ValueError("place polynomial must be monic of degree >= 1")
            if not certified and not is_irreducible(poly):
                raise ValueError(f"{poly!r} is not irreducible")
        self.field = field
        self.poly = poly
        self._ext = None
        self._padic = {}

    @classmethod
    def infinity(cls, field: FiniteField) -> "RatPlace":
        return cls(field, None)

    @classmethod
    def finite(cls, poly: FFPoly, certified: bool = False) -> "RatPlace":
        return cls(poly.field, poly, certified)

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def uniformizer(self) -> RatFunc:
        if self.poly is None:
            one = FFPoly(self.field, [1])
            return RatFunc(one, FFPoly(self.field, [0, 1]))
        return RatFunc(self.poly)

    # -- valuation --------------------------------------------------------------

    def valuation(self, r: RatFunc):
        """The normalized valuation; math.inf for the zero element."""
        if not isinstance(r, RatFunc):
            raise TypeError("valuation takes a RatFunc")
        if r.is_zero():
            return INF
        if self.poly is None:
            return r.den.degree() - r.num.degree()
        return self._data(r)[0]

    def _data(self, r: RatFunc) -> list:
        """[v, num/P^a mod P, den/P^b mod P, unit residue or None] for a
        nonzero r at this finite place, with v = a - b; computed once per
        coefficient value and kept for the life of the place."""
        data = self._padic.get(r)
        if data is None:
            a, nrem = self._strip(r.num.ints)
            b, drem = self._strip(r.den.ints)
            data = self._padic[r] = [a - b, nrem, drem, None]
        return data

    def _strip(self, f: list[int]) -> tuple[int, list[int]]:
        """(v, g mod P) with f = P^v * g and P not dividing g, on coefficient
        lists; f is nonzero."""
        F, P = self.field, self.poly.ints
        v = 0
        while len(f) >= len(P):
            q, rem = _pdivmod(F, f, P)
            if rem:
                return v, rem
            v += 1
            f = q
        return v, f

    # -- residue machinery --------------------------------------------------------

    def _adjoin(self) -> Adjoin:
        """The residue field of a finite place as K(rho), rho a root of P:
        over a prime field GF(p)[x]/(P) itself, with rho the class of x."""
        if self._ext is None:
            F, d = self.field, self.degree()
            # P is certified irreducible (__init__), so its field is interned
            # without a second Ben-Or test
            quotient = _intern(F.p, d, tuple(self.poly.ints)) if F.k == 1 < d else None
            self._ext = Adjoin(F, self.poly, quotient)
        return self._ext

    def residue_field(self) -> FiniteField:
        if self.poly is None:
            return self.field
        return self._adjoin().field

    def _residue_of(self, rem: list[int]) -> FFElem:
        """f(rho) for a finite place, from the coefficient list of f mod P."""
        ext = self._adjoin()
        return FFElem(ext.field, ext.value(rem))

    def _unit(self, data: list) -> FFElem:
        if data[3] is None:
            data[3] = self._residue_of(data[1]) / self._residue_of(data[2])
        return data[3]

    def residue(self, r: RatFunc) -> FFElem:
        """The image of r in the residue field; PoleAtPlace if v(r) < 0."""
        v = self.valuation(r)
        res = self.residue_field()
        if v is INF or v > 0:
            return res.zero()
        if v < 0:
            raise PoleAtPlace(f"pole of order {-v} at {self!r}")
        if self.poly is None:
            # equal degrees: ratio of leading coefficients
            return r.num.lc() / r.den.lc()
        return self._unit(self._data(r))

    def unit_residue(self, r: RatFunc) -> FFElem:
        """residue(r * pi^(-v(r))): the leading unit of r at this place."""
        if r.is_zero():
            raise ZeroDivisionError("unit part of zero")
        if self.poly is None:
            return r.num.lc() / r.den.lc()
        return self._unit(self._data(r))

    def lift(self, alpha: FFElem) -> RatFunc:
        """A rational function (in fact a polynomial of degree < deg P, or a
        constant at infinity) whose residue is alpha."""
        res = self.residue_field()
        if alpha.field is not res:
            raise ValueError("element not in the residue field of this place")
        if self.poly is None:
            return RatFunc.const(self.field, alpha)
        return RatFunc(FFPoly._of(self.field, self._adjoin().lift(alpha.v)))

    # -- identity / display --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RatPlace)
            and other.field is self.field
            and other.poly == self.poly
        )

    def __hash__(self):
        return hash((self.field, self.poly))

    def sort_key(self):
        if self.poly is None:
            return (1, ())
        return (0, self.poly.sort_key())

    def __repr__(self):
        if self.poly is None:
            return "place(infinity)"
        return f"place({self.poly.to_str()})"


def finite_places_of_degree(field: FiniteField, d: int) -> list[RatPlace]:
    """All finite places of degree d >= 1, i.e. monic irreducibles of
    degree d, in increasing coefficient-encoding order."""
    return [
        RatPlace.finite(FFPoly._of(field, f), certified=True)
        for f in _monic_irreducibles(field, d)
    ]
