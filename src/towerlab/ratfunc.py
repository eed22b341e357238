"""The rational function field K(x) over K = GF(q): elements, places,
valuations and residues.

Places of K(x) are the monic irreducible polynomials p(x) together with the
place at infinity.  The valuation at a finite place counts p-multiplicity in
numerator minus denominator; at infinity it is deg(den) - deg(num).  Every
valuation returns the +infinity sentinel (math.inf) on the zero element.

The residue field at a finite place of degree d is GF(q^d), realized
canonically via make_field and the smallest root rho of p(x) there (over a
prime field q = p it is make_field with p(x) as the modulus, and rho the
class of x); lift() inverts evaluation at rho on polynomials of degree < d.

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
evaluation, of a polynomial of degree < d.

RatFunc arithmetic keeps num/den canonical (coprime, monic denominator)
with Henrici's rules (Knuth, TAOCP 2, 4.5.1), as Python's fractions module
does for integers: a sum takes gcd(d1, d2) = g and then only gcd(num, g); a
product takes the cross gcds gcd(n1, d2) and gcd(n2, d1); an inverse or a
power of a canonical fraction is coprime already.
"""

from __future__ import annotations

import math
import operator

from .errors import TowerlabError
from .ffield import (
    FFElem,
    FFPoly,
    FiniteField,
    embed,
    gfp_solve,
    is_irreducible,
    make_field,
    poly_gcd,
    roots_in_field,
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
        if den is None:
            den = FFPoly(num.field, [1])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero():
            den = FFPoly(num.field, [1])
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.lc()
            if not lc == den.field.one():
                inv = lc.inverse()
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, num: FFPoly, den: FFPoly) -> "RatFunc":
        """Wrap a num/den pair already in canonical form without checks."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def const(cls, field: FiniteField, c) -> "RatFunc":
        return cls._of(FFPoly(field, [c]), FFPoly._of(field, [1]))

    @classmethod
    def var(cls, field: FiniteField) -> "RatFunc":
        return cls._of(FFPoly._of(field, [0, 1]), FFPoly._of(field, [1]))

    @property
    def field(self) -> FiniteField:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree() == 0

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, FFPoly):
            return RatFunc(other)
        if isinstance(other, (int, FFElem)):
            return RatFunc.const(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # den/num is coprime already; only the new denominator needs scaling
        return _monic_den(self.den, self.num)

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
        return hash((self.num, self.den))

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


def _monic_den(num: FFPoly, den: FFPoly) -> RatFunc:
    """num/den for coprime num and den, scaled so den is monic."""
    lc = den.lc()
    if lc == den.field.one():
        return RatFunc._of(num, den)
    inv = lc.inverse()
    return RatFunc._of(num * inv, den * inv)


def _sum(a: RatFunc, b: RatFunc, op) -> RatFunc:
    """a + b or a - b, as op is operator.add or operator.sub."""
    d1, d2 = a.den, b.den
    if d1 == d2:
        num = op(a.num, b.num)
        if d1.is_one():
            return RatFunc._of(num, d1)
        if num.is_zero():
            return RatFunc._of(num, FFPoly._of(num.field, [1]))
        g = poly_gcd(num, d1)
        if g.is_one():
            return RatFunc._of(num, d1)
        return RatFunc._of(num.exact_div(g), d1.exact_div(g))
    # d1 = 1 shares nothing with d2, and needs no division to show it
    g = d1 if d1.is_one() else poly_gcd(d1, d2)
    if g.is_one():
        return RatFunc._of(op(a.num * d2, b.num * d1), d1 * d2)
    s = d1.exact_div(g)
    d2g = d2.exact_div(g)
    t = op(a.num * d2g, b.num * s)
    if t.is_zero():
        return RatFunc._of(t, FFPoly._of(t.field, [1]))
    g2 = poly_gcd(t, g)
    if g2.is_one():
        return RatFunc._of(t, s * d2)
    return RatFunc._of(t.exact_div(g2), s * d2.exact_div(g2))


def _product(n1: FFPoly, d1: FFPoly, n2: FFPoly, d2: FFPoly) -> RatFunc:
    """(n1/d1) * (n2/d2) for coprime pairs with d1 monic; d2 need not be
    monic, so a quotient is the product with the flipped divisor."""
    if n1.is_zero() or n2.is_zero():
        return RatFunc._of(FFPoly._of(n1.field, []), FFPoly._of(n1.field, [1]))
    if d1.is_one() and d2.is_one():
        return RatFunc._of(n1 * n2, d1)
    if d2.degree() > 0:
        g = poly_gcd(n1, d2)
        if not g.is_one():
            n1, d2 = n1.exact_div(g), d2.exact_div(g)
    if d1.degree() > 0:
        g = poly_gcd(n2, d1)
        if not g.is_one():
            n2, d1 = n2.exact_div(g), d1.exact_div(g)
    return _monic_den(n1 * n2, d1 * d2)


class RatPlace:
    """A place of GF(q)(x): either the zero locus of a monic irreducible
    polynomial, or the place at infinity."""

    __slots__ = ("field", "poly", "_resfield", "_rho", "_lift_cols", "_padic")

    def __init__(self, field: FiniteField, poly: FFPoly | None):
        if poly is not None:
            if poly.field is not field:
                raise ValueError("place polynomial over the wrong field")
            if poly.degree() < 1 or not poly.lc() == field.one():
                raise ValueError("place polynomial must be monic of degree >= 1")
            if not is_irreducible(poly):
                raise ValueError(f"{poly!r} is not irreducible")
        self.field = field
        self.poly = poly
        self._resfield = None
        self._rho = None
        self._lift_cols = None
        self._padic = {}

    @classmethod
    def infinity(cls, field: FiniteField) -> "RatPlace":
        return cls(field, None)

    @classmethod
    def finite(cls, poly: FFPoly) -> "RatPlace":
        return cls(poly.field, poly)

    def is_infinite(self) -> bool:
        return self.poly is None

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
            a, nrem = self._strip(r.num)
            b, drem = self._strip(r.den)
            data = self._padic[r] = [a - b, nrem, drem, None]
        return data

    def _strip(self, f: FFPoly) -> tuple[int, FFPoly]:
        """(v, g mod P) with f = P^v * g and P not dividing g; f is nonzero."""
        P = self.poly
        v = 0
        while f.degree() >= P.degree():
            q, rem = divmod(f, P)
            if not rem.is_zero():
                return v, rem
            v += 1
            f = q
        return v, f

    # -- residue machinery --------------------------------------------------------

    def residue_field(self) -> FiniteField:
        if self._resfield is None:
            d = self.degree()
            if self.poly is not None and d > 1 and self.field.k == 1:
                # prime base field: GF(p)[x]/(P) is the residue field itself,
                # with rho the class of x; no root search needed
                self._resfield = make_field(self.field.p, d, self.poly.ints)
                self._rho = self._resfield.gen()
            else:
                self._resfield = make_field(self.field.p, self.field.k * d)
                if self.poly is None or d == 1:
                    if self.poly is None:
                        self._rho = None
                    else:
                        self._rho = embed(-self.poly.coeff(0), self._resfield)
                else:
                    self._rho = roots_in_field(self.poly, self._resfield)[0]
        return self._resfield

    def _residue_of(self, rem: FFPoly) -> FFElem:
        """f(rho) for a finite place, from rem = f mod P."""
        res = self.residue_field()
        if self.poly.degree() == 1:
            return embed(rem.coeff(0), res)
        if self.field.k == 1:
            # rho is the class of x, so f(rho) has the digits of f mod P
            return res.elem(rem.ints)
        return rem.eval(self._rho)

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
            return embed(r.num.lc() / r.den.lc(), res)
        return self._unit(self._data(r))

    def unit_residue(self, r: RatFunc) -> FFElem:
        """residue(r * pi^(-v(r))): the leading unit of r at this place."""
        if r.is_zero():
            raise ZeroDivisionError("unit part of zero")
        if self.poly is None:
            v = self.valuation(r)
            x = RatFunc.var(self.field)
            return self.residue(r * x**v)
        return self._unit(self._data(r))

    def lift(self, alpha: FFElem) -> RatFunc:
        """A rational function (in fact a polynomial of degree < deg P, or a
        constant at infinity) whose residue is alpha."""
        res = self.residue_field()
        if alpha.field is not res:
            raise ValueError("element not in the residue field of this place")
        if self.poly is None or self.degree() == 1:
            # residue field is GF(q) itself; invert the prime-subfield mix
            if res is self.field:
                return RatFunc.const(self.field, alpha)
            raise TowerlabError("degree-1 place with unexpected residue field")
        d = self.degree()
        k = self.field.k
        if k == 1:
            # quotient representation: digits of alpha are the coefficients
            return RatFunc(FFPoly(self.field, alpha.digits()))
        if self._lift_cols is None:
            self.residue_field()
            cols = []
            for i in range(d):
                rho_i = self._rho**i
                for b in range(k):
                    basis_elem = embed(self.field.elem([0] * b + [1]), res)
                    cols.append((basis_elem * rho_i).digits())
            self._lift_cols = cols
        sol = gfp_solve(self.field.p, self._lift_cols, alpha.digits())
        coeffs = []
        for i in range(d):
            coeffs.append(self.field.elem(sol[i * k : (i + 1) * k]))
        return RatFunc(FFPoly(self.field, coeffs))

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


def place_degree(place: RatPlace) -> int:
    return place.degree()


def finite_places_of_degree(field: FiniteField, d: int) -> list[RatPlace]:
    """All finite places of degree d, i.e. monic irreducibles of degree d,
    in increasing coefficient-encoding order."""
    out = []
    for v in range(field.order**d):
        digits = []
        w = v
        for _ in range(d):
            digits.append(field.elem(w % field.order))
            w //= field.order
        cand = FFPoly(field, digits + [field.one()])
        if is_irreducible(cand):
            out.append(RatPlace.finite(cand))
    return out
