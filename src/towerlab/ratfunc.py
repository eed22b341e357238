"""The rational function field K(x) over K = GF(q): elements, places,
valuations and residues, and the local rings O_P/P^N the MacLane engine
computes in.

Places of K(x) are the monic irreducible polynomials p(x) together with the
place at infinity.  The valuation at a finite place counts p-multiplicity in
numerator minus denominator; at infinity it is deg(den) - deg(num).  Every
valuation returns the +infinity sentinel (math.inf) on the zero element.

The residue field at a finite place of degree d is K(rho) for a root rho
of p(x), one ffield.Adjoin step built on first use: over a prime field
q = p it is GF(p)[x]/(p(x)) with rho the class of x, otherwise the
canonical GF(q^d) with rho the smallest root of p(x) there.  At a place of
degree 1, infinity included, it is K itself.  lift() inverts evaluation at
rho on polynomials of degree < d.  Residues come from the remainder,
f(rho) = (f mod p)(rho).

A RatFunc is num/den in canonical form: coprime, with a monic
denominator.  The constructor is the one place that makes it so, with one
gcd; sums, differences, products, quotients and inverses build their
result through it.  A power of a canonical fraction is canonical already.
RatFunc is the exact, cold side of the engine.

`RatPlace.split` is the one routine that strips P from a polynomial:
valuations, unit residues and the local ring's conversions all read it.

`RatPlace.local(N)` is the ring O_P/P^N that the MacLane engine and the
irreducibility test's Hensel lifting compute in; `LocalRing.split` is the
one conversion of a RatFunc into it.  An element is a plain coefficient
tuple, and the ring does all its arithmetic (add, sub, mul), valuation
(val) and unit residue (unit).  At a place of degree 1 and at infinity an
element is a power series in t = x - a or t = 1/x cut after t^(N-1): its
valuation is the index of the first nonzero coefficient, its unit residue
that coefficient, and a product needs no gcd and forms no coefficient past
t^(N-1).  At a place of degree d >= 2 an element is a polynomial in x
reduced mod P^N, so the arithmetic stays over K and never enters the
residue field GF(q^d); its valuation strips P by division.  The zero
element () stands for "value >= N".
"""

from __future__ import annotations

import math

from .errors import TowerlabError
from .ffield import (
    Adjoin,
    FFElem,
    FFPoly,
    FiniteField,
    _monic_irreducibles,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _pscale,
    _pseries_inv,
    _psub,
    _ptaylor,
    _pxgcd,
    _trim,
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
                n, d = _pdivmod(F, n, g)[0], _pdivmod(F, d, g)[0]
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

    def is_one(self) -> bool:
        return self.num.ints == [1] and self.den.ints == [1]

    def __bool__(self) -> bool:
        # so that `not c` is the zero test of a YPoly coefficient, RatFunc or tuple
        return bool(self.num.ints)

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
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

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
        if "+" in ns:
            ns = f"({ns})"
        return f"{ns}/({self.den.to_str(var)})"

    __repr__ = to_str


def _wrap(F: FiniteField, num: list[int], den: list[int]) -> RatFunc:
    """The RatFunc of canonical coefficient lists num and den."""
    return RatFunc._of(FFPoly._of(F, num), FFPoly._of(F, den))


def _monic_den(F: FiniteField, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """num and den scaled so den is monic."""
    lc = den[-1]
    if lc == 1:
        return num, den
    inv = F._inv(lc)
    return _pscale(F, num, inv), _pscale(F, den, inv)


class RatPlace:
    """A place of GF(q)(x): either the zero locus of a monic irreducible
    polynomial, or the place at infinity."""

    __slots__ = ("field", "poly", "_ext")

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
            return _wrap(self.field, [1], [0, 1])
        return RatFunc(self.poly)

    def scaled(self, r: RatFunc, k: int) -> RatFunc:
        """r * pi^k for the uniformizer pi, in canonical form: the powers of
        P (of x at infinity) that cancel are stripped, and no gcd is taken (as
        a RatFunc product it costs a warm sweep pass 0-4.5% more CPU, 219/300
        pairs; family --q 64 and the CLI jobs about 1%, 40/60 and 38/60 pairs)."""
        if not k or r.is_zero():
            return r
        F = self.field
        n, d = r.num.ints, r.den.ints
        if self.poly is None:
            P, k = [0, 1], -k  # pi = 1/x
        else:
            P = self.poly.ints
        if k < 0:
            d, n = n, d
        e = abs(k)
        if self.poly is None:
            # powers of x: leading zero coefficients
            s = 0
            while s < e and not d[s]:
                s += 1
            d, n, e = d[s:], [0] * (e - s) + n, 0
        while e and len(d) >= len(P):
            q, rem = _pdivmod(F, d, P)
            if rem:
                break
            d, e = q, e - 1
        for _ in range(e):
            n = _pmul(F, n, P)
        if k < 0:
            d, n = n, d
        return _wrap(F, *_monic_den(F, n, d))

    def local(self, N: int) -> "LocalRing":
        """The ring O_P/P^N."""
        return LocalRing(self, N)

    # -- valuation --------------------------------------------------------------

    def valuation(self, r: RatFunc):
        """The normalized valuation; math.inf for the zero element."""
        if not isinstance(r, RatFunc):
            raise TypeError("valuation takes a RatFunc")
        if r.is_zero():
            return INF
        return self.order(r.num) - self.order(r.den)

    def order(self, f: FFPoly) -> int:
        """The valuation of a nonzero polynomial."""
        return self.split(f.ints, 1)[0]

    def split(self, f, n: int) -> tuple[int, list[int]]:
        """(v, g) with the nonzero polynomial f = pi^v * g: g a polynomial in
        the local variable of LocalRing (t = x - a, or t = 1/x at infinity)
        cut to its first n coefficients at a place of degree 1, else g in x,
        exactly."""
        if self.poly is None:
            return 1 - len(f), _trim(f[::-1][:n])
        P = self.poly.ints
        if len(P) == 2:
            return _ptaylor(self.field, f, self.field._neg(P[0]), n)
        return self._strip(f)

    def _strip(self, f) -> tuple[int, list[int]]:
        """(v, g) with f = P^v * g and P not dividing g, on coefficient
        lists; f is nonzero and P finite."""
        F, P = self.field, self.poly.ints
        v = 0
        while len(f) >= len(P):
            q, rem = _pdivmod(F, f, P)
            if rem:
                break
            v += 1
            f = q
        return v, list(f)

    # -- residue machinery --------------------------------------------------------

    def _adjoin(self) -> Adjoin:
        """The residue field of a finite place as K(rho), rho a root of P."""
        if self._ext is None:
            self._ext = Adjoin(self.field, self.poly)
        return self._ext

    def residue_field(self) -> FiniteField:
        if self.poly is None:
            return self.field
        return self._adjoin().field

    def _residue_of(self, f: list[int]) -> FFElem:
        """f(rho) for a finite place, from a coefficient list f."""
        ext = self._adjoin()
        return FFElem(ext.field, ext.value(_pdivmod(self.field, f, self.poly.ints)[1]))

    def residue(self, r: RatFunc) -> FFElem:
        """The image of r in the residue field; PoleAtPlace if v(r) < 0."""
        v = self.valuation(r)
        if v is INF or v > 0:
            return self.residue_field().zero()
        if v < 0:
            raise PoleAtPlace(f"pole of order {-v} at {self!r}")
        return self.unit_residue(r)

    def unit_residue(self, r: RatFunc) -> FFElem:
        """residue(r * pi^(-v(r))): the leading unit of r at this place."""
        if r.is_zero():
            raise ZeroDivisionError("unit part of zero")
        if self.poly is None:
            return r.num.lc() / r.den.lc()
        num = self._residue_of(self.split(r.num.ints, 1)[1])
        return num / self._residue_of(self.split(r.den.ints, 1)[1])

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

    def __repr__(self):
        if self.poly is None:
            return "place(infinity)"
        return f"place({self.poly.to_str()})"


class LocalRing:
    """O_P/P^N for a place P of K(x) (module docstring).  Elements are
    trimmed coefficient tuples: in t, of length <= N, at a place of degree 1
    or infinity (the series form); in x, of degree < N deg P, otherwise."""

    __slots__ = ("place", "N", "field", "_mod", "_leads")

    def __init__(self, place: RatPlace, N: int):
        self.place, self.N, self.field = place, N, place.field
        self._leads = {}  # element -> _lead(element); sweep +8-15% CPU without (8/10, 10/12 pairs)
        P = place.poly
        self._mod = None if P is None or P.degree() == 1 else (P**N).ints

    def _unit_part(self, f: list[int]) -> tuple[int, list[int]]:
        """(v, u) with the nonzero polynomial f = t^v * u (P^v * u), u a
        unit known mod P^N."""
        v, u = self.place.split(f, self.N)
        if self._mod is not None:
            u = _pdivmod(self.field, u, self._mod)[1]
        return v, u

    def split(self, r: RatFunc) -> tuple[int, list[int]]:
        """(v_P(r), u) for a nonzero r = t^v * u, u a unit mod P^N; the
        valuation is exact."""
        v, u = self._unit_part(r.num.ints)
        den = r.den.ints
        if len(den) == 1:
            return v, u
        w, d = self._unit_part(den)
        return v - w, self.mul(u, self._inverse(d))

    def embed(self, v: int, u: list[int]) -> tuple:
        """The element t^v * u (P^v * u) for v >= 0."""
        if v < 0:
            raise TowerlabError(f"an element of negative value {v} is not in O_P at {self.place!r}")
        if v >= self.N:
            return ()
        if self._mod is None:
            return tuple(_trim(([0] * v + list(u))[: self.N]))
        if v:
            u = _pmul(self.field, (self.place.poly**v).ints, u)
        return tuple(_pdivmod(self.field, u, self._mod)[1])

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self._mod is None:
            return tuple(_pmul(self.field, a, b, self.N))
        return tuple(_pdivmod(self.field, _pmul(self.field, a, b), self._mod)[1])

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(_padd(self.field, a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(_psub(self.field, a, b))

    def _inverse(self, u: list[int]) -> list[int]:
        """1/u mod P^N for a unit u."""
        F = self.field
        if len(u) == 1:
            return [F._inv(u[0])]
        if self._mod is not None:
            return _pxgcd(F, u, self._mod)[1]
        return _pseries_inv(F, u, self.N)

    def _lead(self, a: tuple) -> tuple:
        """(v, r) for a nonzero element a = t^v * u (P^v * u): its valuation,
        below N, and its leading unit in the form unit() reads (the
        coefficient u(0), or u itself at a place of degree >= 2)."""
        out = self._leads.get(a)
        if out is None:
            if self._mod is not None:
                out = self.place.split(a, 1)
            else:
                v = 0
                while not a[v]:
                    v += 1
                out = v, a[v]
            self._leads[a] = out
        return out

    def val(self, a: tuple):
        """The valuation of a: below N, or INF for ()."""
        return self._lead(a)[0] if a else INF

    def unit(self, a: tuple) -> FFElem:
        """The residue of a * t^(-v) (a * P^(-v)) for a nonzero a of value v."""
        r = self._lead(a)[1]
        if self._mod is not None:
            return self.place._residue_of(r)
        return FFElem(self.field, r)


def finite_places_of_degree(field: FiniteField, d: int) -> list[RatPlace]:
    """All finite places of degree d >= 1, i.e. monic irreducibles of
    degree d, in increasing coefficient-encoding order."""
    return [
        RatPlace.finite(FFPoly._of(field, f), certified=True)
        for f in _monic_irreducibles(field, d)
    ]
