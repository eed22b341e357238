"""Exact arithmetic in GF(p^k), dense univariate polynomials over it, and
bivariate polynomials F(x, y) used as defining equations of function fields.

Representation choices, fixed once so every artifact downstream is
deterministic:

* A field GF(p^k) is GF(p)[t]/(modulus) for a monic irreducible modulus of
  degree k.  make_field is the one constructor and interns fields by
  (p, modulus), so equal fields are the same object and are compared with
  `is`.  Without an explicit modulus it takes the canonical one: the monic
  irreducible of degree k whose coefficient vector, read as a base-p integer
  with the constant term least significant, is smallest.  Residue fields
  GF(p)[x]/(P) of K(x) pass P as the modulus.
* An element c_0 + c_1 t + ... + c_{k-1} t^(k-1) is the plain int
  sum(c_i * p^i).  All orderings and reprs derive from that encoding, and
  arithmetic runs on it directly:
  - prime fields use a*b % p and pow(a, -1, p);
  - extension fields of order at most ZECH_MAX_ORDER multiply, invert and
    (for odd p) add through log/antilog tables and Zech logarithms, built on
    the first such operation in the field;
  - larger extension fields multiply by packing the digits into one int
    (Kronecker substitution) and folding the high half back with
    t^j mod modulus, and invert by the extended Euclidean algorithm;
  - in characteristic 2 addition is xor.
  FFElem is a thin (field, int) wrapper for the public API and reports.
* FFPoly keeps its coefficients as a list of these ints, and its
  multiplication, division, gcd, modular powers and evaluation run on the
  lists.  Above the table bound a product packs both coefficient lists
  into one int each and multiplies once, a division keeps its remainder
  packed and unreduced, and a modular power keeps every intermediate
  remainder packed, so a coefficient is packed and reduced once per
  operation rather than once per element operation.  The techniques follow
  FLINT's fq_zech, fq_poly and nmod_poly and Shoup's NTL.
* Factorization is Cantor-Zassenhaus with an explicit RNG seed; the same
  (polynomial, seed) pair always yields the same factor list, sorted by
  (degree, coefficient encoding).
* Roots in an extension are Frobenius orbits: roots_in_field factors f over
  its own field GF(Q0), splits off one root r of each irreducible factor of
  degree m in the target, and takes the others as r^(Q0^i).  Its sorted
  output does not depend on the seed.
"""

from __future__ import annotations

import operator
import random
from functools import cached_property

from .errors import TowerlabError

#: Default seed for the equal-degree splitting RNG.  Callers may override it
#: per call; the CLI maps the TOWERLAB_SEED environment variable onto it.
FACTOR_SEED = 0x7F4A91

#: Largest extension-field order that gets log/antilog (Zech) tables.  A field
#: keeps its tables while it lives, and interned fields live as long as the
#: process: a bound of 2^16 raised the sweep benchmark's peak RSS by 16% with
#: no gain in speed.
ZECH_MAX_ORDER = 2**10


class NotPrime(TowerlabError):
    """Raised when a field constructor receives a composite characteristic."""


class InvalidDegree(TowerlabError, ValueError):
    """Raised when a field constructor receives an extension degree below 1."""


class NoEmbedding(TowerlabError):
    """Raised when no field homomorphism exists (different p, or k1 does not
    divide k2)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FiniteField:
    """The field GF(p^k) on base-p int encodings.  Construct via make_field,
    which interns instances.  This class is the prime field (k = 1);
    extension fields are its subclasses below."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # length k+1, monic
        self._hash = hash((p, k, modulus))
        self._embed_roots: dict[tuple, int] = {}
        self._zero = FFElem(self, 0)
        self._one = FFElem(self, 1)

    # -- element construction -------------------------------------------------

    def elem(self, value) -> FFElem:
        """Coerce an int (base-p digit encoding) or coefficient sequence."""
        if isinstance(value, FFElem):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FFElem(self, value % self.order)
        digits = [int(c) % self.p for c in value]
        if len(digits) > self.k:
            raise ValueError("coefficient vector longer than field degree")
        return FFElem(self, self._from_digits(digits))

    def zero(self) -> FFElem:
        return self._zero

    def one(self) -> FFElem:
        return self._one

    def gen(self) -> FFElem:
        """The class of t (only meaningful for k > 1)."""
        return FFElem(self, self.p) if self.k > 1 else self._one

    def elements(self):
        for v in range(self.order):
            yield FFElem(self, v)

    def _digits(self, a: int) -> list[int]:
        """The k base-p digits of an encoding, constant term first."""
        p = self.p
        out = []
        for _ in range(self.k):
            a, d = divmod(a, p)
            out.append(d)
        return out

    def _from_digits(self, digits) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    # -- int arithmetic ---------------------------------------------------------

    def _add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def _sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def _neg(self, a: int) -> int:
        return -a % self.p

    def _mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        return pow(a, -1, self.p)

    def _pow(self, a: int, n: int) -> int:
        """a^n for n >= 0."""
        return pow(a, n, self.p)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.order})"


class _ExtensionField(FiniteField):
    """GF(p^k) with k > 1, beyond the table bound.

    Elements are packed for arithmetic: their digits placed s bits apart in
    one int, with s wide enough that no sum below ever carries into the next
    slot (`_slot` for single elements; `_poly_slot` for the polynomial
    kernels, which pack whole coefficient lists).  Addition adds packed forms
    (xor for p = 2).  A product multiplies the two packed ints once and
    `_fold` folds slots k..2k-2 back with t^j mod modulus.  Inversion is
    the extended Euclidean algorithm in GF(p)[t].
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(p, k, modulus)
        # digits of t^j mod modulus for j in [k, 2k-2], needed to fold
        # products back into degree < k
        red = []
        cur = [(-c) % p for c in modulus[:k]]  # t^k = -(lower part)
        red.append(cur)
        for _ in range(k - 2):
            nxt = [0] + cur[: k - 1]
            top = cur[k - 1]
            if top:
                for i in range(k):
                    nxt[i] = (nxt[i] - top * modulus[i]) % p
            cur = nxt
            red.append(cur)
        self._red_digits = red
        self._slot = self._poly_slot(1)
        self._red = self._packed_red(self._slot)
        if p == 2:
            # instance attributes shadow the digitwise methods
            self._add = self._sub = operator.xor
            self._neg = operator.pos

    def _poly_slot(self, n: int) -> int:
        """Slot width for a sum of n products of packed elements, folded once.

        Slot j of a product of two packed elements is sum_{u+v=j} a_u b_v
        with digits below p, so it is at most k (p-1)^2; n such products
        sum to at most n k (p-1)^2.  `_fold` then adds d * (t^j mod
        modulus) for each of the k-1 high slots, with d and every digit of
        t^j mod modulus below p: at most (k-1) (p-1)^2 more per low slot.
        A division also starts each slot from a digit below p."""
        k, p = self.k, self.p
        return ((n * k + k - 1) * (p - 1) ** 2 + p - 1).bit_length()

    def _packed_red(self, s: int) -> list[int]:
        """t^j mod modulus for j in [k, 2k-2], packed at slot width s."""
        out = []
        for digits in self._red_digits:
            r = 0
            for d in reversed(digits):
                r = (r << s) | d
            out.append(r)
        return out

    def _pack(self, a: int, s: int) -> int:
        """The base-p digits of a, placed s bits apart."""
        p = self.p
        out = sh = 0
        while a:
            a, d = divmod(a, p)
            out |= d << sh
            sh += s
        return out

    def _unpack(self, c: int, s: int) -> int:
        """The encoding whose digits are the low k slots of c, each mod p."""
        p, mask = self.p, (1 << s) - 1
        v = 0
        for i in range((self.k - 1) * s, -1, -s):
            v = v * p + ((c >> i) & mask) % p
        return v

    def _normalize(self, c: int, s: int) -> int:
        """The low k slots of c, each mod p, packed at width s."""
        p, mask = self.p, (1 << s) - 1
        out = 0
        for i in range((self.k - 1) * s, -1, -s):
            out = (out << s) | ((c >> i) & mask) % p
        return out

    def _fold(self, c: int, s: int, red: list[int]) -> int:
        """A raw product c of 2k-1 slots of width s, brought back to k slots:
        each high slot, taken mod p, is folded into the low slots with red
        (t^j mod modulus packed at width s).  The low slots stay raw."""
        p, mask = self.p, (1 << s) - 1
        shift = s * self.k
        lo = c & ((1 << shift) - 1)
        c >>= shift
        for r in red:
            if not c:
                break
            d = (c & mask) % p
            if d:
                lo += d * r
            c >>= s
        return lo

    # digitwise, through the packed form: slot sums stay below 2^_slot

    def _add(self, a: int, b: int) -> int:
        s = self._slot
        return self._unpack(self._pack(a, s) + self._pack(b, s), s)

    def _sub(self, a: int, b: int) -> int:
        s = self._slot
        return self._unpack(self._pack(a, s) + (self.p - 1) * self._pack(b, s), s)

    def _neg(self, a: int) -> int:
        s = self._slot
        return self._unpack((self.p - 1) * self._pack(a, s), s)

    def _mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        s = self._slot
        return self._unpack(self._fold(self._pack(a, s) * self._pack(b, s), s, self._red), s)

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        p = self.p
        prime = _intern(p, 1, (0, 1))
        r0, r1 = list(self.modulus), _trim(self._digits(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _pdivmod(prime, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(prime, s0, _pmul(prime, q, s1))
        c = pow(r1[0], -1, p)
        return self._from_digits([x * c % p for x in s1])

    def _pow(self, a: int, n: int) -> int:
        result = 1
        while n:
            if n & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            n >>= 1
        return result


class _ZechField(_ExtensionField):
    """GF(p^k) with k > 1 and order at most ZECH_MAX_ORDER.

    `_tables` is (log, exp, zech) for a primitive element g: exp[i] = g^i,
    stored twice over so that a sum of two logs needs no reduction; log
    inverts it; and, for odd p, zech[n] = log(1 + g^n), or None where
    1 + g^n = 0, so that g^a + g^b = g^(a + zech[b - a]).
    """

    @cached_property
    def _tables(self) -> tuple[list, list, list | None]:
        """(log, exp, zech), built on first use."""
        p, q1 = self.p, self.order - 1
        mul = super()._mul
        for g in range(p, self.order):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = mul(x, g)
            if len(exp) == q1:
                break
        log = [None] * self.order
        for i, x in enumerate(exp):
            log[x] = i
        zech = None
        if p != 2:
            # 1 + x only changes the constant digit of x
            zech = [log[x - x % p + (x % p + 1) % p] for x in exp]
        return log, exp + exp, zech

    def _mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        log, exp, _ = self._tables
        return exp[log[a] + log[b]]

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        log, exp, _ = self._tables
        return exp[self.order - 1 - log[a]]

    def _pow(self, a: int, n: int) -> int:
        if not a:
            return 0 if n else 1
        log, exp, _ = self._tables
        return exp[log[a] * n % (self.order - 1)]

    # odd p only: characteristic 2 keeps the xor attributes

    def _add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log, exp, zech = self._tables
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def _neg(self, a: int) -> int:
        if not a:
            return 0
        log, exp, _ = self._tables
        return exp[log[a] + (self.order - 1) // 2]

    def _sub(self, a: int, b: int) -> int:
        return self._add(a, self._neg(b))


class FFElem:
    """An element of a FiniteField: the field and the element's base-p int
    encoding `v`; immutable."""

    __slots__ = ("field", "v")

    def __init__(self, field: FiniteField, v: int):
        self.field = field
        self.v = v

    def _other(self, other):
        """other's encoding in this field (an int acts as its residue mod p),
        or None for a foreign type."""
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic; embed explicitly")
            return other.v
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._add(self.v, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._sub(self.v, o))

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._sub(o, self.v))

    def __neg__(self):
        return FFElem(self.field, self.field._neg(self.v))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return FFElem(self.field, self.field._mul(self.v, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        field = self.field
        return FFElem(field, field._mul(self.v, field._inv(o)))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "FFElem":
        return FFElem(self.field, self.field._inv(self.v))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FFElem(self.field, self.field._pow(self.v, n))

    def is_zero(self) -> bool:
        return not self.v

    def to_int(self) -> int:
        return self.v

    def digits(self) -> list[int]:
        """The k coordinates over GF(p) in the basis 1, t, ..., t^(k-1)."""
        return self.field._digits(self.v)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return other.field is self.field and other.v == self.v
        if isinstance(other, int):
            return self.v == other % self.field.p
        return False

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.v))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.v)
        terms = []
        digits = self.digits()
        for i in range(self.field.k - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                terms.append(head + ("g" if i == 1 else f"g^{i}"))
        return " + ".join(terms) if terms else "0"


# (p, modulus) -> field, and (p, k) -> the field with the canonical modulus
_fields: dict[tuple, FiniteField] = {}
_canonical: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, k: int = 1, modulus=None) -> FiniteField:
    """GF(p^k) = GF(p)[t]/(modulus), one interned instance per (p, modulus).

    modulus lists the coefficients low to high; it must be monic and
    irreducible over GF(p) (the caller's obligation).  It defaults to the
    canonical smallest modulus (see module docstring)."""
    if modulus is None:
        field = _canonical.get((p, k))
        if field is None:
            _check_degree(p, k)
            field = _intern(p, k, _smallest_modulus(p, k))
            _canonical[(p, k)] = field
        return field
    modulus = tuple(modulus)
    field = _fields.get((p, modulus))
    if field is None:
        _check_degree(p, k)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the extension degree")
        field = _intern(p, k, modulus)
    return field


def _check_degree(p: int, k: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise InvalidDegree(f"extension degree {k} is not >= 1")


def _intern(p: int, k: int, modulus: tuple[int, ...]) -> FiniteField:
    field = _fields.get((p, modulus))
    if field is None:
        if k == 1:
            cls = FiniteField
        elif p**k <= ZECH_MAX_ORDER:
            cls = _ZechField
        else:
            cls = _ExtensionField
        field = _fields[(p, modulus)] = cls(p, k, modulus)
    return field


def _smallest_modulus(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    base = make_field(p)
    for v in range(p**k):
        digits = []
        for _ in range(k):
            v, d = divmod(v, p)
            digits.append(d)
        f = digits + [1]
        if _ben_or(base, f):
            return tuple(digits) + (1,)
    raise TowerlabError("no irreducible modulus found")  # unreachable


def _ben_or(F: FiniteField, f: list[int]) -> bool:
    """Ben-Or's test for a monic f of degree k over the prime field F: f is
    irreducible iff gcd(x^(p^i) - x, f) = 1 for every i <= k/2.  Most
    reducible candidates have a small factor and fail after a few
    Frobenius steps."""
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):  # h = x^(p^i) mod f for i = 1, 2, ...
        h = _ppowmod(F, h, F.p, f)
        if _pgcd(F, _psub(F, h, x), f) != [1]:
            return False
    return True


def _embed_ints(src: FiniteField, target: FiniteField, cs: list[int]) -> list[int]:
    """The encodings in target of the src elements cs, under the canonical
    embedding GF(p^k) -> GF(p^K) for k | K: the source generator goes to the
    smallest root of the source modulus in target."""
    if src is target:
        return cs
    if src.p != target.p or target.k % src.k != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {target!r}")
    if src.k == 1:
        # prime subfield: the unique ring hom, 1 -> 1
        return cs
    key = (src.p, src.k, src.modulus)
    root = target._embed_roots.get(key)
    if root is None:
        prime = make_field(src.p)
        rts = roots_in_field(FFPoly(prime, list(src.modulus)), target)
        if not rts:
            raise NoEmbedding(f"modulus of {src!r} has no root in {target!r}")
        root = target._embed_roots[key] = rts[0].v
    mul, add = target._mul, target._add
    out = []
    for c in cs:
        acc = 0
        for d in reversed(src._digits(c)):
            acc = add(mul(acc, root), d)
        out.append(acc)
    return out


def embed(e: FFElem, target: FiniteField) -> FFElem:
    """The canonical embedding GF(p^k) -> GF(p^K) for k | K, sending the
    source generator to the smallest root of the source modulus in target."""
    if e.field is target:
        return e
    return FFElem(target, _embed_ints(e.field, target, [e.v])[0])


def qth_root(b: FFElem, q: int) -> FFElem:
    """The unique c with c^q = b, for q = p^s a power of the characteristic.

    The Frobenius x -> x^p is bijective on a finite field, so the inverse of
    x -> x^q is x -> x^(p^t) with t = -s mod k.
    """
    field = b.field
    p = field.p
    s = 0
    qq = q
    while qq > 1:
        if qq % p != 0:
            raise ValueError(f"{q} is not a power of the characteristic {p}")
        qq //= p
        s += 1
    t = (-s) % field.k
    return b ** (p**t)


# -- coefficient-list kernels --------------------------------------------------
#
# A polynomial over F is a list of coefficient encodings, low to high.  The
# kernels take trimmed lists (no trailing zero) and return trimmed lists;
# they never mutate a list they did not create, and may return an input
# unchanged.  Prime fields run on plain ints reduced mod p once per output
# coefficient, extension fields through F's int arithmetic.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _padd(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = F._add
    for i, bi in enumerate(b):
        out[i] = add(out[i], bi)
    return _trim(out)


def _psub(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    sub = F._sub
    for i, bi in enumerate(b):
        out[i] = sub(out[i], bi)
    return _trim(out)


def _pscale(F: FiniteField, a: list[int], s: int) -> list[int]:
    if not s:
        return []
    if s == 1:
        return a
    if F.k == 1:
        p = F.p
        return [c * s % p for c in a]
    mul = F._mul
    return [mul(c, s) for c in a]


def _pmul(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) == 1:
        return _pscale(F, b, a[0])
    if len(b) == 1:
        return _pscale(F, a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    if F.k == 1:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        p = F.p
        return [c % p for c in out]
    if type(F) is _ExtensionField:
        return _kron_mul(F, a, b)
    mul, add = F._mul, F._add
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    out[j] = add(out[j], mul(ai, bj))
    return out


def _pdivmod(F: FiniteField, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the nonzero b."""
    db = len(b) - 1
    dq = len(a) - 1 - db
    if dq < 0:
        return [], list(a)
    rem = list(a)
    q = [0] * (dq + 1)
    low = b[:db]
    if F.k == 1:
        p = F.p
        inv = pow(b[-1], -1, p)
        for i in range(dq, -1, -1):
            top = rem[i + db] % p
            if top:
                f = top * inv % p
                q[i] = f
                for j, bj in enumerate(low, i):
                    rem[j] -= f * bj
        return q, _trim([c % p for c in rem[:db]])
    if type(F) is _ExtensionField and db:
        return _kron_divmod(F, a, b)
    mul, sub = F._mul, F._sub
    inv = F._inv(b[-1])
    for i in range(dq, -1, -1):
        top = rem[i + db]
        if top:
            f = mul(top, inv)
            q[i] = f
            for j, bj in enumerate(low, i):
                if bj:
                    rem[j] = sub(rem[j], mul(f, bj))
    return q, _trim(rem[:db])


# Packed fields (above the table bound) run products, divisions and modular
# powers on whole polynomials packed into one int: coefficient i of a list
# sits in chunk i, W = (2k-1) s bits wide, and holds that coefficient's
# digits s bits apart (`_ExtensionField._pack`).  A product of two elements
# fills 2k-1 slots, so products of chunks never reach the next chunk; every
# sum stays in its slot because s is `_poly_slot(n)` for the most products n
# that meet in a slot.


def _kron_pack(F: _ExtensionField, a: list[int], s: int, W: int) -> int:
    pack = F._pack
    out = 0
    for c in reversed(a):
        out = (out << W) | pack(c, s)
    return out


def _kron_mul(F: _ExtensionField, a: list[int], b: list[int]) -> list[int]:
    """a*b by Kronecker substitution: one big-int product, then each output
    coefficient folded and unpacked once.  A coefficient sums at most
    min(len a, len b) products."""
    s = F._poly_slot(min(len(a), len(b)))
    W = (2 * F.k - 1) * s
    c = _kron_pack(F, a, s, W) * _kron_pack(F, b, s, W)
    fold, unpack = F._fold, F._unpack
    red, mask = F._packed_red(s), (1 << W) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append(unpack(fold(c & mask, s, red), s))
        c >>= W
    return out


class _KronDivisor:
    """A divisor b, deg b >= 1, for division of packed polynomials at slot
    width s: its negated low digits packed once, and its leading
    coefficient's inverse packed (None when b is monic)."""

    def __init__(self, F: _ExtensionField, b: list[int], s: int):
        self.F, self.s, self.db = F, s, len(b) - 1
        self.W = (2 * F.k - 1) * s
        self.red = F._packed_red(s)
        self.nb = _kron_pack(F, [F._neg(c) for c in b[:-1]], s, self.W)
        self.inv = None if b[-1] == 1 else F._pack(F._inv(b[-1]), s)

    def chunk(self, c: int, i: int) -> int:
        """Chunk i of the packed raw c, folded to k raw slots."""
        return self.F._fold((c >> (i * self.W)) & ((1 << self.W) - 1), self.s, self.red)

    def divide(self, rem: int, n: int) -> tuple[list[int], int]:
        """Quotient and remainder of the packed raw rem of n chunks.

        Quotient step i adds f * (-b) as one big-int product at chunk i;
        only the top chunk is reduced at each step, and the remainder comes
        back raw.  The quotient digits are packed, highest step first."""
        F, s, db, nb, inv = self.F, self.s, self.db, self.nb, self.inv
        q = []
        for i in range(n - 1 - db, -1, -1):
            f = F._normalize(self.chunk(rem, i + db), s)
            if f and inv is not None:
                f = F._normalize(F._fold(f * inv, s, self.red), s)
            q.append(f)
            if f:
                rem += (f * nb) << (i * self.W)
        return q, rem


def _kron_divmod(F: _ExtensionField, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b, deg b >= 1 and deg a >= deg b.  A
    chunk takes at most min(deg b, deg q + 1) products on top of its
    starting digits."""
    db = len(b) - 1
    s = F._poly_slot(min(db, len(a) - db))
    d = _KronDivisor(F, b, s)
    q, rem = d.divide(_kron_pack(F, a, s, d.W), len(a))
    unpack = F._unpack
    return [unpack(c, s) for c in reversed(q)], _trim(
        [unpack(d.chunk(rem, m), s) for m in range(db)]
    )


def _kron_powmod(F: _ExtensionField, base: list[int], e: int, mod: list[int]) -> list[int]:
    """base^e mod mod, deg mod >= 1, with every intermediate remainder kept
    packed: a step is one big-int product, divided in place.  A chunk of a
    product of two remainders sums at most deg mod products, and the
    division adds at most deg mod more."""
    db = len(mod) - 1
    s = F._poly_slot(2 * db)
    d = _KronDivisor(F, mod, s)
    W = d.W

    def mulmod(x: int, y: int) -> int:
        _, rem = d.divide(x * y, 2 * db - 1)
        out = 0
        for m in range(db - 1, -1, -1):
            out = (out << W) | F._normalize(d.chunk(rem, m), s)
        return out

    result = 1
    b = _kron_pack(F, _prem(F, base, mod), s, W)
    while e:
        if e & 1:
            result = mulmod(result, b)
        b = mulmod(b, b)
        e >>= 1
    out = []
    for _ in range(db):
        out.append(F._unpack(result, s))
        result >>= W
    return _trim(out)


def _prem(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    return _pdivmod(F, a, b)[1]


def _pmonic(F: FiniteField, a: list[int]) -> list[int]:
    if not a or a[-1] == 1:
        return a
    return _pscale(F, a, F._inv(a[-1]))


def _pgcd(F: FiniteField, a: list[int], b: list[int]) -> list[int]:
    while b:
        if len(b) == 1:
            return [1]  # a nonzero constant divides everything
        a, b = b, _prem(F, a, b)
    return _pmonic(F, a)


def _ppowmod(F: FiniteField, base: list[int], e: int, mod: list[int]) -> list[int]:
    if type(F) is _ExtensionField and len(mod) > 1:
        return _kron_powmod(F, base, e, mod)
    result = [1]
    base = _prem(F, base, mod)
    while e:
        if e & 1:
            result = _prem(F, _pmul(F, result, base), mod)
        base = _prem(F, _pmul(F, base, base), mod)
        e >>= 1
    return result


def _peval(F: FiniteField, a: list[int], x: int) -> int:
    """Horner evaluation at an element of F."""
    acc = 0
    if F.k == 1:
        p = F.p
        for c in reversed(a):
            acc = (acc * x + c) % p
        return acc
    mul, add = F._mul, F._add
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


class FFPoly:
    """Dense univariate polynomial over a FiniteField.

    `ints` holds the coefficient encodings low-to-high with trailing zeros
    trimmed; the zero polynomial has an empty list and degree -1.  `coeffs`
    gives the coefficients as FFElems.  Treat both as immutable.
    """

    __slots__ = ("field", "ints")

    def __init__(self, field: FiniteField, coeffs):
        ints = []
        for c in coeffs:
            if isinstance(c, FFElem):
                if c.field is not field:
                    raise ValueError("coefficient from a different field")
                ints.append(c.v)
            elif isinstance(c, int):
                ints.append(c % field.order)
            else:
                ints.append(field.elem(c).v)
        self.field = field
        self.ints = _trim(ints)

    @classmethod
    def _of(cls, field: FiniteField, ints: list[int]) -> "FFPoly":
        """Wrap a trimmed list of reduced encodings without checks."""
        f = cls.__new__(cls)
        f.field = field
        f.ints = ints
        return f

    # -- basics ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FFElem, ...]:
        field = self.field
        return tuple(FFElem(field, c) for c in self.ints)

    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def lc(self) -> FFElem:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return FFElem(self.field, self.ints[-1])

    def coeff(self, i: int) -> FFElem:
        if 0 <= i < len(self.ints):
            return FFElem(self.field, self.ints[i])
        return self.field.zero()

    def monic(self) -> "FFPoly":
        return FFPoly._of(self.field, _pmonic(self.field, self.ints))

    def is_one(self) -> bool:
        return self.ints == [1]

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FFPoly):
            if other.field is not self.field:
                raise ValueError("mixed-field polynomial arithmetic")
            return other
        if isinstance(other, (int, FFElem)):
            return FFPoly(self.field, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FFPoly._of(self.field, _padd(self.field, self.ints, other.ints))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FFPoly._of(self.field, _psub(self.field, self.ints, other.ints))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        neg = self.field._neg
        return FFPoly._of(self.field, [neg(c) for c in self.ints])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FFPoly._of(self.field, _pmul(self.field, self.ints, other.ints))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        F = self.field
        result = [1]
        base = self.ints
        while n:
            if n & 1:
                result = _pmul(F, result, base)
            base = _pmul(F, base, base)
            n >>= 1
        return FFPoly._of(F, result)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _pdivmod(self.field, self.ints, other.ints)
        return FFPoly._of(self.field, q), FFPoly._of(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "FFPoly") -> "FFPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q

    def shift(self, n: int) -> "FFPoly":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return FFPoly._of(self.field, [0] * n + self.ints)

    def derivative(self) -> "FFPoly":
        # i acts as i*1 in the field, whose encoding is i mod p
        F = self.field
        mul, p = F._mul, F.p
        return FFPoly._of(
            F, _trim([mul(c, i % p) for i, c in enumerate(self.ints) if i])
        )

    def eval(self, x: FFElem) -> FFElem:
        """Horner evaluation; coefficients are embedded if x lives in an
        extension of the coefficient field."""
        K = x.field
        return FFElem(K, _peval(K, _embed_ints(self.field, K, self.ints), x.v))

    def map_field(self, target: FiniteField) -> "FFPoly":
        return FFPoly._of(target, _embed_ints(self.field, target, self.ints))

    # -- ordering / display -----------------------------------------------------

    def sort_key(self):
        return (self.degree(), tuple(self.ints))

    def __eq__(self, other):
        return (
            isinstance(other, FFPoly)
            and other.field is self.field
            and other.ints == self.ints
        )

    def __hash__(self):
        return hash((self.field, tuple(self.ints)))

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            cs = repr(c)
            if self.field.k > 1 and ("+" in cs or "*" in cs or "^" in cs):
                cs = "(" + cs + ")"
            if i == 0:
                terms.append(cs)
            else:
                xs = var if i == 1 else f"{var}^{i}"
                terms.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(terms)

    def __repr__(self):
        return self.to_str()


# -- gcd / powers / irreducibility ---------------------------------------------


def poly_gcd(f: FFPoly, g: FFPoly) -> FFPoly:
    """Monic gcd via the Euclidean algorithm."""
    if g.field is not f.field:
        raise ValueError("mixed-field polynomial arithmetic")
    return FFPoly._of(f.field, _pgcd(f.field, f.ints, g.ints))


def _pow_mod(base: FFPoly, e: int, mod: FFPoly) -> FFPoly:
    return FFPoly._of(base.field, _ppowmod(base.field, base.ints, e, mod.ints))


def is_irreducible(f: FFPoly) -> bool:
    """Rabin's deterministic test: x^(Q^n) = x mod f and, for each prime
    divisor l of n, gcd(x^(Q^(n/l)) - x, f) = 1."""
    n = f.degree()
    if n <= 0:
        return False
    if n == 1:
        return True
    field = f.field
    Q = field.order
    x = FFPoly._of(field, [0, 1])
    fm = f.monic()
    prime_divs = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            prime_divs.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        prime_divs.append(m)
    for l in prime_divs:
        h = _pow_mod(x, Q ** (n // l), fm)
        if not poly_gcd(h - x, fm).is_one():
            return False
    h = _pow_mod(x, Q**n, fm)
    return ((h - x) % fm).is_zero()


def _pth_root_poly(f: FFPoly) -> FFPoly:
    """Inverse of x -> x^p on polynomials: f must satisfy f = g(x^p)."""
    p = f.field.p
    out = []
    for i in range(0, f.degree() + 1, p):
        out.append(qth_root(f.coeff(i), p))
    return FFPoly(f.field, out)


def _squarefree_decomposition(f: FFPoly) -> list[tuple[int, FFPoly]]:
    """[(m_i, g_i)] with f = prod g_i^{m_i}, each g_i squarefree, m_i distinct."""
    p = f.field.p
    out: dict[int, FFPoly] = {}
    e = 1
    f = f.monic()
    while f.degree() > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = _pth_root_poly(f)
            e *= p
            continue
        g = poly_gcd(f, fp)
        w = f.exact_div(g)
        i = 1
        while not w.is_one():
            y = poly_gcd(w, g)
            z = w.exact_div(y)
            if not z.is_one():
                key = i * e
                out[key] = out.get(key, FFPoly(f.field, [1])) * z
                out[key] = out[key].monic()
            w = y
            g = g.exact_div(y)
            i += 1
        if g.degree() > 0:
            f = _pth_root_poly(g)
            e *= p
        else:
            break
    return sorted(out.items(), key=lambda kv: kv[0])


def _distinct_degree(f: FFPoly) -> list[tuple[FFPoly, int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    field = f.field
    Q = field.order
    x = FFPoly._of(field, [0, 1])
    out = []
    h = x
    rem = f
    d = 0
    while rem.degree() > 0:
        d += 1
        if 2 * d > rem.degree():
            out.append((rem, rem.degree()))
            break
        h = _pow_mod(h, Q, rem)
        g = poly_gcd(h - x, rem)
        if g.degree() > 0:
            out.append((g, d))
            rem = rem.exact_div(g)
            h = h % rem
    return out


def _split_gcd(r: FFPoly, f: FFPoly, d: int) -> FFPoly:
    """gcd of f with a map of r that is 0 on about half of f's irreducible
    factors of degree d, for Cantor-Zassenhaus splitting."""
    field = f.field
    if field.p == 2:
        # trace map sum r^(2^i) splits in characteristic 2
        t = r % f
        acc = t
        for _ in range(field.k * d - 1):
            t = (t * t) % f
            acc = (acc + t) % f
        return poly_gcd(acc, f)
    t = _pow_mod(r, (field.order**d - 1) // 2, f)
    return poly_gcd(t - 1, f)


def _random_poly(f: FFPoly, rng: random.Random) -> FFPoly:
    """A random polynomial of degree 1 to deg f - 1 over f's field."""
    field, n = f.field, f.degree()
    while True:
        r = FFPoly(field, [rng.randrange(field.order) for _ in range(n)])
        if r.degree() >= 1:
            return r


def _equal_degree_split(f: FFPoly, d: int, rng: random.Random) -> list[FFPoly]:
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    if f.degree() == d:
        return [f.monic()]
    n = f.degree()
    while True:
        g = _split_gcd(_random_poly(f, rng), f, d)
        if 0 < g.degree() < n:
            left = _equal_degree_split(g, d, rng)
            right = _equal_degree_split(f.exact_div(g), d, rng)
            return left + right


def _one_root(f: FFPoly, rng: random.Random) -> int:
    """A root of the monic f, a product of distinct linear factors over its
    field: equal-degree splitting that keeps the smaller part of every
    split until it is linear."""
    while f.degree() > 1:
        n = f.degree()
        g = _split_gcd(_random_poly(f, rng), f, 1)
        if 0 < g.degree() < n:
            h = f.exact_div(g)
            f = g if g.degree() <= h.degree() else h
    return f.field._neg(f.ints[0])


def poly_factor(f: FFPoly, seed: int | None = None) -> list[tuple[FFPoly, int]]:
    """Monic irreducible factors of f with multiplicities, deterministically
    sorted by (degree, coefficient encoding).  The leading coefficient is
    dropped: f = lc(f) * prod factor^mult.

    seed defaults to the module-level FACTOR_SEED, resolved at call time so
    the CLI can override it process-wide (TOWERLAB_SEED)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() == 0:
        return []
    rng = random.Random(FACTOR_SEED if seed is None else seed)
    out = []
    for mult, g in _squarefree_decomposition(f):
        for prod, d in _distinct_degree(g):
            for irr in _equal_degree_split(prod, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def roots_in_field(f: FFPoly, target: FiniteField | None = None) -> list[FFElem]:
    """Roots of f in target (default: its own coefficient field), sorted by
    integer encoding.  Multiplicities are discarded.

    f is factored over its own field GF(Q0), which is small.  An irreducible
    factor g of degree m has roots in target exactly when k(Q0) * m divides
    k(target), and then they are one Frobenius orbit r, r^Q0, ...,
    r^(Q0^(m-1)): one root r is split off in target, the rest are powers."""
    src = f.field
    target = target or src
    if f.is_zero():
        raise ValueError("every element is a root of the zero polynomial")
    if src.p != target.p or target.k % src.k != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {target!r}")
    rng = random.Random(FACTOR_SEED)
    Q0 = src.order
    roots = []
    for g, _ in poly_factor(f):
        m = g.degree()
        if target.k % (src.k * m) != 0:
            continue
        r = _one_root(g.map_field(target), rng)
        for _ in range(m):
            roots.append(r)
            r = target._pow(r, Q0)
    roots.sort()
    return [FFElem(target, r) for r in roots]


def gfp_solve(p: int, columns: list[list[int]], rhs: list[int]) -> list[int]:
    """Solve sum_j c_j * columns[j] = rhs over GF(p) for the unique c.

    Used to invert "evaluate at a root" maps when expressing an extension
    field element over a subfield basis.  Raises ValueError if the columns
    are not a basis.
    """
    n = len(rhs)
    if len(columns) != n:
        raise ValueError("need a square system")
    # augmented matrix, rows indexed by vector component
    rows = [[columns[j][i] % p for j in range(n)] + [rhs[i] % p] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(n):
        sel = None
        for rr in range(r, n):
            if rows[rr][c] % p:
                sel = rr
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for rr in range(n):
            if rr != r and rows[rr][c]:
                f = rows[rr][c]
                rows[rr] = [(a - f * b) % p for a, b in zip(rows[rr], rows[r])]
        piv_cols.append(c)
        r += 1
    if r < n:
        raise ValueError("singular system: columns are not a basis")
    out = [0] * n
    for i, c in enumerate(piv_cols):
        out[c] = rows[i][n]
    return out


# -- bivariate layer -----------------------------------------------------------


class BivarPoly:
    """F(x, y) over GF(q), stored as a tuple of x-polynomials indexed by the
    power of y."""

    __slots__ = ("field", "ycoeffs")

    def __init__(self, field: FiniteField, ycoeffs):
        cs = list(ycoeffs)
        for i, c in enumerate(cs):
            if not isinstance(c, FFPoly):
                cs[i] = FFPoly(field, c)
            elif c.field is not field:
                raise ValueError("coefficient from a different field")
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.ycoeffs = tuple(cs)

    @classmethod
    def from_coeff_dict(cls, field: FiniteField, d: dict) -> "BivarPoly":
        """Build from {(i, j): scalar} with i the x-power and j the y-power."""
        if not d:
            return cls(field, [])
        max_j = max(j for (_, j) in d)
        cols = [dict() for _ in range(max_j + 1)]
        for (i, j), c in d.items():
            cols[j][i] = c
        ycoeffs = []
        for col in cols:
            n = max(col) + 1 if col else 0
            ycoeffs.append(FFPoly(field, [col.get(i, 0) for i in range(n)]))
        return cls(field, ycoeffs)

    def deg_y(self) -> int:
        return len(self.ycoeffs) - 1

    def deg_x(self) -> int:
        return max((c.degree() for c in self.ycoeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.ycoeffs

    def ycoeff(self, j: int) -> FFPoly:
        if 0 <= j < len(self.ycoeffs):
            return self.ycoeffs[j]
        return FFPoly(self.field, [])

    def coeff(self, i: int, j: int) -> FFElem:
        return self.ycoeff(j).coeff(i)

    def lc_y(self) -> FFPoly:
        """Leading coefficient as a polynomial in y: the x-polynomial on the
        top power of y."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.ycoeffs[-1]

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.ycoeffs), len(other.ycoeffs))
        return BivarPoly(self.field, [self.ycoeff(j) + other.ycoeff(j) for j in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.ycoeffs), len(other.ycoeffs))
        return BivarPoly(self.field, [self.ycoeff(j) - other.ycoeff(j) for j in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return BivarPoly(self.field, [-c for c in self.ycoeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BivarPoly(self.field, [])
        out = [FFPoly(self.field, [])] * (len(self.ycoeffs) + len(other.ycoeffs) - 1)
        for i, a in enumerate(self.ycoeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.ycoeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BivarPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = BivarPoly(self.field, [FFPoly(self.field, [1])])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, BivarPoly):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, FFPoly):
            return BivarPoly(self.field, [other])
        if isinstance(other, (int, FFElem)):
            return BivarPoly(self.field, [FFPoly(self.field, [other])])
        return None

    def swap_xy(self) -> "BivarPoly":
        d = {}
        for j, c in enumerate(self.ycoeffs):
            for i in range(c.degree() + 1):
                if not c.coeff(i).is_zero():
                    d[(j, i)] = c.coeff(i)
        return BivarPoly.from_coeff_dict(self.field, d)

    def derivative_y(self) -> "BivarPoly":
        # j % p, not j: int coercion is digit encoding, not reduction mod p.
        return BivarPoly(
            self.field,
            [self.ycoeff(j) * (j % self.field.p) for j in range(1, len(self.ycoeffs))],
        )

    def eval_x(self, xi: FFElem) -> FFPoly:
        """Specialize x := xi (possibly in an extension); returns a polynomial
        in y over xi's field."""
        return FFPoly(xi.field, [c.eval(xi) for c in self.ycoeffs])

    def map_field(self, target: FiniteField) -> "BivarPoly":
        return BivarPoly(target, [c.map_field(target) for c in self.ycoeffs])

    def __eq__(self, other):
        return (
            isinstance(other, BivarPoly)
            and other.field is self.field
            and other.ycoeffs == self.ycoeffs
        )

    def __hash__(self):
        return hash((self.field, self.ycoeffs))

    def sort_key(self):
        return (self.deg_y(), tuple(c.sort_key() for c in self.ycoeffs))

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for j in range(self.deg_y(), -1, -1):
            c = self.ycoeff(j)
            if c.is_zero():
                continue
            cs = c.to_str("x")
            if j == 0:
                terms.append(cs if c.degree() <= 0 or "+" not in cs else "(" + cs + ")")
                continue
            ys = "y" if j == 1 else f"y^{j}"
            if cs == "1":
                terms.append(ys)
            elif "+" in cs:
                terms.append(f"({cs})*{ys}")
            else:
                terms.append(f"{cs}*{ys}")
        return " + ".join(terms)

    def __repr__(self):
        return self.to_str()


def resultant_y(F: BivarPoly, G: BivarPoly) -> FFPoly:
    """Res_y(F, G) as a polynomial in x, via fraction-free (Bareiss)
    elimination of the Sylvester matrix.  With F of y-degree m and roots
    theta_i over an algebraic closure of GF(q)(x),

        Res_y(F, G) = lc_y(F)^deg(G) * prod_i G(x, theta_i).
    """
    if F.is_zero() or G.is_zero():
        raise ValueError("resultant of the zero polynomial")
    field = F.field
    m, n = F.deg_y(), G.deg_y()
    if m == 0 and n == 0:
        return FFPoly(field, [1])
    if m == 0:
        return F.ycoeff(0) ** n
    if n == 0:
        return G.ycoeff(0) ** m
    N = m + n
    rows = []
    frow = [F.ycoeff(m - i) for i in range(m + 1)]
    grow = [G.ycoeff(n - i) for i in range(n + 1)]
    zero = FFPoly(field, [])
    for r in range(n):
        rows.append([zero] * r + frow + [zero] * (n - 1 - r))
    for r in range(m):
        rows.append([zero] * r + grow + [zero] * (m - 1 - r))
    sign = 1
    prev = FFPoly(field, [1])
    for col in range(N - 1):
        pivot = None
        for r in range(col, N):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, N):
            for c in range(col + 1, N):
                num = rows[col][col] * rows[r][c] - rows[r][col] * rows[col][c]
                rows[r][c] = num.exact_div(prev)
            rows[r][col] = zero
        prev = rows[col][col]
    det = rows[N - 1][N - 1]
    return det if sign == 1 else -det
