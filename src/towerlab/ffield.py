"""Exact arithmetic in GF(p^k), dense univariate polynomials over it, and
bivariate polynomials F(x, y) used as defining equations of function fields.

Representation choices, fixed once so every artifact downstream is
deterministic:

* A field GF(p^k) is GF(p)[t]/(modulus) for a monic irreducible modulus of
  degree k, interned by (p, modulus): while a field is alive, equal fields
  are the same object and are compared with `is`.  make_field(p, k) gives
  the canonical modulus: the monic irreducible of degree k whose
  coefficient vector, read as a base-p integer with the constant term least
  significant, is smallest.  That field lives as long as the process.  Any
  other modulus comes from an Adjoin step over a prime field: its residue
  field GF(p)[u]/(psi) has psi as its modulus, and the intern map holds it
  weakly: such a field goes with the last place, stage, element or
  polynomial that refers to it, and a later use of psi interns it afresh.
  A psi that is the canonical modulus gives the same object as
  make_field(p, k), whichever of the two comes first.
* An element c_0 + c_1 t + ... + c_{k-1} t^(k-1) is the plain int
  sum(c_i * p^i).  All orderings and reprs derive from that encoding, and
  arithmetic runs on it directly:
  - prime fields use a*b % p and pow(a, -1, p);
  - a canonical extension field of order at most ZECH_MAX_ORDER
    multiplies, inverts and (for odd p) adds through log/antilog tables and
    Zech logarithms, built on the first such operation in the field by
    walking the powers of a primitive element;
  - every other extension field, residue fields GF(p)[u]/(psi) among them,
    multiplies by packing the digits into one int (Kronecker substitution)
    and folding the high half back with t^j mod modulus, and inverts by the
    extended Euclidean algorithm;
  - in characteristic 2 addition is xor.
  FFElem is a thin (field, int) wrapper for the public API and reports.
* Text has one writer, `_sum_text`, for every sum c_i * v^i: an element of
  an extension field as a sum in the generator g, FFPoly in x, BivarPoly in
  y, and omfactor's YPoly.  Each caller keeps only its rule for which
  coefficients go in parentheses.
* FFPoly keeps its coefficients as a list of these ints, and its
  multiplication, division, gcd, modular powers and evaluation run on the
  lists.  In a packed field a product packs both coefficient lists
  into one int each and multiplies once, a division keeps its remainder
  packed and unreduced, and a modular power keeps every intermediate
  remainder packed, so a coefficient is packed and reduced once per
  operation rather than once per element operation.  The techniques follow
  FLINT's fq_zech, fq_poly and nmod_poly and Shoup's NTL.
* Factorization runs on the coefficient lists: squarefree decomposition,
  then distinct-degree factorization (`_ddf`, a lazy generator), then
  Cantor-Zassenhaus with an explicit RNG seed, refused (BudgetExceeded)
  before a split predicted past WORK_BUDGET; the same polynomial always
  yields the same factor list, sorted by (degree, coefficient encoding),
  whatever the seed.  So a field of order q keeps the answers for degrees n
  with q^n <= ZECH_MAX_ORDER in a factor table beside its Zech tables.
  Ben-Or's irreducibility test is the first step of `_ddf`: f of degree n
  is irreducible iff the first factor it splits off has degree n.
* Roots come from the same equal-degree splitter as factors:
  roots_in_field factors f over its own field GF(Q0) and splits each
  irreducible factor whose roots lie in the target into linear factors
  there.  Its sorted output does not depend on the seed.
* Adjoin is the one residue-field extension step K1 = K0(z), z a root of a
  monic irreducible psi over K0: its field and root, evaluation u -> z and
  the lift back.  K1 and z depend on (K0, psi) alone: over a prime field K1
  is GF(p)[u]/(psi) with z the class of u, over any other the canonical
  field with the smallest root.  ratfunc.RatPlace builds the residue field
  of a place of K(x) with it, and every augmented MacLane stage the next
  level up.
"""

from __future__ import annotations

import operator
import random
import weakref
from functools import cache, cached_property

from .errors import TowerlabError

#: Seed for the equal-degree splitting RNG; the CLI maps the TOWERLAB_SEED
#: environment variable onto it.
FACTOR_SEED = 0x7F4A91

#: Largest order of a canonical extension field that gets log/antilog (Zech)
#: tables; no other modulus gets them.  A field keeps its tables while it
#: lives, and make_field(p, k) keeps its field for the life of the process: a
#: bound of 2^16 raised the sweep benchmark's peak RSS by 16% with no gain in
#: speed.  The same bound is the reach of every field's factor table:
#: poly_factor keeps its answer for a polynomial of degree n over GF(q) when
#: q^n <= ZECH_MAX_ORDER, at most sum q^n <= 2 * ZECH_MAX_ORDER entries.
ZECH_MAX_ORDER = 2**10


class NotPrime(TowerlabError):
    """Raised when a field constructor receives a composite characteristic."""


class InvalidDegree(TowerlabError, ValueError):
    """Raised when a field constructor receives an extension degree below 1."""


class NoEmbedding(TowerlabError):
    """Raised when no field homomorphism exists (different p, or k1 does not
    divide k2)."""


#: The most work, in coefficient products, that check_budget lets a kernel be
#: predicted to take.  The tests and benchmark workloads predict at most
#: 1.2e6 for a kernel (a point count over GF(5^6)) and 5.0e6 for a parsed
#: power ((x+y+1)^126); the inputs refused, at least 2.3e7.
WORK_BUDGET = 10**7


class BudgetExceeded(TowerlabError):
    """The one refusal of work, raised before the kernel runs: a split, point
    count or good-point walk predicted past WORK_BUDGET, or a subset search
    past 16 modular factors.  The irreducibility test's one undecided answer."""


def check_budget(kernel: str, work: int) -> None:
    """Refuse the kernel, by name, when its predicted work passes WORK_BUDGET."""
    if work > WORK_BUDGET:
        raise BudgetExceeded(f"{kernel}: predicted work {work} passes the budget {WORK_BUDGET}")


#: Miller-Rabin with the first 13 primes as bases decides primality exactly
#: below this bound (Sorenson-Webster 2015); is_prime refuses larger n.
PRIMALITY_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class PrimalityUndecided(TowerlabError):
    """Raised for an n at or past PRIMALITY_BOUND, where the fixed-base
    Miller-Rabin test is no longer a proof."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact for n < PRIMALITY_BOUND, and
    PrimalityUndecided at or past it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= PRIMALITY_BOUND:
        raise PrimalityUndecided(f"primality of {n} is undecided at or past the bound {PRIMALITY_BOUND}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _power(mul, x, n: int, one):
    """x^n for n >= 0 by square-and-multiply under the product mul, with one
    standing for x^0.  The result starts from the lowest set bit of n, so
    there is no product by one and no square after the highest bit."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


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
        # source field -> the root of its modulus that _embed_ints sends its
        # generator to; an entry lives as long as its source field
        self._embed_roots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # monic f of degree n with q^n <= ZECH_MAX_ORDER -> poly_factor(f) as
        # ((factor ints), multiplicity) pairs: int tuples only, since an FFPoly
        # would hold its field in a cycle.  Without: sweep +2-8% CPU per warm
        # pass (on faster in 24/30 pairs)
        self._factors: dict[tuple[int, ...], tuple] = {}

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

    # zero, one and gen are made per call: an element cached on its field
    # would hold the field in a reference cycle, which refcounting never frees

    def zero(self) -> FFElem:
        return FFElem(self, 0)

    def one(self) -> FFElem:
        return FFElem(self, 1)

    def gen(self) -> FFElem:
        """The class of t (only meaningful for k > 1)."""
        return FFElem(self, self.p if self.k > 1 else 1)

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
    """GF(p^k) with k > 1, on packed elements.

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
        prime = make_field(self.p)
        return self._from_digits(_pxgcd(prime, _trim(self._digits(a)), list(self.modulus))[1])

    def _pow(self, a: int, n: int) -> int:
        return _power(self._mul, a, n, 1)


class _ZechField(_ExtensionField):
    """GF(p^k) with k > 1 and order at most ZECH_MAX_ORDER; `_intern` gives
    this class to the canonical modulus only.

    `_tables` is (log, exp, zech) for a primitive element g: exp[i] = g^i,
    stored twice over so that a sum of two logs needs no reduction; log
    inverts it; and, for odd p, zech[n] = log(1 + g^n), or None where
    1 + g^n = 0, so that g^a + g^b = g^(a + zech[b - a]).
    """

    @cached_property
    def _tables(self) -> tuple[list, list, list | None]:
        """(log, exp, zech), built on first use by walking the powers of g,
        the first candidate >= p of order q - 1: g^((q-1)/r) != 1 for every
        prime r | q - 1.  The powers run on the packed multiply, since this
        one needs the tables being built."""
        p, q1 = self.p, self.order - 1
        mul = super()._mul
        cofactors = [q1 // r for r in _prime_divisors(q1)]
        g = p
        while any(_power(mul, g, c, 1) == 1 for c in cofactors):
            g += 1
        exp = [1]
        for _ in range(q1 - 1):
            exp.append(mul(exp[-1], g))
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

    # odd p only, p = 2 keeps xor; family --q 625/729 +28-46% CPU without (56/60 pairs); sweep even

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
        return _sum_text([str(d) if d else None for d in self.digits()], "g")


def _sum_text(texts, var: str, wrap=None) -> str:
    """The one writer of a sum c_i * var^i, for every polynomial and element
    text.  texts[i] is the text of c_i, None where c_i = 0.  It writes from
    the highest i down, joined by " + ", with c_i in parentheses where the
    caller's rule wrap(text, i) says so, no factor 1, no var^0, "0" if empty."""
    out = []
    for i in range(len(texts) - 1, -1, -1):
        cs = texts[i]
        if cs is not None:
            if wrap is not None and wrap(cs, i):
                cs = f"({cs})"
            if i:
                v = var if i == 1 else f"{var}^{i}"
                cs = v if cs == "1" else f"{cs}*{v}"
            out.append(cs)
    return " + ".join(out) or "0"


# (p, modulus) -> the live field, held weakly, and (p, k) -> the field with
# the canonical modulus, held for the life of the process
_fields: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_canonical: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, k: int = 1) -> FiniteField:
    """GF(p^k) = GF(p)[t]/(modulus) for the canonical smallest modulus (see
    module docstring), one instance per (p, k) for the life of the process."""
    field = _canonical.get((p, k))
    if field is None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise InvalidDegree(f"extension degree {k} is not >= 1")
        field = _canonical[(p, k)] = _intern(p, k, _smallest_modulus(p, k))
    return field


def _intern(p: int, k: int, modulus: tuple[int, ...]) -> FiniteField:
    field = _fields.get((p, modulus))
    if field is None:
        if k == 1:
            cls = FiniteField
        elif p**k <= ZECH_MAX_ORDER and modulus == _smallest_modulus(p, k):
            cls = _ZechField  # without: family --q 729 +66-75% CPU (20/20 pairs), sweep +15-25% (17/20)
        else:
            cls = _ExtensionField
        field = _fields[(p, modulus)] = cls(p, k, modulus)
    return field


@cache
def _smallest_modulus(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)  # make_field(p) itself comes here
    return tuple(next(_monic_irreducibles(make_field(p), k)))


def _monic_irreducibles(F: FiniteField, d: int):
    """The monic irreducibles of degree d >= 1 over F as coefficient lists,
    in increasing order of their encoding: the d low coefficients read as
    a base-|F| integer, constant term least significant."""
    Q = F.order
    # no binomial x^d + c (the first Q encodings) is irreducible if a prime r | d
    # does not divide Q - 1, or 4 | d and Q != 1 mod 4 (Lidl-Niederreiter, Thm 3.75)
    skip = (d % 4 == 0 and Q % 4 != 1) or any(
        d % r == 0 and (Q - 1) % r for r in range(2, d + 1) if is_prime(r)
    )
    for v in range(Q if skip else 0, Q**d):
        f = []
        for _ in range(d):
            v, c = divmod(v, Q)
            f.append(c)
        f.append(1)
        if _ben_or(F, f):
            yield f


def _ben_or(F: FiniteField, f: list[int]) -> bool:
    """Ben-Or's test for a monic f of degree n >= 1 over F = GF(Q): f is
    irreducible iff the first (g, d) that `_ddf` yields has d = n, i.e.
    gcd(x^(Q^i) - x, f) = 1 for every i <= n/2.  Most reducible candidates
    have a small factor and fail after a few Frobenius steps (Ben-Or, FOCS
    1981)."""
    return next(_ddf(F, f))[1] == len(f) - 1


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
    root = target._embed_roots.get(src)
    if root is None:
        prime = make_field(src.p)
        rts = roots_in_field(FFPoly(prime, list(src.modulus)), target)
        if not rts:
            raise NoEmbedding(f"modulus of {src!r} has no root in {target!r}")
        root = target._embed_roots[src] = rts[0].v
    return [_peval(target, src._digits(c), root) for c in cs]


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
    p = b.field.p
    s = 0
    while p**s < q:
        s += 1
    if p**s != q:
        raise ValueError(f"q = {q} is not a power of the field characteristic {p}")
    return b ** (p ** (-s % b.field.k))


# -- coefficient-list kernels --------------------------------------------------
#
# A polynomial over F is a list of coefficient encodings, low to high.  The
# kernels take trimmed lists (no trailing zero) and return trimmed lists;
# they never mutate a list they did not create, and may return an input
# unchanged.  They run on F's int arithmetic, except that _pmul and _pdivmod
# run a prime field on plain ints reduced mod p once per output coefficient.
# _pmul(F, a, b, n) is the product cut below x^n, as a power series ring
# (ratfunc.LocalRing) multiplies: no coefficient at or past x^n is formed.


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
    mul = F._mul
    return [mul(c, s) for c in a]


def _pderiv(F: FiniteField, a: list[int]) -> list[int]:
    # i acts as i*1 in the field, whose encoding is i mod p
    mul, p = F._mul, F.p
    return _trim([mul(c, i % p) for i, c in enumerate(a) if i])


def _pmul(F: FiniteField, a: list[int], b: list[int], n: int | None = None) -> list[int]:
    """a*b; with n given, only its coefficients below x^n, trimmed."""
    if not a or not b:
        return []
    full = len(a) + len(b) - 1
    n = full if n is None else min(n, full)
    cut = n < full
    if len(a) == 1:
        out = _pscale(F, b, a[0])
    elif len(b) == 1:
        out = _pscale(F, a, b[0])
    elif F.k == 1:  # and _pdivmod's: Kronecker costs a sweep pass 8-15% more (25/30, 13/14 pairs)
        out = [0] * n
        for i, ai in enumerate(a[:n] if cut else a):
            if ai:
                for j, bj in enumerate(b[: n - i] if cut else b, i):
                    out[j] += ai * bj
        p = F.p
        out = [c % p for c in out]
    elif type(F) is _ExtensionField:
        out = _kron_mul(F, a, b, n)
    else:
        out = [0] * n
        mul, add = F._mul, F._add
        for i, ai in enumerate(a[:n] if cut else a):
            if ai:
                for j, bj in enumerate(b[: n - i] if cut else b, i):
                    if bj:
                        out[j] = add(out[j], mul(ai, bj))
    return _trim(out[:n]) if cut else out


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


# Packed fields (every extension field without tables) run products,
# divisions and modular powers on whole polynomials packed into one int:
# coefficient i of a list sits in chunk i, W = (2k-1) s bits wide, and holds
# that coefficient's digits s bits apart (`_ExtensionField._pack`).  A
# product of two elements fills 2k-1 slots, so products of chunks never
# reach the next chunk; every sum stays in its slot because s is
# `_poly_slot(n)` for the most products n that meet in a slot.


def _kron_pack(F: _ExtensionField, a: list[int], s: int, W: int) -> int:
    pack = F._pack
    out = 0
    for c in reversed(a):
        out = (out << W) | pack(c, s)
    return out


def _kron_mul(F: _ExtensionField, a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of a*b by Kronecker substitution: one big-int
    product, then each of those coefficients folded and unpacked once.  A
    coefficient sums at most min(len a, len b) products."""
    s = F._poly_slot(min(len(a), len(b)))
    W = (2 * F.k - 1) * s
    c = _kron_pack(F, a, s, W) * _kron_pack(F, b, s, W)
    fold, unpack = F._fold, F._unpack
    red, mask = F._packed_red(s), (1 << W) - 1
    out = []
    for _ in range(n):
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

    result = _power(mulmod, _kron_pack(F, _prem(F, base, mod), s, W), e, 1)
    out = []
    for _ in range(db):
        out.append(F._unpack(result, s))
        result >>= W
    return _trim(out)


def _ptaylor(F: FiniteField, f, a: int, n: int) -> tuple[int, list[int]]:
    """(v, u) for the nonzero polynomial f(t + a) = t^v * (u + O(t^n)): the
    Taylor coefficients of f at a, one synthetic division by x - a each."""
    if not a:
        v = 0
        while not f[v]:
            v += 1
        return v, list(f[v : v + n])
    add, mul = F._add, F._mul
    f = list(f)
    v = 0
    u = []
    top = len(f)
    while top and len(u) < n:
        acc = 0
        for i in range(top - 1, -1, -1):
            acc = add(mul(acc, a), f[i])
            f[i] = acc
        # f[0] is f(a), and f[1:top] the quotient by x - a
        if u or acc:
            u.append(acc)
        else:
            v += 1
        f = f[1:top]
        top -= 1
    return v, _trim(u)


def _pseries_inv(F: FiniteField, u: list[int], n: int) -> list[int]:
    """1/u mod t^n for u(0) != 0: w_k = -w_0 * sum_{1 <= j <= k} u_j w_(k-j)."""
    mul, add = F._mul, F._add
    w0 = F._inv(u[0])
    w = [w0]
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(u) - 1) + 1):
            acc = add(acc, mul(u[j], w[k - j]))
        w.append(mul(F._neg(acc), w0))
    return _trim(w)


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


def _pxgcd(F: FiniteField, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(g, s) with g = gcd(a, b) monic and s*a = g mod b, for b nonzero, by
    the extended Euclidean algorithm; deg s < deg b - deg g."""
    r0, r1 = a, b
    s0, s1 = [1], []
    while r1:
        q, r = _pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(F, s0, _pmul(F, q, s1))
    inv = F._inv(r0[-1])
    return _pscale(F, r0, inv), _pscale(F, s0, inv)


def _ppowmod(F: FiniteField, base: list[int], e: int, mod: list[int]) -> list[int]:
    if type(F) is _ExtensionField and len(mod) > 1:
        return _kron_powmod(F, base, e, mod)
    return _power(lambda a, b: _prem(F, _pmul(F, a, b), mod), _prem(F, base, mod), e, [1])


def _peval(F: FiniteField, a: list[int], x: int) -> int:
    """Horner evaluation at an element of F."""
    acc = 0
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
        if isinstance(other, int):
            other %= self.field.p  # n means n*1, as for FFElem
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
        return FFPoly._of(F, _power(lambda a, b: _pmul(F, a, b), self.ints, n, [1]))

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

    def derivative(self) -> "FFPoly":
        return FFPoly._of(self.field, _pderiv(self.field, self.ints))

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
        F = self.field
        if F.k == 1:
            return _sum_text([str(c) if c else None for c in self.ints], var)
        # an extension-field coefficient that is a sum, a product or a power
        # of g is parenthesized
        texts = [repr(FFElem(F, c)) if c else None for c in self.ints]
        return _sum_text(texts, var, lambda t, i: "+" in t or "*" in t or "^" in t)

    __repr__ = to_str


# -- gcd / powers / irreducibility ---------------------------------------------


def poly_gcd(f: FFPoly, g: FFPoly) -> FFPoly:
    """Monic gcd via the Euclidean algorithm."""
    if g.field is not f.field:
        raise ValueError("mixed-field polynomial arithmetic")
    return FFPoly._of(f.field, _pgcd(f.field, f.ints, g.ints))


def _pow_mod(base: FFPoly, e: int, mod: FFPoly) -> FFPoly:
    return FFPoly._of(base.field, _ppowmod(base.field, base.ints, e, mod.ints))


def is_irreducible(f: FFPoly) -> bool:
    """Is f irreducible over its field?  Ben-Or's test on the monic f; a
    constant is not irreducible."""
    if f.degree() <= 0:
        return False
    return _ben_or(f.field, f.monic().ints)


def _pth_root(F: FiniteField, f: list[int]) -> list[int]:
    """g with f = g(x^p), for f whose exponents are all multiples of p: the
    Frobenius is bijective on F, so a coefficient's p-th root is its
    p^(k-1)-th power."""
    f = f[:: F.p]
    if F.k == 1:
        return f
    e = F.p ** (F.k - 1)
    return [F._pow(c, e) for c in f]


def _squarefree_decomposition(F: FiniteField, f: list[int]) -> list[tuple[int, list[int]]]:
    """[(m_i, g_i)] with the monic f = prod g_i^{m_i}, each g_i monic
    squarefree, m_i distinct, sorted by m_i.

    Yun's algorithm on (f, f'), with f = A * C^p and A keeping each factor's
    multiplicity mod p: f'/f = A'/A, so each step splits off A's factors of
    one multiplicity within A's squarefree part w.  C, the p-th root of f/A,
    is decomposed alike; its groups, multiplicities times p, split A's by gcd."""
    p = F.p
    groups = {}  # multiplicity in A -> the product of those factors
    A = [1]
    df = _pderiv(F, f)
    u = _pgcd(F, f, df)
    if u == [1]:
        return [(1, f)]
    w = _pdivmod(F, f, u)[0]
    d = _psub(F, _pdivmod(F, df, u)[0], _pderiv(F, w))
    i = 1
    while len(w) > 1:
        g = _pgcd(F, w, d)
        if len(g) > 1:
            groups[i] = g
            A = _pmul(F, A, _power(lambda a, b: _pmul(F, a, b), g, i, [1]))
            w = _pdivmod(F, w, g)[0]
            d = _pdivmod(F, d, g)[0]
        d = _psub(F, d, _pderiv(F, w))
        i += 1
    out = {}
    C = _pdivmod(F, f, A)[0]
    for m, h in _squarefree_decomposition(F, _pth_root(F, C)) if len(C) > 1 else ():
        for i, g in groups.items():
            common = _pgcd(F, h, g)
            if len(common) > 1:
                out[p * m + i] = common
                h = _pdivmod(F, h, common)[0]
                groups[i] = _pdivmod(F, g, common)[0]
        if len(h) > 1:
            out[p * m] = h
    out.update((i, g) for i, g in groups.items() if len(g) > 1)
    return sorted(out.items())


def _ddf(F: FiniteField, f: list[int]):
    """Distinct-degree factorization of a monic f of degree >= 1 over
    F = GF(Q), lazily: yields (g, d) for d = 1, 2, ... with g the product of
    f's irreducible factors of degree d (for squarefree f), from
    h = x^(Q^d) mod the part of f not yet split off.  Once 2d exceeds the
    degree of that part, it is irreducible and is yielded last."""
    x = [0, 1]
    h = x
    rem = f
    d = 0
    while len(rem) > 1:
        d += 1
        if 2 * d > len(rem) - 1:
            yield rem, len(rem) - 1
            return
        h = _ppowmod(F, h, F.order, rem)
        g = _pgcd(F, _psub(F, h, x), rem)
        if len(g) > 1:
            yield g, d
            rem = _pdivmod(F, rem, g)[0]
            h = _prem(F, h, rem)


def _split_gcd(F: FiniteField, r: list[int], f: list[int], d: int) -> list[int]:
    """gcd of f with a map of r that is 0 on about half of f's irreducible
    factors of degree d, for Cantor-Zassenhaus splitting."""
    if F.p == 2:
        # trace map sum r^(2^i) splits in characteristic 2
        t = _prem(F, r, f)
        acc = t
        for _ in range(F.k * d - 1):
            t = _prem(F, _pmul(F, t, t), f)
            acc = _padd(F, acc, t)
        return _pgcd(F, acc, f)
    t = _ppowmod(F, r, (F.order**d - 1) // 2, f)
    return _pgcd(F, _psub(F, t, [1]), f)


def _random_poly(F: FiniteField, n: int, rng: random.Random) -> list[int]:
    """A random polynomial of degree 1 to n - 1 over F."""
    while True:
        r = _trim([rng.randrange(F.order) for _ in range(n)])
        if len(r) > 1:
            return r


def _equal_degree_split(F: FiniteField, f: list[int], d: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus splitting of a monic product of degree-d
    irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    check_budget(f"equal-degree split of degree {n} into factors of degree {d} over GF({F.order})",
                 n * n * d * F.order.bit_length())
    while True:
        g = _split_gcd(F, _random_poly(F, n, rng), f, d)
        if 0 < len(g) - 1 < n:
            left = _equal_degree_split(F, g, d, rng)
            return left + _equal_degree_split(F, _pdivmod(F, f, g)[0], d, rng)


def poly_factor(f: FFPoly) -> list[tuple[FFPoly, int]]:
    """Monic irreducible factors of f with multiplicities, deterministically
    sorted by (degree, coefficient encoding).  The leading coefficient is
    dropped: f = lc(f) * prod factor^mult.

    The splitting RNG is seeded with the module-level FACTOR_SEED, read at
    call time so the CLI can override it process-wide (TOWERLAB_SEED).  The
    sorted answer does not depend on it, so over GF(q) an f of degree n with
    q^n <= ZECH_MAX_ORDER is factored once per field: later calls read the
    field's factor table and get fresh FFPolys."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree() == 0:
        return []
    if f.degree() == 1:
        return [(f.monic(), 1)]
    F = f.field
    key = tuple(_pmonic(F, f.ints))
    # q^n <= ZECH_MAX_ORDER needs n <= 10, tested first so that no large
    # power is formed
    small = f.degree() <= 10 and F.order ** f.degree() <= ZECH_MAX_ORDER
    found = F._factors.get(key) if small else None
    if found is None:
        rng = random.Random(FACTOR_SEED)
        out = []
        for mult, g in _squarefree_decomposition(F, list(key)):
            for prod, d in _ddf(F, g):
                for irr in _equal_degree_split(F, prod, d, rng):
                    out.append((len(irr), irr, mult))
        out.sort()
        found = tuple((tuple(irr), mult) for _, irr, mult in out)
        if small:
            F._factors[key] = found
    return [(FFPoly._of(F, list(irr)), mult) for irr, mult in found]


def roots_in_field(f: FFPoly, target: FiniteField | None = None) -> list[FFElem]:
    """Roots of f in target (default: its own coefficient field), sorted by
    integer encoding.  Multiplicities are discarded.

    f is factored over its own field GF(Q0), which is small.  An irreducible
    factor g of degree m has roots in target exactly when k(Q0) * m divides
    k(target), and then the equal-degree splitter breaks g, embedded in
    target, into its m linear factors."""
    src = f.field
    target = target or src
    if f.is_zero():
        raise ValueError("every element is a root of the zero polynomial")
    if src.p != target.p or target.k % src.k != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {target!r}")
    rng = random.Random(FACTOR_SEED)
    roots = []
    for g, _ in poly_factor(f):
        if target.k % (src.k * g.degree()) == 0:
            for lin in _equal_degree_split(target, _embed_ints(src, target, g.ints), 1, rng):
                roots.append(target._neg(lin[0]))
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


class Adjoin:
    """The simple extension K1 = K0(z) of parent = K0 by a root z of psi, a
    monic irreducible polynomial over K0: one level of a residue-field tower
    F_{i+1} = F_i[u]/(psi_i).  `field` is K1 and `z` the encoding of z in it.

    K1 and z are fixed by K0 and psi alone:
    * psi linear: K1 = K0 and z = -psi(0);
    * K0 prime: K1 is the quotient GF(p)[u]/(psi) itself and z the class of
      u, so the digits of an element are its coordinates;
    * otherwise: K1 is the canonical GF(|K0|^d), d = deg psi, and z the
      smallest root of psi there.

    value() is evaluation u -> z from K0[u] to K1, and lift() inverts it on
    polynomials of degree < d.  In the last case a lift solves over GF(p) in
    the basis t^b z^i of K1 (t the generator of K0 embedded in K1, b < k(K0),
    i < d).
    """

    __slots__ = ("parent", "psi", "field", "z", "_quotient")

    def __init__(self, parent: FiniteField, psi: FFPoly):
        self.parent = parent
        self.psi = psi.ints
        d = psi.degree()
        self._quotient = parent.k == 1 < d
        if d == 1:
            self.field, self.z = parent, parent._neg(psi.ints[0])
        elif self._quotient:
            # psi is irreducible by contract, so no second Ben-Or test
            self.field, self.z = _intern(parent.p, d, tuple(psi.ints)), parent.p
        else:
            self.field = make_field(parent.p, parent.k * d)
            self.z = roots_in_field(psi, self.field)[0].v

    def value(self, a: list[int]) -> int:
        """a(z) for the coefficient list a over K0."""
        K1 = self.field
        if self._quotient:
            return K1._from_digits(_prem(self.parent, a, self.psi))
        return _peval(K1, _embed_ints(self.parent, K1, a), self.z)

    def lift(self, c: int) -> list[int]:
        """The coefficient list a over K0, deg a < deg psi, with a(z) = c."""
        K0, K1 = self.parent, self.field
        if K1 is K0:
            return [c] if c else []
        if self._quotient:
            return _trim(K1._digits(c))
        basis = _embed_ints(K0, K1, [K0.p**b for b in range(K0.k)])
        cols = []
        zi = 1
        for _ in range(len(self.psi) - 1):
            cols.extend(K1._digits(K1._mul(t, zi)) for t in basis)
            zi = K1._mul(zi, self.z)
        sol = gfp_solve(K1.p, cols, K1._digits(c))
        k = K0.k
        return _trim([K0._from_digits(sol[i : i + k]) for i in range(0, len(sol), k)])


# -- bivariate layer -----------------------------------------------------------


class BivarPoly:
    """F(x, y) over GF(q), stored as a tuple of x-polynomials indexed by the
    power of y.  `facts` is a dict, made at first read, in which callers keep
    what they derive from F alone; it takes no part in equality or hashing."""

    __slots__ = ("field", "ycoeffs", "_facts")

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
        self._facts = None

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

    @property
    def facts(self) -> dict:
        if self._facts is None:
            self._facts = {}
        return self._facts

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
        return _power(operator.mul, self, n, BivarPoly(self.field, [FFPoly(self.field, [1])]))

    def _coerce(self, other):
        if isinstance(other, BivarPoly):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, FFPoly):
            return BivarPoly(self.field, [other])
        if isinstance(other, int):
            other %= self.field.p  # n means n*1, as for FFElem
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
        return BivarPoly(self.field, [self.ycoeff(j) * j for j in range(1, len(self.ycoeffs))])

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

    def to_str(self) -> str:
        # a coefficient in x that is a sum is parenthesized; a constant one
        # already is, by FFPoly.to_str
        texts = [c.to_str("x") if c.ints else None for c in self.ycoeffs]
        return _sum_text(texts, "y", lambda t, j: "+" in t and self.ycoeffs[j].degree() > 0)

    __repr__ = to_str


def resultant_y(F: BivarPoly, G: BivarPoly) -> FFPoly:
    """Res_y(F, G) as a polynomial in x: the Sylvester determinant, F's rows
    first.  With F of y-degree m and roots theta_i over an algebraic closure
    of GF(q)(x), Res_y(F, G) = lc_y(F)^deg(G) * prod_i G(x, theta_i).

    It runs the subresultant remainder sequence in y (Collins, J. ACM 1967;
    Brown-Traub, J. ACM 1971; Cohen, GTM 138, Alg. 3.3.7).  With deg A >=
    deg B and delta = deg A - deg B, a step pseudo-divides, lc(B)^(delta+1)
    * A = Q * B + R, and goes on with (B, R / (g * h^delta)), then sets g =
    lc(A) and h = g^delta / h^(delta-1), g = h = 1 at the start.  Each new B
    is a subresultant, so both divisions are exact in GF(q)[x] (ValueError
    if not).  R = 0 is a common factor and gives 0; R of y-degree 0 gives
    lc(B)^deg(A) / h^(deg(A)-1) with the sign (-1)^(deg A * deg B) of each
    step.  Only the coefficients' ring operations are used.
    """
    if F.is_zero() or G.is_zero():
        raise ValueError("resultant of the zero polynomial")
    m, n = F.deg_y(), G.deg_y()
    if m == 0:
        return F.ycoeff(0) ** n
    if n == 0:
        return G.ycoeff(0) ** m
    A, B, sign = list(F.ycoeffs), list(G.ycoeffs), 1
    if m < n:
        A, B, sign = B, A, (-1) ** (m * n)
    g = h = FFPoly(F.field, [1])
    while len(B) > 1:
        a, b = len(A) - 1, len(B) - 1
        delta = a - b
        sign *= (-1) ** (a * b)
        # R = lc(B)^(delta+1) * A mod B, one y-degree of A at a time
        R = A
        for k in range(delta, -1, -1):
            c = R[b + k]
            R = [r * B[-1] for r in R[: b + k]]
            for i in range(b):
                R[k + i] -= c * B[i]
        while R and R[-1].is_zero():
            R.pop()
        if not R:
            return FFPoly(F.field, [])
        d = g * h**delta
        A, B = B, [r.exact_div(d) for r in R]
        g = A[-1]
        if delta:
            h = (g**delta).exact_div(h ** (delta - 1))
    a = len(A) - 1
    res = (B[0] ** a).exact_div(h ** (a - 1))
    return res if sign == 1 else -res
