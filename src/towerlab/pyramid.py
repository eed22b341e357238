"""Abstract climb through the ramification pyramid of a recursive tower.

Everything in this module is combinatorial: no function-field arithmetic
happens here.  The input is a small packet of ramification hypotheses about
the basic field K(x, y) of a non-skew recursive tower,

    m = [K(x,y) : K(x)] = [K(x,y) : K(y)]   (tower step degree),
    n = e(Q | P_{f(x)})   for the distinguished place Q that is totally and
                          tamely ramified over P_{f(y)} with index m,
    r = e(Q' | P_{f(x)})  for a second, wildly ramified place Q',

and the output is a per-level lower bound on a different exponent high up
in the tower, obtained purely from Abhyankar's lemma and the transitivity
formula for different exponents.

The pyramid.  Write T_0 = K(x_0), T_{i+1} = T_i(x_{i+1}) with
F(x_j, x_{j+1}) = 0 at every step.  The fields generated by consecutive
variables K(x_lo, ..., x_hi) form a triangular diagram; a compatible system
of places on it is determined by the bottom row P_j = P_{f(x_j)} together
with one wild place Q' of K(x_i, x_{i+1}) over P_i.  Nodes here are the
index pairs (lo, hi); the place of T_i = K(x_0, ..., x_i) is the node
(0, i).  Every edge of the diagram adjoins one variable:

    (lo+1, hi) -> (lo, hi)   adjoin x_lo on the left; e = m always,
    (lo, hi-1) -> (lo, hi)   adjoin x_hi on the right; e = n, except on
                             the rightmost diagonal (hi = i+1, the branch
                             through Q') where e = r.

Only the bottom edges are hypotheses; the rest follow from Abhyankar's
lemma at each diamond because m is coprime to both the characteristic and
to n, r.  pyramid_graph() constructs the diagram edge by edge exactly this
way, and walk_bound() extracts the different-exponent bound by composing
transitivity steps along it.  climb() evaluates the same bound in closed
form; the two must agree, which is one of the module's test invariants.

The bound.  With d(Q'|P_i) >= d_prime_min (>= r, since Q' is wild) the
chain gives, for P' over Q' at the apex and P below it in T_i,

    d(P'|P) = m^i d(Q'|P_i) + (m^i - 1) - r (m^i - 1)
            >= m^i d_prime_min + (m^i - 1)(1 - r)
            =  m^i - 1 + r          (at the default d_prime_min = r)
            >= m^i / 2 = [T_i : T_0] / 2.

So the ratio d(P'|P) / [T_i : T_0] is bounded below by the constant 1/2
and the genus series sum_i c_i / [T_{i+1} : T_i] has constant positive
terms 1 / (2m): the tower has infinite genus ratio.  The constant is 1/2,
not 2; see the note emitted in every PyramidReport.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TowerlabError
from .record import Record

__all__ = [
    "BothWild",
    "InvalidHypotheses",
    "RamHypotheses",
    "PyramidLevel",
    "PyramidReport",
    "PyramidGraph",
    "SeriesReport",
    "abhyankar_e",
    "different_transitivity",
    "climb",
    "pyramid_graph",
    "walk_bound",
    "series_divergence",
    "render_pyramid",
]

RATIO_NOTE = (
    "certified per-level ratio is d(P'|P)/[T_i:T_0] >= 1/2; the constant 2 "
    "sometimes quoted for this bound does not follow from the chain "
    "m^i - 1 + r >= m^i/2, and divergence of the genus series holds either way"
)

GENUS_VERDICT = {"Diverges": "InfiniteGenus"}


class BothWild(TowerlabError):
    """Abhyankar's lemma needs at least one index prime to p."""


class InvalidHypotheses(TowerlabError):
    """A RamHypotheses constraint is violated; the message names it."""


class RamHypotheses(Record):
    """Ramification data of the basic field feeding the pyramid climb.

    m, n, r and p are ints.  d_prime_min is a certified lower bound for the
    different exponent d(Q'|P_{f(x)}) of the wild place; its default 0 means
    "use r".  Wild ramification already forces d >= e = r, so values below r
    are rejected rather than silently used.
    """

    __slots__ = ("m", "n", "r", "p", "d_prime_min")
    _defaults = {"d_prime_min": 0}

    def __post_init__(self):
        if self.d_prime_min == 0:
            object.__setattr__(self, "d_prime_min", self.r)
        checks = [
            (self.m >= 2, "m >= 2"),
            (self.n >= 1, "n >= 1"),
            (self.r >= 1, "r >= 1"),
            (self.p >= 2, "p >= 2"),
            (math.gcd(self.m, self.p) == 1, "gcd(m, p) = 1"),
            (math.gcd(self.n, self.m) == 1, "gcd(n, m) = 1"),
            (math.gcd(self.r, self.m) == 1, "gcd(r, m) = 1"),
            (self.r % self.p == 0, "p | r (Q' wild)"),
            (self.d_prime_min >= self.r, "d_prime_min >= r"),
        ]
        for ok, name in checks:
            if not ok:
                raise InvalidHypotheses("hypothesis violated: " + name)


def abhyankar_e(e1: int, e2: int, p: int) -> int:
    """Ramification index in a compositum: lcm(e1, e2).

    Valid only when at least one of e1, e2 is prime to p; the doubly wild
    case is reported as BothWild, never silently computed.
    """
    if e1 < 1 or e2 < 1:
        raise InvalidHypotheses("ramification indices must be >= 1")
    if e1 % p == 0 and e2 % p == 0:
        raise BothWild(f"both indices {e1}, {e2} divisible by p = {p}")
    return math.lcm(e1, e2)


def different_transitivity(d_upper: int, e_upper: int, d_lower: int) -> int:
    """d for a two-step extension: e_upper * d_lower + d_upper."""
    if d_upper < 0 or d_lower < 0:
        raise InvalidHypotheses("different exponents must be >= 0")
    if e_upper < 1:
        raise InvalidHypotheses("ramification index must be >= 1")
    return e_upper * d_lower + d_upper


class PyramidLevel(Record):
    """One rung of the climb.

    degree is [T_i : T_0] = m^i.  d_bound is the certified lower bound on
    d(P'|P) for the wild place P' of T_{i+1} over its restriction P to T_i.
    genus_contribution is what that single place adds to the telescoped
    Riemann-Hurwitz lower bound for g(T_{i+1}) / [T_{i+1} : T_0], namely
    the Fraction d_bound / (2 m^{i+1}).
    """

    __slots__ = ("i", "degree", "d_bound", "genus_contribution")


class PyramidReport(Record):
    """The climb: its RamHypotheses, a tuple of PyramidLevels, the ratio c,
    the Fraction series terms and partial sums, the verdict
    ("InfiniteGenus" | "Inconclusive") and a tuple of note strings."""

    __slots__ = (
        "hypotheses", "levels", "c", "series_terms", "series_partial_sums",
        "verdict", "notes",
    )


def climb(h: RamHypotheses, levels: int) -> PyramidReport:
    """Closed-form per-level bounds d(P'|P) >= m^i * d_prime_min + (m^i - 1)(1 - r).

    The series terms, partial sums and verdict (via GENUS_VERDICT) come from
    series_divergence(c, m, levels + 1): c_i = 1/2 and [T_{i+1} : T_i] = m
    give constant terms 1/(2m), whose divergence it certifies, so the
    verdict is InfiniteGenus.  All arithmetic is exact.
    """
    if levels < 0:
        raise InvalidHypotheses("levels must be >= 0")
    out = [climb_level(h, i) for i in range(levels + 1)]
    c = Fraction(1, 2)
    series = series_divergence(c, h.m, levels + 1)
    return PyramidReport(
        hypotheses=h,
        levels=tuple(out),
        c=c,
        series_terms=series.terms,
        series_partial_sums=series.partial_sums,
        verdict=GENUS_VERDICT[series.verdict],
        notes=(RATIO_NOTE,),
    )


def climb_level(h: RamHypotheses, i: int) -> PyramidLevel:
    """Level i >= 0 of climb(h, levels) for any levels >= i."""
    deg = h.m**i
    bound = deg * h.d_prime_min + (deg - 1) * (1 - h.r)
    # d_prime_min >= r collapses this to deg - 1 + r plus a nonnegative slack
    assert 2 * bound >= deg
    return PyramidLevel(i, deg, bound, Fraction(bound, 2 * deg * h.m))


Node = tuple[int, int]


class PyramidGraph(Record):
    """Explicit node diagram for one level of the climb.

    nodes are pairs (lo, hi) standing for a place of K(x_lo, ..., x_hi);
    edges maps (child, parent) to the ramification index e(child|parent),
    where parent is child with one boundary variable removed.  Only the
    bottom-row labels are hypotheses; every other label was produced by
    abhyankar_e at the diamond below it.
    """

    __slots__ = ("level", "nodes", "edges")

    def label(self, child: Node, parent: Node) -> int:
        return self.edges[(child, parent)]


def pyramid_graph(h: RamHypotheses, i: int) -> PyramidGraph:
    """Build the full place diagram for the level-i climb by Abhyankar propagation.

    Bottom row: P_j = (j, j) for j <= i.  Height-one nodes are the basic-field
    places Q_j = (j-1, j) with e = n over P_{j-1} (x side) and e = m over P_j
    (y side), plus the wild Q' = (i, i+1) with e = r over P_i.  Every higher
    label is derived, not assumed: at each diamond the composite index is
    abhyankar_e of the two lower edges and the new labels are the quotients.
    The node (i+1, i+1) is deliberately absent: the restriction of Q' to
    K(x_{i+1}) is not a zero of f and plays no part in the chain.
    """
    if i < 0:
        raise InvalidHypotheses("level must be >= 0")
    top = i + 1
    nodes = [
        (lo, hi)
        for hi in range(top + 1)
        for lo in range(hi, -1, -1)
        if (lo, hi) != (top, top)
    ]
    edges: dict[tuple[Node, Node], int] = {}
    for j in range(1, top):
        edges[((j - 1, j), (j - 1, j - 1))] = h.n
        edges[((j - 1, j), (j, j))] = h.m
    edges[((i, top), (i, i))] = h.r
    for span in range(2, top + 1):
        for lo in range(top - span + 1):
            hi = lo + span
            if hi > top:
                break
            x = (lo, hi)
            left = (lo, hi - 1)  # drop x_hi
            right = (lo + 1, hi)  # drop x_lo
            base = (lo + 1, hi - 1)
            e_left = edges[(left, base)]
            e_right = edges[(right, base)]
            e_comp = abhyankar_e(e_left, e_right, h.p)
            edges[(x, left)] = e_comp // e_left
            edges[(x, right)] = e_comp // e_right
    return PyramidGraph(level=i, nodes=tuple(nodes), edges=edges)


def walk_bound(h: RamHypotheses, i: int) -> int:
    """Recompute the level-i bound by walking the explicit diagram.

    Composes different_transitivity along the two tame chains P_i -> P and
    Q' -> P', splices in d(Q'|P_i) >= d_prime_min at the bottom of the wild
    branch, and solves the transitivity relation for d(P'|P).  Must equal
    climb's closed form; the test suite checks this and that every derived
    edge label sits where the diagram says it should.
    """
    g = pyramid_graph(h, i)
    top = i + 1

    def chain(start: Node, stop_lo: int):
        # climb up-left edges, accumulating (e, d) over the start node
        e_acc, d_acc = 1, 0
        lo, hi = start
        while lo > stop_lo:
            child = (lo - 1, hi)
            e_step = g.label(child, (lo, hi))
            if math.gcd(e_step, h.p) != 1:
                raise BothWild("tame chain crossed a wild edge")
            d_acc = different_transitivity(e_step - 1, e_step, d_acc)
            e_acc *= e_step
            lo -= 1
        return e_acc, d_acc

    e_pq, d_pq = chain((i, top), 0)  # P' over Q'
    e_ppi, d_ppi = chain((i, i), 0)  # P  over P_i
    d_upper = different_transitivity(d_pq, e_pq, h.d_prime_min)  # P' over P_i
    e_top = g.label((0, top), (0, i))  # e(P'|P), the last wild edge
    return d_upper - e_top * d_ppi


# A sequence spec: an int or Fraction (a constant sequence), a list or tuple
# (repeated periodically) or a callable sampled at i = 1, 2, ...  Annotations
# are never evaluated, so the alias is a plain string and needs no `typing`.
SeqSpec = "int | Fraction | Sequence | Callable[[int], object]"


def _as_terms(spec: SeqSpec, count: int, what: str):
    """Expand a sequence spec to `count` values starting at index 1.

    Scalars mean a constant sequence, lists and tuples repeat periodically,
    callables are sampled at i = 1, 2, ...; only the first two forms are
    symbolic enough to certify anything about the infinite tail.
    """
    if callable(spec):
        vals = [Fraction(spec(k)) for k in range(1, count + 1)]
        return vals, None
    if isinstance(spec, (list, tuple)):
        period = [Fraction(v) for v in spec]
        if not period:
            raise InvalidHypotheses(what + " spec must be nonempty")
        vals = [period[(k - 1) % len(period)] for k in range(1, count + 1)]
        return vals, period
    val = Fraction(spec)
    return [val] * count, [val]


class SeriesReport(Record):
    """verdict is "Diverges" or "Inconclusive"; terms and partial_sums are
    tuples of Fractions; certificate explains a "Diverges", else None."""

    __slots__ = ("verdict", "terms", "partial_sums", "certificate")


def series_divergence(
    c: SeqSpec,
    step_degrees: SeqSpec,
    horizon: int = 64,
) -> SeriesReport:
    """Decide divergence of sum_i c_i / [T_{i+1} : T_i], never convergence.

    Constant and periodic specs get a symbolic certificate: if one full
    period of terms has positive sum, partial sums grow linearly forever.
    A callable is only sampled up to the horizon, and a finite horizon is
    not a certificate, so it is always Inconclusive; so is a period with
    zero sum.  Convergence is never claimed.
    """
    if horizon < 1:
        raise InvalidHypotheses("horizon must be >= 1")
    cs, c_period = _as_terms(c, horizon, "c")
    ds, d_period = _as_terms(step_degrees, horizon, "step degree")
    if any(v < 0 for v in cs):
        raise InvalidHypotheses("c terms must be >= 0")
    if any(v < 1 for v in ds):
        raise InvalidHypotheses("step degrees must be >= 1")
    terms = [a / b for a, b in zip(cs, ds)]
    sums, acc = [], Fraction(0)
    for t in terms:
        acc += t
        sums.append(acc)
    verdict, cert = "Inconclusive", None
    if c_period is not None and d_period is not None:
        n = math.lcm(len(c_period), len(d_period))
        block = [
            c_period[k % len(c_period)] / d_period[k % len(d_period)]
            for k in range(n)
        ]
        sigma = sum(block)
        if sigma > 0:
            verdict = "Diverges"
            cert = (
                f"terms repeat with period {n} and period sum {sigma} > 0; "
                f"partial sums grow by at least {sigma} every {n} terms"
            )
    return SeriesReport(verdict, tuple(terms), tuple(sums), cert)


def render_pyramid(h: RamHypotheses, i: int, names: bool = True) -> str:
    """ASCII picture of the level-i diagram, apex on top.

    Nodes sit at column lo + hi, height hi - lo; edges are drawn as / and \\
    with their e-labels.  Only sensible for small i (the CLI caps at 4).
    """
    g = pyramid_graph(h, i)
    top = i + 1
    cell = 6
    grid: list[list[str]] = []

    def put(row: int, col: int, text: str):
        while len(grid) <= row:
            grid.append([])
        line = grid[row]
        while len(line) < col + len(text):
            line.append(" ")
        for k, ch in enumerate(text):
            line[col + k] = ch

    def name_of(lo: int, hi: int) -> str:
        if not names:
            return "*"
        if lo == hi:
            return f"P{lo}"
        if (lo, hi) == (0, top):
            return "P'"
        if (lo, hi) == (0, i) and i > 0:
            return "P"
        if (lo, hi) == (i, top):
            return "Q'"
        if hi - lo == 1:
            return f"Q{hi}"
        return "*"

    for lo, hi in g.nodes:
        height = hi - lo
        row = 2 * (top - height)
        col = (lo + hi) * cell
        put(row, col, name_of(lo, hi))
    for (child, parent), e in g.edges.items():
        crow = 2 * (top - (child[1] - child[0]))
        ccol = (child[0] + child[1]) * cell
        pcol = (parent[0] + parent[1]) * cell
        if pcol < ccol:  # parent down-left: draw "/" under child's left
            put(crow + 1, ccol - 2, "/")
            put(crow + 1, ccol - 2 - len(str(e)) - 1, str(e))
        else:  # parent down-right: draw "\"
            put(crow + 1, ccol + 3, "\\")
            put(crow + 1, ccol + 5, str(e))
    lines = ["".join(line).rstrip() for line in grid]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)
