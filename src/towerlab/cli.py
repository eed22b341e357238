"""Command line front end.

Five commands, one report shape.  Every command emits either a human
summary (default) or, with --json, a machine report with a fixed schema
(shipped at towerlab/schemas/report.schema.json): schema_version, a job
echo, a verdict string, witnesses (places rendered as their refinement
chains), integer-pair bounds, and a notes array carrying the library's
discrepancy flags.  Reports are deterministic: keys are sorted, places are
sorted, and the factorization seed is fixed (override with TOWERLAB_SEED).

Exit codes: 0 when the verdict is positive (holds / true / exact bounds
computed), 1 when a well-formed analysis returns a negative or inconclusive
verdict, 2 on any error (bad input, parse failure, internal refusal).

Polynomial grammar for --F/--f/--g: integer literals (reduced mod p),
variables x and y, operators + - * ^ and parentheses; ^ binds tightest,
then *, then + and -, all left-associative.  No power or product may
reach an x- or y-degree past MAX_PARSE_DEGREE, or more terms than
MAX_PARSE_TERMS, and parentheses nest at most MAX_PARSE_NESTING deep.  Nor
may one be predicted past ffield.WORK_BUDGET coefficient products
(BudgetExceeded): a sparse power such as (x+y)^512 has few terms but
multiplies dense x-polynomials.
Field elements for --a/--b use the same grammar with the single variable t
naming a generator of GF(q) over its prime field.  A text may start with
"-" and still follow its option as a separate argument: --F -y^2+x reads
as --F=-y^2+x.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb

from . import ffield
from .basicfield import (
    InconsistentOracle,
    genus_from_table,
    ram_table,
    reconcile_different,
    zeta_genus,
)
from .checker import FamilyParams, check_theorem, family_field, verify_family_facts
from .errors import TowerlabError
from .ffield import BivarPoly, BudgetExceeded, FFElem, FFPoly, FiniteField, make_field
from .omfactor import PlaceExt, is_irreducible_over_ratfield
from .pyramid import RamHypotheses, climb, climb_level, render_pyramid
from .record import Record

__all__ = ["ParseError", "JobSpec", "parse_poly", "parse_elem", "run", "main"]

SCHEMA_VERSION = 1

# The largest x- or y-degree a power or product may reach in a parse, checked
# before it is built, so x^100000000 is refused instead of computed.  The
# family typed as --F up to q = 256 has degree 257.
MAX_PARSE_DEGREE = 512

# The most terms a power or product may build in a parse, checked against an
# upper bound on its result before it is built.  Over GF(10^9 + 7),
# (x+y+1)^128 has 8,385 terms and took 0.7 s to build, and ^256 took 9.8 s.
MAX_PARSE_TERMS = 2**13

# The deepest parenthesis nesting a parse accepts.  The parser recurses once
# per level, and a deeper nesting would run out of Python stack.
MAX_PARSE_NESTING = 100


class InvalidOption(TowerlabError):
    """An option value outside its allowed range."""


class ReducibleDefiningPolynomial(TowerlabError):
    """F factors over K(x), so it defines no function field; genus and
    ramification of F are meaningless."""


class ParseError(TowerlabError):
    """Syntax error in a polynomial expression; carries position and the
    set of token kinds that would have been accepted there."""

    def __init__(self, message: str, pos: int, expected: tuple[str, ...]):
        self.pos = pos
        self.expected = tuple(sorted(expected))
        super().__init__(
            f"{message} at offset {pos}; expected one of: "
            + ", ".join(self.expected)
        )


def _tokenize(expr: str):
    toks = []
    i, n = 0, len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # as int() reads: Arabic-Indic digits too, but no "²"
            j = i
            while j < n and expr[j].isdecimal():
                j += 1
            toks.append(("INT", expr[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            toks.append(("NAME", expr[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r}", i,
            ("integer", "variable", "+", "-", "*", "^", "(", ")"),
        )
    toks.append(("EOF", "", n))
    return toks


def _degrees(val) -> tuple[int, int]:
    """(deg_x, deg_y) of a parsed polynomial; field elements are not bounded."""
    return (val.deg_x(), val.deg_y()) if isinstance(val, BivarPoly) else (0, 0)


def _terms(val) -> int:
    """The number of nonzero terms of a parsed polynomial; a field element
    counts as one."""
    if isinstance(val, BivarPoly):
        return sum(1 for c in val.ycoeffs for v in c.ints if v)
    return 1


def _check_degree(deg: int, pos: int) -> None:
    if deg > MAX_PARSE_DEGREE:
        raise ParseError(f"degree {deg} past the bound {MAX_PARSE_DEGREE}", pos,
                         (f"degree at most {MAX_PARSE_DEGREE}",))


def _check_terms(terms: int, pos: int) -> None:
    """terms is an upper bound on a result's terms: for a product the
    product of the factors' term counts, for a t-term base to the n the
    monomials of degree n in t variables, and for either the box of its
    degrees."""
    if terms > MAX_PARSE_TERMS:
        raise ParseError(f"up to {terms} terms past the bound {MAX_PARSE_TERMS}", pos,
                         (f"at most {MAX_PARSE_TERMS} terms",))


def _shape(val) -> dict[int, int]:
    """y-degree -> x-length of each nonzero y-coefficient of a parsed
    polynomial; a field element is one coefficient of length 1."""
    if isinstance(val, BivarPoly):
        return {j: len(c.ints) for j, c in enumerate(val.ycoeffs) if c.ints}
    return {0: 1}


def _product_work(a: dict[int, int], b: dict[int, int]) -> tuple[int, dict[int, int]]:
    """The coefficient products of the schoolbook product of two shapes, one
    x-length times the other for each pair of nonzero y-coefficients, and an
    upper bound on the product's shape (cancellation only shortens it)."""
    out = {}
    for i, la in a.items():
        for j, lb in b.items():
            if out.get(i + j, 0) < la + lb - 1:
                out[i + j] = la + lb - 1
    return sum(a.values()) * sum(b.values()), out


def _power_work(shape: dict[int, int], n: int) -> int:
    """The coefficient products of BivarPoly's square-and-multiply to the
    n, each product's predicted on the predicted shapes of its operands."""
    work = 0

    def mul(a, b):
        nonlocal work
        products, out = _product_work(a, b)
        work += products
        return out

    ffield._power(mul, shape, n, {0: 1})
    return work


def _int(text: str, pos: int) -> int:
    """An integer literal; one past the interpreter's limit on the digits of
    an int conversion is a ParseError."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer of {len(text)} digits past the limit {limit}", pos,
                         (f"integer of at most {limit} digits",)) from None


class _Parser:
    """Recursive descent over expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := '-' factor | atom ('^' INT)*,
    atom := INT | NAME | '(' expr ')'.  Evaluates as it parses; the ring is
    whatever the scalar/variable environment supplies.  A run of unary
    minus signs is read in a loop, so only parentheses deepen the
    recursion."""

    def __init__(self, expr: str, env: dict, scalar):
        self.toks = _tokenize(expr)
        self.idx = 0
        self.depth = 0
        self.env = env
        self.scalar = scalar
        self.atoms = ("integer", "(") + tuple(sorted(env))

    def peek(self):
        return self.toks[self.idx]

    def take(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def parse(self):
        val = self.expr()
        kind, text, pos = self.peek()
        if kind != "EOF":
            raise ParseError(
                f"trailing input {text!r}", pos, ("+", "-", "*", "^", "end")
            )
        return val

    def expr(self):
        kind, _, _ = self.peek()
        if kind == "+":
            self.take()
        val = self.term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                val = val + self.term()
            elif kind == "-":
                self.take()
                val = val - self.term()
            else:
                return val

    def term(self):
        val = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            (ax, ay), (bx, by) = _degrees(val), _degrees(rhs)
            _check_degree(max(ax + bx, ay + by), pos)
            _check_terms(min(_terms(val) * _terms(rhs), (ax + bx + 1) * (ay + by + 1)), pos)
            ffield.check_budget(f"product at offset {pos} of the parse",
                                _product_work(_shape(val), _shape(rhs))[0])
            val = val * rhs
        return val

    def factor(self):
        negate = False
        while self.peek()[0] == "-":
            self.take()
            negate = not negate
        val = self.atom()
        while self.peek()[0] == "^":
            self.take()
            kind, text, pos = self.peek()
            if kind != "INT":
                raise ParseError("exponent must be an integer", pos, ("integer",))
            self.take()
            n = _int(text, pos)
            dx, dy = _degrees(val)
            _check_degree(n * max(dx, dy), pos)
            t = _terms(val)
            _check_terms(min(comb(t + n - 1, n) if t else 1, (n * dx + 1) * (n * dy + 1)), pos)
            if isinstance(val, BivarPoly):
                ffield.check_budget(f"power at offset {pos} of the parse", _power_work(_shape(val), n))
            val = val ** n
        return -val if negate else val

    def atom(self):
        kind, text, pos = self.take()
        if kind == "INT":
            return self.scalar(_int(text, pos))
        if kind == "NAME":
            if text not in self.env:
                raise ParseError(f"unknown variable {text!r}", pos, self.atoms)
            return self.env[text]
        if kind == "(":
            if self.depth == MAX_PARSE_NESTING:
                raise ParseError(f"parentheses nested past the bound {MAX_PARSE_NESTING}", pos,
                                 (f"nesting at most {MAX_PARSE_NESTING} deep",))
            self.depth += 1
            val = self.expr()
            self.depth -= 1
            kind, _, pos = self.peek()
            if kind != ")":
                raise ParseError("unbalanced parenthesis", pos, (")",))
            self.take()
            return val
        raise ParseError(f"unexpected token {text!r}", pos, self.atoms)


def parse_poly(expr: str, field: FiniteField) -> BivarPoly:
    """Exact bivariate polynomial from an expression in x and y."""
    one = FFPoly(field, [1])
    env = {
        "x": BivarPoly(field, [FFPoly(field, [0, 1])]),
        "y": BivarPoly(field, [FFPoly(field, []), one]),
    }

    def scalar(n: int) -> BivarPoly:
        return BivarPoly(field, [FFPoly(field, [n % field.p])])

    return _Parser(expr, env, scalar).parse()


def parse_unipoly(expr: str, field: FiniteField, what: str) -> FFPoly:
    """Univariate polynomial in x (no y allowed)."""
    F = parse_poly(expr, field)
    if F.deg_y() > 0:
        raise ParseError(f"{what} must not involve y", 0, ("x-only expression",))
    return F.ycoeff(0)


def parse_elem(expr: str, field: FiniteField) -> FFElem:
    """Field element from an expression in t (a generator over GF(p))."""
    env = {"t": field.gen()}

    def scalar(n: int) -> FFElem:
        return field.elem(n % field.p)

    val = _Parser(expr, env, scalar).parse()
    if not isinstance(val, FFElem):
        raise ParseError("expected a field element", 0, ("t", "integer"))
    return val


class JobSpec(Record):
    """One CLI invocation: the command plus its echoed parameters (a dict)."""

    __slots__ = ("command", "params")


def _frac(x) -> str:
    return str(Fraction(x))


def _place_json(name: str, pl: PlaceExt) -> dict:
    return {
        "name": name,
        "base": repr(pl.base),
        "side": pl.side,
        "e": pl.e,
        "f": pl.f,
        "d_min": pl.dmin,
        "d_max": pl.dmax,
        "d_exact": pl.d_exact,
        "residue_degree_abs": pl.residue_degree_abs(),
        "refinement": [
            [k, None if s is None else _frac(s), r] for k, s, r in pl.refinement
        ],
    }


def _witnesses(places) -> tuple[list, dict]:
    """Report witnesses for (name, place) pairs, in order, and their :d
    bounds, each the place's d_range."""
    places = list(places)
    wits = [_place_json(name, pl) for name, pl in places]
    return wits, {name + ":d": list(pl.d_range) for name, pl in places}


def _report(job: JobSpec, verdict: str, witnesses=(), bounds=None, notes=(),
            data=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "job": {"command": job.command, **job.params},
        "verdict": verdict,
        "witnesses": list(witnesses),
        "bounds": dict(bounds or {}),
        "notes": list(notes),
        "data": dict(data or {}),
    }


def _field_of(job: JobSpec) -> FiniteField:
    return make_field(job.params["p"], job.params.get("k", 1))


def _function_field_poly(job: JobSpec) -> BivarPoly:
    """The parsed --F, refused if it is reducible over K(x).

    Only a definite answer refuses F.  When the irreducibility test refuses
    its work (BudgetExceeded, its one undecided answer), F goes on to the
    engine, whose exact genus check still catches a reducible F.  A constant
    in y is left to the engine as well: it is no polynomial in y to factor.
    """
    F = parse_poly(job.params["F"], _field_of(job))
    if F.deg_y() < 1:
        return F
    try:
        irreducible = is_irreducible_over_ratfield(F)
    except BudgetExceeded:
        irreducible = True
    if not irreducible:
        raise ReducibleDefiningPolynomial(
            f"reducible defining polynomial: {F.to_str()} factors over "
            f"GF({F.field.order})(x)"
        )
    return F


def _run_analyze(job: JobSpec):
    F = _function_field_poly(job)
    rt = ram_table(F, max_depth=job.params["max_depth"])
    gr = genus_from_table(rt)
    wits, bounds = _witnesses(
        (f"{P!r}#{idx}", pl) for P, pls in rt.rows for idx, pl in enumerate(pls)
    )
    bounds["different_degree"] = list(gr.diff_degree_bounds)
    bounds["genus"] = [gr.genus, gr.genus_hi]
    verdict = "exact" if gr.exact else "bounds"
    data = {"m": rt.m, "genus": gr.genus, "genus_exact": gr.exact}
    return 0, _report(job, verdict, wits, bounds, (), data)


def _run_check_theorem(job: JobSpec):
    K = _field_of(job)
    F = parse_poly(job.params["F"], K)
    f = parse_unipoly(job.params["f"], K, "--f")
    v = check_theorem(F, f, max_depth=job.params["max_depth"])
    wits, bounds = _witnesses(sorted(v.witnesses.items()))
    data = {"failed_conditions": list(v.failed_conditions)}
    if v.hypotheses is not None:
        h = v.hypotheses
        data["hypotheses"] = {
            "m": h.m, "n": h.n, "r": h.r, "p": h.p,
            "d_prime_min": h.d_prime_min,
        }
        data["conclusion"] = v.conclusion
    verdict = "holds" if v.holds else "fails"
    return (0 if v.holds else 1), _report(job, verdict, wits, bounds, v.notes, data)


def _climb_hypotheses(job: JobSpec) -> RamHypotheses:
    p = job.params
    return RamHypotheses(m=p["m"], n=p["n"], r=p["r"], p=p["p"],
                         d_prime_min=p.get("d_prime_min"))


def _run_climb(job: JobSpec):
    h, levels = _climb_hypotheses(job), job.params["levels"]
    limit = sys.get_int_max_str_digits()
    if limit and levels >= 0:
        # the last level prints the largest numbers; past 4 * limit levels
        # its degree m^levels >= 16^limit is too long unbuilt
        lv = climb_level(h, min(levels, 4 * limit))
        g = lv.genus_contribution
        if max(lv.degree, lv.d_bound, g.numerator, g.denominator) >= 10**limit:
            raise InvalidOption(f"--levels {levels} prints integers past {limit} digits")
    rep = climb(h, levels)
    data = {
        "c": _frac(rep.c),
        "levels": [
            {
                "i": lv.i,
                "degree": lv.degree,
                "d_bound": lv.d_bound,
                "genus_contribution": _frac(lv.genus_contribution),
            }
            for lv in rep.levels
        ],
        "series_terms": [_frac(t) for t in rep.series_terms],
        "series_partial_sums": [_frac(s) for s in rep.series_partial_sums],
    }
    bounds = {
        f"level_{lv.i}:d": [lv.d_bound, lv.d_bound] for lv in rep.levels
    }
    code = 0 if rep.verdict == "InfiniteGenus" else 1
    return code, _report(job, rep.verdict, (), bounds, rep.notes, data)


def _run_family(job: JobSpec):
    K = family_field(job.params["q"])
    params = FamilyParams(
        q=job.params["q"],
        a=parse_elem(job.params["a"], K),
        b=parse_elem(job.params["b"], K),
        g=parse_unipoly(job.params["g"], K, "--g"),
    )
    rep = verify_family_facts(params)
    wits, bounds = _witnesses(sorted(rep.witnesses.items()))
    data = {
        "F": rep.tower.F.to_str(),
        "m": params.m,
        "c": repr(params.c),
        "checks": [
            {"name": c.name, "title": c.title, "passed": c.passed,
             "detail": c.detail}
            for c in rep.checks
        ],
    }
    ok = rep.all_pass
    return (0 if ok else 1), _report(
        job, "true" if ok else "fails", wits, bounds, rep.notes, data
    )


def _run_genus(job: JobSpec):
    F = _function_field_poly(job)
    rt = ram_table(F, max_depth=job.params["max_depth"])
    gr = genus_from_table(rt)
    # the point count is exact at the genus bound, and refuses any cap below it
    cap = max(1, rt.genus_bound())
    z = zeta_genus(F, cap, rt)
    notes = []
    if not gr.exact:
        D = 2 * z - 2 + 2 * rt.m
        if not gr.diff_degree_bounds[0] <= D <= gr.diff_degree_bounds[1]:
            raise InconsistentOracle(
                f"point-count genus {z} needs different degree {D}, outside "
                f"the window {list(gr.diff_degree_bounds)}"
            )
        open_ds = len(rt.missing_exact())
        if open_ds == 1:
            reconcile_different(rt, z)  # raises unless z makes the open d whole
            notes.append(
                "wild different exponents were fixed by the independent "
                "point-count genus oracle"
            )
        else:
            # z fixes the sum of the open exponents, not each one
            notes.append(
                f"{open_ds} wild different exponents stay windows; the "
                "independent point-count genus fixes their sum"
            )
        gr = gr.replace(genus=z, exact=True, diff_degree_bounds=(D, D))
    genus = gr.genus
    agree = gr.exact and genus == z
    bounds = {
        "different_degree": list(gr.diff_degree_bounds),
        "genus": [genus, genus],
    }
    data = {"genus": genus, "zeta_genus": z, "riemann_hurwitz_genus": genus,
            "cap": cap}
    verdict = "true" if agree else "false"
    return (0 if agree else 1), _report(job, verdict, (), bounds, notes, data)


_RUNNERS = {
    "analyze": _run_analyze,
    "check-theorem": _run_check_theorem,
    "climb": _run_climb,
    "family": _run_family,
    "genus": _run_genus,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job, under the factorization seed TOWERLAB_SEED if set;
    returns (exit_code, report), a structured error report with 2 on errors."""
    try:
        seed = os.environ.get("TOWERLAB_SEED")
        if seed is not None:
            try:
                ffield.FACTOR_SEED = int(seed)
            except ValueError:
                raise InvalidOption(f"TOWERLAB_SEED must be an integer, got {seed!r}") from None
        depth = job.params.get("max_depth", 1)
        if depth < 1:
            raise InvalidOption(f"--max-depth must be at least 1, got {depth}")
        return _RUNNERS[job.command](job)
    except TowerlabError as exc:
        rep = _report(job, "error")
        rep["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return 2, rep


def _text_summary(job: JobSpec, report: dict) -> str:
    lines = [f"{job.command}: verdict {report['verdict']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"  {err['type']}: {err['message']}")
        return "\n".join(lines)
    data = report["data"]
    if report["witnesses"]:
        rows = []
        for w in report["witnesses"]:
            lo, hi = report["bounds"][w["name"] + ":d"]
            rows.append((
                w["name"], str(w["e"]), str(w["f"]),
                str(lo) if lo == hi else f"[{lo},{hi}]",
                " ; ".join(
                    f"{k} @ {s if s is not None else 'inf'}"
                    + (f" -> {r}" if r is not None else "")
                    for k, s, r in w["refinement"]
                ),
            ))
        head = ("place", "e", "f", "d", "refinement")
        widths = [
            max(len(head[c]), *(len(r[c]) for r in rows))
            for c in range(len(head))
        ]
        fmt = "  ".join("{:<%d}" % w for w in widths)
        lines.append("  " + fmt.format(*head))
        for r in rows:
            lines.append("  " + fmt.format(*r))
    if job.command == "climb":
        lines.append("  level  degree  d_bound  partial_sum")
        for lv, s in zip(data["levels"], data["series_partial_sums"]):
            lines.append(
                f"  {lv['i']:>5}  {lv['degree']:>6}  {lv['d_bound']:>7}  {s}"
            )
        if job.params["levels"] <= 4:
            lines.append("")
            lines.append(render_pyramid(_climb_hypotheses(job), job.params["levels"]))
    if job.command == "family":
        for c in data["checks"]:
            mark = "pass" if c["passed"] else "FAIL"
            lines.append(f"  ({c['name']}) {mark}  {c['title']}: {c['detail']}")
    if job.command == "check-theorem" and data["failed_conditions"]:
        for reason in data["failed_conditions"]:
            lines.append(f"  failed {reason}")
    if "genus" in data and data.get("genus_exact", True):
        lines.append(f"  genus = {data['genus']}")
    elif "genus" in data:
        lines.append("  genus in [{}, {}]".format(*report["bounds"]["genus"]))
    if "zeta_genus" in data:
        lines.append(f"  independent point-count genus = {data['zeta_genus']}")
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="towerlab",
        description="ramification analysis for recursive towers of function "
        "fields over finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, poly=True):
        sp.add_argument("--p", type=int, required=True, help="characteristic")
        sp.add_argument("--k", type=int, default=1,
                        help="extension degree, base field GF(p^k)")
        if poly:
            sp.add_argument("--F", required=True,
                            help="defining polynomial F(x, y)")
        sp.add_argument("--max-depth", type=int, default=8, dest="max_depth")
        sp.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")

    sp = sub.add_parser("analyze", help="ramification table and genus bounds")
    common(sp)

    sp = sub.add_parser("check-theorem",
                        help="verify the infinite-genus criterion for (F, f)")
    common(sp)
    sp.add_argument("--f", required=True,
                    help="monic irreducible f(x); the criterion uses its "
                    "zero on both sides")

    sp = sub.add_parser("climb", help="per-level lower bounds in the tower")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d-prime-min", type=int, default=None,
                    dest="d_prime_min")
    sp.add_argument("--levels", type=int, default=8)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("family",
                        help="build and verify one member of the built-in "
                        "wild-tower family")
    sp.add_argument("--q", type=int, required=True, help="prime power")
    sp.add_argument("--a", default="0", help="element of GF(q), in t")
    sp.add_argument("--b", default="1", help="nonzero element of GF(q), in t")
    sp.add_argument("--g", required=True, help="polynomial in x, deg < q+1")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("genus",
                        help="genus with an independent point-count cross-check")
    common(sp)
    return ap


def main(argv=None) -> int:
    # a polynomial or element text may start with "-", which argparse would
    # read as an option: after --F, --f, --g, --a or --b it is the value
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--F", "--f", "--g", "--a", "--b") and arg.startswith("-"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = _build_argparser().parse_args(joined)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "json") and v is not None
    }
    job = JobSpec(command=args.command, params=params)
    code, report = run(job)
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_text_summary(job, report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
