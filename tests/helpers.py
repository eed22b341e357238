"""Shared constructors for the test suite: the base fields, the canonical
one-parameter family instances, the fixed comparison curves, the sweep
benchmark's curve pool, the curves of the CLI report jobs, and the Bareiss
resultant kept as a reference for ffield.resultant_y."""

import functools
import importlib.util
import json
import math
import os

from towerlab.ffield import BivarPoly, FFPoly, _pdivmod, _pmul, _psub, make_field
from towerlab.checker import FamilyParams, build_family
from towerlab.cli import parse_poly

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def bivar(field, d):
    """BivarPoly from {(i, j): int or FFElem}; ints are reduced mod p so that
    -1 means the additive inverse of one on every field."""
    return BivarPoly.from_coeff_dict(
        field,
        {k: (field.elem(v % field.p) if isinstance(v, int) else v) for k, v in d.items()},
    )


def unipoly(field, coeffs):
    return FFPoly(field, [field.elem(c % field.p) if isinstance(c, int) else c for c in coeffs])


def family_params(q):
    """The canonical family instance used throughout: a = 0, g = x + 1, and
    b = 1 except over GF(4) where b is the field generator."""
    if q == 2:
        K = F2
    elif q == 3:
        K = F3
    elif q == 4:
        K = F4
    elif q == 5:
        K = F5
    else:
        raise ValueError(q)
    b = K.gen() if q == 4 else K.one()
    return FamilyParams(q=q, a=K.zero(), b=b, g=unipoly(K, [1, 1]))


def family_F(q):
    return build_family(family_params(q)).F


# y^2 = x^3 + x over GF(5): ramifies exactly at x, x +- 2, infinity, genus 1
def elliptic5():
    return bivar(F5, {(0, 2): 1, (3, 0): -1, (1, 0): -1})


# y^3 = x(x+1)^2 over GF(5): tame everywhere, genus 0
def kummer5():
    return bivar(F5, {(0, 3): 1, (3, 0): -1, (2, 0): -2, (1, 0): -1})


# y = x over GF(2): the trivial degree-1 step, genus 0
def line2():
    return bivar(F2, {(0, 1): 1, (1, 0): 1})


# y^3 = x over GF(2): tame Kummer cover, genus 0
def cubic2():
    return bivar(F2, {(0, 3): 1, (1, 0): 1})


# y^2 = x^5 + 2x + 1 over GF(3): hyperelliptic, tame everywhere, genus 2
def hyper3():
    return bivar(F3, {(0, 2): 1, (5, 0): -1, (1, 0): -2, (0, 0): -1})


def bareiss_resultant_y(F: BivarPoly, G: BivarPoly) -> FFPoly:
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
    # the elimination runs on coefficient lists (see the kernels above)
    N = m + n
    rows = []
    frow = [F.ycoeff(m - i).ints for i in range(m + 1)]
    grow = [G.ycoeff(n - i).ints for i in range(n + 1)]
    for r in range(n):
        rows.append([[]] * r + frow + [[]] * (n - 1 - r))
    for r in range(m):
        rows.append([[]] * r + grow + [[]] * (m - 1 - r))
    sign = 1
    prev = [1]
    for col in range(N - 1):
        pivot = None
        for r in range(col, N):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return FFPoly(field, [])
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        top = rows[col]
        a = top[col]
        for r in range(col + 1, N):
            row = rows[r]
            b = row[col]
            for c in range(col + 1, N):
                num = _psub(field, _pmul(field, a, row[c]), _pmul(field, b, top[c]))
                q, rem = _pdivmod(field, num, prev)
                if rem:
                    raise ValueError("division was not exact")
                row[c] = q
            row[col] = []
        prev = a
    det = rows[N - 1][N - 1]
    return FFPoly._of(field, det if sign == 1 else _psub(field, [], det))


@functools.cache
def bench_workloads():
    """bench/workloads.py, loaded once by path: bench is not a package."""
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_pool():
    """The sweep benchmark's pool curves (bench/goldens.json) and its pinned
    degree-10 curve over GF(5)."""
    workloads = bench_workloads()
    with open(os.path.join(BENCH, "goldens.json")) as fh:
        specs = json.load(fh)["sweep"]["pool"] + [workloads.PINNED]
    return [workloads.make_curve(spec) for spec in specs]


def cli_report_curves():
    """The curves of the ten report jobs of bench/workloads.CLI_JOBS."""
    fam = "(x+1)*y^3+(x+1)*y+x^3"
    out = [
        parse_poly(fam, F2),
        parse_poly("y^2-x^3-x", make_field(5)),
        parse_poly("y^2+x", F4),
    ]
    for K, b in [(F2, F2.one()), (F4, F4.gen())]:
        params = FamilyParams(q=K.order, a=K.zero(), b=b, g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out


def family_curves(qs=(2, 3, 4, 5, 7, 8, 9)):
    """The family with a = 0, b = 1 and g = x + 1 at each q."""
    out = []
    for q in qs:
        p = next(p for p in (2, 3, 5, 7) if q % p == 0)
        K = make_field(p, round(math.log(q, p)))
        params = FamilyParams(q=q, a=K.zero(), b=K.one(), g=unipoly(K, [1, 1]))
        out.append(build_family(params).F)
    return out
