"""The CLI contract on seeded random jobs: every job run through cli.main
with --json ends in exit 0, 1 or 2 with a report that validates against
the shipped schema; 1 comes only with a non-error verdict, and 2 with an
error naming a TowerlabError subclass.  Each text is passed as --opt=text
or as --opt text, at random, and random F may start with a minus.  The
draws cover malformed text, huge exponents, characteristics that are not
prime, extension degrees below one, reducible and inseparable F, and
family orders that are no prime power or lie past the family's bound.  A
check-theorem job on an F inseparable in y or in x ends in exit 1 with that
failed precondition, named by its variable.  Some genus jobs run valid
curves at --max-depth=8, so the sweep reaches the constant-field
certificate and the point count, whose work budget refuses --cap=40."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import jsonschema
import pytest

import towerlab
from towerlab import cli
from towerlab.errors import TowerlabError

SEED = 20261019
JOBS = 120

PS = [0, 1, 2, 3, 4, 5, 7, 9, -3]
KS = [0, 1, 2, 3]
MALFORMED = ["", "y^", "x+*y", "(y+x", "y)+1", "y^-2", "y^x", "2y", "y $ x", "z+y", "y^^2", "--y", "t"]
HUGE = [
    "x^99999999999999",
    "y^100000+x",
    "(x+y)^600",
    "(x+y+1)^200",
    "y^2+x^513",
    "y^512+x^512",
    "y^2+" + "9" * 5000,
    "(" * 400 + "y+x" + ")" * 400,
    "-" * 2000 + "y^2+x^3",
]
SPECIAL_F = [
    "y^2-x^2",  # reducible
    "(y-x)*(y+x+1)",
    "(y-x)^2",
    "y^2+x",  # inseparable over GF(2)
    "y^3-x",  # inseparable over GF(3)
    "y^9-y-x^4-x",
    "x+1",  # constant in y
    "0",
    "y",
    "(x+1)*y^3+(x+1)*y+x^3",
    "y^2-x^3-x",
    "-y^2+x^5+1",
]
# (p, F, v) with F inseparable in v over every GF(p^k)
INSEPARABLE = [
    (2, "y^2+x", "y"),
    (3, "y^3-x", "y"),
    (2, "(x^2+1)*y^4+y^3+1", "x"),
    (3, "x^3*y+y^2+1", "x"),
]
# (p, F) curves a genus job runs to the end at --max-depth=8: two constant
# field extensions that the certificate refuses after its walk, curves whose
# point count runs, and a genus-2 curve over GF(3) whose certificate walks
# to GF(27)
GENUS_CURVES = [
    (5, "y^2-2"),
    (2, "y^2+y+1"),
    (5, "y^2-x^3-x"),
    (2, "y^2+y+x^3"),
    (3, "y^2-x^3+x"),
    (3, "y^3-y-x^2"),
    (3, "y^2+2*y+x^6+x^5+x^3+2*x^2+x+2"),
]
ELEMS = ["0", "1", "t", "t+1", "t^2", "2*t", "x", "s", "", "t^99999999", "(t"]
UNIPOLYS = ["x", "x+1", "x^2+1", "x^2", "1", "0", "y", "x^3+x+1", "", "x^", "x^100000"]
QS = [0, 1, -4, 2, 3, 4, 5, 6, 8, 9, 12, 25, 100, 2**13, 10**18 + 9]


def _schema():
    path = os.path.join(os.path.dirname(towerlab.__file__), "schemas", "report.schema.json")
    with open(path) as fh:
        return json.load(fh)


def _error_names() -> set[str]:
    out, todo = set(), [TowerlabError]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


def _random_F(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 5)):
        c, i, j = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
        terms.append(f"{c}*x^{i}*y^{j}")
    terms.append(f"y^{rng.randint(1, 4)}")
    return rng.choice(["", "-"]) + rng.choice(["+", "-"]).join(terms)


def _text(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.15:
        return rng.choice(MALFORMED)
    if kind < 0.25:
        return rng.choice(HUGE)
    if kind < 0.55:
        return rng.choice(SPECIAL_F)
    return _random_F(rng)


def _text_option(rng: random.Random, name: str, value: str) -> list[str]:
    """--name=value or, as often, --name value: a value that starts with "-"
    must read the same either way."""
    return [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value]


def _draw(rng: random.Random) -> tuple[list[str], str | None]:
    """A job's argv, and the variable a check-theorem job on an INSEPARABLE
    F must name as a failed precondition (None for any other job)."""
    command = rng.choice(["analyze", "check-theorem", "genus", "family", "climb"])
    if command == "check-theorem" and rng.random() < 0.25:
        p, F, var = rng.choice(INSEPARABLE)
        argv = [command, f"--p={p}", f"--k={rng.choice([1, 2])}", *_text_option(rng, "F", F)]
        return argv + ["--f=x", "--json"], var
    if command == "family":
        argv = [command, f"--q={rng.choice(QS)}", *_text_option(rng, "g", rng.choice(UNIPOLYS))]
        argv += _text_option(rng, "a", rng.choice(ELEMS)) + _text_option(rng, "b", rng.choice(ELEMS))
    elif command == "climb":
        m, n, r, p = (rng.randint(-1, 4) for _ in range(4))
        argv = [command, f"--m={m}", f"--n={n}", f"--r={r}", f"--p={p}"]
        argv.append(f"--levels={rng.choice([-1, 0, 1, 3, 6])}")
    elif command == "genus" and rng.random() < 0.4:
        p, F = rng.choice(GENUS_CURVES)
        argv = [command, f"--p={p}", "--k=1", *_text_option(rng, "F", F)]
        if rng.random() < 0.5:
            argv.append(f"--cap={rng.choice([1, 2, 40])}")
        return argv + ["--max-depth=8", "--json"], None
    else:
        argv = [command, f"--p={rng.choice(PS)}", f"--k={rng.choice(KS)}"]
        argv += _text_option(rng, "F", _text(rng))
        if command == "check-theorem":
            argv += _text_option(rng, "f", rng.choice(UNIPOLYS))
        if command == "genus" and rng.random() < 0.3:
            # an invalid cap, caps the point count can walk, and one the work
            # budget refuses
            argv.append(f"--cap={rng.choice([0, -1, 1, 2, 40])}")
        argv.append(f"--max-depth={rng.choice([1, 8])}")
    return argv + ["--json"], None


def test_seeded_jobs_keep_the_cli_contract(monkeypatch):
    rng = random.Random(SEED)
    schema, errors = _schema(), _error_names()
    inseparable = 0
    point_counts, refused_caps = [], []
    zeta_genus = cli.zeta_genus
    monkeypatch.setattr(cli, "zeta_genus", lambda *a: point_counts.append(a) or zeta_genus(*a))
    for _ in range(JOBS):
        argv, var = _draw(rng)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        rep = json.loads(buf.getvalue())
        jsonschema.validate(rep, schema)
        assert code in (0, 1, 2), argv
        assert (code == 2) == (rep["verdict"] == "error"), argv
        if code == 2:
            assert rep["error"]["type"] in errors, argv
            if "--cap=40" in argv and rep["error"]["type"] == "BudgetExceeded":
                refused_caps.append(argv)
        if var is not None:
            inseparable += 1
            assert code == 1, argv
            assert rep["data"]["failed_conditions"] == [
                f"precondition: F is inseparable in {var}: dF/d{var} = 0"
            ], argv
    assert inseparable, "no check-theorem job drew an inseparable F"
    assert point_counts, "no genus job reached the point count"
    assert refused_caps, "no --cap=40 job was refused by the work budget"


def test_a_reducible_F_of_the_largest_parsed_degree_is_answered_within_seconds():
    # y^512 + x^512 over GF(5) passes the parser's bounds; the degree analysis
    # leaves it to the reconstruction, whose fibre, and past it the engine's
    # residual u^512 + 1, are two irreducibles of degree 256: each split is
    # refused by its predicted work before it starts (it ran past 60 s)
    src = os.path.dirname(os.path.dirname(towerlab.__file__))
    entry = "import sys; from towerlab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, "analyze", "--p", "5", "--F", "y^512+x^512", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        timeout=3,
        check=False,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "BudgetExceeded"


@pytest.mark.xfail(
    raises=subprocess.TimeoutExpired,
    strict=True,
    reason="the constant-field certificate proves GF(p^2) by finding no point "
    "over GF(p): about 10^9 fibres over GF(10^9 + 7)",
)
def test_a_constant_field_extension_at_a_huge_prime_is_answered_within_seconds():
    # y^2 - 5 over GF(10^9 + 7) is irreducible (5 is no square there) and
    # its constant field is GF(p^2).  Its genus bound is 0, so the Hasse-Weil
    # certificate asks only whether GF(p) has a point, and only a walk
    # through all of GF(p) answers no
    src = os.path.dirname(os.path.dirname(towerlab.__file__))
    entry = "import sys; from towerlab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, "analyze", "--p", "1000000007", "--F", "y^2-5", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        timeout=3,
        check=False,
    )
    assert proc.returncode == 2
    assert "constant field extension" in json.loads(proc.stdout)["error"]["message"]
