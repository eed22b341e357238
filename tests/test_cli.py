import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import jsonschema
import pytest

import towerlab.ffield as ffield
from towerlab import basicfield, checker, cli, pyramid
from towerlab.checker import FAMILY_MAX_Q, FamilyParams, InvalidParams
from towerlab.cli import ParseError, parse_elem, parse_poly, parse_unipoly
from towerlab.ffield import FFPoly
from helpers import BENCH, F2, F4, F5, bench_workloads, bivar

FAM = "(x+1)*y^3+(x+1)*y+x^3"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


# -- expression parsing -------------------------------------------------------


def test_parse_poly_roundtrip():
    F = parse_poly(FAM, F2)
    assert F.to_str() == "(x + 1)*y^3 + (x + 1)*y + x^3"


def test_parse_precedence():
    # ^ binds tighter than *, which binds tighter than +
    F = parse_poly("x+2*y^2", F5)
    assert F == bivar(F5, {(1, 0): 1, (0, 2): 2})
    G = parse_poly("2*x^2", F5)
    assert G == bivar(F5, {(2, 0): 2})


def test_parse_unary_minus_and_mod_p():
    F = parse_poly("-x^2", F5)
    assert F == bivar(F5, {(2, 0): -1})
    assert parse_poly("7", F5) == bivar(F5, {(0, 0): 2})


def test_parse_parens():
    F = parse_poly("(x+1)*(y+1)", F2)
    assert F == bivar(F2, {(1, 1): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1})


@pytest.mark.parametrize(
    "expr,pos,expected",
    [
        ("x+", 2, ("(", "integer", "x", "y")),
        ("x^y", 2, ("integer",)),
        ("(x", 2, (")",)),
        ("x$", 1, ("(", ")", "*", "+", "-", "^", "integer", "variable")),
        ("2*", 2, ("(", "integer", "x", "y")),
        ("y^2+x^100000000", 6, ("degree at most 512",)),
        ("y^2+x^300*x^300", 9, ("degree at most 512",)),
        ("(x+y+1)^128", 8, ("at most 8192 terms",)),
        ("(x+1)^127*(y+1)^127", 9, ("at most 8192 terms",)),
    ],
)
def test_parse_errors_carry_position_and_expectations(expr, pos, expected):
    with pytest.raises(ParseError) as exc:
        parse_poly(expr, F2)
    assert exc.value.pos == pos
    assert exc.value.expected == expected
    assert f"offset {pos}" in str(exc.value)


def test_parser_refuses_deep_nesting_and_overlong_integers():
    # 101 parentheses and a 5000-digit literal used to escape as
    # RecursionError and ValueError; a run of minus signs is read in a loop
    assert parse_poly("(" * 100 + "y" + ")" * 100, F2) == parse_poly("y", F2)
    assert parse_poly("-" * 3001 + "y^2", F5) == -parse_poly("y^2", F5)
    assert parse_poly("--(-x)*y", F5) == -parse_poly("x*y", F5)
    for expr, pos, message in [
        ("(" * 101 + "y" + ")" * 101, 100, "parentheses nested past the bound 100"),
        ("(" * 5000 + "y" + ")" * 5000, 100, "parentheses nested past the bound 100"),
        ("y+" + "9" * 5000, 2, "integer of 5000 digits past the limit"),
        ("y^" + "9" * 5000, 2, "integer of 5000 digits past the limit"),
    ]:
        with pytest.raises(ParseError, match=message) as exc:
            parse_poly(expr, F2)
        assert exc.value.pos == pos


def test_superscript_digits_are_unexpected_characters_and_other_decimal_digits_read():
    # "²" is a digit to str.isdigit but not a decimal one; int() reads it
    # nowhere, while it reads the Arabic-Indic "٣" as 3
    with pytest.raises(ParseError, match="unexpected character '²'") as exc:
        parse_poly("y^2-x^3-x^²", F5)
    assert exc.value.pos == 10
    code, rep = run_json(["analyze", "--p", "5", "--F", "y^2-x^3-x^²", "--json"])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["message"].startswith("unexpected character '²' at offset 10")
    assert parse_poly("y^2-x^3-x+٣", F5) == parse_poly("y^2-x^3-x+3", F5)
    arabic = run_json(["analyze", "--p", "5", "--F", "y^2-x^3-x+٣", "--json"])
    ascii_ = run_json(["analyze", "--p", "5", "--F", "y^2-x^3-x+3", "--json"])
    assert arabic[1]["job"].pop("F") == "y^2-x^3-x+٣"
    ascii_[1]["job"].pop("F")
    assert arabic == ascii_


def test_a_power_past_the_degree_bound_exits_2():
    # the family at q = 256, typed out, is within the bound
    assert parse_poly("(x+1)*(y^257+y)-x^257", F2).deg_y() == 257
    argv = ["analyze", "--p", "2", "--F", "y^2+x^100000000"]
    code, rep = run_json(argv + ["--json"])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert "past the bound 512" in rep["error"]["message"]
    code, out = run_cli(argv)
    assert code == 2
    assert "ParseError: degree 100000000 past the bound 512" in out


def test_a_power_past_the_term_bound_exits_2():
    # a sparse power is bounded by its terms, not by the box of its degrees
    assert parse_poly("(x^256+y^256)^2", F2) == bivar(F2, {(512, 0): 1, (0, 512): 1})
    assert len(parse_poly("(x+y+1)^126", F5).ycoeffs) == 127
    argv = ["analyze", "--p", "1000000007", "--F", "y^2+(x+y+1)^256"]
    code, rep = run_json(argv + ["--json"])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert "up to 33153 terms past the bound 8192" in rep["error"]["message"]


def test_a_product_or_power_predicted_past_the_work_budget_is_refused():
    # few terms, but dense x-polynomials in every product: each square of
    # (x+y)^j multiplies y-coefficients of x-lengths up to j + 1
    big = ffield.make_field(1000000007)
    for expr, message in [
        ("(x+y)^512", "power at offset 6 of the parse: predicted work 1174371084 passes"),
        ("(x+y)^90*(x+y)^89", "product at offset 8 of the parse: predicted work 17141670 passes"),
    ]:
        with pytest.raises(ffield.BudgetExceeded, match=message):
            parse_poly(expr, big)
    # the largest prediction of the tests and the benchmark workloads
    assert cli._power_work(cli._shape(parse_poly("x+y+1", F5)), 126) == 4962711
    assert len(parse_poly("(x+y)^128", big).ycoeffs) == 129


def test_parse_unipoly_rejects_y():
    with pytest.raises(ParseError) as exc:
        parse_unipoly("x*y", F2, "f")
    assert exc.value.expected == ("x-only expression",)


def test_parse_elem():
    g = F4.gen()
    assert parse_elem("t^2+t", F4) == g * g + g
    assert parse_elem("3", F5) == F5.elem(3)


# -- reports ------------------------------------------------------------------


def _load_schema():
    import towerlab

    path = os.path.join(os.path.dirname(towerlab.__file__), "schemas", "report.schema.json")
    with open(path) as fh:
        return json.load(fh)


ALL_COMMANDS = [
    ["analyze", "--p", "2", "--F", FAM, "--json"],
    ["analyze", "--p", "5", "--F", "y^2-x^3-x", "--json"],
    ["check-theorem", "--p", "2", "--F", FAM, "--f", "x", "--json"],
    ["check-theorem", "--p", "5", "--F", "y^2-x^3-x", "--f", "x", "--json"],
    ["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels", "6", "--json"],
    ["family", "--q", "2", "--a", "0", "--b", "1", "--g", "x+1", "--json"],
    ["genus", "--p", "2", "--F", FAM, "--json"],
    ["genus", "--p", "5", "--F", "y^2-x^3-x", "--json"],
]


def test_reports_validate_against_schema():
    schema = _load_schema()
    for argv in ALL_COMMANDS:
        _, rep = run_json(argv)
        jsonschema.validate(rep, schema)


def test_reports_are_deterministic():
    for argv in ALL_COMMANDS:
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2, argv


def test_analyze_family_report():
    code, rep = run_json(["analyze", "--p", "2", "--F", FAM, "--json"])
    assert code == 0
    assert rep["verdict"] == "bounds"
    assert rep["bounds"]["different_degree"] == [6, 10]
    assert rep["bounds"]["genus"] == [1, 3]
    assert rep["data"]["m"] == 3
    wild = next(w for w in rep["witnesses"] if w["e"] == 2)
    assert wild["refinement"] == [["y", "0", "u + 1"], ["y + 1", "-3/2", "u + 1"]]
    assert wild["d_min"] == 2 and wild["d_max"] == 6


def test_analyze_exact_report():
    code, rep = run_json(["analyze", "--p", "5", "--F", "y^2-x^3-x", "--json"])
    assert code == 0
    assert rep["verdict"] == "exact"
    assert rep["bounds"]["genus"] == [1, 1]


def test_check_theorem_exit_codes_and_payload():
    code, rep = run_json(["check-theorem", "--p", "2", "--F", FAM, "--f", "x", "--json"])
    assert code == 0
    assert rep["verdict"] == "holds"
    assert rep["data"]["hypotheses"] == {"m": 3, "n": 1, "r": 2, "p": 2, "d_prime_min": 2}
    assert rep["data"]["conclusion"] == "InfiniteGenus"
    code, rep = run_json(["check-theorem", "--p", "5", "--F", "y^2-x^3-x", "--f", "x", "--json"])
    assert code == 1
    assert rep["verdict"] == "fails"
    assert len(rep["data"]["failed_conditions"]) == 3


def test_check_theorem_honours_max_depth():
    code, rep = run_json(
        ["check-theorem", "--p", "2", "--F", FAM, "--f", "x", "--max-depth", "1", "--json"]
    )
    assert code == 2
    assert rep["error"]["type"] == "DepthExceeded"


def test_max_depth_below_one_is_an_error():
    for argv in (["analyze"], ["genus"], ["check-theorem", "--f", "x"]):
        for depth in ("0", "-3"):
            code, rep = run_json(argv + ["--p", "2", "--F", FAM, "--max-depth", depth, "--json"])
            assert code == 2
            assert rep["error"]["type"] == "InvalidOption"
            assert "--max-depth" in rep["error"]["message"]


def test_a_residual_over_a_prime_field_step_is_written_in_that_steps_root():
    # above x + 3 the first residual u^2 + 2u + 4 is irreducible over GF(5),
    # so the next stage's constants are GF(5)[u]/(u^2 + 2u + 4) and its
    # generator g is a root of that residual
    argv = ["analyze", "--p", "5", "--F", "y^4+3*x+y+3*x^2*y^2+4*y^3"]
    code, rep = run_json(argv + ["--json"])
    assert code == 0
    [w] = [w for w in rep["witnesses"] if w["name"] == "place(x + 3)#0"]
    assert w["refinement"] == [["y", "0", "u^2 + 2*u + 4"], ["y^2 + 2*y + 4", "-1/2", "u + g"]]
    assert "y @ 0 -> u^2 + 2*u + 4 ; y^2 + 2*y + 4 @ -1/2 -> u + g " in run_cli(argv)[1]


def test_climb_report():
    code, rep = run_json(
        ["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels", "6", "--json"]
    )
    assert code == 0
    assert rep["verdict"] == "InfiniteGenus"
    assert rep["data"]["c"] == "1/2"
    assert [lv["d_bound"] for lv in rep["data"]["levels"]] == [2, 4, 10, 28, 82, 244, 730]
    assert rep["bounds"]["level_6:d"] == [730, 730]


def test_family_report():
    code, rep = run_json(["family", "--q", "2", "--a", "0", "--b", "1", "--g", "x+1", "--json"])
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["data"]["F"] == "(x + 1)*y^3 + (x + 1)*y + x^3"
    assert rep["data"]["c"] == "1"
    assert [c["name"] for c in rep["data"]["checks"]] == ["a", "b", "c", "d", "e", "f", "g"]
    assert all(c["passed"] for c in rep["data"]["checks"])


def test_family_gf4_generator_parameter():
    code, rep = run_json(["family", "--q", "4", "--a", "0", "--b", "t", "--g", "x+1", "--json"])
    assert code == 0
    assert rep["verdict"] == "true"


def test_family_constraint_violation_is_an_error():
    code, rep = run_json(["family", "--q", "2", "--a", "0", "--b", "0", "--g", "x+1", "--json"])
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["error"]["type"] == "InvalidParams"
    assert "b != 0" in rep["error"]["message"]


@pytest.mark.parametrize("q", [8192, 16384, 65537, 10**18 + 9])
def test_family_past_its_bound_exits_2_at_once(q):
    # a cold family job took 7.2 s at q = 4096 and hung at q = 16384; the
    # prime 10^18 + 9 used to walk every divisor up to q
    start = time.perf_counter()
    code, rep = run_json(["family", "--q", str(q), "--g", "x+1", "--json"])
    assert time.perf_counter() - start < 3
    assert code == 2
    assert rep["error"]["type"] == "InvalidParams"
    assert f"FAMILY_MAX_Q = {FAMILY_MAX_Q}" in rep["error"]["message"]
    jsonschema.validate(rep, _load_schema())


def test_family_params_check_the_bound_first():
    K = ffield.make_field(2, 13)
    with pytest.raises(InvalidParams, match=f"FAMILY_MAX_Q = {FAMILY_MAX_Q}"):
        # b = 0 breaks a constraint too, but the bound is checked first
        FamilyParams(q=2**13, a=K.zero(), b=K.zero(), g=FFPoly(K, [1, 1]))


@pytest.mark.parametrize(
    "p,F,var",
    [(2, "(x^2+1)*y^4+y^3+1", "x"), (3, "y^3-x", "y")],
)
def test_check_theorem_on_an_inseparable_F_fails_a_named_precondition(p, F, var):
    code, rep = run_json(["check-theorem", "--p", str(p), "--F", F, "--f", "x", "--json"])
    assert code == 1
    assert rep["verdict"] == "fails"
    assert rep["data"]["failed_conditions"] == [
        f"precondition: F is inseparable in {var}: dF/d{var} = 0"
    ]


@pytest.mark.parametrize("F,deg", [("x", 0), ("0", -1)])
def test_analyze_names_the_y_degree_of_an_F_constant_in_y(F, deg):
    code, rep = run_json(["analyze", "--p", "3", "--F", F, "--json"])
    assert code == 2
    assert rep["error"] == {
        "type": "TowerlabError",
        "message": f"deg_y F = {deg} < 1: F defines no extension in y",
    }


def test_genus_reconcile_report():
    code, rep = run_json(["genus", "--p", "2", "--F", FAM, "--json"])
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["data"]["zeta_genus"] == 2
    assert rep["data"]["riemann_hurwitz_genus"] == 2
    assert rep["bounds"]["different_degree"] == [8, 8]
    assert any("oracle" in n for n in rep["notes"])


def test_error_report_shape():
    code, rep = run_json(["analyze", "--p", "4", "--F", "y^2+x", "--json"])
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["error"] == {"type": "NotPrime", "message": "4 is not prime"}
    assert rep["schema_version"] == 1
    jsonschema.validate(rep, _load_schema())


@pytest.mark.parametrize("command", ["analyze", "genus"])
def test_extension_degree_below_one_is_an_error(command):
    for k in ("0", "-1"):
        code, rep = run_json([command, "--p", "2", "--F", "y^2+x", "--k", k, "--json"])
        assert code == 2
        assert rep["verdict"] == "error"
        assert rep["error"]["type"] == "InvalidDegree"
        jsonschema.validate(rep, _load_schema())


@pytest.mark.parametrize("command", ["analyze", "genus"])
def test_reducible_defining_polynomial_is_a_user_error(command):
    # y^2 - x^2 = (y - x)(y + x): no function field, so no genus to report
    code, rep = run_json([command, "--p", "3", "--F", "y^2-x^2", "--json"])
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["error"]["type"] == "ReducibleDefiningPolynomial"
    assert rep["error"]["message"].startswith("reducible defining polynomial")
    assert "engine bug" not in rep["error"]["message"]
    jsonschema.validate(rep, _load_schema())


def test_undecided_irreducibility_test_does_not_refuse_F(monkeypatch):
    # past 16 modular factors the test refuses its work instead of answering;
    # an irreducible F must still be analyzed, not turned into an error
    def undecided(F):
        raise ffield.BudgetExceeded("subset search over 17 modular factors, past the limit of 16")

    argv = ["analyze", "--p", "2", "--F", FAM, "--json"]
    decided = run_json(argv)
    monkeypatch.setattr(cli, "is_irreducible_over_ratfield", undecided)
    assert run_json(argv) == decided
    assert decided[0] == 0


def test_an_engine_error_of_the_irreducibility_test_is_reported(monkeypatch):
    # only BudgetExceeded means undecided: any other error is no answer and
    # reaches the report
    def fault(F):
        raise cli.TowerlabError("Hensel lift needs coprime cofactors")

    monkeypatch.setattr(cli, "is_irreducible_over_ratfield", fault)
    code, rep = run_json(["analyze", "--p", "2", "--F", FAM, "--json"])
    assert code == 2
    assert rep["error"] == {"type": "TowerlabError", "message": "Hensel lift needs coprime cofactors"}


@pytest.mark.parametrize("F", ["y^2-x^2", "y^3-x^3", "(y-x)*(y^2+x+1)", "(y-x)^2"])
def test_reducible_F_over_a_large_prime_field_is_refused(F):
    # no fibre ever rules out a factor degree of a reducible F, and F = (y-x)^2
    # has no good fibre at all: neither walk may run through all of GF(p)
    code, rep = run_json(["analyze", "--p", "1000000007", "--F", F, "--json"])
    assert code == 2
    assert rep["error"]["type"] == "ReducibleDefiningPolynomial"


@pytest.mark.parametrize("F", ["y^2-x^3-x", "y^2+x^4+1"])
def test_elliptic_curves_over_a_large_prime_field_keep_genus_one(F):
    code, rep = run_json(["analyze", "--p", "1000000007", "--F", F, "--json"])
    assert code == 0
    assert rep["data"]["genus"] == 1


def test_genus_has_no_cap_option(capsys):
    # the point count runs at the curve's genus bound, the only cap at which
    # its genus is exact, so there is no cap to pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["genus", "--p", "2", "--F", FAM, "--cap", "3", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["genus", "--help"])
    assert exc.value.code == 0
    assert "--cap" not in capsys.readouterr().out


# the last four are genus-2 curves whose counts up to GF(q^2) fit a smaller
# genus: at --cap 1 the point count once reported genus 0, 1, 1 and 1 with
# verdict true
@pytest.mark.parametrize("p,F,genus", [
    (2, FAM, 2),
    (5, "y^2-x^3-x", 1),
    (3, "y^2+2*y+x^6+x^5+x^3+2*x^2+x+2", 2),
    (2, "y^2+y+x^5", 2),
    (2, "(x^2+1)*y^3+x^2*y^2+x*y+x", 2),
    (2, "y^3+x^2*y^2+(x^2+x+1)*y+x^2", 2),
    (3, "y^3+2*x^2*y^2+2*x^2*y+(x^2+x)", 2),
])
def test_genus_runs_the_point_count_at_the_genus_bound(p, F, genus):
    rt = basicfield.ram_table(parse_poly(F, ffield.make_field(p)))
    code, rep = run_json(["genus", "--p", str(p), "--F", F, "--json"])
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["data"]["genus"] == rep["data"]["zeta_genus"] == genus
    assert rep["data"]["cap"] == max(1, rt.genus_bound())


def test_genus_with_two_open_wild_differents_reads_their_sum_off_the_point_count():
    # two wild places keep d windows; the window [1, 3] holds the point-count
    # genus 2, which fixes the sum of the two exponents but neither one
    F = "(x^2+1)*y^4+(x^2+x)*y^3+(x^2+x+1)*y^2+x"
    code, rep = run_json(["analyze", "--p", "2", "--F", F, "--json"])
    assert code == 0
    assert rep["bounds"]["genus"] == [1, 3]
    code, rep = run_json(["genus", "--p", "2", "--F", F, "--json"])
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["data"]["genus"] == rep["data"]["zeta_genus"] == 2
    assert rep["bounds"]["different_degree"] == [10, 10]
    assert rep["notes"] == [
        "2 wild different exponents stay windows; the independent point-count "
        "genus fixes their sum"
    ]
    jsonschema.validate(rep, _load_schema())


def test_genus_outside_the_window_of_two_open_differents_is_an_inconsistent_oracle(monkeypatch):
    F = "(x^2+1)*y^4+(x^2+x)*y^3+(x^2+x+1)*y^2+x"
    monkeypatch.setattr(cli, "zeta_genus", lambda F, cap, rt: 4)
    code, rep = run_json(["genus", "--p", "2", "--F", F, "--json"])
    assert code == 2
    assert rep["error"] == {
        "type": "InconsistentOracle",
        "message": "point-count genus 4 needs different degree 14, outside the window [8, 12]",
    }


Q3_FAMILY = "(x+1)*y^4+(x+1)*y-x^4"


def test_genus_refuses_a_point_count_past_the_budget():
    # the default cap is the top of the genus window, 6, so the oracle would
    # count points over GF(3^k) up to k = 12; the walk up to k = 10 alone
    # passes the budget
    code, rep = run_json(["genus", "--p", "3", "--F", Q3_FAMILY, "--json"])
    assert code == 2
    assert rep["error"]["type"] == "BudgetExceeded"
    assert rep["error"]["message"].startswith("point count at cap 6 over GF(3^k), k <= 10:")


def test_the_point_count_refuses_a_cap_below_the_genus_bound_of_the_q3_family():
    # the genus is 3, but only counts up to GF(3^12), its bound 6, certify
    # it: at cap 3 a smaller genus could fit, so the cap is refused
    F = parse_poly(Q3_FAMILY, ffield.make_field(3))
    with pytest.raises(basicfield.CapTooSmall, match="cap 3 is below the genus bound 6"):
        basicfield.zeta_genus(F, 3)


def test_analyze_certifies_a_curve_whose_first_odd_degree_place_has_degree_3():
    # no point over GF(3), 10 over GF(9), 24 over GF(27): the constant field
    # is GF(3), and only the Hasse-Weil walk up to GF(27) proves it
    F = "y^2+2*y+x^6+x^5+x^3+2*x^2+x+2"
    code, rep = run_json(["analyze", "--p", "3", "--F", F, "--json"])
    assert code == 0
    assert rep["data"]["genus"] == 2


def test_genus_walks_the_constant_field_certificate_once(monkeypatch):
    # the Riemann-Hurwitz genus and the point count ask the certificate of
    # one curve: its walk to GF(27) runs once, before the point count walks
    # GF(3^k) for k <= 4
    walked = []
    fibre_points = basicfield._fibre_points

    def spy(F, k):
        walked.append(k)
        return fibre_points(F, k)

    monkeypatch.setattr(basicfield, "_fibre_points", spy)
    code, rep = run_json(["genus", "--p", "3", "--F", "y^2+2*y+x^6+x^5+x^3+2*x^2+x+2", "--json"])
    assert code == 0
    assert rep["data"]["zeta_genus"] == rep["data"]["genus"] == 2
    assert walked == [1, 3, 1, 2, 3, 4]


GF2_GENUS_2 = "y^2+(x^3+x+1)*y+x^6+x^5+x^4+x^2+1"


def test_genus_at_a_cap_too_small_is_cap_too_small_not_a_constant_field():
    # at cap 1 the counts would reach GF(4) only, where every place has
    # degree 2; a locus place of degree 3 shows that the constant field is
    # GF(2), and the bound 2 refuses cap 1
    F = parse_poly(GF2_GENUS_2, F2)
    with pytest.raises(basicfield.CapTooSmall, match="cap 1 is below the genus bound 2"):
        basicfield.zeta_genus(F, 1)
    assert basicfield.zeta_genus(F, 2) == basicfield.genus_basic(F).genus == 2
    code, rep = run_json(["genus", "--p", "2", "--F", GF2_GENUS_2, "--json"])
    assert code == 0
    assert rep["data"]["zeta_genus"] == rep["data"]["riemann_hurwitz_genus"] == 2


@pytest.mark.parametrize("cap", [8, 40, 1000000000])
def test_genus_budget_refuses_an_explicit_cap_past_it(cap):
    # the budget binds every cap: one past it is refused before any walk,
    # and a huge one stops at the first field past the budget
    F = parse_poly("y^2-x^3-x", F5)
    with pytest.raises(ffield.BudgetExceeded, match=rf"^point count at cap {cap} over GF\(5\^k\), k <= 8:"):
        basicfield.zeta_genus(F, cap)


def test_invalid_hypotheses_cli():
    code, rep = run_json(
        ["climb", "--m", "4", "--n", "1", "--r", "2", "--p", "2", "--levels", "3", "--json"]
    )
    assert code == 2
    assert rep["error"]["type"] == "InvalidHypotheses"


@pytest.mark.parametrize("p", ["4", "6", "10"])
def test_climb_refuses_a_composite_characteristic(p):
    code, rep = run_json(["climb", "--m", "3", "--n", "1", "--r", "4", "--p", p, "--json"])
    assert code == 2
    assert rep["error"] == {"type": "InvalidHypotheses", "message": "hypothesis violated: p prime"}


CLIMB = ["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels"]


@pytest.mark.parametrize("d", ["0", "1"])
def test_climb_refuses_a_d_prime_min_below_r(d):
    code, rep = run_json(CLIMB + ["1", "--d-prime-min", d, "--json"])
    assert code == 2
    assert rep["error"] == {"type": "InvalidHypotheses", "message": "hypothesis violated: d_prime_min >= r"}
    assert rep["job"]["d_prime_min"] == int(d)


def test_climb_refuses_levels_whose_numbers_pass_the_int_string_limit():
    code, rep = run_json(CLIMB + ["9100", "--json"])
    assert code == 2 and rep["error"]["type"] == "InvalidOption"
    code, out = run_cli(CLIMB + ["9100"])
    assert code == 2 and "InvalidOption" in out
    assert run_cli(CLIMB + ["8000"])[0] == 0


def test_climb_refuses_exactly_the_levels_that_print_past_the_limit():
    # at a limit of 640 digits level 1340 prints, and 1341 prints a number
    # of more digits
    h = pyramid.RamHypotheses(m=3, n=1, r=2, p=2)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match="integer string conversion"):
            str(pyramid.climb_level(h, 1341).genus_contribution)
        for mode in ([], ["--json"]):
            assert run_cli(CLIMB + ["1340"] + mode)[0] == 0
            code, out = run_cli(CLIMB + ["1341"] + mode)
            assert code == 2 and "InvalidOption" in out
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("F", ["y^2-x^3-x", "y^2+x^4+1"])
def test_analyze_over_a_large_prime_field_walks_no_list_of_places(F):
    # GF(10^9 + 7) has 10^9 places of degree 1: neither the Eisenstein scan
    # nor the constant-field check may build them all
    src = os.path.dirname(os.path.dirname(cli.__file__))
    entry = "import sys; from towerlab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, "analyze", "--p", "1000000007", "--F", F, "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        timeout=10,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["data"]["genus"] == 1


def test_a_characteristic_past_the_primality_bound_exits_2():
    # 2^89 - 1 is prime, but past the bound where Miller-Rabin is a proof
    code, rep = run_json(["analyze", "--p", str(2**89 - 1), "--F", "y^2-x^3-x", "--json"])
    assert code == 2
    assert rep["error"]["type"] == "PrimalityUndecided"
    assert str(ffield.PRIMALITY_BOUND) in rep["error"]["message"]


def test_analyze_over_an_18_digit_prime_field_finishes():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    entry = "import sys; from towerlab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, "analyze", "--p", "1000000000000000009",
         "--F", "y^2-x^3-x", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        timeout=60,
        check=False,
    )
    assert proc.returncode in (0, 2)
    assert json.loads(proc.stdout)["job"]["p"] == 10**18 + 9


def test_a_witness_d_bound_and_text_column_are_its_d_range(monkeypatch):
    # the q = 2 family's wild witness has the window [2, 6]; once its d is
    # known, the :d bound and the text column show that d, not the window
    found = checker.places_above

    def exact_wild(F, P, side="x", max_depth=8):
        return [pl.replace(d_exact=4) if pl.d_exact is None else pl
                for pl in found(F, P, side, max_depth)]

    monkeypatch.setattr(checker, "places_above", exact_wild)
    argv = ["check-theorem", "--p", "2", "--F", FAM, "--f", "x"]
    code, rep = run_json(argv + ["--json"])
    assert code == 0
    wild = next(w for w in rep["witnesses"] if w["name"] == "Q_wild")
    assert (wild["d_min"], wild["d_max"], wild["d_exact"]) == (2, 6, 4)
    assert rep["bounds"]["Q_wild:d"] == [4, 4]
    code, out = run_cli(argv)
    row = next(line.split() for line in out.splitlines() if line.startswith("  Q_wild"))
    assert row[3] == "4"


def test_text_mode_summary():
    code, out = run_cli(["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels", "2"])
    assert code == 0
    assert "InfiniteGenus" in out
    assert "P0" in out  # small climbs include the ASCII diagram
    code, out = run_cli(["check-theorem", "--p", "2", "--F", FAM, "--f", "x"])
    assert code == 0
    assert "holds" in out


def test_seed_env_override():
    old = ffield.FACTOR_SEED
    os.environ["TOWERLAB_SEED"] = "12345"
    try:
        code, rep = run_json(["analyze", "--p", "2", "--F", FAM, "--json"])
        assert code == 0
        assert ffield.FACTOR_SEED == 12345
    finally:
        del os.environ["TOWERLAB_SEED"]
        ffield.FACTOR_SEED = old


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
def test_a_seed_that_is_no_integer_is_an_invalid_option(monkeypatch, seed):
    old = ffield.FACTOR_SEED
    monkeypatch.setenv("TOWERLAB_SEED", seed)
    code, rep = run_json(["analyze", "--p", "2", "--F", "y^2+y+x^3", "--json"])
    assert code == 2
    assert rep["verdict"] == "error"
    assert rep["error"] == {
        "type": "InvalidOption",
        "message": f"TOWERLAB_SEED must be an integer, got {seed!r}",
    }
    assert ffield.FACTOR_SEED == old


@pytest.mark.parametrize("F,p,window", [
    ("y^7-y-x^50", "7", [0, 162]),  # genus (7-1)(50-1)/2 = 147
    ("y^2+y+x^3", "2", [0, 1]),  # an elliptic curve: genus 1
])
def test_the_text_summary_prints_a_genus_window_as_a_window(F, p, window):
    code, rep = run_json(["analyze", "--p", p, "--F", F, "--json"])
    assert (rep["data"]["genus_exact"], rep["bounds"]["genus"]) == (False, window)
    code, out = run_cli(["analyze", "--p", p, "--F", F])
    assert code == 0
    assert f"  genus in [{window[0]}, {window[1]}]" in out.splitlines()
    assert "genus =" not in out
    # an exact genus still prints as one number
    code, out = run_cli(["analyze", "--p", "5", "--F", "y^2-x^3-x"])
    assert "  genus = 1" in out.splitlines()


def test_a_window_that_the_bidegree_bound_closes_is_reported_exact():
    # deg_x F = 1 makes the bidegree bound (m - 1)(deg_x F - 1) = 0, so the
    # field is rational, though the wild place over x + 2 keeps d in [3, 12]
    # and Riemann-Hurwitz alone leaves the genus in [0, 3]
    F = "(2*x+1)*y^4+2*y^3+(x+2)*y+(2*x+2)"
    code, rep = run_json(["analyze", "--p", "3", "--F", F, "--json"])
    assert code == 0
    assert rep["verdict"] == "exact"
    assert rep["bounds"]["genus"] == [0, 0]
    code, out = run_cli(["analyze", "--p", "3", "--F", F])
    assert "  genus = 0" in out.splitlines()
    code, rep = run_json(["genus", "--p", "3", "--F", F, "--json"])
    assert code == 0
    assert (rep["verdict"], rep["data"]["genus"], rep["notes"]) == ("true", 0, [])


# the curve with a degree-10 locus place over GF(5), whose residue fields
# reach GF(5^20), and the sha256 of its analyze report
HEAVY = "(x^2+1)*y^4+3*y^3+3*x*y^2+(x^2+2*x+4)*y+(x^2+2)"
HEAVY_SHA256 = "11c1f82fb479ab8e1458013dc87dfad906e3fea40a1c317edfe10f0b791e5e1d"


def test_heavy_analyze_report_is_pinned_and_seed_free():
    argv = ["analyze", "--p", "5", "--F", HEAVY, "--json"]
    code, out = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HEAVY_SHA256
    # a fresh process with another factorization seed writes the same bytes
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, TOWERLAB_SEED="12345", PYTHONPATH=src)
    entry = "import sys; from towerlab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", entry, *argv],
        env=env,
        stdout=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == HEAVY_SHA256


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", "3", "--F=-y^2+x", "--json"],
    ["genus", "--p", "2", "--F=-y^3-x", "--json"],
    ["check-theorem", "--p", "5", "--F=-y^2+x^3+x", "--f=-x", "--json"],
    ["family", "--q", "9", "--g", "x+1", "--b=-t", "--json"],
    ["family", "--q", "3", "--g=-x+1", "--a=-1", "--json"],
])
def test_a_text_value_may_start_with_a_minus(argv):
    # "--F -y^2+x" reads as "--F=-y^2+x", not as an unknown option -y^2+x
    spaced = [part for arg in argv for part in arg.split("=", 1)]
    code, out = run_cli(argv)
    assert json.loads(out)["verdict"] != "error"
    assert run_cli(spaced) == (code, out)


def test_cli_jobs_match_the_benchmark_goldens(monkeypatch):
    # every cli-cold job of the benchmark, in process: exit code and report
    # bytes as pinned in bench/goldens.json
    monkeypatch.delenv("TOWERLAB_SEED", raising=False)
    workloads = bench_workloads()
    with open(os.path.join(BENCH, "goldens.json")) as fh:
        goldens = json.load(fh)["cli-cold"]
    assert len(workloads.CLI_JOBS) == len(goldens) == 15
    for argv in workloads.CLI_JOBS:
        code, out = run_cli(argv)
        want = goldens[workloads.job_key(argv)]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["code"], want["sha256"]), argv


def test_json_is_sorted_and_indented():
    _, out = run_cli(["genus", "--p", "2", "--F", FAM, "--json"])
    rep = json.loads(out)
    assert out == json.dumps(rep, sort_keys=True, indent=2) + "\n"
