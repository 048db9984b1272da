"""Expression mini-language and the four subcommands."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import integrand_sums
from singint import (IntegrandSum, ValuePoly, ZERO, diagram_classes, integrand_sum, mono,
                     order_contribution, reduce)
from singint.cli import ParseError, _report_checks, main, parse, render_sum
from singint.reducer import RULES
from singint.verify import CheckResult


def test_parse_single_factors():
    assert parse("D") == integrand_sum(mono(1, 0, 0, 0))
    assert parse("dD^2") == integrand_sum(mono(0, 2, 0, 0))
    assert parse("ddD") == integrand_sum(mono(0, 0, 1, 0))
    assert parse("delta^2") == integrand_sum(mono(0, 0, 0, 2))


def test_parse_products_and_coefficients():
    expected = integrand_sum(mono(1, 2, 0, 0, coeff=Fraction(-3, 32)))
    assert parse("-3/32 D dD^2") == expected
    assert parse("-3/32 * D * dD^2") == expected
    assert parse("- 3/32 dD^2 D") == expected
    assert parse("2 3 D") == integrand_sum(mono(1, 0, 0, 0, coeff=6))


def test_parse_symbol_coefficients():
    got = parse("w^2 d0 D^2")
    assert got == integrand_sum(
        mono(2, 0, 0, 0, coeff=ValuePoly.monomial(1, w=2, d0=1)))
    assert parse("w^-3") == integrand_sum(
        mono(0, 0, 0, 0, coeff=ValuePoly.monomial(1, w=-3)))


def test_parse_sums_merge_shapes():
    got = parse("dD^2 + w^2 D^2 - dD^2")
    assert got == integrand_sum(mono(2, 0, 0, 0, coeff=ValuePoly.monomial(1, w=2)))
    assert parse("D - D").is_zero
    assert parse("0").is_zero


def test_parse_repeated_factor_powers_accumulate():
    assert parse("D D^2 D") == integrand_sum(mono(4, 0, 0, 0))


def test_parse_reads_unicode_decimal_digits():
    assert parse("٣ D") == parse("3 D")
    assert parse("D^٣٣") == parse("D^33")


def test_parse_errors_carry_columns():
    too_long = "number longer than 4300 digits"
    cases = [
        ("", 1, "expected a term, found 'end'"),
        ("+", 2, "expected a term, found 'end'"),
        ("D +", 4, "expected a term, found 'end'"),
        ("D^", 3, "expected an integer power after '^'"),
        ("q", 1, "unknown symbol 'q'"),
        ("delta^-1", 1, "negative power of delta"),
        ("d0^-2", 1, "negative power of d0"),
        ("D^x", 3, "expected an integer power after '^'"),
        ("1/0", 3, "zero denominator"),
        ("1/", 3, "expected a denominator"),
        ("2 @ D", 3, "unexpected character '@'"),
        ("D D / 2", 5, "expected '+' or '-' before '/'"),
        ("2 * + D", 5, "expected a factor after '*', found '+'"),
        ("9" * 4400, 1, too_long),  # past Python's int/str digit limit (4300 by default)
        ("D^" + "9" * 4400, 3, too_long),
        # a '*' joins two atoms of one term; it never starts a term
        ("* D", 1, "expected a term, found '*'"),
        ("D + * D", 5, "expected a term, found '*'"),
        ("- * 2 D", 3, "expected a term, found '*'"),
        ("D^ - 2", 1, "negative power of D"),
        ("D w^-1 ^ 2", 8, "expected '+' or '-' before '^'"),
        ("D D1", 3, "unknown symbol 'D1'"),
        # characters outside the language, Unicode digits that are not decimal among them
        ("é D", 1, "unexpected character 'é'"),
        ("D  +  é", 7, "unexpected character 'é'"),
        ("² D", 1, "unexpected character '²'"),
        ("Ⅻ D", 1, "unexpected character 'Ⅻ'"),
        # a bad character and the digit limit come before grammar errors
        ("D + + " + "9" * 4301, 7, too_long),
        ("D + + é", 7, "unexpected character 'é'"),
    ]
    for text, column, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column, text
        assert str(err.value) == f"{message} (column {column})", text


def test_render_sum_fixed_forms():
    assert render_sum(integrand_sum()) == "0"
    assert render_sum(integrand_sum(mono(1, 0, 0, 0))) == "D"
    assert render_sum(integrand_sum(mono(0, 4, 0, 0, coeff=-1))) == "-dD^4"
    assert render_sum(integrand_sum(
        mono(1, 2, 0, 0, coeff=Fraction(-3, 32)))) == "-3/32 D dD^2"
    two_coeffs = mono(2, 0, 0, 0, coeff=ValuePoly.monomial(1, d0=1) + 1)
    assert render_sum(integrand_sum(two_coeffs)) == "d0 D^2 + D^2"
    bare = mono(0, 0, 0, 0, coeff=Fraction(5, 2))
    assert render_sum(integrand_sum(bare)) == "5/2"


def test_render_parse_round_trip_examples():
    for text in ["dD^4", "delta^2 D^2", "-3/32 w^-1", "2 D - dD^2",
                 "w^2 D^2 + dD^2", "g^2 a d0^2 ddD", "1"]:
        s = parse(text)
        assert parse(render_sum(s)) == s


@given(integrand_sums())
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip_small(s):
    assert parse(render_sum(s)) == s


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "dD^4")
    assert code == 0
    assert out.strip() == "-3/32 w^-1"


def test_reduce_command_with_omega(capsys):
    code, out, _ = run(capsys, "reduce", "D", "--omega", "1/2")
    assert code == 0
    assert out.strip() == "4"
    # each 3^-30002 alone is past the digit limit, but the two cancel, and so
    # do the two powers of 3 near -3e11, which are never built
    for expression, value in [("D w^-30000 - 3 D w^-30001 + D", "1/9"),
                              ("9 D w^-300000000000 - D w^-299999999998", "0")]:
        code, out, _ = run(capsys, "reduce", expression, "--omega", "3")
        assert code == 0
        assert out.strip() == value


def test_reduce_command_json_trace(capsys):
    code, out, _ = run(capsys, "reduce", "delta^2 D^2", "--json", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "D^2 delta^2"
    assert payload["result"] == "1/4 d0 w^-2"
    assert payload["trace"]
    assert all({"rule", "before", "after"} <= set(step) for step in payload["trace"])


def test_reduce_command_rule_error_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "delta^3")
    assert code == 2
    assert "delta^3" in err
    code, _, err = run(capsys, "reduce", "ddD delta^2")
    assert code == 2
    code, _, err = run(capsys, "reduce", "1")
    assert code == 2
    assert "bare measure" in err
    code, out, err = run(capsys, "reduce", "D^99999999999")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4096" in err


def test_reduce_command_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "D +")
    assert code == 2
    assert "parse error" in err
    assert "column" in err


def test_reduce_command_result_too_long_to_print_exit_2(capsys):
    # D^20000 is past the input power bound; the product of two 3000-digit
    # literals is under it, but past the digit limit of int-to-str conversion,
    # and so is the sum of two 4300-digit exponents of one ring symbol; 3 to
    # the power 3e11 is past it too, and has to fail before it is built, also
    # where two terms reduce to neighbouring powers of w; the text output is
    # written from the --json payload, so an input too long to print is
    # refused in text too, also where it reduces to 0
    big = "7" * 3000
    nines = "9" * 4300
    expressions = [["D^20000"], [f"{big} {big} D"], ["D w^-300000000000", "--omega", "3"],
                   ["D w^-300000000000 + D^2 w^-300000000000", "--omega", "3"],
                   [f"{big} {big} dD"], [f"{big} {big} dD", "--trace"]]
    expressions += [[f"{name}^{nines} {name}^{nines} D"] for name in ("w", "a", "d0", "g")]
    argvs = [argv for expression in expressions
             for argv in (["reduce", *expression], ["reduce", "--json", *expression])]
    # a binding of 4301 digits is let in, but no row or label can print it
    argvs += [[command, *flags, "--order", "2", "--a", "1e4300"]
              for command in ("verify", "diagrams") for flags in ([], ["--json"])]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "set_int_max_str_digits" not in err


def _singint(*argv):
    """Run the CLI in a fresh interpreter; a hang fails the test after 30 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "singint.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=30)


def test_huge_decimal_exponent_is_refused_before_it_is_built():
    # Fraction builds 10**exponent in full: 1e10000000 alone takes seconds.
    # An exponent past the digit limit is refused by argparse, so exit 2;
    # --omega 1e5000 evaluated to 1 before, and is refused now.  A run of
    # digits past the limit is refused too, without echoing its digits
    exponent = "decimal exponent past"
    for argv, refusal in ((["verify", "--order", "1", "--a", "1e100000000"], exponent),
                          (["diagrams", "--order", "2", "--a=-2.5E-100000000"], exponent),
                          (["reduce", "delta", "--omega", "1e5000"], exponent),
                          (["reduce", "delta", "--omega", "7" * 5000], "more than 4300 digits")):
        done = _singint(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert refusal in done.stderr
        assert "Traceback" not in done.stderr
        assert "7" * 100 not in done.stderr


def test_far_powers_give_the_digit_error_without_building_them():
    # a 4300-digit binding of w under two powers 8000 apart, and eight terms
    # whose powers grow about 3x apart: each gives the one-line error at once
    cascade = ("D + D w^34406 + D w^143470 + D w^489194 + D w^1585114 + D w^5059098"
               " + D w^16071366 + D w^50979430")
    for argv in (["reduce", "D + D w^8000", "--omega", "7e4299"],
                 ["reduce", cascade, "--omega", "3"]):
        done = _singint(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: a number in the output has more than")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


def test_small_decimal_exponents_are_read_as_before(capsys):
    for a, shown in [("1e3", "1000"), ("1.5", "3/2"), ("1e-3", "1/1000"), ("3/4", "3/4"),
                     ("1_0e0_3", "10000")]:
        code, out, _ = run(capsys, "verify", "--order", "1", "--a", a)
        assert code == 0
        assert f"(a = {shown})" in out
    code, out, _ = run(capsys, "reduce", "D", "--omega", "2e-1")
    assert code == 0
    assert out.strip() == "25"


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "dD^4" in out


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "order-1 total" in out and "order-2 total" in out


def test_verify_command_bound(capsys):
    code, out, _ = run(capsys, "verify", "--order", "2", "--a", "1/2", "--veltman")
    assert code == 0
    assert "(a = 1/2)" in out and "(d0 = 0)" in out


def test_verify_json_rows_carry_no_trace_unless_asked(capsys):
    assert main(["verify", "--order", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [sorted(row) for row in rows] == [["actual", "expected", "name", "passed"]]


def test_identities_json_trace_steps_chain(capsys):
    assert main(["identities", "--json", "--trace"]) == 0
    row = next(r for r in json.loads(capsys.readouterr().out) if r["name"] == "dD^4")
    steps = row["trace"]
    assert steps
    assert all(a["after"] == b["before"] for a, b in zip(steps, steps[1:]))
    assert steps[-1]["after"] == {"value": "-3/32 w^-1", "integrand": "0"}


def test_identities_trace_prints_steps_under_each_check(capsys):
    assert main(["identities", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("PASS  dD^4  ->  -3/32 w^-1")
    block = lines[start + 1:]
    block = block[:next(i for i, line in enumerate(block) if not line.startswith("      "))]
    assert block[-1] == "      base: -3/32 w^-1 | 0"


def test_verify_order_2_trace_prints_every_step(capsys):
    # n = 4 takes an ibp move without a contact term, which dD(0) = 0 drops
    assert main(["verify", "--order", "2", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  order-2 total  ->  0",
        "      field_equation: 0 | -1/4 g^2 w^-2 delta^2 - 1/2 g^2 dD^2 - 2 g^2 dD^4"
        " + 1/2 g^2 D delta + 8 g^2 D dD^2 delta - 1/2 g^2 w^2 D^2 - 2 g^2 D^2 delta^2"
        " - 16 g^2 w^2 D^2 dD^2 + 4 g^2 w^2 D^3 delta - 10/3 g^2 w^4 D^4",
        "      delta_squared: -3/4 g^2 d0 w^-2 | -1/2 g^2 dD^2 - 2 g^2 dD^4 + 1/2 g^2 D delta"
        " + 8 g^2 D dD^2 delta - 1/2 g^2 w^2 D^2 - 16 g^2 w^2 D^2 dD^2 + 4 g^2 w^2 D^3 delta"
        " - 10/3 g^2 w^4 D^4",
        "      delta: -3/4 g^2 d0 w^-2 + 3/4 g^2 w^-1 | -1/2 g^2 dD^2 - 2 g^2 dD^4"
        " - 1/2 g^2 w^2 D^2 - 16 g^2 w^2 D^2 dD^2 - 10/3 g^2 w^4 D^4",
        "      ibp: -3/4 g^2 d0 w^-2 + 3/4 g^2 w^-1 | -1/2 g^2 D delta + 6 g^2 w^2 D^2 dD^2"
        " - 16/3 g^2 w^2 D^3 delta + 2 g^2 w^4 D^4",
        "      delta: -3/4 g^2 d0 w^-2 - 1/6 g^2 w^-1 | 6 g^2 w^2 D^2 dD^2 + 2 g^2 w^4 D^4",
        "      ibp: -3/4 g^2 d0 w^-2 - 1/6 g^2 w^-1 | 2 g^2 w^2 D^3 delta",
        "      delta: -3/4 g^2 d0 w^-2 + 1/12 g^2 w^-1 | 0",
    ]


def test_identities_trace_pins_the_steps_where_dd_at_zero_acts(capsys):
    # dD^4 takes an ibp move without a contact term; in ddD dD^2 D the delta
    # rule folds D dD^2 delta to 0
    assert main(["identities", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()

    def steps_under(header):
        block = lines[lines.index(header) + 1:]
        return block[:next(i for i, line in enumerate(block) if not line.startswith("      "))]

    assert steps_under("PASS  dD^4  ->  -3/32 w^-1") == [
        "      ibp: 0 | -3 w^2 D^2 dD^2",
        "      ibp: 0 | -w^2 D^3 delta + w^4 D^4",
        "      delta: -1/8 w^-1 | w^4 D^4",
        "      base: -3/32 w^-1 | 0",
    ]
    assert steps_under("PASS  ddD dD^2 D  ->  1/32 w^-1") == [
        "      field_equation: 0 | -D dD^2 delta + w^2 D^2 dD^2",
        "      delta: 0 | w^2 D^2 dD^2",
        "      ibp: 0 | 1/3 w^2 D^3 delta - 1/3 w^4 D^4",
        "      delta: 1/24 w^-1 | -1/3 w^4 D^4",
        "      base: 1/32 w^-1 | 0",
    ]


def test_diagrams_command_table(capsys):
    code, out, _ = run(capsys, "diagrams", "--order", "1")
    assert code == 0
    assert "family" in out and "jq2" in out and "local" in out


def test_diagrams_command_json(capsys):
    code, out, _ = run(capsys, "diagrams", "--order", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all({"family", "vertices", "matchings", "coefficient",
                "local_value", "contribution"} <= set(row) for row in rows)
    assert any(row["family"] == "watermelon" for row in rows)
    assert sum(row["matchings"] for row in rows if row["vertices"] == "qd2q4") == 15


GOLDEN = Path(__file__).resolve().parent / "data"
# one line per pinned output: test id, golden file name and the shell-quoted argv,
# tab-separated; the installed console script is diffed against the same table
GOLDENS = [line.split("\t") for line in (GOLDEN / "goldens.tsv").read_text().splitlines()]
# fires all six rules, with three ibp sweeps and the dD^2 contact term
GOLDEN_REDUCE = next(shlex.split(argv)[1] for test_id, _, argv in GOLDENS
                     if test_id == "reduce_trace")


@pytest.mark.parametrize("golden, argv", [(golden, shlex.split(argv))
                                          for _, golden, argv in GOLDENS],
                         ids=[test_id for test_id, _, _ in GOLDENS])
def test_diagrams_order_2_output_is_pinned(capsys, golden, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_the_pinned_reduction_fires_every_rule():
    steps = reduce(parse(GOLDEN_REDUCE))[1].steps
    rules = [step.rule for step in steps]
    assert set(rules) == set(RULES) and rules.count("ibp") >= 3
    # the last ibp sweep moves dD^2 and emits its contact term, a single delta
    last_ibp = [step for step in steps if step.rule == "ibp"][-1]
    assert any(t.q == 1 for t in last_ibp.after[1])


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("flags, bindings", [
    ([], {}),
    (["--veltman"], {"d0": 0}),
    (["--a", "1/2", "--veltman"], {"a": Fraction(1, 2), "d0": 0}),
    (["--a=-7/5"], {"a": Fraction(-7, 5)}),
], ids=["plain", "veltman", "a_half_veltman", "a_minus_7_5"])
def test_diagrams_rows_sum_to_what_order_check_reduces(capsys, order, flags, bindings):
    code, out, _ = run(capsys, "diagrams", "--order", str(order), *flags, "--json")
    assert code == 0
    rows = json.loads(out)
    classes = diagram_classes(order)
    # the whole order, None, and each family: the order-2 nonlocal total holds no a or d0
    for family in [None, *sorted({row["family"] for row in rows})]:
        table = IntegrandSum([t for row in rows if family in (None, row["family"])
                              for t in parse(row["contribution"])])
        local, lines = order_contribution(c for c in classes if family in (None, c.family))
        # a local row parses to a bare-measure term, so the local part enters as one
        assert table == IntegrandSum([mono(coeff=local), *lines]).substitute(bindings), family


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["reduce"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["diagrams", "--order", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["reduce", "D", "--omega", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--a", "x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["diagrams", "--order", "1", "--a", "1/0"])
    assert err.value.code == 2


def test_report_marks_failures_and_exit_1(capsys):
    bad = CheckResult(name="made-up", expected=ZERO,
                      actual=ValuePoly.rational(1), passed=False, trace=None)
    good = CheckResult(name="fine", expected=ZERO, actual=ZERO,
                       passed=True, trace=None)
    args = argparse.Namespace(json=False, trace=False)
    code = _report_checks([good, bad], args)
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS  fine" in out
    assert "FAIL  made-up  ->  expected 0, got 1" in out


def test_report_marks_failures_in_json_and_exit_1(capsys):
    bad = CheckResult(name="made-up", expected=ZERO,
                      actual=ValuePoly.rational(1), passed=False, trace=None)
    good = CheckResult(name="fine", expected=ZERO, actual=ZERO,
                       passed=True, trace=None)
    code = _report_checks([good, bad], argparse.Namespace(json=True, trace=False))
    rows = json.loads(capsys.readouterr().out)
    assert code == 1
    assert next(row for row in rows if row["name"] == "made-up") == {
        "name": "made-up", "expected": "0", "actual": "1", "passed": False}


def test_report_prints_the_trace_under_a_failure(capsys):
    value, trace = reduce(parse("dD^4"))
    bad = CheckResult(name="made-up", expected=ZERO, actual=value, passed=False, trace=trace)
    code = _report_checks([bad], argparse.Namespace(json=False, trace=True))
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  made-up  ->  expected 0, got -3/32 w^-1",
        "      ibp: 0 | -3 w^2 D^2 dD^2",
        "      ibp: 0 | -w^2 D^3 delta + w^4 D^4",
        "      delta: -1/8 w^-1 | w^4 D^4",
        "      base: -3/32 w^-1 | 0",
    ]


def test_cli_import_does_not_load_scipy():
    # scipy belongs to the quadrature oracle alone, so the CLI starts without it;
    # the value records are named tuples, so neither dataclasses nor inspect loads;
    # the diagram generator, the check suites and json load in the commands that use them
    code = ("import singint.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'dataclasses', 'inspect', 'json') "
            "or m in ('singint.wick', 'singint.verify')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
