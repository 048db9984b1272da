"""Expression mini-language and the four subcommands."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import integrand_sums
from singint import ValuePoly, ZERO, integrand_sum, mono
from singint.cli import ParseError, _report_checks, main, parse, render_sum
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


def test_parse_errors_carry_columns():
    cases = [
        ("", 1),
        ("+", 2),
        ("D +", 4),
        ("D^", 3),
        ("q", 1),
        ("delta^-1", 1),
        ("d0^-2", 1),
        ("D^x", 3),
        ("1/0", 3),
        ("1/", 3),
        ("2 @ D", 3),
        ("D D / 2", 5),
        ("2 * + D", 5),
    ]
    for text, column in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column, text
        assert f"(column {column})" in str(err.value)


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
    assert parse(render_sum(s)) == s.normalize()


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


def test_reduce_command_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "D +")
    assert code == 2
    assert "parse error" in err
    assert "column" in err


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


def test_cli_import_does_not_load_scipy():
    # scipy belongs to the quadrature oracle alone, so the CLI starts without it;
    # the value records are named tuples, so neither dataclasses nor inspect loads
    code = ("import singint.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'dataclasses', 'inspect')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"
