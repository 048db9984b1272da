"""Command line front end: reduce, identities, diagrams, verify.

Expressions are parsed by `singint.integrand`, which documents their syntax.
Each command builds one payload, a dict or a list of rows with every value
rendered; `--json` prints it, and the text output is written from it.
Exit codes: 0 all good, 1 a check failed, 2 unusable input (usage, parse,
rule-domain, input-power or number-size error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .integrand import ParseError, integrand_sum, mono, parse, render_sum
from .reducer import ReductionTrace, reduce
from .ring import _max_str_digits
from .verify import diagram_identities, identity_suite, order_check, symbol_bindings
from .wick import diagram_classes, order_contribution


def _trace_json(trace: ReductionTrace) -> list[dict]:
    # each step's `before` is the previous step's `after`, so each state renders once
    states = [{"value": value.render(), "integrand": render_sum(pending)}
              for value, pending in [step.before for step in trace.steps[:1]]
              + [step.after for step in trace.steps]]
    return [{"rule": step.rule, "before": before, "after": after}
            for step, before, after in zip(trace.steps, states, states[1:])]


def _step_text(step: dict) -> str:
    after = step["after"]
    return f"{step['rule']}: {after['value']} | {after['integrand']}"


def _emit(payload, args, lines: list[str]) -> None:
    """Print the payload under --json, else the text lines written from it."""
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))


def _report_checks(checks, args) -> int:
    rows = []
    for c in checks:
        row = {"name": c.name, "expected": c.expected.render(),
               "actual": c.actual.render(), "passed": c.passed}
        if args.trace and c.trace is not None:
            row["trace"] = _trace_json(c.trace)
        rows.append(row)
    lines = []
    for row in rows:
        lines.append(f"PASS  {row['name']}  ->  {row['actual']}" if row["passed"] else
                     f"FAIL  {row['name']}  ->  expected {row['expected']}, got {row['actual']}")
        lines += [f"      {_step_text(step)}" for step in row.get("trace", ())]
    _emit(rows, args, lines)
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_reduce(args) -> int:
    s = parse(args.expression)
    value, trace = reduce(s)
    shown = value.substitute({"w": args.omega}) if args.omega is not None else value
    payload = {"input": render_sum(s), "result": shown.render()}
    if args.trace:
        payload["trace"] = _trace_json(trace)
    _emit(payload, args, [*map(_step_text, payload.get("trace", ())), payload["result"]])
    return 0


def _cmd_identities(args) -> int:
    return _report_checks(identity_suite() + diagram_identities(), args)


def _cmd_verify(args) -> int:
    orders = [args.order] if args.order else [1, 2]
    checks = [order_check(o, a_binding=args.a, veltman=args.veltman)
              for o in orders]
    return _report_checks(checks, args)


def _cmd_diagrams(args) -> int:
    bindings = symbol_bindings(args.a, args.veltman)
    rows = []
    for cls in diagram_classes(args.order):
        local, lines = order_contribution([cls])
        rows.append({
            "family": cls.family,
            "vertices": " x ".join(cls.vertices),
            "self_pairs": "; ".join(f"{vertex}:{kind}" for vertex, kind in cls.self_pairs) or "-",
            "integrand": (render_sum(integrand_sum(mono(*cls.shape, coeff=cls.sign)))
                          if cls.shape != (0, 0, 0, 0) else "-"),
            "matchings": cls.multiplicity,
            "coefficient": cls.coefficient.substitute(bindings).render(),
            "local_value": cls.local_value.substitute(bindings).render(),
            "contribution": render_sum(
                integrand_sum(mono(coeff=local), *lines).substitute(bindings)),
        })
    header = list(rows[0])
    widths = [max(len(h), *(len(str(row[h])) for row in rows)) for h in header]
    _emit(rows, args, ["  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths))
                       for row in [dict(zip(header, header))] + rows])
    return 0


# a decimal literal with an exponent; group 1 holds the exponent's digits
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]+[eE][-+]?([\d_]+)\s*\Z")
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def _fraction_arg(text: str) -> Fraction:
    # Fraction builds 10**exponent in full, so a huge exponent would hang
    # before the digit limit of int-to-str conversion could refuse it; a
    # digit run past the limit is refused here, so the error does not echo it
    limit = _max_str_digits()
    exponent = _EXPONENT.match(text)
    if limit and exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise argparse.ArgumentTypeError(
                f"a decimal exponent past {limit} makes a number of more than {limit} digits")
    if limit and any(len(run.replace("_", "")) > limit for run in _DIGIT_RUN.findall(text)):
        raise argparse.ArgumentTypeError(f"a number of more than {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_fraction_arg(text: str) -> Fraction:
    value = _fraction_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("frequency must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singint",
        description="Reduce singular propagator integrals to exact closed form "
                    "and check the vacuum-diagram cancellations.",
        epilog="Expression atoms: factors D dD ddD delta, symbols w d0 a g, "
               "rationals p/q; '^' takes integer powers (negative only on w). "
               "Exit codes: 0 ok, 1 failed check, 2 bad input.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce an integrand expression")
    p_reduce.add_argument("expression")
    p_reduce.add_argument("--trace", action="store_true", help="show every rewrite")
    p_reduce.add_argument("--json", action="store_true")
    p_reduce.add_argument("--omega", type=_positive_fraction_arg, default=None,
                          metavar="P/Q", help="evaluate the result at this frequency")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_idents = sub.add_parser("identities", help="run the reduction identity suite")
    p_idents.add_argument("--trace", action="store_true")
    p_idents.add_argument("--json", action="store_true")
    p_idents.set_defaults(func=_cmd_identities)

    # argparse reads a dash-led value that is not a plain number as an option
    a_help = "bind the quintic map parameter; a negative fraction goes as --a=-3/5"
    p_diag = sub.add_parser("diagrams", help="print the generated diagram classes")
    p_diag.add_argument("--order", type=int, choices=(1, 2), required=True)
    p_diag.add_argument("--a", type=_fraction_arg, default=None, metavar="P/Q", help=a_help)
    p_diag.add_argument("--veltman", action="store_true",
                        help="bind d0 := 0 in the printed columns")
    p_diag.add_argument("--json", action="store_true")
    p_diag.set_defaults(func=_cmd_diagrams)

    p_verify = sub.add_parser("verify", help="check that order totals vanish")
    p_verify.add_argument("--order", type=int, choices=(1, 2), default=None)
    p_verify.add_argument("--a", type=_fraction_arg, default=None, metavar="P/Q", help=a_help)
    p_verify.add_argument("--veltman", action="store_true",
                          help="set d0 := 0 before reduction")
    p_verify.add_argument("--trace", action="store_true")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a RuleError, or a number too long to print
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
