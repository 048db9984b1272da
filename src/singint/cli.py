"""Command line front end and the integrand expression mini-language.

Expression syntax (whitespace or '*' separates atoms, '+'/'-' joins terms):

    factors   D  dD  ddD  delta          optional '^' nonnegative power
    symbols   w  d0  a  g                'w' admits negative powers
    numbers   integers and fractions     e.g. 3, 1/2, 3/32

Examples:  "dD^2 + w^2 D^2",  "-3/32 w^-1 dD^4",  "delta^2 D^2".

Commands: reduce, identities, diagrams, verify.  Exit codes: 0 all good,
1 a check failed, 2 unusable input (usage, parse or rule-domain error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .integrand import FACTOR_NAMES, IntegrandMonomial, IntegrandSum
from .reducer import ReductionTrace, RuleError, reduce
from .ring import ValuePoly, render_signed
from .verify import diagram_identities, identity_suite, order_check, symbol_bindings
from .wick import diagram_classes

_SYMBOL_NAMES = ("w", "d0", "a", "g")


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[\^+\-*/])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        column = match.start() + 1
        if match.lastgroup == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", column)
        tokens.append((match.lastgroup, match.group(), column))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser lowering expressions to IntegrandSum."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> IntegrandSum:
        terms = [self.parse_term(self._leading_sign())]
        while True:
            kind, text, column = self.peek()
            if kind == "end":
                break
            if kind == "op" and text in "+-":
                self.advance()
                terms.append(self.parse_term(-1 if text == "-" else 1))
            else:
                raise ParseError(f"expected '+' or '-' before {text!r}", column)
        return IntegrandSum(terms).normalize()

    def _leading_sign(self) -> int:
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            return -1 if text == "-" else 1
        return 1

    def parse_term(self, sign: int) -> IntegrandMonomial:
        coeff = ValuePoly.rational(sign)
        powers = {name: 0 for name in FACTOR_NAMES}
        saw_atom = False
        while True:
            kind, text, column = self.peek()
            if kind == "num":
                coeff = coeff * self._rational()
            elif kind == "name":
                coeff, powers = self._named_atom(coeff, powers)
            elif kind == "op" and text == "*":
                self.advance()
                nxt_kind, nxt_text, nxt_col = self.peek()
                if nxt_kind not in ("num", "name"):
                    raise ParseError(f"expected a factor after '*', found {nxt_text or 'end'!r}", nxt_col)
                continue
            else:
                break
            saw_atom = True
        if not saw_atom:
            kind, text, column = self.peek()
            raise ParseError(f"expected a term, found {text or 'end'!r}", column)
        return IntegrandMonomial(powers["D"], powers["dD"], powers["ddD"],
                                 powers["delta"], coeff)

    def _rational(self) -> Fraction:
        _, text, _ = self.advance()
        value = Fraction(int(text))
        kind, op, _ = self.peek()
        if kind == "op" and op == "/":
            self.advance()
            dkind, dtext, dcol = self.peek()
            if dkind != "num":
                raise ParseError("expected a denominator", dcol)
            self.advance()
            if int(dtext) == 0:
                raise ParseError("zero denominator", dcol)
            value /= int(dtext)
        return value

    def _power(self, default: int = 1) -> int:
        kind, text, _ = self.peek()
        if not (kind == "op" and text == "^"):
            return default
        self.advance()
        negative = False
        kind, text, column = self.peek()
        if kind == "op" and text == "-":
            negative = True
            self.advance()
            kind, text, column = self.peek()
        if kind != "num":
            raise ParseError("expected an integer power after '^'", column)
        self.advance()
        value = int(text)
        return -value if negative else value

    def _named_atom(self, coeff: ValuePoly, powers: dict[str, int]):
        _, name, column = self.advance()
        if name in FACTOR_NAMES:
            power = self._power()
            if power < 0:
                raise ParseError(f"negative power of {name}", column)
            powers = dict(powers)
            powers[name] += power
            return coeff, powers
        if name in _SYMBOL_NAMES:
            power = self._power()
            if name != "w" and power < 0:
                raise ParseError(f"negative power of {name}", column)
            exps = {name: power}
            coeff = coeff * ValuePoly.monomial(
                1, w=exps.get("w", 0), d0=exps.get("d0", 0),
                a=exps.get("a", 0), g=exps.get("g", 0))
            return coeff, powers
        raise ParseError(f"unknown symbol {name!r}", column)


def parse(text: str) -> IntegrandSum:
    """Parse the mini-language into a canonical IntegrandSum."""
    return _Parser(text).parse()


def render_sum(s: IntegrandSum) -> str:
    """Canonical text for a sum; parse(render_sum(s)) == s.normalize()."""
    terms = []
    for term in s.normalize():
        factors = term.factors_text()
        terms.extend((coef, words + [factors] if factors else words)
                     for coef, words in term.coeff.render_terms())
    return render_signed(terms)


def _state_text(state) -> str:
    value, pending = state
    return f"{value.render()} | {render_sum(pending)}"


def _trace_json(trace: ReductionTrace) -> list[dict]:
    return [{"rule": step.rule,
             "before": {"value": step.before[0].render(),
                        "integrand": render_sum(step.before[1])},
             "after": {"value": step.after[0].render(),
                       "integrand": render_sum(step.after[1])}}
            for step in trace.steps]


def _check_json(result, with_trace: bool) -> dict:
    out = {"name": result.name,
           "expected": result.expected.render(),
           "actual": result.actual.render(),
           "passed": result.passed}
    if with_trace and result.trace is not None:
        out["trace"] = _trace_json(result.trace)
    return out


def _report_checks(checks, args) -> int:
    if args.json:
        print(json.dumps([_check_json(c, args.trace) for c in checks], indent=2))
    else:
        for c in checks:
            if c.passed:
                print(f"PASS  {c.name}  ->  {c.actual.render()}")
            else:
                print(f"FAIL  {c.name}  ->  expected {c.expected.render()}, "
                      f"got {c.actual.render()}")
            if args.trace and c.trace is not None:
                for step in c.trace.steps:
                    print(f"      {step.rule}: {_state_text(step.after)}")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_reduce(args) -> int:
    s = parse(args.expression)
    value, trace = reduce(s)
    shown = value.substitute({"w": args.omega}) if args.omega is not None else value
    if args.json:
        payload = {"input": render_sum(s), "result": shown.render()}
        if args.trace:
            payload["trace"] = _trace_json(trace)
        print(json.dumps(payload, indent=2))
    else:
        if args.trace:
            for step in trace.steps:
                print(f"{step.rule}: {_state_text(step.after)}")
        print(shown.render())
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
        weight, monomial = cls.term()
        weight = weight.substitute(bindings)
        rows.append({
            "family": cls.family,
            "vertices": " x ".join(cls.vertices),
            "self_pairs": "; ".join(f"{vertex}:{kind}" for vertex, kind in cls.self_pairs) or "-",
            "integrand": render_sum(IntegrandSum([monomial])) if monomial else "-",
            "matchings": cls.multiplicity,
            "coefficient": cls.coefficient.substitute(bindings).render(),
            "local_value": cls.local_value.substitute(bindings).render(),
            "contribution": (render_sum(IntegrandSum([monomial.scaled(weight)]))
                             if monomial else weight.render()),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    header = ("family", "vertices", "self_pairs", "integrand", "matchings",
              "coefficient", "local_value", "contribution")
    widths = [max(len(str(row[h])) for row in rows + [dict(zip(header, header))])
              for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths)))
    return 0


def _fraction_arg(text: str) -> Fraction:
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

    p_diag = sub.add_parser("diagrams", help="print the generated diagram classes")
    p_diag.add_argument("--order", type=int, choices=(1, 2), required=True)
    p_diag.add_argument("--a", type=_fraction_arg, default=None, metavar="P/Q",
                        help="bind the quintic map parameter")
    p_diag.add_argument("--veltman", action="store_true",
                        help="set d0 := 0 before reduction")
    p_diag.add_argument("--json", action="store_true")
    p_diag.set_defaults(func=_cmd_diagrams)

    p_verify = sub.add_parser("verify", help="check that order totals vanish")
    p_verify.add_argument("--order", type=int, choices=(1, 2), default=None)
    p_verify.add_argument("--a", type=_fraction_arg, default=None, metavar="P/Q")
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
    except RuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
