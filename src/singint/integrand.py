"""Symbolic integrands: products of propagator-line factors under one integral.

An IntegrandMonomial records coeff * integral dt of

    D(t)^m * dD(t)^n * ddD(t)^p * delta(t)^q

where D is the oscillator propagator exp(-w|t|)/(2w), dD and ddD its first
and second distributional derivatives, and delta the Dirac factor.  The
shape (0, 0, 0, 0) stands for coeff times the divergent bare measure
integral dt * 1 and is never a valid reduction input.

Equal-time (local) factors are never stored as integrand factors: they are
folded into coefficients from `RULE_VALUES`, the one record of the values
the rules give products of distributions, which the delta rules, the ibp
contact term and the diagram generator's same-vertex pairs all read when
they run.  So an IntegrandSum always describes genuinely nonlocal content
plus exact ring coefficients, and it is canonical on construction: no
caller normalizes.

The vacuum-diagram cancellation fixes ddD(0) - w^2 D(0) = -d0, the field
equation at the origin, and not D(0) itself: scaling D(0) and the smooth
part of ddD(0) together leaves every order check passing.  D(0) = w^-1 / 2
is the propagator's value at the origin, and the quadrature oracle checks
its agreement with the Lebesgue integral.

`parse` reads and `render_sum` writes the integrand expression language,
e.g. "dD^2 + w^2 D^2" or "-3/32 w^-1 dD^4": whitespace separates atoms, a
'*' may join two atoms of one term (never start one), '+'/'-' joins terms.

    factors   D  dD  ddD  delta          optional '^' nonnegative power
    symbols   w  d0  a  g                'w' admits negative powers
    numbers   integers and fractions     e.g. 3, 1/2, 3/32

`parse` finds the tokens in one regex pass, after one search for a
character outside the language, and works out a token's column only when
it raises a ParseError.  It walks the tokens once, keeps each term as an
int numerator and denominator and one power per factor and symbol name,
and builds the term's coefficient from one Fraction with one
`ValuePoly.monomial` call at the term's end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .ring import (D0, ONE, SYMBOL_NAMES, ZERO, RationalLike, ValuePoly, _max_str_digits,
                   render_signed)

Shape = tuple[int, int, int, int]

# factor spellings shared by the renderer and the parser
FACTOR_NAMES = ("D", "dD", "ddD", "delta")

_setattr = object.__setattr__


class IntegrandMonomial:
    """Immutable value; not a tuple, so `+` and `3 *` raise instead of joining fields."""

    __slots__ = ("m", "n", "p", "q", "coeff")

    def __init__(self, m: int, n: int, p: int, q: int, coeff: ValuePoly):
        if not type(m) is type(n) is type(p) is type(q) is int:
            raise TypeError(f"factor powers must be ints, got {(m, n, p, q)}")
        if m < 0 or n < 0 or p < 0 or q < 0:
            raise ValueError("factor powers must be nonnegative")
        if type(coeff) is not ValuePoly:  # `mono` converts a rational
            raise TypeError(f"coeff must be a ValuePoly, got {type(coeff).__name__}")
        _setattr(self, "m", m)
        _setattr(self, "n", n)
        _setattr(self, "p", p)
        _setattr(self, "q", q)
        _setattr(self, "coeff", coeff)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.m, self.n, self.p, self.q, self.coeff)
                == (other.m, other.n, other.p, other.q, other.coeff))

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.p, self.q, self.coeff))

    @property
    def shape(self) -> Shape:
        return (self.m, self.n, self.p, self.q)

    @property
    def is_bare_measure(self) -> bool:
        return self.shape == (0, 0, 0, 0)

    def scaled(self, factor: ValuePoly | RationalLike) -> "IntegrandMonomial":
        return IntegrandMonomial(self.m, self.n, self.p, self.q, self.coeff * factor)

    def factors_text(self) -> str:
        """Render the factor part, unit powers elided, e.g. 'D^2 ddD'."""
        pieces = []
        for name, power in zip(FACTOR_NAMES, self.shape):
            if power == 1:
                pieces.append(name)
            elif power > 1:
                pieces.append(f"{name}^{power}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"IntegrandMonomial({self.coeff.render()!r} * {self.factors_text() or '1'!r})"


def mono(m: int = 0, n: int = 0, p: int = 0, q: int = 0,
         coeff: ValuePoly | RationalLike = 1) -> IntegrandMonomial:
    if not isinstance(coeff, ValuePoly):
        coeff = ValuePoly.rational(coeff)
    return IntegrandMonomial(m, n, p, q, coeff)


class IntegrandSum:
    """A finite sum of integrand monomials, canonical on construction.

    The constructor merges monomials of equal shape, drops zero-coefficient
    terms and sorts the rest lexicographically by (m, n, p, q), so two sums
    are equal exactly when their terms are.  A one-term list or tuple has
    nothing to merge or sort and only drops a zero coefficient.

    A reducer rule that changes nothing returns the sum it was given, not an
    equal copy, and the reduction trace records only the rules that change
    the state.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[IntegrandMonomial] = ()):
        if terms.__class__ in (list, tuple) and len(terms) == 1:  # nothing to merge or sort
            term = terms[0]
            self.terms = () if term.coeff.is_zero else (term,)
            return
        # a shape seen once keeps its monomial; only a repeat pays a ring add
        acc: dict[Shape, IntegrandMonomial] = {}
        for term in terms:
            shape = term.shape
            first = acc.get(shape)
            acc[shape] = term if first is None else IntegrandMonomial(
                *shape, first.coeff + term.coeff)
        # from a list: tuple() of a generator resizes as it grows, fragmenting the heap
        self.terms = tuple([acc[s] for s in sorted(acc) if not acc[s].coeff.is_zero])

    def normalize(self) -> "IntegrandSum":
        """The canonical form: the sum itself, as every sum is built canonical."""
        return self

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "IntegrandSum") -> "IntegrandSum":
        if not isinstance(other, IntegrandSum):
            return NotImplemented
        return IntegrandSum(self.terms + other.terms)

    def scale(self, factor: ValuePoly | RationalLike) -> "IntegrandSum":
        return IntegrandSum(t.scaled(factor) for t in self.terms)

    def substitute(self, bindings) -> "IntegrandSum":
        """Apply a ring substitution to every coefficient."""
        return IntegrandSum(
            IntegrandMonomial(t.m, t.n, t.p, t.q, t.coeff.substitute(bindings))
            for t in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegrandSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"IntegrandSum({list(self.terms)!r})"


def integrand_sum(*terms: IntegrandMonomial) -> IntegrandSum:
    return IntegrandSum(terms)


class RuleValues(NamedTuple):
    """What the rules give products of distributions; all read `RULE_VALUES` as they run."""

    d_at_zero: ValuePoly      # D(0) = w^-1 / 2
    ddot_at_zero: ValuePoly   # dD(0) = 0: the sign function vanishes at the origin
    dddot_at_zero: ValuePoly  # ddD(0) = -d0 + w/2: second derivative at coincident times
    delta_squared: ValuePoly  # d0: delta^2 -> f(0) times this weight
    ibp_contact: ValuePoly    # 1: the weight of the ibp move's delta term
    dd_contact: Callable[[int], ValuePoly]  # n >= 1 -> [dD^n](0), the Wick dD(0)^n


def local_value(m: int = 0, n: int = 0, p: int = 0) -> ValuePoly:
    """D(0)^m * dD(0)^n * ddD(0)^p, folded from the equal-time constants.

    The constants of `RULE_VALUES` are read at call time.  A zero constant
    with a positive power gives ZERO before any power is built.
    """
    values = RULE_VALUES
    d, ddot, dddot = values.d_at_zero, values.ddot_at_zero, values.dddot_at_zero
    if (m and d.is_zero) or (n and ddot.is_zero) or (p and dddot.is_zero):
        return ZERO
    value = None
    for constant, power in ((d, m), (ddot, n), (dddot, p)):
        if power:
            value = constant ** power if value is None else value * constant ** power
    return ONE if value is None else value


RULE_VALUES = RuleValues(ValuePoly.monomial(Fraction(1, 2), w=-1), ZERO,
                         ValuePoly.monomial(Fraction(1, 2), w=1) - D0, D0, ONE,
                         partial(local_value, 0))


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


# a token is a number, a name or one other non-space character; the token kind
# is read off its first character, in the classes of the first two alternatives
_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\S")
_OUTSIDE_RE = re.compile(r"[^\s\dA-Za-z^+\-*/]")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _tokens(text: str) -> list[str]:
    """The token strings of `text` and an end token "", after the lexical checks.

    A character outside the language and a number past the digit limit are
    reported before any grammar error, whichever comes first in the text.
    """
    bad = _OUTSIDE_RE.search(text)
    end = bad.start() if bad else len(text)
    tokens = _TOKEN_RE.findall(text, 0, end)
    max_digits = _max_str_digits()
    if max_digits and end > max_digits:  # a shorter text holds no such number
        for index, tok in enumerate(tokens):
            if len(tok) > max_digits and tok[0].isdecimal():
                raise ParseError(f"number longer than {max_digits} digits", _column(text, index))
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", end + 1)
    tokens.append("")
    return tokens


def _column(text: str, index: int) -> int:
    """The 1-based column of token `index` of `text`; the end token's is len(text) + 1."""
    for k, match in enumerate(_TOKEN_RE.finditer(text)):
        if k == index:
            return match.start() + 1
    return len(text) + 1


def _integer(text: str, tokens: list[str], index: int, message: str) -> int:
    """The integer token `index` spells, or a ParseError at any other token."""
    if not tokens[index][:1].isdecimal():
        raise ParseError(message, _column(text, index))
    return int(tokens[index])


def parse(text: str) -> IntegrandSum:
    """Parse the expression language into a canonical IntegrandSum, in one pass."""
    tokens = _tokens(text)
    terms = []
    i = 0
    while True:
        tok = tokens[i]
        numerator, denominator = (-1 if tok == "-" else 1), 1
        if tok in ("+", "-"):  # optional before the first term, required after it
            i += 1
        powers = dict.fromkeys(FACTOR_NAMES + SYMBOL_NAMES, 0)
        saw_atom = False
        while True:
            tok = tokens[i]
            first = tok[:1]
            if first in _LETTERS:
                if tok not in powers:
                    raise ParseError(f"unknown symbol {tok!r}", _column(text, i))
                name_index = i
                i += 1
                power = 1
                if tokens[i] == "^":
                    negative = tokens[i + 1] == "-"
                    i += 2 if negative else 1
                    power = _integer(text, tokens, i, "expected an integer power after '^'")
                    i += 1
                    if negative:
                        power = -power
                    if power < 0 and tok != "w":
                        raise ParseError(f"negative power of {tok}", _column(text, name_index))
                powers[tok] += power
            elif first.isdecimal():
                numerator *= int(tok)
                if tokens[i + 1] == "/":
                    i += 2
                    below = _integer(text, tokens, i, "expected a denominator")
                    if not below:
                        raise ParseError("zero denominator", _column(text, i))
                    denominator *= below
                i += 1
            elif tok == "*" and saw_atom:  # a '*' only joins two atoms of one term
                after = tokens[i + 1]
                if not (after[:1] in _LETTERS or after[:1].isdecimal()):
                    raise ParseError(f"expected a factor after '*', found {after or 'end'!r}",
                                     _column(text, i + 1))
                i += 1
                continue
            else:
                break
            saw_atom = True
        if not saw_atom:
            raise ParseError(f"expected a term, found {tok or 'end'!r}", _column(text, i))
        m, n, p, q, w, d0, a, g = powers.values()
        coeff = ValuePoly.monomial(Fraction(numerator, denominator), w=w, d0=d0, a=a, g=g)
        terms.append(IntegrandMonomial(m, n, p, q, coeff))
        if not tok:
            return IntegrandSum(terms)
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-' before {tok!r}", _column(text, i))


def render_sum(s: IntegrandSum) -> str:
    """Text of a sum, canonical as every sum is; parse(render_sum(s)) == s."""
    terms = []
    for term in s:
        factors = term.factors_text()
        terms.extend((coef, words + [factors] if factors else words)
                     for coef, words in term.coeff.render_terms())
    return render_signed(terms)
