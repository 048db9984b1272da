"""Exact coefficient ring for the integral reducer.

A ValuePoly is a sparse Laurent polynomial over arbitrary-precision
rationals in four commuting symbols:

    w   oscillator frequency, any integer exponent
    d0  the formal equal-time delta value delta(0), exponent >= 0
    a   free parameter of the quintic term of the coordinate map, exponent >= 0
    g   coupling used purely as an order-counting grade, exponent >= 0

Every closed-form value the engine produces lives in this ring.  No floats
enter; substitution is the only way to leave it.

Each coefficient is stored as a reduced int pair (numerator, denominator):
the denominator is positive, the two are coprime and the numerator is never
0.  `_q` reads an int or Fraction into a pair, `_qmul` multiplies two pairs
with the cross-gcd of `Fraction`'s own product, so a big coefficient never
pays a gcd over the full product, and `_qadd` adds two pairs; all three keep
pairs reduced.  The arithmetic is exact, as `Fraction`'s is, without a
Fraction object per operation.  `Fraction` stays the public coefficient
type: the constructors take ints and Fractions, `items`, `coefficient_of`
and `as_fraction` return Fractions, `substitute` works on Fractions, and a
constant hashes like the equal Fraction.  `render_terms` formats straight
from the pairs.

The public constructor validates its input.  Ring operations work on
canonical operands, so they build their results without re-validating
them: they only drop the coefficients that cancelled.  An int or Fraction
operand of `+` or `*` is read as a pair, not wrapped in a ValuePoly.  Most
operands the reducer meets are zero or a single term, and those take
direct paths: a zero summand returns the other summand, a zero factor
returns ZERO, two single terms multiply to their one product term, and a
single term's power raises its coefficient and scales its exponents.  A
ValuePoly is immutable, so returning an operand itself is safe.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

# exponent vector (k_w, k_d0, k_a, k_g)
Exponents = tuple[int, int, int, int]

RationalLike = Union[int, Fraction]

# a reduced rational (numerator, denominator), denominator > 0
Pair = tuple[int, int]

SYMBOL_NAMES = ("w", "d0", "a", "g")
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOL_NAMES)}
_CONSTANT = (0, 0, 0, 0)


def _q(value: RationalLike) -> Pair:
    """The reduced pair of an int or Fraction; bool and float raise TypeError."""
    # ints first: an isinstance check against Fraction, an ABC, is slow for an int
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _qmul(x: Pair, y: Pair) -> Pair:
    """x * y, cross-cancelled before the product as in Fraction._mul."""
    na, da = x
    nb, db = y
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


def _qadd(x: Pair, y: Pair) -> Pair:
    """x + y, reduced as in Fraction._add; a zero sum has numerator 0."""
    na, da = x
    nb, db = y
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


class ValuePoly:
    """Sparse exact polynomial; canonical form stores no zero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, RationalLike] | None = None):
        clean: dict[Exponents, Pair] = {}
        for exps, coef in (terms or {}).items():
            kw, kd0, ka, kg = exps
            if kd0 < 0 or ka < 0 or kg < 0:
                raise ValueError(f"negative exponent for d0/a/g in {exps}")
            pair = _q(coef)
            if pair[0]:
                clean[(kw, kd0, ka, kg)] = pair
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike) -> "ValuePoly":
        return cls({_CONSTANT: value})

    @classmethod
    def monomial(cls, coeff: RationalLike, w: int = 0, d0: int = 0,
                 a: int = 0, g: int = 0) -> "ValuePoly":
        return cls({(w, d0, a, g): coeff})

    # -- ring structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter([(exps, Fraction(*pair)) for exps, pair in sorted(self._terms.items())])

    def __add__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        if isinstance(other, ValuePoly):
            right = other._terms
            if not right:
                return self
            if not self._terms:
                return other
        else:
            pair = _q(other)
            if not pair[0]:
                return self
            right = {_CONSTANT: pair}
        merged = dict(self._terms)
        for exps, coef in right.items():
            if exps in merged:
                merged[exps] = _qadd(merged[exps], coef)
            else:
                merged[exps] = coef
        return _canonical(merged)

    __radd__ = __add__

    def __neg__(self) -> "ValuePoly":
        return _wrap({e: (-n, d) for e, (n, d) in self._terms.items()})

    def __sub__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        left = self._terms
        if not isinstance(other, ValuePoly):
            pair = _q(other)
            if not pair[0] or not left:
                return ZERO
            return _wrap({e: _qmul(c, pair) for e, c in left.items()})
        right = other._terms
        if not left or not right:
            return ZERO
        if len(left) == 1 and len(right) == 1:
            # nonzero times nonzero: the one product term needs no cancelling
            ((e1, c1),) = left.items()
            ((e2, c2),) = right.items()
            return _wrap({(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]):
                          _qmul(c1, c2)})
        out: dict[Exponents, Pair] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                if exps in out:
                    out[exps] = _qadd(out[exps], _qmul(c1, c2))
                else:
                    out[exps] = _qmul(c1, c2)
        return _canonical(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ValuePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("ValuePoly powers must be nonnegative integers")
        if not exponent:
            return ONE
        if len(self._terms) == 1:
            # coprime powers stay coprime, so the pair stays reduced
            (((kw, kd0, ka, kg), (n, d)),) = self._terms.items()
            return _wrap({(kw * exponent, kd0 * exponent, ka * exponent, kg * exponent):
                          (n ** exponent, d ** exponent)})
        # start at the lowest set bit and square only while bits remain
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base
        exponent >>= 1
        while exponent:
            base = base * base
            if exponent & 1:
                result = result * base
            exponent >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):  # unequal, as 1.0 is: no bool enters the ring
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, ValuePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # constants hash like the equal Fraction, so `rational(3)` and 3 share a key
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and _CONSTANT in self._terms:
            return hash(Fraction(*self._terms[_CONSTANT]))
        return hash(frozenset(self._terms.items()))

    # -- queries -----------------------------------------------------------

    def degree_in(self, symbol: str) -> int | None:
        """Largest exponent of `symbol` across terms; None for the zero poly."""
        idx = _SYMBOL_INDEX[symbol]
        if not self._terms:
            return None
        return max(exps[idx] for exps in self._terms)

    def coefficient_of(self, w: int = 0, d0: int = 0, a: int = 0, g: int = 0) -> Fraction:
        return Fraction(*self._terms.get((w, d0, a, g), (0, 1)))

    def as_fraction(self) -> Fraction:
        """The value of a purely rational poly; error if symbols remain."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {_CONSTANT}:
            raise ValueError(f"not a pure rational: {self.render()}")
        return Fraction(*self._terms[_CONSTANT])

    def substitute(self, bindings: Mapping[str, RationalLike]) -> "ValuePoly":
        """Substitute exact rationals for some symbols; w must be positive.

        Symbols are bound one at a time, and `_power_sum` adds up the terms
        each binding merges, so a power sure to pass the int-to-str digit
        limit raises the printer's error before it is built.  The bound holds
        after each binding: w^k a^k at w = 2, a = 1/2 raises for a k whose
        2^k is too long to print, though the whole product is 1.
        """
        for name in bindings:
            if name not in _SYMBOL_INDEX:
                raise ValueError(f"unknown symbol {name!r}")
        if "w" in bindings and _q(bindings["w"])[0] <= 0:
            raise ValueError("w must be substituted with a positive rational")
        terms = {exps: Fraction(*pair) for exps, pair in self._terms.items()}
        for name, value in bindings.items():
            idx = _SYMBOL_INDEX[name]
            merged: dict[Exponents, list[tuple[int, Fraction]]] = {}
            for exps, coef in terms.items():
                key = exps[:idx] + (0,) + exps[idx + 1:]
                merged.setdefault(key, []).append((exps[idx], coef))  # type: ignore[arg-type]
            if not isinstance(value, Fraction):
                value = Fraction(*_q(value))
            terms = {key: _power_sum(powers, value) for key, powers in merged.items()}
        return ValuePoly(terms)

    # -- rendering ---------------------------------------------------------

    def render_terms(self) -> list[tuple[Pair, list[str]]]:
        """(coefficient pair, symbol words) per term, by (k_g, k_d0, k_a, k_w) descending."""
        out = []
        for (kw, kd0, ka, kg), coef in sorted(
                self._terms.items(), key=lambda it: (-it[0][3], -it[0][1], -it[0][2], -it[0][0])):
            symbols = (("g", kg), ("d0", kd0), ("a", ka), ("w", kw))
            out.append((coef, [name if k == 1 else f"{name}^{_digits(k)}"
                               for name, k in symbols if k]))
        return out

    def render(self) -> str:
        """Canonical text: terms sorted by (k_g, k_d0, k_a, k_w) descending."""
        return render_signed(self.render_terms())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ValuePoly({self.render()!r})"


def render_signed(terms: Iterable[tuple[Pair, list[str]]]) -> str:
    """Signed text of (coefficient pair, words) terms, unit magnitudes elided; "0" if none.

    A magnitude prints as a Fraction does: "n" over a denominator of 1, else "n/d".
    """
    parts: list[str] = []
    for (num, den), words in terms:
        mag = abs(num)
        if mag == 1 and den == 1 and words:
            text = " ".join(words)
        else:
            digits = _digits(mag) if den == 1 else f"{_digits(mag)}/{_digits(den)}"
            text = " ".join([digits, *words])
        if parts:
            parts.append(("+ " if num > 0 else "- ") + text)
        else:
            parts.append(text if num > 0 else "-" + text)
    return " ".join(parts) if parts else "0"


def _digits(number: int | Fraction) -> str:
    """str(number), or a one-line ValueError past the int-to-str digit limit."""
    try:
        return str(number)
    except ValueError:
        raise _digit_limit_error() from None


def _digit_limit_error() -> ValueError:
    return ValueError(f"a number in the output has more than {_max_str_digits()} digits")


def _power_sum(powers: list[tuple[int, Fraction]], value: Fraction) -> Fraction:
    """Exact sum of coef * value**k over (k, coef) pairs with distinct k.

    The terms split into runs at gaps of more than 8 * limit powers, and each
    run is summed with its lowest power factored out, so no power is built
    that the run would cancel.  A sum that keeps one run is bounded as one
    term.  Two surviving runs with factored sums s and t, of bit heights
    h(s) and h(t), G > 2 (4 * limit + h(s) + h(t)) + 2 powers apart, leave
    more than 4 * limit bits upstairs or downstairs (compare the p- or
    q-adic orders of the two runs, or their sizes where p or q is 1), so
    they raise the printer's error; nearer runs are joined.
    """
    if len(powers) == 1:
        ((k, coef),) = powers
        if not k:
            return coef
        if _max_str_digits() and _passes_digit_limit(coef, k, value):
            raise _digit_limit_error()
        return coef * value ** k
    limit = _max_str_digits()
    if not limit or value in (0, 1, -1):
        return sum((coef * value ** k for k, coef in powers), Fraction(0))
    powers = sorted(powers)
    runs = [[powers[0]]]
    for k, coef in powers[1:]:
        if k - runs[-1][-1][0] > 8 * limit:
            runs.append([])
        runs[-1].append((k, coef))
    low, total = 0, Fraction(0)
    for run in runs:
        start = run[0][0]
        rest = sum((coef * value ** (k - start) for k, coef in run), Fraction(0))
        if not rest:
            continue
        if not total:
            low, total = start, rest
        elif start - low > 2 * (4 * limit + _height(total) + _height(rest)) + 2:
            raise _digit_limit_error()
        else:
            total += rest * value ** (start - low)
    if total and _passes_digit_limit(total, low, value):
        raise _digit_limit_error()
    return total * value ** low


def _height(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _passes_digit_limit(coef: Fraction, k: int, value: Fraction) -> bool:
    """Whether coef * value**k surely passes the digit limit.

    For value = p/q in lowest terms and k > 0, the product keeps at least
    p^k / den(coef) upstairs and q^k / num(coef) downstairs; past 4 * limit
    bits a number has over `limit` digits.
    """
    if k < 0:
        value, k = 1 / value, -k
    bits = max(k * (abs(value.numerator).bit_length() - 1) - coef.denominator.bit_length(),
               k * (value.denominator.bit_length() - 1) - abs(coef.numerator).bit_length())
    return bits > 4 * _max_str_digits()


def _max_str_digits() -> int:
    """Python's int-to-str digit limit; 0 (no limit) where the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _wrap(terms: dict[Exponents, Pair]) -> ValuePoly:
    """Wrap terms built from canonical operands that hold no zero coefficient."""
    poly = object.__new__(ValuePoly)
    poly._terms = terms
    return poly


def _canonical(terms: dict[Exponents, Pair]) -> ValuePoly:
    """Wrap terms built from canonical operands, dropping cancelled coefficients."""
    return _wrap({e: c for e, c in terms.items() if c[0]})


def _coerce(value: "ValuePoly | RationalLike") -> ValuePoly:
    if isinstance(value, ValuePoly):
        return value
    return _canonical({_CONSTANT: _q(value)})


def wpow(k: int) -> ValuePoly:
    """w**k for any integer k (the only symbol allowed negative powers)."""
    return ValuePoly.monomial(1, w=k)


ZERO = ValuePoly()
ONE = ValuePoly.rational(1)
W = ValuePoly.monomial(1, w=1)
D0 = ValuePoly.monomial(1, d0=1)
A = ValuePoly.monomial(1, a=1)
G = ValuePoly.monomial(1, g=1)
