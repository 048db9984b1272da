"""Exact coefficient ring for the integral reducer.

A ValuePoly is a sparse Laurent polynomial over arbitrary-precision
rationals in four commuting symbols:

    w   oscillator frequency, any integer exponent
    d0  the formal equal-time delta value delta(0), exponent >= 0
    a   free parameter of the quintic term of the coordinate map, exponent >= 0
    g   coupling used purely as an order-counting grade, exponent >= 0

Every closed-form value the engine produces lives in this ring.  No floats
enter; substitution is the only way to leave it.

The public constructor validates its input.  Ring operations work on
canonical operands, so they build their results without re-validating
them: they only drop the coefficients that cancelled.  Most operands the
reducer meets are zero or a single term, and those take direct paths: a
zero summand returns the other summand, a zero factor returns ZERO, two
single terms multiply to their one product term, and a single term's
power raises its coefficient and scales its exponents.  A ValuePoly is
immutable, so returning an operand itself is safe.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

# exponent vector (k_w, k_d0, k_a, k_g)
Exponents = tuple[int, int, int, int]

RationalLike = Union[int, Fraction]

SYMBOL_NAMES = ("w", "d0", "a", "g")
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOL_NAMES)}


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class ValuePoly:
    """Sparse exact polynomial; canonical form stores no zero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, RationalLike] | None = None):
        clean: dict[Exponents, Fraction] = {}
        for exps, coef in (terms or {}).items():
            kw, kd0, ka, kg = exps
            if kd0 < 0 or ka < 0 or kg < 0:
                raise ValueError(f"negative exponent for d0/a/g in {exps}")
            frac = _as_fraction(coef)
            if frac:
                clean[(kw, kd0, ka, kg)] = frac
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike) -> "ValuePoly":
        return cls({(0, 0, 0, 0): _as_fraction(value)})

    @classmethod
    def monomial(cls, coeff: RationalLike, w: int = 0, d0: int = 0,
                 a: int = 0, g: int = 0) -> "ValuePoly":
        return cls({(w, d0, a, g): _as_fraction(coeff)})

    # -- ring structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(sorted(self._terms.items()))

    def __add__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        other = _coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for exps, coef in other._terms.items():
            if exps in merged:
                merged[exps] += coef
            else:
                merged[exps] = coef
        return _canonical(merged)

    __radd__ = __add__

    def __neg__(self) -> "ValuePoly":
        return _canonical({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        left, right = self._terms, _coerce(other)._terms
        if not left or not right:
            return ZERO
        if len(left) == 1 and len(right) == 1:
            # nonzero times nonzero: the one product term needs no cancelling
            ((e1, c1),) = left.items()
            ((e2, c2),) = right.items()
            poly = object.__new__(ValuePoly)
            poly._terms = {(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]): c1 * c2}
            return poly
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                if exps in out:
                    out[exps] += c1 * c2
                else:
                    out[exps] = c1 * c2
        return _canonical(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ValuePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("ValuePoly powers must be nonnegative integers")
        if not exponent:
            return ONE
        if len(self._terms) == 1:
            (((kw, kd0, ka, kg), coef),) = self._terms.items()
            poly = object.__new__(ValuePoly)
            poly._terms = {(kw * exponent, kd0 * exponent, ka * exponent, kg * exponent):
                           coef ** exponent}
            return poly
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
        if len(self._terms) == 1 and (0, 0, 0, 0) in self._terms:
            return hash(self._terms[(0, 0, 0, 0)])
        return hash(frozenset(self._terms.items()))

    # -- queries -----------------------------------------------------------

    def degree_in(self, symbol: str) -> int | None:
        """Largest exponent of `symbol` across terms; None for the zero poly."""
        idx = _SYMBOL_INDEX[symbol]
        if not self._terms:
            return None
        return max(exps[idx] for exps in self._terms)

    def coefficient_of(self, w: int = 0, d0: int = 0, a: int = 0, g: int = 0) -> Fraction:
        return self._terms.get((w, d0, a, g), Fraction(0))

    def as_fraction(self) -> Fraction:
        """The value of a purely rational poly; error if symbols remain."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {(0, 0, 0, 0)}:
            raise ValueError(f"not a pure rational: {self.render()}")
        return self._terms[(0, 0, 0, 0)]

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
        if "w" in bindings and _as_fraction(bindings["w"]) <= 0:
            raise ValueError("w must be substituted with a positive rational")
        terms = self._terms
        for name, value in bindings.items():
            idx = _SYMBOL_INDEX[name]
            merged: dict[Exponents, list[tuple[int, Fraction]]] = {}
            for exps, coef in terms.items():
                key = exps[:idx] + (0,) + exps[idx + 1:]
                merged.setdefault(key, []).append((exps[idx], coef))  # type: ignore[arg-type]
            value = _as_fraction(value)
            terms = {key: _power_sum(powers, value) for key, powers in merged.items()}
        return ValuePoly(terms)

    # -- rendering ---------------------------------------------------------

    def render_terms(self) -> list[tuple[Fraction, list[str]]]:
        """(coefficient, symbol words) per term, by (k_g, k_d0, k_a, k_w) descending."""
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


def render_signed(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Signed text of (coefficient, words) terms, unit magnitudes elided; "0" if none."""
    parts: list[str] = []
    for coef, words in terms:
        mag = abs(coef)
        text = " ".join(words) if mag == 1 and words else " ".join([_digits(mag), *words])
        if parts:
            parts.append(("+ " if coef > 0 else "- ") + text)
        else:
            parts.append(text if coef > 0 else "-" + text)
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


def _canonical(terms: dict[Exponents, Fraction]) -> ValuePoly:
    """Wrap terms built from canonical operands, dropping cancelled coefficients."""
    poly = object.__new__(ValuePoly)
    poly._terms = {e: c for e, c in terms.items() if c}
    return poly


def _coerce(value: "ValuePoly | RationalLike") -> ValuePoly:
    if isinstance(value, ValuePoly):
        return value
    return _canonical({(0, 0, 0, 0): _as_fraction(value)})


def wpow(k: int) -> ValuePoly:
    """w**k for any integer k (the only symbol allowed negative powers)."""
    return ValuePoly.monomial(1, w=k)


ZERO = ValuePoly()
ONE = ValuePoly.rational(1)
W = ValuePoly.monomial(1, w=1)
D0 = ValuePoly.monomial(1, d0=1)
A = ValuePoly.monomial(1, a=1)
G = ValuePoly.monomial(1, g=1)
