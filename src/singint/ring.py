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
type: the constructors and `substitute` take ints and Fractions, `items`,
`coefficient_of` and `as_fraction` return Fractions, and a constant hashes
like the equal Fraction.  `substitute` binds on the pairs, and
`render_terms` formats straight from them.

One construction rule holds here and in `singint.integrand`: the public
constructors, `ValuePoly(...)`, `rational` and `monomial`, check every
input, through the one term check `_checked_term`, and code that
assembles a value from parts already checked builds it directly, with
`_wrap`.  `monomial` checks its one term and wraps it without the
constructor's dict loop.  Ring operations work on canonical operands, so
they build their results without re-validating them: they only drop the
coefficients that cancelled.  The parser wraps each term's reduced
coefficient the same way.  An int or Fraction factor of `*` is read as a
pair, not wrapped in a ValuePoly; `+`, `-` and `==` read one through
`_coerce`.  Most operands the reducer meets are zero or a single term,
and those take direct paths: a zero summand returns the other summand, a
zero factor returns ZERO, two single terms multiply to their one product
term, and a single term's power raises its coefficient and scales its
exponents.  A ValuePoly is immutable, so returning an operand itself is
safe.
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


def _checked_term(kw: int, kd0: int, ka: int, kg: int, coef: RationalLike) -> Pair:
    """The pair of one term's coefficient, after the checks on its exponents."""
    if not type(kw) is type(kd0) is type(ka) is type(kg) is int:
        raise TypeError(f"exponents must be ints, got {(kw, kd0, ka, kg)}")
    if kd0 < 0 or ka < 0 or kg < 0:
        raise ValueError(f"negative exponent for d0/a/g in {(kw, kd0, ka, kg)}")
    return _q(coef)


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
            pair = _checked_term(kw, kd0, ka, kg, coef)
            if pair[0]:
                clean[(kw, kd0, ka, kg)] = pair
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike) -> "ValuePoly":
        return cls.monomial(value)

    @classmethod
    def monomial(cls, coeff: RationalLike, w: int = 0, d0: int = 0,
                 a: int = 0, g: int = 0) -> "ValuePoly":
        pair = _checked_term(w, d0, a, g, coeff)
        return _wrap({(w, d0, a, g): pair} if pair[0] else {})

    # -- ring structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter([(exps, Fraction(*pair)) for exps, pair in sorted(self._terms.items())])

    def __add__(self, other: "ValuePoly | RationalLike") -> "ValuePoly":
        if not isinstance(other, ValuePoly):
            other = _coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for exps, coef in other._terms.items():
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
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError(f"a ValuePoly power must be an int, not {type(exponent).__name__}")
        if exponent < 0:
            raise ValueError("ValuePoly powers must be nonnegative integers")
        if not exponent:
            return ONE
        if len(self._terms) == 1:
            (((kw, kd0, ka, kg), coef),) = self._terms.items()
            return _wrap({(kw * exponent, kd0 * exponent, ka * exponent, kg * exponent):
                          _qpow(coef, exponent)})
        if exponent == 1 or not self._terms:
            return self
        # halving: x^k = (x^(k >> 1))^2, times x when k is odd
        half = self ** (exponent >> 1)
        square = half * half
        return square * self if exponent & 1 else square

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

        Symbols are bound one at a time, on the stored pairs, and
        `_power_sum` adds up the terms each binding merges.  It splits their
        sorted powers only at gaps wider than the digit limit and the input
        coefficients' summed height can bridge, so a sum sure to pass the
        int-to-str digit limit raises the printer's error before any power
        past the input's own reach is built.  The bound holds
        after each binding: w^k a^k at w = 2, a = 1/2 raises for a k whose
        2^k is too long to print, though the whole product is 1.  Zero
        values are bound first, and a term they zero is dropped at once, so
        no other binding bounds it, in whatever order the bindings come.
        """
        for name in bindings:
            if name not in _SYMBOL_INDEX:
                raise ValueError(f"unknown symbol {name!r}")
        if "w" in bindings and _q(bindings["w"])[0] <= 0:
            raise ValueError("w must be substituted with a positive rational")
        terms = self._terms
        for name, value in sorted(bindings.items(), key=lambda item: _q(item[1])[0] != 0):
            idx = _SYMBOL_INDEX[name]
            merged: dict[Exponents, list[tuple[int, Pair]]] = {}
            for exps, coef in terms.items():
                key = exps[:idx] + (0,) + exps[idx + 1:]
                merged.setdefault(key, []).append((exps[idx], coef))  # type: ignore[arg-type]
            pair = _q(value)
            terms = {key: coef for key, powers in merged.items()
                     if (coef := _power_sum(powers, pair))[0]}
        return _wrap(terms)

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


def _qpow(x: Pair, k: int) -> Pair:
    """x**k, reduced, as coprime powers stay coprime.  A negative k needs x > 0:
    only w takes negative powers, and `substitute` binds it to a positive value."""
    n, d = x
    return (n ** k, d ** k) if k >= 0 else (d ** -k, n ** -k)


def _power_sum(powers: list[tuple[int, Pair]], value: Pair) -> Pair:
    """Exact sum of coef * value**k over (k, coef) pairs with distinct k.

    One scan over the sorted powers starts a new group wherever two
    neighbouring powers lie more than 2 (4 * limit + H) + 2 bits apart, at
    bitlength(max(|p|, q)) - 1 bits per power of value = p/q, where H sums
    the heights of all the input coefficients.  A limit of 0 never splits,
    nor does a value of 0 or +-1, at 0 bits a power.  Each group is
    summed from its lowest power, so n terms build no power past
    (n - 1)(8 * limit + 2 H + 2) such bits.  Two surviving groups lie
    further apart: at the primes of q the higher outweighs the lower, at
    those of p the lower the higher, and where p or q is 1 their sizes
    part, each by more than the H bits their coefficients can cancel.  So
    the sum keeps over half the gap less H, more than 4 * limit bits,
    upstairs or downstairs, and raises the printer's error.  A zero group
    between survivors only widens their gap.  A lone survivor, total *
    value**low, raises the same error when |low| * bits less the height of
    total passes 4 * limit: the side that holds max(|p|, q)**|low| then
    keeps more than 4 * limit bits.  Otherwise its power stays under
    2 (4 * limit + height) bits.
    """
    if len(powers) == 1 and not powers[0][0]:
        return powers[0][1]  # value**0, as for most terms an order check binds
    limit = _max_str_digits()
    bits = max(abs(value[0]), value[1]).bit_length() - 1
    gap = 2 * (4 * limit + sum(_height(coef) for _, coef in powers)) + 2
    groups: list[tuple[Pair, int]] = []  # (sum of coef * value**(k - low), low)
    for k, coef in sorted(powers):
        if not groups or limit and (k - last) * bits > gap:
            groups.append((coef, k))
        else:
            total, low = groups[-1]
            groups[-1] = _qadd(total, _qmul(coef, _qpow(value, k - low))), low
        last = k
    survivors = [group for group in groups if group[0][0]]
    if not survivors:
        return 0, 1
    (total, low), *others = survivors
    if others or limit and abs(low) * bits - _height(total) > 4 * limit:
        raise _digit_limit_error()
    return _qmul(total, _qpow(value, low))


def _height(x: Pair) -> int:
    return max(abs(x[0]).bit_length(), x[1].bit_length())


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
