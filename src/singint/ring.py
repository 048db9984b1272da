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
them: they only drop the coefficients that cancelled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

# exponent vector (k_w, k_d0, k_a, k_g)
Exponents = tuple[int, int, int, int]

RationalLike = Union[int, Fraction]

_SYMBOLS = ("w", "d0", "a", "g")
_SYMBOL_INDEX = {name: i for i, name in enumerate(_SYMBOLS)}


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
        if terms:
            for exps, coef in terms.items():
                kw, kd0, ka, kg = exps
                if kd0 < 0 or ka < 0 or kg < 0:
                    raise ValueError(f"negative exponent for d0/a/g in {exps}")
                frac = _as_fraction(coef)
                if frac:
                    clean[(kw, kd0, ka, kg)] = clean.get(exps, Fraction(0)) + frac
            clean = {e: c for e, c in clean.items() if c}
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
        other = _coerce(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
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
        """Substitute exact rationals for some symbols; w must be positive."""
        for name in bindings:
            if name not in _SYMBOL_INDEX:
                raise ValueError(f"unknown symbol {name!r}")
        if "w" in bindings and _as_fraction(bindings["w"]) <= 0:
            raise ValueError("w must be substituted with a positive rational")
        out: dict[Exponents, Fraction] = {}
        for exps, coef in self._terms.items():
            new_exps = list(exps)
            for name, value in bindings.items():
                idx = _SYMBOL_INDEX[name]
                coef = coef * _as_fraction(value) ** exps[idx]
                new_exps[idx] = 0
            key = tuple(new_exps)
            out[key] = out.get(key, Fraction(0)) + coef  # type: ignore[index]
        return ValuePoly(out)  # type: ignore[arg-type]

    # -- rendering ---------------------------------------------------------

    def render_terms(self) -> list[tuple[Fraction, list[str]]]:
        """(coefficient, symbol words) per term, by (k_g, k_d0, k_a, k_w) descending."""
        out = []
        for (kw, kd0, ka, kg), coef in sorted(
                self._terms.items(), key=lambda it: (-it[0][3], -it[0][1], -it[0][2], -it[0][0])):
            symbols = (("g", kg), ("d0", kd0), ("a", ka), ("w", kw))
            out.append((coef, [name if k == 1 else f"{name}^{k}" for name, k in symbols if k]))
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
        text = " ".join(words) if mag == 1 and words else " ".join([str(mag), *words])
        if parts:
            parts.append(("+ " if coef > 0 else "- ") + text)
        else:
            parts.append(text if coef > 0 else "-" + text)
    return " ".join(parts) if parts else "0"


def _canonical(terms: dict[Exponents, Fraction]) -> ValuePoly:
    """Wrap terms built from canonical operands, dropping cancelled coefficients."""
    poly = object.__new__(ValuePoly)
    poly._terms = {e: c for e, c in terms.items() if c}
    return poly


def _coerce(value: "ValuePoly | RationalLike") -> ValuePoly:
    if isinstance(value, ValuePoly):
        return value
    return ValuePoly.rational(value)


def wpow(k: int) -> ValuePoly:
    """w**k for any integer k (the only symbol allowed negative powers)."""
    return ValuePoly.monomial(1, w=k)


ZERO = ValuePoly()
ONE = ValuePoly.rational(1)
W = ValuePoly.monomial(1, w=1)
D0 = ValuePoly.monomial(1, d0=1)
A = ValuePoly.monomial(1, a=1)
G = ValuePoly.monomial(1, g=1)
