"""Symbolic integrands: products of propagator-line factors under one integral.

An IntegrandMonomial records coeff * integral dt of

    D(t)^m * dD(t)^n * ddD(t)^p * delta(t)^q

where D is the oscillator propagator exp(-w|t|)/(2w), dD and ddD its first
and second distributional derivatives, and delta the Dirac factor.  The
shape (0, 0, 0, 0) stands for coeff times the divergent bare measure
integral dt * 1 and is never a valid reduction input.

Equal-time (local) factors are never stored as integrand factors: they are
folded into coefficients at construction time by `local_value`, the one
place that combines the constants below,

    D_AT_ZERO     = w^-1 / 2
    DDOT_AT_ZERO  = 0            (the sign function vanishes at the origin)
    DDDOT_AT_ZERO = -d0 + w/2    (second derivative at coincident times)

so an IntegrandSum always describes genuinely nonlocal content plus exact
ring coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .ring import D0, ZERO, RationalLike, ValuePoly

Shape = tuple[int, int, int, int]

D_AT_ZERO = ValuePoly.monomial(Fraction(1, 2), w=-1)
DDOT_AT_ZERO = ZERO
DDDOT_AT_ZERO = ValuePoly.monomial(Fraction(1, 2), w=1) - D0

# factor spellings shared by the renderer and the parser
FACTOR_NAMES = ("D", "dD", "ddD", "delta")

_setattr = object.__setattr__


class IntegrandMonomial:
    """Immutable value; not a tuple, so `+` and `3 *` raise instead of joining fields."""

    __slots__ = ("m", "n", "p", "q", "coeff")

    def __init__(self, m: int, n: int, p: int, q: int, coeff: ValuePoly):
        if min(m, n, p, q) < 0:
            raise ValueError("factor powers must be nonnegative")
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

    def __mul__(self, other: "IntegrandMonomial") -> "IntegrandMonomial":
        return IntegrandMonomial(self.m + other.m, self.n + other.n,
                                 self.p + other.p, self.q + other.q,
                                 self.coeff * other.coeff)

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
    """A finite sum of integrand monomials.

    normalize() produces the canonical form: monomials of equal shape merged,
    zero-coefficient terms dropped, terms sorted lexicographically by
    (m, n, p, q).  Two sums compare equal when their canonical forms match.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[IntegrandMonomial] = ()):
        self.terms: tuple[IntegrandMonomial, ...] = tuple(terms)

    def normalize(self) -> "IntegrandSum":
        # a shape seen once keeps its monomial; only a repeat pays a ring add
        acc: dict[Shape, IntegrandMonomial] = {}
        for term in self.terms:
            shape = term.shape
            first = acc.get(shape)
            acc[shape] = term if first is None else IntegrandMonomial(
                *shape, first.coeff + term.coeff)
        kept = [acc[shape] for shape in sorted(acc) if not acc[shape].coeff.is_zero]
        return IntegrandSum(kept)

    @property
    def is_zero(self) -> bool:
        return not self.normalize().terms

    def __add__(self, other: "IntegrandSum") -> "IntegrandSum":
        return IntegrandSum(self.terms + other.terms).normalize()

    def __neg__(self) -> "IntegrandSum":
        return self.scale(-1)

    def __sub__(self, other: "IntegrandSum") -> "IntegrandSum":
        return self + (-other)

    def scale(self, factor: ValuePoly | RationalLike) -> "IntegrandSum":
        return IntegrandSum(t.scaled(factor) for t in self.terms).normalize()

    def substitute(self, bindings) -> "IntegrandSum":
        """Apply a ring substitution to every coefficient."""
        return IntegrandSum(
            IntegrandMonomial(t.m, t.n, t.p, t.q, t.coeff.substitute(bindings))
            for t in self.terms).normalize()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegrandSum):
            return NotImplemented
        return self.normalize().terms == other.normalize().terms

    def __hash__(self) -> int:
        return hash(self.normalize().terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"IntegrandSum({list(self.terms)!r})"


def integrand_sum(*terms: IntegrandMonomial) -> IntegrandSum:
    return IntegrandSum(terms).normalize()


def local_value(m: int = 0, n: int = 0, p: int = 0) -> ValuePoly:
    """D(0)^m * dD(0)^n * ddD(0)^p; the one place the equal-time constants are folded."""
    if n:
        return ZERO  # DDOT_AT_ZERO ** n
    if not p:
        return D_AT_ZERO ** m
    if not m:
        return DDDOT_AT_ZERO ** p
    return D_AT_ZERO ** m * DDDOT_AT_ZERO ** p
