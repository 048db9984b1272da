"""Check suites: reduction identities, diagram sums, and a numeric oracle.

All expected values here are frozen closed forms, written out literally so
that no check compares the reducer against itself:

    D(0)            = w^-1 / 2
    integral D^2    = w^-3 / 4
    integral D^4    = w^-5 / 32

Each identity reduces `parse(name)`: its name is the integrand it checks.

The quadrature oracle integrates the explicit exponential form of the
absolutely convergent integrands numerically and is the one path that never
touches the symbolic engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp
from typing import Iterable, NamedTuple

from .integrand import parse
from .reducer import ReductionTrace, reduce
from .ring import D0, G, W, ZERO, RationalLike, ValuePoly
from .wick import DiagramClass, diagram_classes, order_contribution

# frozen D(0) and nonsingular integrals (independently confirmed by the oracle)
D_AT_ZERO = ValuePoly.monomial(Fraction(1, 2), w=-1)
INT_D_SQUARED = ValuePoly.monomial(Fraction(1, 4), w=-3)
INT_D_FOURTH = ValuePoly.monomial(Fraction(1, 32), w=-5)


class CheckResult(NamedTuple):
    name: str
    expected: ValuePoly
    actual: ValuePoly
    passed: bool
    trace: ReductionTrace | None = None


def _check(name: str, expected: ValuePoly, actual: ValuePoly,
           trace: ReductionTrace | None = None) -> CheckResult:
    return CheckResult(name=name, expected=expected, actual=actual,
                       passed=expected == actual, trace=trace)


def identity_suite() -> list[CheckResult]:
    """Exact reductions of two- and four-line integrands, each named by its expression."""
    w2 = W * W
    w4 = w2 * w2
    rows = [
        ("dD^2 + w^2 D^2", D_AT_ZERO),
        ("ddD^2 + 2 w^2 dD^2 + w^4 D^2", D0),
        ("ddD D^3", -(D_AT_ZERO ** 3) + w2 * INT_D_FOURTH),
        ("dD^2 D^2", Fraction(1, 3) * D_AT_ZERO ** 3 - Fraction(1, 3) * w2 * INT_D_FOURTH),
        ("ddD^2 D^2", D0 * D_AT_ZERO ** 2 - 2 * w2 * D_AT_ZERO ** 3 + w4 * INT_D_FOURTH),
        ("ddD dD^2 D", ValuePoly.monomial(Fraction(1, 32), w=-1)),
        ("dD^4", ValuePoly.monomial(Fraction(-3, 32), w=-1)),
        ("delta", ValuePoly.rational(1)),
        ("delta D^3", D_AT_ZERO ** 3),
        ("delta^2", D0),
        ("delta^2 D^2", D0 * D_AT_ZERO ** 2),
        ("delta^2 dD^2", ZERO),
    ]
    reduced = [_check(text, expected, *reduce(parse(text))) for text, expected in rows]
    # cross-derivations compare values the suite has already reduced; they
    # are listed after the sixth row, "ddD dD^2 D"
    value = {check.name: check.actual for check in reduced}
    cross = [
        _check("ddD dD^2 D vs w^2 dD^2 D^2",
               w2 * value["dD^2 D^2"],
               value["ddD dD^2 D"]),
        _check("dD^4 vs -3 ddD dD^2 D",
               ValuePoly.rational(-3) * value["ddD dD^2 D"],
               value["dD^4"]),
    ]
    return reduced[:6] + cross + reduced[6:]


def _total(classes: Iterable[DiagramClass], bindings: dict[str, RationalLike] | None = None
           ) -> tuple[ValuePoly, ReductionTrace | None]:
    """Folded, reduced value of `classes`, and the reduction's trace if one ran."""
    local, nonlocal_part = order_contribution(classes)
    if bindings:
        local = local.substitute(bindings)
        nonlocal_part = nonlocal_part.substitute(bindings)
    if not nonlocal_part.terms:
        return local, None
    reduced_value, trace = reduce(nonlocal_part)
    if bindings:
        reduced_value = reduced_value.substitute(bindings)
    return local + reduced_value, trace


def diagram_identities() -> list[CheckResult]:
    """Partial diagram sums at second order against their closed forms."""
    g2 = G * G
    prop0_sq = D_AT_ZERO ** 2
    prop0_cu = D_AT_ZERO ** 3
    second = diagram_classes(2)

    def family_sum(*families: str) -> ValuePoly:
        return _total(c for c in second if c.family in families)[0]

    jacobian = family_sum("jacobian_bubble")
    bubbles = family_sum("jacobian_bubble", "bubble")
    local3 = family_sum("local")
    watermelon = family_sum("watermelon")
    checks = [
        _check("order-1 connected sum",
               ZERO,
               _total(diagram_classes(1))[0]),
        _check("jacobian bubble sum",
               g2 * (2 * D0 * prop0_sq + D0 * D0 * INT_D_SQUARED),
               jacobian),
        _check("full bubble sum",
               -(g2 * D0 * prop0_sq),
               bubbles),
        _check("local three-loop sum",
               g2 * (3 * D0 * prop0_sq - Fraction(2, 3) * W * W * prop0_cu),
               local3),
        _check("local plus watermelon sum",
               g2 * D0 * prop0_sq,
               local3 + watermelon),
        _check("bubbles cancel local plus watermelon",
               ZERO,
               bubbles + local3 + watermelon),
    ]
    return checks


def symbol_bindings(a_binding: RationalLike | None = None,
                    veltman: bool = False) -> dict[str, RationalLike]:
    """Ring bindings for `--a P/Q` (the map parameter) and `--veltman` (d0 := 0)."""
    bindings: dict[str, RationalLike] = {}
    if a_binding is not None:
        bindings["a"] = a_binding
    if veltman:
        bindings["d0"] = 0
    return bindings


def order_check(order: int, a_binding: RationalLike | None = None,
                veltman: bool = False) -> CheckResult:
    """Assert the g^order free-energy shift is the zero ring element.

    With no bindings the result must vanish identically in w, d0 and a.
    `a_binding` substitutes the map parameter; `veltman` sets d0 := 0.
    The total takes every class of `diagram_classes(order)` down the same
    path as the family sums of `diagram_identities`.  Bindings never change
    the classes: they bind the folded local part and the nonlocal integrand
    before reduction, and again the reduced value, since the delta^2 rule
    emits a fresh d0 factor and a bound symbol has to stay bound through it.
    """
    bindings = symbol_bindings(a_binding, veltman)
    label = f"order-{order} total" + "".join(
        f" ({name} = {ValuePoly.rational(value).render()})" for name, value in bindings.items())
    return _check(label, ZERO, *_total(diagram_classes(order), bindings))


def quadrature_oracle(m: int, n: int, omega: float) -> float:
    """Numeric value of integral dt D^m dD^n for the absolutely convergent sector.

    Only n in {0, 2} is admitted: from dD^4 on, the powers of the sign
    function make the naive pointwise integrand disagree with the rule
    system, so a numeric quadrature is no longer an oracle for it.
    """
    if n not in (0, 2):
        raise ValueError("oracle sector is n in {0, 2}")
    if m < 0 or m + n < 1:
        raise ValueError("need at least one decaying factor")
    if omega <= 0:
        raise ValueError("omega must be positive")
    # scipy ships with the `test` extra; importing it here keeps `import singint` light
    from scipy.integrate import quad

    # for t > 0:  D^m dD^n = (2 omega)^-m (1/4)^(n/2) exp(-(m+n) omega t)
    scale = (2.0 * omega) ** -m * 0.25 ** (n // 2)
    rate = (m + n) * omega
    horizon = 64.0 / rate
    value, _ = quad(lambda t: scale * exp(-rate * t), 0.0, horizon,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    return 2.0 * value
