"""Check suites: reduction identities, diagram sums, and a numeric oracle.

All expected values here are frozen closed forms, written out literally so
that no check compares the reducer against itself:

    D(0)            = w^-1 / 2
    integral D^2    = w^-3 / 4
    integral D^4    = w^-5 / 32

The quadrature oracle integrates the explicit exponential form of the
absolutely convergent integrands numerically and is the one path that never
touches the symbolic engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp
from typing import NamedTuple

from .integrand import D_AT_ZERO, IntegrandSum, integrand_sum, mono
from .reducer import ReductionTrace, reduce
from .ring import D0, G, W, ZERO, RationalLike, ValuePoly
from .wick import order_contribution

# frozen nonsingular integrals (independently confirmed by the oracle)
INT_D_SQUARED = ValuePoly.monomial(Fraction(1, 4), w=-3)
INT_D_FOURTH = ValuePoly.monomial(Fraction(1, 32), w=-5)

# Lebesgue value of the dD^4 integral; the rule system assigns -(3/32) w^-1
# instead, so the two differ by exactly (1/8) w^-1.
LEBESGUE_DD_FOURTH = ValuePoly.monomial(Fraction(1, 32), w=-1)


class CheckResult(NamedTuple):
    name: str
    expected: ValuePoly
    actual: ValuePoly
    passed: bool
    trace: ReductionTrace | None = None


def _check(name: str, expected: ValuePoly, actual: ValuePoly,
           trace: ReductionTrace | None = None) -> CheckResult:
    return CheckResult(name=name, expected=expected, actual=actual,
                       passed=(expected - actual).is_zero, trace=trace)


def _reduced(name: str, s: IntegrandSum, expected: ValuePoly) -> CheckResult:
    actual, trace = reduce(s)
    return _check(name, expected, actual, trace)


def identity_suite() -> list[CheckResult]:
    """Exact reductions of the named two- and four-line integrands."""
    w2 = W * W
    w4 = w2 * w2
    checks = [
        _reduced("dD^2 + w^2 D^2",
                 integrand_sum(mono(n=2), mono(m=2, coeff=w2)),
                 D_AT_ZERO),
        _reduced("ddD^2 + 2 w^2 dD^2 + w^4 D^2",
                 integrand_sum(mono(p=2), mono(n=2, coeff=2 * w2), mono(m=2, coeff=w4)),
                 D0),
        _reduced("ddD D^3",
                 integrand_sum(mono(m=3, p=1)),
                 -(D_AT_ZERO ** 3) + w2 * INT_D_FOURTH),
        _reduced("dD^2 D^2",
                 integrand_sum(mono(m=2, n=2)),
                 Fraction(1, 3) * D_AT_ZERO ** 3 - Fraction(1, 3) * w2 * INT_D_FOURTH),
        _reduced("ddD^2 D^2",
                 integrand_sum(mono(m=2, p=2)),
                 D0 * D_AT_ZERO ** 2 - 2 * w2 * D_AT_ZERO ** 3 + w4 * INT_D_FOURTH),
        _reduced("ddD dD^2 D",
                 integrand_sum(mono(m=1, n=2, p=1)),
                 ValuePoly.monomial(Fraction(1, 32), w=-1)),
        _check("ddD dD^2 D vs w^2 dD^2 D^2",
               w2 * reduce(integrand_sum(mono(m=2, n=2)))[0],
               reduce(integrand_sum(mono(m=1, n=2, p=1)))[0]),
        _check("dD^4 vs -3 ddD dD^2 D",
               ValuePoly.rational(-3) * reduce(integrand_sum(mono(m=1, n=2, p=1)))[0],
               reduce(integrand_sum(mono(n=4)))[0]),
        _reduced("dD^4",
                 integrand_sum(mono(n=4)),
                 ValuePoly.monomial(Fraction(-3, 32), w=-1)),
        _reduced("delta",
                 integrand_sum(mono(q=1)),
                 ValuePoly.rational(1)),
        _reduced("delta D^3",
                 integrand_sum(mono(m=3, q=1)),
                 D_AT_ZERO ** 3),
        _reduced("delta^2",
                 integrand_sum(mono(q=2)),
                 D0),
        _reduced("delta^2 D^2",
                 integrand_sum(mono(m=2, q=2)),
                 D0 * D_AT_ZERO ** 2),
        _reduced("delta^2 dD^2",
                 integrand_sum(mono(n=2, q=2)),
                 ZERO),
    ]
    return checks


def _family_value(order: int, families: tuple[str, ...]) -> ValuePoly:
    local, nonlocal_part = order_contribution(order, families)
    reduced_value, _ = reduce(nonlocal_part) if nonlocal_part.terms else (ZERO, None)
    return local + reduced_value


def diagram_identities() -> list[CheckResult]:
    """Partial diagram sums at second order against their closed forms."""
    g2 = G * G
    prop0_sq = D_AT_ZERO ** 2
    prop0_cu = D_AT_ZERO ** 3
    jacobian = _family_value(2, ("jacobian_bubble",))
    bubbles = _family_value(2, ("jacobian_bubble", "bubble"))
    local3 = _family_value(2, ("local",))
    watermelon = _family_value(2, ("watermelon",))
    checks = [
        _check("order-1 connected sum",
               ZERO,
               _family_value(1, ("local",))),
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
    Bindings are applied before reduction, so they change which diagram
    classes survive, and again to the reduced value: the delta^2 rule emits
    a fresh d0 factor, and a bound symbol has to stay bound through it.
    """
    bindings = symbol_bindings(a_binding, veltman)
    label = f"order-{order} total" + "".join(
        f" ({name} = {Fraction(value)})" for name, value in bindings.items())
    local, nonlocal_part = order_contribution(order)
    if bindings:
        local = local.substitute(bindings)
        nonlocal_part = nonlocal_part.substitute(bindings)
    if nonlocal_part.terms:
        reduced_value, trace = reduce(nonlocal_part)
        if bindings:
            reduced_value = reduced_value.substitute(bindings)
    else:
        reduced_value, trace = ZERO, None
    return _check(label, ZERO, local + reduced_value, trace)


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
