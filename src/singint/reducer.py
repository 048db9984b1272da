"""Fixed-order rewrite system that evaluates singular propagator integrals.

Every integral of the form  integral dt  D^m dD^n ddD^p delta^q  over the
whole line is reduced to an exact ring value by six rules applied in a fixed
order.  The values follow from the propagator's equation of motion

    ddD(t) = -delta(t) + w^2 D(t),

from the two delta evaluation rules

    integral f delta      -> f(0)
    integral f delta^2    -> f(0) * d0,

where f(0) folds D(0) = w^-1/2 and dD(0) = 0 (`integrand.local_value`), and
from integration by parts without boundary terms.  Applied in pipeline order
(equation of motion, delta^2, delta, parity, integration by parts, base
integral) the system is confluent by construction: each stage eliminates one
factor kind and never reintroduces an earlier one.

How far that holds:

- The total derivative of D^m dD^n integrates to 0 for m >= 1 (checked for
  m <= 8, n <= 12).  With no D factor it need not: integral d/dt(dD^n) for
  odd n >= 3 reduces to a nonzero rational (1/4 for n = 3), because
  dD(0) = 0 drops the delta term of n dD^(n-1) ddD.
- The values agree with the Lebesgue integral on D^m and D^m dD^2, the
  sector the quadrature oracle checks, but not on every absolutely
  integrable product: dD^4 is bounded and decays, and reduces to
  -3/32 w^-1 against its Lebesgue value 1/32 w^-1.

The reduction state is a pair (accumulated ring value, residual integrand
sum); the trace records every state change for replay and display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .integrand import IntegrandMonomial, IntegrandSum, local_value, mono
from .ring import D0, ZERO, ValuePoly


class RuleError(ValueError):
    """An input or intermediate term has no rule in the system."""


# (accumulated value, residual integrand) at one point of the pipeline
State = tuple[ValuePoly, IntegrandSum]


class TraceStep(NamedTuple):
    rule: str
    before: State
    after: State


class ReductionTrace(NamedTuple):
    steps: tuple[TraceStep, ...]

    def replay(self, start: IntegrandSum) -> State:
        """Re-run every recorded rule from `start`; raise if a step differs."""
        state: State = (ZERO, start.normalize())
        for step in self.steps:
            if step.before != state:
                raise RuleError(f"trace break at rule {step.rule!r}")
            rule = RULES.get(step.rule)
            if rule is None:
                raise RuleError(f"unknown rule {step.rule!r} in trace")
            if rule(step.before) != step.after:
                raise RuleError(f"rule {step.rule!r} does not re-derive its recorded step")
            state = step.after
        return state


def substitute_field_equation(s: IntegrandSum) -> IntegrandSum:
    """Eliminate all ddD factors via ddD = -delta + w^2 D (binomial expansion)."""
    out: list[IntegrandMonomial] = []
    for t in s:
        if t.p == 0:
            out.append(t)
            continue
        # (-delta + w^2 D)^p = sum_j C(p,j) (-1)^j delta^j (w^2 D)^(p-j)
        binom = 1
        for j in range(t.p + 1):
            coef = t.coeff * Fraction((-1) ** j * binom) * ValuePoly.monomial(1, w=2 * (t.p - j))
            out.append(mono(t.m + t.p - j, t.n, 0, t.q + j, coef))
            binom = binom * (t.p - j) // (j + 1)
    return IntegrandSum(out).normalize()


def eval_dirac_squared(s: IntegrandSum) -> tuple[ValuePoly, IntegrandSum]:
    """Evaluate every delta^2 term to f(0) * d0; reject delta^3 and higher."""
    value = ZERO
    rest: list[IntegrandMonomial] = []
    for t in s:
        if t.q >= 3:
            raise RuleError(f"no rule for delta^{t.q}")
        if t.q == 2:
            if t.p:
                raise RuleError("delta^2 evaluation requires ddD-free terms")
            value = value + t.coeff * local_value(t.m, t.n) * D0
        else:
            rest.append(t)
    return value, IntegrandSum(rest).normalize()


def eval_dirac(s: IntegrandSum) -> tuple[ValuePoly, IntegrandSum]:
    """Evaluate every single-delta term to the point value of its cofactor."""
    value = ZERO
    rest: list[IntegrandMonomial] = []
    for t in s:
        if t.q >= 2:
            raise RuleError("delta^2 terms must go through eval_dirac_squared first")
        if t.q == 1:
            if t.p:
                raise RuleError("delta evaluation requires ddD-free terms")
            value = value + t.coeff * local_value(t.m, t.n)
        else:
            rest.append(t)
    return value, IntegrandSum(rest).normalize()


def drop_odd_orientation(s: IntegrandSum) -> IntegrandSum:
    """Drop D^m dD^n terms with odd n: the integrand is odd under t -> -t."""
    kept = []
    for t in s:
        if t.p or t.q:
            raise RuleError("parity rule applies after delta elimination")
        if t.n % 2 == 0:
            kept.append(t)
    return IntegrandSum(kept).normalize()


_W_SQUARED = ValuePoly.monomial(1, w=2)


def ibp_step(t: IntegrandMonomial) -> IntegrandSum:
    """One integration-by-parts move on a dD^n D^m term, n even and >= 2.

    Moving one derivative off dD^n and using the equation of motion gives

        (1+m) integral dD^n D^m = (n-1) [dD^(n-2) D^(m+1)](0)
                                  - (n-1) w^2 integral dD^(n-2) D^(m+2)

    with no boundary terms.  The pointwise bracket is emitted as the
    equivalent single-delta term when n = 2 and omitted when n >= 4, where
    dD(0) = 0 makes it vanish.
    """
    if t.p or t.q:
        raise RuleError("integration by parts applies to pure D/dD terms")
    if t.n < 2 or t.n % 2:
        raise RuleError("integration by parts needs an even dD power >= 2")
    ratio = Fraction(t.n - 1, t.m + 1)
    out = []
    if t.n == 2:
        out.append(mono(t.m + 1, 0, 0, 1, t.coeff * ratio))
    out.append(mono(t.m + 2, t.n - 2, 0, 0, t.coeff * (-ratio) * _W_SQUARED))
    return IntegrandSum(out).normalize()


def base_integral(m: int) -> ValuePoly:
    """integral dt D^m = 2^(1-m) m^-1 w^-(m+1) for m >= 1."""
    if m < 1:
        raise RuleError("base integral needs at least one propagator factor")
    return ValuePoly.monomial(Fraction(2, m * 2 ** m), w=-(m + 1))


# The rules as named state transforms, in pipeline order: `reduce` applies
# them and `ReductionTrace.replay` re-runs them to check a recorded trace.

def _field_equation(state: State) -> State:
    value, pending = state
    return value, substitute_field_equation(pending)


def _delta_squared(state: State) -> State:
    value, pending = state
    got, rest = eval_dirac_squared(pending)
    return value + got, rest


def _delta(state: State) -> State:
    value, pending = state
    got, rest = eval_dirac(pending)
    return value + got, rest


def _parity(state: State) -> State:
    value, pending = state
    return value, drop_odd_orientation(pending)


def _ibp(state: State) -> State:
    """One sweep: every term with dD^2 or more takes one ibp move."""
    value, pending = state
    rewritten: list[IntegrandMonomial] = []
    for t in pending:
        if t.n >= 2:
            rewritten.extend(ibp_step(t))
        else:
            rewritten.append(t)
    return value, IntegrandSum(rewritten).normalize()


def _base(state: State) -> State:
    value, pending = state
    got = ZERO
    for t in pending:
        got = got + t.coeff * base_integral(t.m)
    return value + got, IntegrandSum()


RULES: dict[str, Callable[[State], State]] = {
    "field_equation": _field_equation,
    "delta_squared": _delta_squared,
    "delta": _delta,
    "parity": _parity,
    "ibp": _ibp,
    "base": _base,
}


def reduce(s: IntegrandSum) -> tuple[ValuePoly, ReductionTrace]:
    """Reduce an integrand sum to its exact ring value.

    Raises RuleError for the divergent bare-measure term (0,0,0,0), for
    delta powers above 2 in the input, and for delta^3 products arising
    from the equation-of-motion expansion.  Linear in the input by
    construction: every rule rewrites terms independently.
    """
    pending = s.normalize()
    for t in pending:
        if t.is_bare_measure:
            raise RuleError("divergent bare measure: term without any factor")
        if t.q > 2:
            raise RuleError(f"no rule for delta^{t.q}")

    steps: list[TraceStep] = []
    state: State = (ZERO, pending)

    def advance(rule: str) -> None:
        nonlocal state
        # every rule returns a normalized sum, so the terms compare directly
        new_value, new_pending = RULES[rule](state)
        if new_value != state[0] or new_pending.terms != state[1].terms:
            after = (new_value, new_pending)
            steps.append(TraceStep(rule, state, after))
            state = after

    for rule in ("field_equation", "delta_squared", "delta", "parity"):
        advance(rule)
    while any(t.n for t in state[1]):
        advance("ibp")
        advance("delta")
    advance("base")

    return state[0], ReductionTrace(tuple(steps))
