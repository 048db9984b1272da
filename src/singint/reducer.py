"""Fixed-order rewrite system that evaluates singular propagator integrals.

Every integral of the form  integral dt  D^m dD^n ddD^p delta^q  over the
whole line is reduced to an exact ring value by six rules applied in a fixed
order.  The values follow from the propagator's equation of motion

    ddD(t) = -delta(t) + w^2 D(t),

from the delta rule delta^q -> f(0) d0^(q-1), one fold for q = 1 and 2,

    integral f delta      -> f(0)
    integral f delta^2    -> f(0) * d0,

with f(0) = D(0)^m [dD^n](0) for f = D^m dD^n, and from integration by parts
without boundary terms, whose contact term is emitted where [dD^(n-2)](0)
is nonzero; each rule reads its values from `integrand.RULE_VALUES` when it
runs.  Applied in pipeline order (equation of motion, delta^2, delta,
parity, integration by parts, base integral) the system is confluent by
construction: each stage eliminates one factor kind and never reintroduces
an earlier one.

How far that holds:

- The total derivative of D^m dD^n integrates to 0 for m >= 1 (checked for
  m <= 40, n <= 60).  With no D factor it need not: integral d/dt(dD^n) for
  odd n >= 3 reduces to a nonzero rational (1/4 for n = 3), because
  dD(0) = 0 drops the delta term of n dD^(n-1) ddD; for even n it is 0.
  What fixes the contact value [dD^2](0) = 0 is the order-g^2
  cancellation: `tests/test_rule_derivation.py` patches it to c and finds
  the order-2 total c g^2 w^-1.
- No check fixes lambda_k := [dD^k](0) = 0 for k >= 4, which comes from
  dD(0)^k = 0: every order total stays 0 with one of them set to 1.  ibp
  reads lambda_(n-2) on dD^n, so every result with a dD power of 6 or
  more, the benchmark's `reduce_deep` included, rests on it: dD^6 gives
  5/192 w^-1, and 485/192 w^-1 at lambda_4 = 1.  Order g^3 could test it.
- The values agree with the Lebesgue integral on D^m and D^m dD^2, the
  sector the quadrature oracle checks, but not on every absolutely
  integrable product: dD^4 is bounded and decays, and reduces to
  -3/32 w^-1 against its Lebesgue value 1/32 w^-1.

The reduction state is a pair (accumulated ring value, residual integrand
sum).  A rule whose result equals its input returns its input objects, so
`reduce` records a step exactly when a rule hands back a new object, and
the trace records only state changes, for replay and display.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import integrand
from .integrand import IntegrandMonomial, IntegrandSum, _kept, _monomial, local_value, mono
from .ring import ZERO, ValuePoly


class RuleError(ValueError):
    """An input or intermediate term has no rule in the system."""


# bound on m+n+p+q summed over all input terms, as a per-term bound leaves long
# sums unbounded; rule cost grows with the powers (2^m in the base integral)
MAX_INPUT_POWER = 4096


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
        state: State = (ZERO, start)
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
    if not any(t.p for t in s):
        return s
    out: list[IntegrandMonomial] = []
    for t in s:
        if t.p == 0:
            out.append(t)
            continue
        # (-delta + w^2 D)^p = sum_j C(p,j) (-1)^j delta^j (w^2 D)^(p-j)
        binom = 1
        for j in range(t.p + 1):
            coef = t.coeff * ValuePoly.monomial((-1) ** j * binom, w=2 * (t.p - j))
            out.append(_monomial(t.m + t.p - j, t.n, 0, t.q + j, coef))
            binom = binom * (t.p - j) // (j + 1)
    return IntegrandSum(out)


def _fold_delta(s: IntegrandSum, q: int) -> tuple[ValuePoly, IntegrandSum]:
    """Evaluate every delta^q term to f(0) * d0^(q-1); reject higher delta powers.

    With no term of delta power q or more, this is (ZERO, s) itself.
    """
    values = integrand.RULE_VALUES
    value = ZERO
    rest: list[IntegrandMonomial] = []
    for t in s:
        if t.q > q:
            raise RuleError(f"no rule for delta^{t.q}")
        if t.q == q:
            if t.p:
                raise RuleError("delta evaluation requires ddD-free terms")
            # f(0) = [dD^n](0) D(0)^m, where [dD^0](0) = 1
            got = t.coeff * values.dd_contact(t.n) if t.n else t.coeff
            if not got.is_zero:
                got = got * local_value(t.m)
                value = value + (got * values.delta_squared if q == 2 else got)
        else:
            rest.append(t)
    if len(rest) == len(s):
        return ZERO, s
    return value, _kept(rest)


def eval_dirac_squared(s: IntegrandSum) -> tuple[ValuePoly, IntegrandSum]:
    """Evaluate every delta^2 term to f(0) * d0; reject delta^3 and higher."""
    return _fold_delta(s, 2)


def eval_dirac(s: IntegrandSum) -> tuple[ValuePoly, IntegrandSum]:
    """Evaluate every single-delta term to f(0); delta^2 must be folded first."""
    return _fold_delta(s, 1)


def drop_odd_orientation(s: IntegrandSum) -> IntegrandSum:
    """Drop D^m dD^n terms with odd n: the integrand is odd under t -> -t."""
    kept = []
    for t in s:
        if t.p or t.q:
            raise RuleError("parity rule applies after delta elimination")
        if t.n % 2 == 0:
            kept.append(t)
    return s if len(kept) == len(s) else _kept(kept)


_MINUS_W2 = ValuePoly.monomial(-1, w=2)


def ibp_step(t: IntegrandMonomial) -> IntegrandSum:
    """One integration-by-parts move on a dD^n D^m term, n even and >= 2.

    Moving one derivative off dD^n and using the equation of motion gives

        (1+m) integral dD^n D^m = (n-1) [dD^(n-2) D^(m+1)](0)
                                  - (n-1) w^2 integral dD^(n-2) D^(m+2)

    with no boundary terms.  The pointwise bracket is emitted as the
    equivalent single-delta term, times the record's `ibp_contact` weight,
    where the contact value [dD^(n-2)](0) is nonzero, which with dD(0) = 0
    is n = 2 only, as [dD^0](0) = 1.  Only that dD part of the bracket's value is read: a
    vanishing D(0) would zero the emitted term in the delta rule all the same.
    """
    if t.p or t.q:
        raise RuleError("integration by parts applies to pure D/dD terms")
    if t.n < 2 or t.n % 2:
        raise RuleError("integration by parts needs an even dD power >= 2")
    values = integrand.RULE_VALUES
    coeff = t.coeff * Fraction(t.n - 1, t.m + 1)
    out = []
    if t.n == 2 or not values.dd_contact(t.n - 2).is_zero:  # [dD^0](0) = 1
        out.append(mono(t.m + 1, t.n - 2, 0, 1, coeff * values.ibp_contact))
    out.append(mono(t.m + 2, t.n - 2, 0, 0, coeff * _MINUS_W2))
    return IntegrandSum(out)


def base_integral(m: int) -> ValuePoly:
    """integral dt D^m = 2^(1-m) m^-1 w^-(m+1) for m >= 1."""
    if m < 1:
        raise RuleError("base integral needs at least one propagator factor")
    return ValuePoly.monomial(Fraction(2, m * 2 ** m), w=-(m + 1))


def _fold(value: ValuePoly, folded: tuple[ValuePoly, IntegrandSum]) -> State:
    """The state after adding a delta rule's (value, rest) pair to `value`."""
    got, rest = folded
    return value + got, rest


def _ibp(state: State) -> State:
    """One sweep: every term with dD^2 or more takes one ibp move.

    With no such term the state comes back as it is, which ends `reduce`'s
    ibp loop.
    """
    value, pending = state
    terms = pending.terms
    if len(terms) == 1 and terms[0].n >= 2:
        return value, ibp_step(terms[0])  # a lone term's move is already canonical
    if not any(t.n >= 2 for t in terms):
        return state
    rewritten: list[IntegrandMonomial] = []
    for t in terms:
        if t.n >= 2:
            rewritten.extend(ibp_step(t))
        else:
            rewritten.append(t)
    return value, IntegrandSum(rewritten)


def _base(state: State) -> State:
    value, pending = state
    if pending.is_zero:
        return state
    got = ZERO
    for t in pending:
        got = got + t.coeff * base_integral(t.m)
    return value + got, IntegrandSum()


# The rules as named state transforms, in pipeline order: `reduce` applies
# them and `ReductionTrace.replay` re-runs them to check a recorded trace.
# Each transform looks its rule function up in this module when it runs, so
# a patched or wrapped `substitute_field_equation`, `eval_dirac_squared`,
# `eval_dirac`, `drop_odd_orientation`, `ibp_step` or `base_integral` takes
# effect at once.
RULES: dict[str, Callable[[State], State]] = {
    "field_equation": lambda state: (state[0], substitute_field_equation(state[1])),
    "delta_squared": lambda state: _fold(state[0], eval_dirac_squared(state[1])),
    "delta": lambda state: _fold(state[0], eval_dirac(state[1])),
    "parity": lambda state: (state[0], drop_odd_orientation(state[1])),
    "ibp": _ibp,
    "base": _base,
}


def reduce(s: IntegrandSum) -> tuple[ValuePoly, ReductionTrace]:
    """Reduce an integrand sum to its exact ring value.

    Raises RuleError for the divergent bare-measure term (0,0,0,0), for
    inputs with a delta power above 2 or powers summing past MAX_INPUT_POWER,
    and for delta^3 products arising from the equation-of-motion expansion.
    Linear in the input by construction: every rule rewrites terms independently.
    """
    for t in s:
        if t.is_bare_measure:
            raise RuleError("divergent bare measure: term without any factor")
        if t.q > 2:
            raise RuleError(f"no rule for delta^{t.q}")
    if sum(t.m + t.n + t.p + t.q for t in s) > MAX_INPUT_POWER:
        raise RuleError(f"factor powers of the input sum past {MAX_INPUT_POWER}")

    steps: list[TraceStep] = []
    state: State = (ZERO, s)

    def advance(rule: str) -> bool:
        nonlocal state
        after = RULES[rule](state)
        if after[0] is state[0] and after[1] is state[1]:
            return False
        steps.append(TraceStep(rule, state, after))
        state = after
        return True

    for rule in ("field_equation", "delta_squared", "delta", "parity"):
        advance(rule)
    while advance("ibp"):
        advance("delta")
    advance("base")

    return state[0], ReductionTrace(tuple(steps))
