"""Rule engine: frozen closed forms, rule domains, traces, linearity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import integrand_sums, rationals, reducible_sums
from singint import (D0, ZERO, D_AT_ZERO, IntegrandSum, ReductionTrace,
                     RuleError, TraceStep, ValuePoly, base_integral,
                     eval_dirac, eval_dirac_squared, ibp_step, integrand_sum,
                     mono, reduce, substitute_field_equation, wpow)
from singint.reducer import RULES


def value_of(*terms):
    val, _ = reduce(integrand_sum(*terms))
    return val


def poly(coeff, **exps):
    return ValuePoly.monomial(Fraction(coeff) if isinstance(coeff, int) else coeff, **exps)


# frozen closed forms; propagator powers from the base rule
def test_base_integral_closed_form():
    assert base_integral(1) == wpow(-2)
    assert base_integral(2) == poly(Fraction(1, 4), w=-3)
    assert base_integral(3) == poly(Fraction(1, 12), w=-4)
    assert base_integral(4) == poly(Fraction(1, 32), w=-5)
    assert base_integral(6) == poly(Fraction(1, 192), w=-7)
    with pytest.raises(RuleError):
        base_integral(0)


def test_reduce_pure_propagator_powers():
    for m in range(1, 7):
        assert value_of(mono(m, 0, 0, 0)) == base_integral(m)


def test_reduce_frozen_mixed_values():
    cases = [
        ((0, 2, 0, 0), poly(Fraction(1, 4), w=-1)),
        ((1, 2, 0, 0), poly(Fraction(1, 12), w=-2)),
        ((2, 2, 0, 0), poly(Fraction(1, 32), w=-3)),
        ((0, 4, 0, 0), poly(Fraction(-3, 32), w=-1)),
        ((2, 4, 0, 0), poly(Fraction(-1, 192), w=-3)),
        ((1, 2, 1, 0), poly(Fraction(1, 32), w=-1)),
        ((2, 0, 2, 0), poly(Fraction(1, 4), d0=1, w=-2) + poly(Fraction(-7, 32), w=-1)),
        ((0, 0, 1, 0), ZERO),
        ((1, 0, 1, 0), poly(Fraction(-1, 4), w=-1)),
    ]
    for shape, expected in cases:
        assert value_of(mono(*shape)) == expected, shape


def test_reduce_odd_orientation_vanishes():
    assert value_of(mono(0, 1, 0, 0)) == ZERO
    assert value_of(mono(2, 3, 0, 0)) == ZERO
    assert value_of(mono(1, 1, 1, 0)) == ZERO


def test_reduce_delta_terms():
    assert value_of(mono(0, 0, 0, 1)) == 1
    assert value_of(mono(3, 0, 0, 1)) == D_AT_ZERO ** 3
    assert value_of(mono(0, 2, 0, 1)) == ZERO
    assert value_of(mono(0, 0, 0, 2)) == D0
    assert value_of(mono(2, 0, 0, 2)) == D0 * D_AT_ZERO ** 2
    assert value_of(mono(0, 2, 0, 2)) == ZERO


def test_reduce_delta_with_ddD_goes_through_field_equation():
    # delta ddD -> delta(-delta + w^2 D) -> -delta^2 + w^2 delta D
    assert value_of(mono(0, 0, 1, 1)) == -D0 + wpow(2) * D_AT_ZERO


def test_reduce_rejects_undefined_inputs():
    with pytest.raises(RuleError, match="bare measure"):
        value_of(mono(0, 0, 0, 0))
    with pytest.raises(RuleError, match="delta\\^3"):
        value_of(mono(0, 0, 0, 3))
    with pytest.raises(RuleError, match="delta\\^3"):
        # field equation turns ddD delta^2 into a delta^3 product
        value_of(mono(0, 0, 1, 2))


def test_reduce_empty_sum_is_zero():
    val, trace = reduce(IntegrandSum())
    assert val == ZERO
    assert trace.steps == ()


def test_field_equation_binomial_expansion():
    out = substitute_field_equation(integrand_sum(mono(0, 0, 2, 0)))
    assert out == integrand_sum(
        mono(0, 0, 0, 2, coeff=1),
        mono(1, 0, 0, 1, coeff=poly(-2, w=2)),
        mono(2, 0, 0, 0, coeff=poly(1, w=4)),
    ).normalize()


def test_field_equation_keeps_ddD_free_terms():
    s = integrand_sum(mono(2, 2, 0, 0, coeff=Fraction(5, 3)))
    assert substitute_field_equation(s) == s.normalize()


def test_eval_dirac_squared_contract():
    value, rest = eval_dirac_squared(integrand_sum(
        mono(2, 0, 0, 2, coeff=3), mono(1, 0, 0, 0)))
    assert value == 3 * D0 * D_AT_ZERO ** 2
    assert rest == integrand_sum(mono(1, 0, 0, 0))
    with pytest.raises(RuleError):
        eval_dirac_squared(integrand_sum(mono(0, 0, 1, 2)))
    with pytest.raises(RuleError):
        eval_dirac_squared(integrand_sum(mono(0, 0, 0, 3)))


def test_eval_dirac_contract():
    value, rest = eval_dirac(integrand_sum(
        mono(2, 0, 0, 1, coeff=2), mono(0, 2, 0, 1), mono(4, 0, 0, 0)))
    assert value == 2 * D_AT_ZERO ** 2
    assert rest == integrand_sum(mono(4, 0, 0, 0))
    with pytest.raises(RuleError):
        eval_dirac(integrand_sum(mono(0, 0, 0, 2)))
    with pytest.raises(RuleError):
        eval_dirac(integrand_sum(mono(0, 0, 1, 1)))


def test_ibp_step_recurrence():
    out = ibp_step(mono(1, 2, 0, 0, coeff=2))
    # 2 * dD^2 D -> (1/2)*2 [delta D^2] - (1/2)*2 w^2 D^3
    assert out == integrand_sum(
        mono(2, 0, 0, 1, coeff=1),
        mono(3, 0, 0, 0, coeff=poly(-1, w=2)),
    )
    # n = 4 has no boundary bracket
    out = ibp_step(mono(0, 4, 0, 0))
    assert out == integrand_sum(mono(2, 2, 0, 0, coeff=poly(-3, w=2)))


def test_ibp_step_domain():
    for bad in [mono(1, 1, 0, 0), mono(2, 0, 0, 0), mono(0, 2, 1, 0), mono(0, 2, 0, 1)]:
        with pytest.raises(RuleError):
            ibp_step(bad)


def test_trace_replays_to_the_returned_value():
    s = integrand_sum(mono(2, 0, 2, 0), mono(0, 4, 0, 0, coeff=Fraction(1, 2)))
    val, trace = reduce(s)
    final_value, final_pending = trace.replay(s)
    assert final_value == val
    assert final_pending.is_zero
    assert [st.rule for st in trace.steps][0] == "field_equation"


def test_trace_detects_tampering():
    s = integrand_sum(mono(0, 2, 0, 0))
    _, trace = reduce(s)
    with pytest.raises(RuleError, match="trace break"):
        trace.replay(integrand_sum(mono(0, 2, 0, 0), mono(1, 0, 0, 0)))


def test_replay_rejects_a_forged_step():
    s = integrand_sum(mono(0, 4, 0, 0))
    val, trace = reduce(s)
    last = trace.steps[-1]
    forged_after = (last.after[0] + 1, last.after[1])
    forged = ReductionTrace(trace.steps[:-1] + (TraceStep(last.rule, last.before, forged_after),))
    assert trace.replay(s) == (val, IntegrandSum())
    with pytest.raises(RuleError, match="does not re-derive"):
        forged.replay(s)


def test_replay_rejects_a_renamed_step():
    s = integrand_sum(mono(0, 4, 0, 0))
    _, trace = reduce(s)
    first = trace.steps[0]
    for name in ("parity", "no_such_rule"):
        renamed = ReductionTrace((TraceStep(name, first.before, first.after),)
                                 + trace.steps[1:])
        with pytest.raises(RuleError):
            renamed.replay(s)


def test_rule_names_are_stable():
    _, trace = reduce(integrand_sum(mono(2, 0, 2, 0)))
    assert set(st.rule for st in trace.steps) <= {
        "field_equation", "delta_squared", "delta", "parity", "ibp", "base"}


def _assert_rules_return_normalized(state):
    for name, rule in RULES.items():
        try:
            _, pending = rule(state)
        except RuleError:
            continue
        assert pending.terms == pending.normalize().terms, name


@pytest.mark.parametrize("s", [
    integrand_sum(mono(0, 4, 0, 0)),
    integrand_sum(mono(2, 0, 2, 0), mono(0, 2, 0, 0)),
    integrand_sum(mono(3, 40, 0, 0)),
])
def test_rules_return_normalized_sums_along_a_reduction(s):
    _, trace = reduce(s)
    for step in trace.steps:
        _assert_rules_return_normalized(step.before)
        _assert_rules_return_normalized(step.after)


@given(integrand_sums())
@settings(max_examples=200, deadline=None)
def test_rules_return_normalized_sums(s):
    _assert_rules_return_normalized((ZERO, s))


@given(reducible_sums(), reducible_sums())
@settings(max_examples=150, deadline=None)
def test_reduce_additive_small(x, y):
    vx, _ = reduce(x)
    vy, _ = reduce(y)
    vxy, _ = reduce(x + y)
    assert vxy == vx + vy


@given(reducible_sums(), rationals())
@settings(max_examples=150, deadline=None)
def test_reduce_homogeneous_small(s, c):
    v, _ = reduce(s)
    vc, _ = reduce(s.scale(c))
    assert vc == c * v


def _total_derivative(m, n):
    """d/dt (D^m dD^n) = m D^(m-1) dD^(n+1) + n D^m dD^(n-1) ddD."""
    terms = []
    if m:
        terms.append(mono(m - 1, n + 1, 0, 0, coeff=m))
    if n:
        terms.append(mono(m, n - 1, 1, 0, coeff=n))
    return integrand_sum(*terms)


def test_total_derivatives_with_a_propagator_integrate_to_zero():
    for m in range(1, 9):
        for n in range(1, 13):
            assert value_of(*_total_derivative(m, n)).is_zero, (m, n)


def test_total_derivatives_of_bare_dD_powers():
    # dD(0) = 0 drops the delta term of n dD^(n-1) ddD, so odd n >= 3 leave a rest
    pinned = {3: Fraction(1, 4), 5: Fraction(-3, 32), 7: Fraction(15, 512),
              9: Fraction(-35, 4096), 11: Fraction(315, 131072)}
    for n in range(1, 13):
        assert value_of(*_total_derivative(0, n)) == pinned.get(n, 0), n
