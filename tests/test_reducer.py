"""Rule engine: frozen closed forms, rule domains, traces, linearity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (integrand_sums, merge_then_sort, rationals, reducible_sums,
                      ring_monomials, total_derivative, value_polys)
from singint import (D0, ONE, ZERO, IntegrandMonomial, IntegrandSum, ReductionTrace,
                     RuleError, TraceStep, ValuePoly, base_integral,
                     eval_dirac, eval_dirac_squared, ibp_step, integrand_sum,
                     mono, reduce, reducer, substitute_field_equation, wpow)
from singint.integrand import parse
from singint.reducer import MAX_INPUT_POWER, RULES, drop_odd_orientation
from singint.verify import D_AT_ZERO


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


def test_reduce_bounds_the_summed_input_power(monkeypatch):
    assert MAX_INPUT_POWER == 4096
    assert reduce(parse("D^4096"))[0] == base_integral(4096)
    assert not reduce(parse("dD^4094 D"))[0].is_zero
    # a cancelling sum past p + q = 2 per term still reduces
    assert reduce(parse("ddD^3 + ddD^2 delta"))[0].render() == "1/2 d0 w - 5/12 w^2"
    # with no rules to run, only a check made before any rule can raise RuleError;
    # each term of the last input is under the bound, their sum is not
    monkeypatch.setattr(reducer, "RULES", {})
    for text in ["D^99999999999", "D^4097", "D^2048 + dD^2049"]:
        with pytest.raises(RuleError, match=f"past {MAX_INPUT_POWER}"):
            reduce(parse(text))


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
    )


def test_field_equation_keeps_ddD_free_terms():
    s = integrand_sum(mono(2, 2, 0, 0, coeff=Fraction(5, 3)))
    assert substitute_field_equation(s) is s


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
        assert list(pending.terms) == merge_then_sort(pending.terms), name


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


def test_total_derivatives_with_a_propagator_integrate_to_zero():
    for m in range(1, 9):
        for n in range(1, 13):
            assert value_of(*total_derivative(m, n)).is_zero, (m, n)


@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_total_derivatives_integrate_to_zero_property(m, n, half):
    # every m >= 1; with no D factor only even n (odd n >= 3 leave a rest, pinned below)
    assert value_of(*total_derivative(m, n)).is_zero, (m, n)
    assert value_of(*total_derivative(0, 2 * half)).is_zero, 2 * half


def test_total_derivatives_of_bare_dD_powers():
    # dD(0) = 0 drops the delta term of n dD^(n-1) ddD, so odd n >= 3 leave a rest
    pinned = {3: Fraction(1, 4), 5: Fraction(-3, 32), 7: Fraction(15, 512),
              9: Fraction(-35, 4096), 11: Fraction(315, 131072)}
    for n in range(1, 13):
        assert value_of(*total_derivative(0, n)) == pinned.get(n, 0), n


# -- a rule that changes nothing returns its input ---------------------------

def _plain_reduce(s):
    """`reduce` as a plain sweep: every rule result is compared by value, none skipped."""
    for t in s:
        if t.is_bare_measure:
            raise RuleError("divergent bare measure: term without any factor")
        if t.q > 2:
            raise RuleError(f"no rule for delta^{t.q}")
    if sum(t.m + t.n + t.p + t.q for t in s) > MAX_INPUT_POWER:
        raise RuleError(f"factor powers of the input sum past {MAX_INPUT_POWER}")
    steps = []
    state = (ZERO, s)

    def advance(rule):
        nonlocal state
        after = RULES[rule](state)
        if after[0] != state[0] or after[1].terms != state[1].terms:
            steps.append(TraceStep(rule, state, after))
            state = after

    for rule in ("field_equation", "delta_squared", "delta", "parity"):
        advance(rule)
    while any(t.n for t in state[1]):
        advance("ibp")
        advance("delta")
    advance("base")
    return state[0], tuple(steps)


def _assert_reduce_is_the_plain_sweep(s):
    try:
        expected = _plain_reduce(s)
    except RuleError as exc:
        with pytest.raises(RuleError) as got:
            reduce(s)
        assert str(got.value) == str(exc)
        return
    value, trace = reduce(s)
    assert (value, trace.steps) == expected


@pytest.mark.parametrize("text", [
    "ddD delta^2", "ddD^3 + ddD^2 delta", "ddD^2 D + ddD delta + 1/3 D dD^6 + dD^3",
    "D^3 dD^40 + w D dD^2 + delta", "dD^5 + D^2", "dD^2 - dD^2 + D",
])
def test_reduce_matches_a_plain_sweep_on_pinned_sums(text):
    _assert_reduce_is_the_plain_sweep(parse(text))


@given(st.integers(0, 8), st.integers(0, 40), st.integers(0, 2), st.integers(0, 2),
       ring_monomials())
@settings(max_examples=150, deadline=None)
def test_reduce_matches_a_plain_sweep_on_monomials(m, n, p, q, coeff):
    _assert_reduce_is_the_plain_sweep(IntegrandSum([IntegrandMonomial(m, n, p, q, coeff)]))


@given(st.one_of(integrand_sums(max_terms=5), reducible_sums(max_terms=5)))
@settings(max_examples=150, deadline=None)
def test_reduce_matches_a_plain_sweep_on_mixed_sums(s):
    _assert_reduce_is_the_plain_sweep(s)


@given(st.one_of(integrand_sums(max_terms=5), reducible_sums(max_terms=5)))
@settings(max_examples=150, deadline=None)
def test_each_step_starts_from_the_previous_steps_after_object(s):
    # `--trace` renders each state once and shows it as the next step's before
    try:
        _, trace = reduce(s)
    except RuleError:
        return
    assert all(b.before is a.after for a, b in zip(trace.steps, trace.steps[1:]))


@pytest.mark.parametrize("rule, text", [
    ("field_equation", "dD^3 + w^2 D delta + delta^2"),
    ("delta_squared", "ddD D + D delta + dD^2"),
    ("delta", "ddD + D^2 + dD^4"),
    ("parity", "D + dD^2"),
    ("ibp", "D^3 + w ddD D + delta"),
    ("base", ""),
])
def test_a_rule_that_changes_nothing_returns_its_input_objects(rule, text):
    value = ValuePoly.monomial(Fraction(1, 2), w=-1)
    pending = parse(text) if text else IntegrandSum()
    after_value, after_pending = RULES[rule]((value, pending))
    assert after_value is value and after_pending is pending


def test_rule_functions_return_their_input_when_nothing_applies():
    s = parse("D^2 + dD^4")
    assert substitute_field_equation(s) is s
    assert drop_odd_orientation(s) is s
    for fold in (eval_dirac_squared, eval_dirac):
        value, rest = fold(s)
        assert value is ZERO and rest is s


@given(integrand_sums(), value_polys())
@settings(max_examples=150, deadline=None)
def test_a_rule_result_equal_to_its_input_is_its_input(s, value):
    for name, rule in RULES.items():
        try:
            after = rule((value, s))
        except RuleError:
            continue
        if after == (value, s):
            assert after[0] is value and after[1] is s, name


def test_a_rule_that_returns_an_equal_copy_records_a_step(monkeypatch):
    s = parse("D dD^6 + D delta")
    expected = reduce(s)
    delta = RULES["delta"]

    def copying_delta(state):
        got, rest = delta(state)
        return got + ONE - ONE, IntegrandSum(list(rest.terms))

    monkeypatch.setitem(RULES, "delta", copying_delta)
    value, trace = reduce(s)
    # a copy is a new object, so it is recorded as a step, and replay re-derives it
    assert value == expected[0]
    assert any(step.after == step.before for step in trace.steps)
    assert trace.replay(s) == (value, IntegrandSum())


def test_ibp_reads_ibp_step_at_call_time_on_a_lone_term(monkeypatch):
    state = (ZERO, parse("dD^2"))
    assert RULES["ibp"](state)[1] == parse("D delta - w^2 D^2")
    step = reducer.ibp_step
    monkeypatch.setattr(reducer, "ibp_step",
                        lambda t: IntegrandSum([u for u in step(t) if not u.q]))
    assert RULES["ibp"](state)[1] == parse("-w^2 D^2")
    assert reduce(state[1])[0] == poly(Fraction(-1, 4), w=-1)


@pytest.mark.parametrize("name", ["substitute_field_equation", "eval_dirac_squared",
                                  "eval_dirac", "drop_odd_orientation"])
def test_rules_read_their_rule_function_at_call_time(monkeypatch, name):
    s = parse("ddD^2 D + ddD delta + 1/3 D dD^6 + dD^3")  # every rule fires on it
    expected = reduce(s)
    rule_function, calls = getattr(reducer, name), []

    def counting(pending):
        calls.append(pending)
        return rule_function(pending)

    monkeypatch.setattr(reducer, name, counting)
    assert reduce(s) == expected
    assert calls
