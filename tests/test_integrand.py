"""Integrand containers: monomial products, normalization, equal-time constants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integrand_monomials, integrand_sums, merge_then_sort, value_polys
from singint import (D0, ONE, RULE_VALUES, ZERO, IntegrandMonomial, IntegrandSum, ValuePoly,
                     integrand_sum, mono, reduce)
from singint.cli import parse
from singint.integrand import local_value


def test_equal_time_values():
    # D(0), dD(0), ddD(0), the delta^2 weight and the ibp contact weight
    assert RULE_VALUES[:5] == (ValuePoly.monomial(Fraction(1, 2), w=-1), ZERO,
                               ValuePoly.monomial(Fraction(1, 2), w=1) - D0, D0, ONE)
    assert [RULE_VALUES.dd_contact(n) for n in range(5)] == [ONE] + [ZERO] * 4


def test_local_value_folds_powers():
    d_at_zero, _, dddot_at_zero = RULE_VALUES[:3]
    assert local_value(2) == d_at_zero * d_at_zero
    assert local_value(0, 1, 0) == ZERO
    assert local_value(1, 0, 1) == d_at_zero * dddot_at_zero
    assert local_value() == ValuePoly.rational(1)


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        mono(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        IntegrandMonomial(0, 0, 0, -2, coeff=ValuePoly.rational(1))


def test_non_int_powers_rejected():
    # refused at construction, not deep in `base_integral` with a bare TypeError
    one = ValuePoly.rational(1)
    for bad in (1.5, 2.0, Fraction(2), True):
        for shape in ((bad, 0, 0, 0), (0, bad, 0, 0), (0, 0, bad, 0), (0, 0, 0, bad)):
            with pytest.raises(TypeError):
                IntegrandMonomial(*shape, one)
        with pytest.raises(TypeError):
            mono(0, bad)


def test_non_ring_coefficients_rejected():
    # refused at construction, not later with an AttributeError from the reducer
    for bad in (3, Fraction(1, 2), 0.5, None):
        with pytest.raises(TypeError):
            IntegrandMonomial(1, 0, 0, 0, bad)
    assert mono(1, coeff=3).coeff == ValuePoly.rational(3)


def test_shape_and_bare_measure():
    t = mono(1, 2, 0, 1, coeff=Fraction(3, 2))
    assert t.shape == (1, 2, 0, 1)
    assert not t.is_bare_measure
    assert mono(0, 0, 0, 0, coeff=5).is_bare_measure


def test_factors_text_elides_unit_powers():
    assert mono(2, 0, 1, 0).factors_text() == "D^2 ddD"
    assert mono(1, 1, 0, 2).factors_text() == "D dD delta^2"
    assert mono(0, 0, 0, 0).factors_text() == ""


def test_monomial_product_raises_type_error():
    # monomials have no product: the rules scale coefficients, never multiply terms
    with pytest.raises(TypeError):
        mono(1, 2, 0, 0, coeff=Fraction(1, 2)) * mono(0, 1, 1, 1, coeff=Fraction(4))


def test_monomials_are_immutable_values_not_tuples():
    t = mono(1, 2, 0, 0, coeff=Fraction(-3, 32))
    with pytest.raises(AttributeError):
        t.m = 3
    with pytest.raises(AttributeError):
        t.coeff = ValuePoly.rational(1)
    with pytest.raises(AttributeError):
        del mono().coeff
    twin = IntegrandMonomial(1, 2, 0, 0, ValuePoly.rational(Fraction(-3, 32)))
    assert t == twin and hash(t) == hash(twin)
    assert t != mono(1, 2, 0, 0, coeff=Fraction(3, 32))
    assert t != (t.m, t.n, t.p, t.q, t.coeff)
    with pytest.raises(TypeError):
        mono() + mono()
    with pytest.raises(TypeError):
        3 * mono()
    with pytest.raises(TypeError):
        mono() * 3
    assert repr(t) == "IntegrandMonomial('-3/32' * 'D dD^2')"
    assert repr(mono(0, 0, 0, 0, coeff=0)) == "IntegrandMonomial('0' * '1')"


def test_scaled_multiplies_only_the_coefficient():
    t = mono(2, 0, 0, 0, coeff=Fraction(1, 3)).scaled(D0)
    assert t.shape == (2, 0, 0, 0)
    assert t.coeff == ValuePoly.monomial(Fraction(1, 3), d0=1)


def test_normalize_merges_equal_shapes_and_drops_zeros():
    s = integrand_sum(
        mono(1, 0, 0, 0, coeff=Fraction(1, 2)),
        mono(2, 0, 0, 0, coeff=1),
        mono(1, 0, 0, 0, coeff=Fraction(1, 2)),
        mono(2, 0, 0, 0, coeff=-1),
    )
    assert len(s) == 1
    assert s.terms[0].shape == (1, 0, 0, 0)
    assert s.terms[0].coeff == ValuePoly.rational(1)


def test_normalize_sorts_shapes_ascending():
    s = integrand_sum(
        mono(2, 0, 0, 0), mono(0, 2, 0, 0), mono(0, 0, 0, 1), mono(1, 1, 0, 0)
    )
    assert [t.shape for t in s] == [
        (0, 0, 0, 1), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)]


def test_sum_arithmetic():
    x = integrand_sum(mono(1, 0, 0, 0))
    y = integrand_sum(mono(0, 2, 0, 0))
    assert x + y == y + x
    with pytest.raises(TypeError):
        x - x
    assert x.scale(2).terms[0].coeff == ValuePoly.rational(2)
    with pytest.raises(TypeError):
        -x


def test_sum_arithmetic_with_a_non_sum_raises_type_error():
    x = integrand_sum(mono(1, 0, 0, 0))
    for op in (lambda: IntegrandSum() + 1, lambda: x - 1, lambda: 1 + x, lambda: 1 - x,
               lambda: x + mono(1), lambda: x - mono(1), lambda: x + ValuePoly.rational(1)):
        with pytest.raises(TypeError):
            op()


def test_sum_substitute_touches_every_coefficient():
    s = integrand_sum(
        mono(1, 0, 0, 0, coeff=D0),
        mono(2, 0, 0, 0, coeff=ValuePoly.monomial(1, a=1)),
    )
    bound = s.substitute({"d0": 0, "a": Fraction(1, 2)})
    assert len(bound) == 1
    assert bound.terms[0].shape == (2, 0, 0, 0)
    assert bound.terms[0].coeff == Fraction(1, 2)


def test_equality_ignores_term_order_and_zero_terms():
    x = integrand_sum(mono(1, 0, 0, 0), mono(0, 2, 0, 0))
    y = integrand_sum(mono(0, 2, 0, 0), mono(1, 0, 0, 0), mono(3, 0, 0, 0, coeff=0))
    assert x == y
    assert hash(x) == hash(y)


@given(integrand_sums())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_small(s):
    # rebuilding a canonical sum from its terms, in any order, changes nothing
    assert IntegrandSum(reversed(s.terms)).terms == s.terms


@given(integrand_sums(), integrand_sums())
@settings(max_examples=150, deadline=None)
def test_normalize_respects_addition(x, y):
    assert (x + y).terms == tuple(merge_then_sort(x.terms + y.terms))


_FEW_SHAPES = st.sampled_from([(1, 0, 0, 0), (0, 2, 0, 0), (2, 1, 0, 1), (0, 0, 1, 0)])


@st.composite
def _terms_with_repeats(draw):
    terms = [IntegrandMonomial(*draw(_FEW_SHAPES), coeff=draw(value_polys(max_terms=2)))
             for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    if terms:
        # cancel some terms exactly
        for t in draw(st.lists(st.sampled_from(terms), max_size=3)):
            terms.append(IntegrandMonomial(*t.shape, coeff=-t.coeff))
    return draw(st.permutations(terms))


def _check_against_reference(terms):
    # the constructor alone must produce the canonical form from raw terms
    assert list(IntegrandSum(terms).terms) == merge_then_sort(terms)


@given(_terms_with_repeats())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_merge_then_sort_with_repeats(terms):
    _check_against_reference(terms)


@given(st.lists(integrand_monomials(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_normalize_matches_merge_then_sort(terms):
    _check_against_reference(terms)


def test_normalize_keeps_distinct_shapes_and_cancels_pairs():
    distinct = [mono(2, 0, 0, 0, coeff=3), mono(0, 2, 0, 0, coeff=-1),
                mono(1, 0, 0, 1, coeff=D0)]
    _check_against_reference(distinct)
    assert [t.shape for t in IntegrandSum(distinct)] == [
        (0, 2, 0, 0), (1, 0, 0, 1), (2, 0, 0, 0)]
    cancelling = [mono(1, 0, 0, 0, coeff=D0), mono(0, 2, 0, 0),
                  mono(1, 0, 0, 0, coeff=-D0)]
    _check_against_reference(cancelling)
    assert [t.shape for t in IntegrandSum(cancelling)] == [(0, 2, 0, 0)]


@pytest.mark.parametrize("text, rules, value", [
    ("dD^4", ["ibp", "ibp", "delta", "base"], "-3/32 w^-1"),
    ("ddD^2 D^2 + dD^2",
     ["field_equation", "delta_squared", "delta", "ibp", "delta", "base"],
     "1/4 d0 w^-2 + 1/32 w^-1"),
    ("D^3 dD^40", ["ibp"] * 20 + ["delta", "base"],
     "-34461632205/25991905121714527256182784 w^-4"),
])
def test_reduction_steps_unchanged_under_reference_normalize(monkeypatch, text, rules,
                                                             value):
    got_value, got_trace = reduce(parse(text))
    assert [step.rule for step in got_trace.steps] == rules
    assert got_value.render() == value

    def reference_init(self, terms=()):
        self.terms = tuple(merge_then_sort(terms))

    monkeypatch.setattr(IntegrandSum, "__init__", reference_init)
    ref_value, ref_trace = reduce(parse(text))
    assert got_value == ref_value
    assert _step_terms(got_trace) == _step_terms(ref_trace)


def _step_terms(trace):
    return [(step.rule, step.before[0], step.before[1].terms,
             step.after[0], step.after[1].terms) for step in trace.steps]


def test_a_one_term_sum_drops_a_zero_coefficient():
    zero = mono(1, 0, coeff=0)
    assert IntegrandSum([zero]).terms == () == IntegrandSum((zero,)).terms
    assert IntegrandSum([zero]) == IntegrandSum()


@given(integrand_monomials())
@settings(max_examples=200, deadline=None)
def test_a_one_term_sum_equals_the_general_path(t):
    general = IntegrandSum(iter([t]))  # an iterator takes the merge-and-sort path
    for one in (IntegrandSum([t]), IntegrandSum((t,))):
        assert one.terms == general.terms == tuple(merge_then_sort([t]))
