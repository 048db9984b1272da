"""Exact-coefficient ring: construction, arithmetic, substitution, rendering."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nonzero_rationals, rationals, ring_operands, value_polys
from singint import (A, D0, G, ONE, W, ZERO, ValuePoly, integrand_sum, mono,
                     substitute_field_equation, wpow)


half = Fraction(1, 2)


def test_zero_coefficients_are_dropped():
    p = ValuePoly({(1, 0, 0, 0): Fraction(0)})
    assert p.is_zero
    assert p == ZERO
    assert list(p.items()) == []


def test_negative_exponent_rejected_for_polynomial_symbols():
    for bad in [(0, -1, 0, 0), (0, 0, -2, 0), (0, 0, 0, -1)]:
        with pytest.raises(ValueError):
            ValuePoly({bad: Fraction(1)})


def test_w_may_carry_any_integer_exponent():
    assert wpow(-5) * wpow(5) == ONE
    assert ValuePoly.monomial(1, w=-3).degree_in("w") == -3


def test_constant_polys_hash_like_their_rationals():
    assert hash(ValuePoly.rational(3)) == hash(3)
    assert hash(ValuePoly.rational(half)) == hash(half)
    assert hash(ZERO) == hash(0) == hash(Fraction(0))
    assert len({ValuePoly.rational(3), 3}) == 1
    assert len({ZERO, 0, Fraction(0)}) == 1
    assert {ValuePoly.rational(half): "x"}[half] == "x"
    assert hash(ValuePoly.monomial(3, w=1)) == hash(ValuePoly.monomial(3, w=1))


def test_bool_coefficients_rejected():
    for bad in (True, False):
        with pytest.raises(TypeError):
            ValuePoly.rational(bad)
        with pytest.raises(TypeError):
            ValuePoly.monomial(bad, w=1)
        with pytest.raises(TypeError):
            ValuePoly({(0, 0, 0, 0): bad})


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        ValuePoly.rational(0.5)
    with pytest.raises(TypeError):
        ValuePoly.monomial(0.25, w=1)


def test_equality_against_plain_rationals():
    assert ValuePoly.rational(half) == half
    assert ValuePoly.rational(3) == 3
    assert ZERO == 0
    assert W != 1


def test_bools_compare_unequal_and_stay_out_of_arithmetic():
    # a bool compares unequal, as 1.0 does, yet still raises in arithmetic
    assert (ONE == True) is False
    assert (ONE != True) is True
    assert (ZERO == False) is False
    assert (ZERO != False) is True
    assert len({ONE, True}) == 2
    assert len({ZERO, False}) == 2
    for bad in (True, False):
        for op in (lambda: ONE * bad, lambda: bad * ONE, lambda: ONE + bad,
                   lambda: bad + ONE, lambda: ZERO * bad, lambda: ZERO + bad):
            with pytest.raises(TypeError):
                op()


def test_arithmetic_with_scalars_on_either_side():
    assert 1 + W - 1 == W
    assert 2 * W == W + W
    assert half * (W + W) == W
    assert 1 - (1 - W) == W


def test_power_repeated_multiplication():
    p = W + D0
    assert p ** 0 == ONE
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


@pytest.mark.parametrize("k, multiplies", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2)])
def test_power_multiplies_only_as_the_bits_need(monkeypatch, k, multiplies):
    p = W + D0 + half
    expected = ONE
    for _ in range(k):
        expected = expected * p
    calls = []
    mul = ValuePoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ValuePoly, "__mul__", counted)
    got = p ** k
    assert len(calls) == multiplies
    assert got == expected


def test_field_equation_multiplies_once_per_binomial_term(monkeypatch):
    # ddD^2 D = D (-delta + w^2 D)^2 expands to three terms, one ring multiply each
    calls = []
    mul = ValuePoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ValuePoly, "__mul__", counted)
    got = substitute_field_equation(integrand_sum(mono(1, 0, 2, 0, coeff=half)))
    assert len(calls) == 3
    assert got == integrand_sum(mono(1, 0, 0, 2, coeff=half),
                                mono(2, 0, 0, 1, coeff=-wpow(2)),
                                mono(3, 0, 0, 0, coeff=half * wpow(4)))


@given(nonzero_rationals(), st.integers(min_value=-4, max_value=-1),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=12))
@settings(max_examples=100, deadline=None)
def test_single_term_power_matches_iterated_product(coef, w, d0, a, g, k):
    m = ValuePoly.monomial(coef, w=w, d0=d0, a=a, g=g)
    expected = ONE
    for _ in range(k):
        expected = expected * m
    got = m ** k
    assert got == expected
    _assert_canonical(got)
    # and against plain Fraction arithmetic, which shares no ring code path
    bindings = {"w": 3, "d0": 2, "a": 5, "g": 7}
    assert got.substitute(bindings) == m.substitute(bindings).as_fraction() ** k


def test_degree_and_coefficient_queries():
    p = ValuePoly.monomial(half, w=-1) + ValuePoly.monomial(3, d0=2, w=1)
    assert p.degree_in("w") == 1
    assert p.degree_in("d0") == 2
    assert p.degree_in("a") is None or p.degree_in("a") == 0
    assert p.coefficient_of(w=-1) == half
    assert p.coefficient_of(d0=2, w=1) == 3
    assert p.coefficient_of(w=7) == 0


def test_degree_of_zero_is_none():
    assert ZERO.degree_in("w") is None


def test_as_fraction_only_for_pure_rationals():
    assert ValuePoly.rational(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    assert ZERO.as_fraction() == 0
    with pytest.raises(ValueError):
        W.as_fraction()


def test_substitute_partial_and_full():
    p = ValuePoly.monomial(1, w=-2, d0=1) + ValuePoly.monomial(half, a=1)
    assert p.substitute({"d0": 0, "a": 0}) == ZERO
    assert p.substitute({"w": 2, "d0": 4, "a": 1}) == ValuePoly.rational(Fraction(3, 2))
    left = p.substitute({"a": Fraction(1, 2)})
    assert left.coefficient_of() == Fraction(1, 4)
    assert left.degree_in("a") is None or left.degree_in("a") == 0


def test_substitute_rejects_bad_bindings():
    with pytest.raises(ValueError):
        W.substitute({"w": 0})
    with pytest.raises(ValueError):
        W.substitute({"w": -1})
    with pytest.raises(ValueError):
        W.substitute({"omega": 1})


def test_substitute_bounds_a_term_under_two_bindings():
    big = ValuePoly.monomial(1, w=-300000000000, a=1)
    for bindings in ({"w": 3, "a": 2}, {"a": 2, "w": 3}):
        with pytest.raises(ValueError, match="more than .* digits"):
            big.substitute(bindings)


def test_substitute_sums_far_apart_powers_without_building_them():
    far = 300000000000
    w = ValuePoly.monomial
    # the two far terms cancel, so the near one is all that is left
    assert (w(1, w=2) + w(9, w=far + 2) - w(1, w=far + 4)).substitute({"w": 3}) == 9
    with pytest.raises(ValueError, match="more than .* digits"):
        (ONE + w(1, w=far)).substitute({"w": 3})


@given(st.lists(st.tuples(st.sampled_from([-6000, 0, 5125, 6000]), st.integers(-2, 2),
                          rationals(max_num=9, max_den=4)), min_size=1, max_size=5),
       rationals(max_num=9, max_den=7).filter(lambda r: r > 0))
@settings(max_examples=60, deadline=None)
def test_substitute_raises_only_past_the_digit_limit(terms, value):
    # a limit of 640 digits splits runs at gaps of 8 * 640 = 5120 powers, and
    # joins two runs about 5125 powers apart again before it builds them
    poly = ZERO
    for base, offset, coef in terms:
        poly = poly + ValuePoly.monomial(coef, w=base + offset)
    exact = sum((coef * value ** k for (k, *_), coef in poly.items()), Fraction(0))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = poly.substitute({"w": value})
    except ValueError:
        # more than 640 digits upstairs or downstairs
        assert max(abs(exact.numerator), exact.denominator) >= 10 ** 640
    else:
        assert got == exact
    finally:
        sys.set_int_max_str_digits(limit)


def test_render_fixed_forms():
    cases = [
        (ZERO, "0"),
        (ONE, "1"),
        (ValuePoly.rational(Fraction(-3, 4)), "-3/4"),
        (ValuePoly.monomial(Fraction(-3, 32), w=-1), "-3/32 w^-1"),
        (ValuePoly.monomial(1, d0=1), "d0"),
        (ValuePoly.monomial(-1, d0=2, w=-3), "-d0^2 w^-3"),
        (ValuePoly.monomial(half, w=1), "1/2 w"),
        (G * G * A, "g^2 a"),
        (D0 + ValuePoly.monomial(half, w=1), "d0 + 1/2 w"),
    ]
    for poly, text in cases:
        assert poly.render() == text


def test_render_orders_by_g_then_d0_then_a_then_w():
    p = wpow(2) + D0 + G + A
    assert p.render() == "g + d0 + a + w^2"


def test_hash_agrees_with_equality():
    p = ValuePoly.monomial(half, w=-1) + D0
    q = D0 + ValuePoly.monomial(half, w=-1)
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


@given(ring_operands(), ring_operands(), ring_operands())
@settings(max_examples=150, deadline=None)
def test_ring_laws_small(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(ring_operands(), st.integers(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_pow_matches_iterated_product(x, k):
    expected = ONE
    for _ in range(k):
        expected = expected * x
    assert x ** k == expected


@given(value_polys(), rationals(max_num=9, max_den=7).filter(lambda r: r > 0),
       rationals(max_num=9, max_den=7), rationals(max_num=9, max_den=7))
@settings(max_examples=150, deadline=None)
def test_substitution_is_a_ring_morphism(x, wv, d0v, av):
    bindings = {"w": wv, "d0": abs(d0v), "a": av}
    y = ValuePoly.monomial(1, w=1, g=1) + D0
    fx = x.substitute(bindings)
    fy = y.substitute(bindings)
    assert (x + y).substitute(bindings) == fx + fy
    assert (x * y).substitute(bindings) == fx * fy


def _assert_canonical(p):
    for (kw, kd0, ka, kg), coef in p.items():
        assert type(coef) is Fraction and coef != 0
        assert type(kw) is int and kd0 >= 0 and ka >= 0 and kg >= 0
    rebuilt = ValuePoly(dict(p.items()))
    assert rebuilt == p
    assert hash(rebuilt) == hash(p)


@given(ring_operands(), ring_operands(), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_operation_results_are_canonical(x, y, k, e):
    # operations build results without the constructor's checks; they must
    # come out exactly as the validating constructor would build them
    results = [x + y, x + k, k + x, x - y, x - k, k - x, x - x, -x,
               x * y, x * k, k * x, x ** e, (x + y) ** e]
    for r in results:
        _assert_canonical(r)


# -- the stored pairs against plain Fraction arithmetic ---------------------

def _reference(x):
    """x as a plain {exponents: Fraction} dict, read through the public items()."""
    if isinstance(x, ValuePoly):
        return dict(x.items())
    return {(0, 0, 0, 0): Fraction(x)} if x else {}


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_neg(x):
    return {e: -c for e, c in x.items()}


def _assert_pairs_reduced(p):
    for coef in p._terms.values():
        num, den = coef
        assert type(num) is int and type(den) is int
        assert den > 0 and num != 0 and gcd(num, den) == 1


scalars = st.one_of(st.integers(min_value=-40, max_value=40),
                    rationals(max_num=40, max_den=15),
                    st.sampled_from([2 ** 70 + 1, -(3 ** 50), Fraction(2 ** 65, 3 ** 40)]))


@given(ring_operands(), ring_operands(), scalars, st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_ring_matches_plain_fraction_arithmetic(x, y, k, e):
    rx, ry, rk = _reference(x), _reference(y), _reference(k)
    cases = [
        (x + y, _ref_add(rx, ry)), (x + k, _ref_add(rx, rk)), (k + x, _ref_add(rk, rx)),
        (x - y, _ref_add(rx, _ref_neg(ry))), (x - k, _ref_add(rx, _ref_neg(rk))),
        (k - x, _ref_add(rk, _ref_neg(rx))), (-x, _ref_neg(rx)),
        (x * y, _ref_mul(rx, ry)), (x * k, _ref_mul(rx, rk)), (k * x, _ref_mul(rk, rx)),
    ]
    power = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(e):
        power = _ref_mul(power, rx)
    cases.append((x ** e, power))
    for got, want in cases:
        assert dict(got.items()) == want
        _assert_pairs_reduced(got)
        _assert_canonical(got)


def test_big_coefficients_multiply_and_cancel_exactly():
    big = ValuePoly.monomial(Fraction(2 ** 200 + 1, 3 ** 120), w=1) + ValuePoly.rational(7)
    inverse = ValuePoly.monomial(Fraction(3 ** 120, 2 ** 200 + 1), w=-1)
    product = big * inverse
    assert dict(product.items()) == {(0, 0, 0, 0): Fraction(1),
                                     (-1, 0, 0, 0): Fraction(7 * 3 ** 120, 2 ** 200 + 1)}
    _assert_pairs_reduced(product)
    assert big - big == ZERO and (big + -big).is_zero


@pytest.mark.parametrize("q", [0, 1, -1, 3, -3, 2 ** 70, -(2 ** 70), half, -half,
                               Fraction(-7, 3), Fraction(2 ** 65 + 1, 3 ** 41)])
def test_constants_hash_like_ints_and_fractions(q):
    assert hash(ValuePoly.rational(q)) == hash(q) == hash(Fraction(q))
    assert ValuePoly.rational(q) == q
    assert {ValuePoly.rational(q): "x"}[q] == "x"


def test_equal_constants_share_one_set_element():
    assert len({ValuePoly.rational(3), 3, Fraction(3)}) == 1
    assert len({ValuePoly.rational(-half), -half, Fraction(-2, 4)}) == 1


def test_direct_scalar_operands_refuse_bools_and_floats():
    x = W + half
    for op in (lambda: x * True, lambda: True * x, lambda: x * 0.5, lambda: 0.5 * x,
               lambda: x + 1.0, lambda: 1.0 + x, lambda: ZERO * 0.5, lambda: ZERO + 1.0):
        with pytest.raises(TypeError):
            op()
    assert x * 0 is ZERO
    assert 0 * x is ZERO
    assert x + 0 is x and x + Fraction(0) is x
    assert x * 1 == x and x * 3 == x + x + x


def test_items_and_queries_return_fractions():
    p = ValuePoly.monomial(3, w=1) + ValuePoly.rational(Fraction(-1, 2))
    assert [type(c) for _, c in p.items()] == [Fraction, Fraction]
    assert type(p.coefficient_of(w=1)) is Fraction
    assert type(p.coefficient_of(w=5)) is Fraction
    assert type(ValuePoly.rational(4).as_fraction()) is Fraction
    assert ValuePoly.rational(4).as_fraction() == 4
