"""Exact-coefficient ring: construction, arithmetic, substitution, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals, value_polys
from singint import A, D0, G, ONE, W, ZERO, ValuePoly, wpow


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


@given(value_polys(), value_polys(), value_polys())
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


@given(value_polys(), st.integers(min_value=0, max_value=5))
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


@given(value_polys(), value_polys(), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_operation_results_are_canonical(x, y, k, e):
    # operations build results without the constructor's checks; they must
    # come out exactly as the validating constructor would build them
    results = [x + y, x + k, k + x, x - y, x - k, k - x, x - x, -x,
               x * y, x * k, k * x, x ** e, (x + y) ** e]
    for r in results:
        _assert_canonical(r)
