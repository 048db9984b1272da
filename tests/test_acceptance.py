"""Acceptance gate: the nine headline checks, one test and one verdict each.

Run with `pytest -v tests/test_acceptance.py` to get one line per criterion.
Everything here is exact rational equality unless a tolerance is stated
inline; the two timed checks assert their wall-clock budgets.
"""

import time
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (integrand_sums, perfect_matchings, rationals, reducible_sums,
                      value_polys)
from singint import (A, D0, G, ONE, W, ZERO, IntegrandSum, ValuePoly,
                     action_vertices, diagram_classes, diagram_identities,
                     identity_suite, integrand_sum, mono, order_check,
                     quadrature_oracle, reduce)
from singint.cli import parse, render_sum
from singint.verify import D_AT_ZERO
from singint.wick import enumerate_contractions

G2 = G * G
HALF = Fraction(1, 2)


def _verdict(tag: str, detail: str) -> None:
    print(f"PASS  {tag}: {detail}")


def test_1_identity_suite_is_exact_and_fast():
    started = time.perf_counter()
    results = identity_suite()
    elapsed = time.perf_counter() - started
    for check in results:
        assert check.passed, f"{check.name}: expected {check.expected.render()}, got {check.actual.render()}"
        assert check.expected == check.actual
    # the closed forms called out explicitly
    by_name = {c.name: c for c in results}
    assert by_name["dD^2 + w^2 D^2"].actual == ValuePoly.monomial(HALF, w=-1)
    assert by_name["ddD^2 + 2 w^2 dD^2 + w^4 D^2"].actual == D0
    assert by_name["dD^4"].actual == ValuePoly.monomial(Fraction(-3, 32), w=-1)
    assert elapsed < 1.0, f"identity suite took {elapsed:.3f}s"
    _verdict("criterion 1", f"{len(results)} reduction identities exact in {elapsed * 1000:.0f} ms")


def test_2_delta_squared_rules():
    value, _ = reduce(integrand_sum(mono(0, 0, 0, 2)))
    assert value == D0
    value, _ = reduce(integrand_sum(mono(2, 0, 0, 2)))
    assert value == ValuePoly.monomial(Fraction(1, 4), d0=1, w=-2)
    _verdict("criterion 2", "delta^2 -> d0 and delta^2 D^2 -> 1/4 d0 w^-2, exact")


def test_3_diagram_class_coefficient_tables():
    # order 1: the three live classes
    live1 = {c.vertices[0]: c for c in diagram_classes(1) if not c.vanishes}
    assert live1["qd2q2"].coefficient == -G
    assert live1["q4"].coefficient == -G * W * W
    assert live1["jq2"].coefficient == G * D0

    # vanishing classes may split by orientation sign; the tabulated
    # (nonvanishing) ones must be unique per (vertices, shape, self-pairs)
    classes = {}
    for c in diagram_classes(2):
        if c.vanishes:
            continue
        key = (c.vertices, c.shape, c.self_pairs)
        assert key not in classes, f"colliding class key {key}"
        classes[key] = c

    def coeff(vertices, shape, self_pairs=()):
        return classes[(vertices, shape, tuple(sorted(self_pairs)))].coefficient

    # two-loop and three-loop local classes
    assert coeff(("qd2q4",), (0, 0, 0, 0),
                 [("qd2q4", "qdot qdot"), ("qd2q4", "qq"), ("qd2q4", "qq")]) == \
        G2 * (Fraction(3, 2) + 3 * A)
    assert coeff(("q6",), (0, 0, 0, 0), [("q6", "qq")] * 3) == \
        G2 * W * W * (ValuePoly.rational(Fraction(5, 6)) + 3 * A)
    assert coeff(("jq4",), (0, 0, 0, 0), [("jq4", "qq")] * 2) == \
        -3 * G2 * (A - HALF) * D0

    # three-bubble classes, ordered-pair cumulant factor -1/2! included
    qd = "qd2q2"
    assert coeff((qd, qd), (0, 2, 0, 0), [(qd, "qdot qdot"), (qd, "qq")]) == -2 * G2
    assert coeff((qd, qd), (0, 0, 2, 0), [(qd, "qq"), (qd, "qq")]) == -1 * G2
    assert coeff((qd, qd), (2, 0, 0, 0), [(qd, "qdot qdot")] * 2) == -1 * G2
    assert coeff(("q4", qd), (0, 2, 0, 0), [("q4", "qq"), (qd, "qq")]) == -4 * G2 * W * W
    assert coeff(("q4", qd), (2, 0, 0, 0), [("q4", "qq"), (qd, "qdot qdot")]) == -4 * G2 * W * W
    assert coeff(("q4", "q4"), (2, 0, 0, 0), [("q4", "qq")] * 2) == -4 * G2 * W ** 4

    # watermelon classes, factor -4/2! included
    assert coeff((qd, qd), (0, 4, 0, 0)) == -2 * G2
    assert coeff((qd, qd), (1, 2, 1, 0)) == -8 * G2
    assert coeff((qd, qd), (2, 0, 2, 0)) == -2 * G2
    assert coeff(("q4", qd), (2, 2, 0, 0)) == -8 * G2 * W * W
    assert coeff(("q4", "q4"), (4, 0, 0, 0)) == Fraction(-4, 3) * G2 * W ** 4

    # the tabulated classes all carry orientation sign +1
    for c in diagram_classes(2):
        if not c.vanishes:
            assert c.sign == 1
    _verdict("criterion 3",
             "order-1 and order-2 class tables reproduced exactly, global sign +1")


def test_4_order_g_cancellation_is_fast():
    started = time.perf_counter()
    check = order_check(1)
    elapsed = time.perf_counter() - started
    assert check.passed
    assert check.actual == ZERO
    assert elapsed < 1.0, f"order-1 check took {elapsed:.3f}s"
    _verdict("criterion 4", f"order-g total is the zero polynomial ({elapsed * 1000:.0f} ms)")


def test_5_order_g_squared_cancellation_within_budget():
    started = time.perf_counter()
    # capacity probe: a 6+6-leg pair enumerates all 10395 matchings
    six_leg = action_vertices(2)[0]
    assert len(enumerate_contractions(six_leg, six_leg)) == 10395
    check = order_check(2)
    elapsed = time.perf_counter() - started
    assert check.passed
    assert check.actual == ZERO
    # no numeric substitution happened: the zero is symbolic in w, d0, a, g
    assert check.name == "order-2 total"
    assert elapsed < 30.0, f"order-2 check took {elapsed:.3f}s"
    _verdict("criterion 5",
             f"order-g^2 total vanishes symbolically in {elapsed:.2f} s")


def test_6_partial_sum_identities():
    results = {c.name: c for c in diagram_identities()}
    prop0_sq = D_AT_ZERO * D_AT_ZERO
    prop0_cu = prop0_sq * D_AT_ZERO
    int_d_sq = ValuePoly.monomial(Fraction(1, 4), w=-3)

    jacobian = results["jacobian bubble sum"]
    assert jacobian.passed
    assert jacobian.actual == G2 * (2 * D0 * prop0_sq + D0 * D0 * int_d_sq)

    bubbles = results["full bubble sum"]
    assert bubbles.passed
    assert bubbles.actual == -G2 * D0 * prop0_sq

    local3 = results["local three-loop sum"]
    assert local3.passed
    assert local3.actual == G2 * (3 * D0 * prop0_sq - Fraction(2, 3) * W * W * prop0_cu)

    watermelon = results["local plus watermelon sum"]
    assert watermelon.passed
    assert watermelon.actual == G2 * D0 * prop0_sq

    cancel = results["bubbles cancel local plus watermelon"]
    assert cancel.passed
    assert cancel.actual == ZERO
    _verdict("criterion 6",
             "partial diagram sums match their closed forms; bubble vs watermelon d0 terms cancel")


def test_7_delta0_independence_and_veltman_rule():
    for order in (1, 2):
        plain = order_check(order)
        assert plain.passed
        assert plain.actual == ZERO
        assert plain.actual.degree_in("d0") is None  # no d0 power survives
        veltman = order_check(order, veltman=True)
        assert veltman.passed, veltman.name
        assert veltman.actual == ZERO
    # and the a-parameter drops out for any binding
    for a_value in (Fraction(1, 2), Fraction(-7, 5), 3):
        assert order_check(2, a_binding=a_value).passed
    _verdict("criterion 7",
             "totals vanish identically in d0 and stay zero under d0 := 0 and any a")


def test_8_quadrature_oracle_agreement_and_documented_divergence():
    checked = 0
    for m in range(0, 7):
        for n in (0, 2):
            if m + n == 0:
                continue
            exact_poly, _ = reduce(integrand_sum(mono(m, n, 0, 0)))
            for omega in (Fraction(1, 2), Fraction(1), Fraction(2)):
                exact = float(exact_poly.substitute({"w": omega}).as_fraction())
                numeric = quadrature_oracle(m, n, float(omega))
                assert abs(numeric - exact) <= 1e-8 * abs(exact), (m, n, omega)
                checked += 1
    rule_value, _ = reduce(integrand_sum(mono(0, 4, 0, 0)))
    lebesgue = ValuePoly.monomial(Fraction(1, 32), w=-1)
    assert lebesgue - rule_value == ValuePoly.monomial(Fraction(1, 8), w=-1)
    _verdict("criterion 8",
             f"{checked} quadrature points within 1e-8 relative; dD^4 divergence exactly 1/8 w^-1")


@given(value_polys(), value_polys(), value_polys())
@settings(max_examples=1000, deadline=None)
def _prop_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(reducible_sums(max_terms=3), reducible_sums(max_terms=3), rationals())
@settings(max_examples=1000, deadline=None)
def _prop_reduce_linear(x, y, c):
    vx, _ = reduce(x)
    vy, _ = reduce(y)
    combined, _ = reduce(x + y.scale(c))
    assert combined == vx + c * vy


@given(integrand_sums())
@settings(max_examples=1000, deadline=None)
def _prop_normalize_idempotent(s):
    # every sum is built canonical, so neither the order of its terms nor a
    # coefficient split over two terms of one shape shows in the result
    assert IntegrandSum(s.terms[::-1]) == s
    assert IntegrandSum([half for t in s for half in (t.scaled(HALF),) * 2]) == s


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=1000, deadline=None)
def _prop_matching_counts(k):
    expected = prod(range(1, 2 * k, 2))
    assert sum(1 for _ in perfect_matchings(tuple(range(2 * k)))) == expected


@given(integrand_sums())
@settings(max_examples=1000, deadline=None)
def _prop_parser_round_trip(s):
    assert parse(render_sum(s)) == s


def test_9_property_suites_thousand_cases_each():
    _prop_ring_laws()
    _prop_reduce_linear()
    _prop_normalize_idempotent()
    _prop_matching_counts()
    _prop_parser_round_trip()
    _verdict("criterion 9",
             "ring laws, reduce linearity, normalize idempotence, matching counts, "
             "parser round-trip: 1000 cases each")
