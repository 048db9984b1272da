"""End-to-end checks: identity table, diagram sums, cancellations, oracle."""

from fractions import Fraction

import pytest

from conftest import lebesgue_integral, lebesgue_local_value, total_derivative
from singint import (A, D0, G, ONE, ZERO, D_AT_ZERO, IntegrandSum, ValuePoly,
                     diagram_classes, diagram_identities, identity_suite, integrand,
                     integrand_sum, mono, order_check, quadrature_oracle, reduce, reducer,
                     verify, wick)
from singint.integrand import parse
from singint.verify import INT_D_FOURTH, INT_D_SQUARED


def test_identity_suite_all_pass():
    results = identity_suite()
    for check in results:
        assert check.passed, check.name
        assert check.expected == check.actual
    names = [check.name for check in results]
    assert len(names) == len(set(names))
    for needed in ["dD^2 + w^2 D^2", "ddD^2 + 2 w^2 dD^2 + w^4 D^2", "dD^4",
                   "delta^2", "delta^2 D^2", "ddD dD^2 D"]:
        assert needed in names


def test_identity_suite_names_re_derive_their_values():
    traced = [check for check in identity_suite() if check.trace is not None]
    assert len(traced) == 12
    for check in traced:
        assert check.trace.replay(parse(check.name)) == (check.actual, IntegrandSum()), check.name


def test_identity_suite_key_values():
    by_name = {check.name: check for check in identity_suite()}
    assert by_name["dD^2 + w^2 D^2"].actual == D_AT_ZERO
    assert by_name["ddD^2 + 2 w^2 dD^2 + w^4 D^2"].actual == D0
    assert by_name["dD^4"].actual == ValuePoly.monomial(Fraction(-3, 32), w=-1)
    assert by_name["delta^2"].actual == D0
    assert by_name["delta^2 dD^2"].actual == ZERO


def test_diagram_identities_all_pass():
    results = diagram_identities()
    assert len(results) == 6
    for check in results:
        assert check.passed, check.name
    by_name = {check.name: check for check in results}
    prop0_sq = D_AT_ZERO * D_AT_ZERO
    assert by_name["order-1 connected sum"].actual == ZERO
    assert by_name["bubbles cancel local plus watermelon"].actual == ZERO
    assert by_name["full bubble sum"].actual.coefficient_of(d0=1, w=-2, g=2) == Fraction(-1, 4)
    assert by_name["local plus watermelon sum"].actual == (
        ValuePoly.monomial(1, g=2) * D0 * prop0_sq)


def test_order_checks_vanish():
    assert order_check(1).passed
    assert order_check(2).passed
    assert order_check(1).actual == ZERO
    assert order_check(2).actual == ZERO


def test_order_check_labels():
    assert order_check(1).name == "order-1 total"
    assert order_check(2, a_binding=Fraction(1, 2)).name == "order-2 total (a = 1/2)"
    assert order_check(2, veltman=True).name == "order-2 total (d0 = 0)"


def test_order_check_under_bindings():
    for a in (Fraction(1, 2), Fraction(-3, 7), 2):
        assert order_check(2, a_binding=a).passed
    assert order_check(2, veltman=True).passed
    assert order_check(2, a_binding=Fraction(5, 3), veltman=True).passed
    assert order_check(1, veltman=True).passed


def test_diagram_identities_classifies_each_order_once(monkeypatch):
    # the census counts its classes: nothing on the order-check path enumerates
    classified, enumerated = [], []
    classes, contractions = wick.diagram_classes, wick.enumerate_contractions

    def counting_classes(order):
        classified.append(order)
        return classes(order)

    def counting_contractions(*vertices):
        enumerated.append(vertices)
        return contractions(*vertices)

    monkeypatch.setattr(verify, "diagram_classes", counting_classes)
    monkeypatch.setattr(wick, "enumerate_contractions", counting_contractions)
    diagram_identities()
    assert sorted(classified) == [1, 2]
    diagram_classes(1)
    diagram_classes(2)
    order_check(1)
    order_check(2)
    assert enumerated == []


def test_naive_equal_time_value_leaves_a_d0_residue(monkeypatch):
    # ddD(0) = 1/2 w without its -d0 contact part; `local_value` reads the
    # constant at call time, so the Wick matcher and the reducer both see it
    monkeypatch.setattr(integrand, "DDDOT_AT_ZERO", ValuePoly.monomial(Fraction(1, 2), w=1))
    g2d0 = ValuePoly.monomial(1, g=2, d0=1)
    residues = [
        (order_check(1), ValuePoly.monomial(Fraction(1, 2), g=1, d0=1, w=-1)),
        (order_check(2), g2d0 * (ValuePoly.monomial(Fraction(-1, 4), d0=1, w=-3)
                                 + ValuePoly.monomial(Fraction(-3, 4), a=1, w=-2)
                                 + ValuePoly.monomial(Fraction(1, 8), w=-2))),
        (order_check(2, a_binding=Fraction(1, 2)),
         g2d0 * (ValuePoly.monomial(Fraction(-1, 4), d0=1, w=-3)
                 + ValuePoly.monomial(Fraction(-1, 4), w=-2))),
    ]
    for check, residue in residues:
        assert not check.passed, check.name
        assert check.actual == residue, check.name
    # every residue term carries d0, so the Veltman convention hides the fault
    assert order_check(1, veltman=True).passed
    assert order_check(2, veltman=True).passed


def test_variant_contact_rule_fixes_total_derivatives_but_breaks_order_2(monkeypatch):
    # the variant keeps dD(0)^n alive for even n, as eps^n delta -> delta/(n+1)
    # with dD = -eps e^(-w|t|)/2: the Lebesgue contact values.  `ibp_step`
    # reads the same `local_value`, so it emits its contact term for every
    # even n.  Only the reducer sees the variant, since swapping
    # wick.local_value too breaks order 1 by -1/6 g
    monkeypatch.setattr(reducer, "local_value", lebesgue_local_value)

    assert reduce(integrand_sum(mono(n=4)))[0] == lebesgue_integral(0, 4)
    for m in range(9):
        for n in range(1, 13):
            assert reduce(total_derivative(m, n))[0].is_zero, (m, n)

    # coordinate independence rejects the variant at order 2, by 1/12 g^2 w^-1
    residue = ValuePoly.monomial(Fraction(1, 12), g=2, w=-1)
    assert order_check(1).passed
    for a_binding in (None, Fraction(1, 2)):
        for veltman in (False, True):
            assert order_check(2, a_binding=a_binding, veltman=veltman).actual == residue
    failed = {c.name: c.actual - c.expected for c in diagram_identities() if not c.passed}
    assert failed == {"local plus watermelon sum": residue,
                      "bubbles cancel local plus watermelon": residue}


def _one_sided_ddot(monkeypatch):
    # dD(0) = -1/2, the value from t > 0, in place of the symmetric 0
    monkeypatch.setattr(integrand, "DDOT_AT_ZERO", ValuePoly.rational(Fraction(-1, 2)))


def _delta_squared_without_d0(monkeypatch):
    monkeypatch.setattr(reducer, "D0", ONE)


def _jacobian_vertices_dropped(monkeypatch):
    vertices = wick.action_vertices
    monkeypatch.setattr(wick, "action_vertices",
                        lambda order: [v for v in vertices(order) if not v.jacobian])


def _qd2q4_coupling_one_plus_a(monkeypatch):
    vertices = wick.action_vertices
    coupling = G * G * (ONE + A) * Fraction(1, 2)  # 1 + a for 1 + 2a
    monkeypatch.setattr(wick, "action_vertices", lambda order: [
        v._replace(coupling=coupling) if v.label == "qd2q4" else v for v in vertices(order)])


def _ibp_contact_dropped(monkeypatch):
    step = reducer.ibp_step
    monkeypatch.setattr(reducer, "ibp_step",
                        lambda t: IntegrandSum([u for u in step(t) if not u.q]))


def _pinned_derivative_unsigned(monkeypatch):
    # q(t) q.(0) -> +dD and q.(t) q.(0) -> +ddD: the lines of D(t + s), not D(t - s)
    monkeypatch.setattr(wick, "PINNED_DERIVATIVE_SIGN", 1)


def _cumulant_prefactor_plus_half(monkeypatch):
    monkeypatch.setattr(wick, "CUMULANT_PREFACTOR", Fraction(1, 2))


def _lebesgue_dd_fourth(monkeypatch):
    # integral dD^4 at its Lebesgue value, 1/8 w^-1 above the rule value
    rule_reduce = verify.reduce

    def lebesgue_reduce(s):
        value, trace = rule_reduce(s)
        for t in s:
            if t.shape == (0, 4, 0, 0):
                value = value + t.coeff * ValuePoly.monomial(Fraction(1, 8), w=-1)
        return value, trace

    monkeypatch.setattr(verify, "reduce", lebesgue_reduce)


# mutant: (order 1, order 2, order 2 at a = 1/2, order 2 with d0 = 0) residues,
# then the failing diagram_identities rows and the failing identity_suite rows
MUTANTS = {
    _one_sided_ddot: (
        ("-1/2 g", "3/2 g^2 a w^-1 + g^2 w^-1", "7/4 g^2 w^-1", "3/2 g^2 a w^-1 + g^2 w^-1"),
        {"order-1 connected sum", "local three-loop sum", "local plus watermelon sum",
         "bubbles cancel local plus watermelon"},
        {"ddD dD^2 D", "ddD dD^2 D vs w^2 dD^2 D^2", "dD^4", "delta^2 dD^2"}),
    _delta_squared_without_d0: (
        ("0", "3/4 g^2 d0 w^-2 - 3/4 g^2 w^-2", "3/4 g^2 d0 w^-2 - 3/4 g^2 w^-2",
         "-3/4 g^2 w^-2"),
        {"full bubble sum", "local plus watermelon sum", "bubbles cancel local plus watermelon"},
        {"ddD^2 + 2 w^2 dD^2 + w^4 D^2", "ddD^2 D^2", "delta^2", "delta^2 D^2"}),
    # every residue term carries d0, so the Veltman convention hides this fault
    _jacobian_vertices_dropped: (
        ("-1/2 g d0 w^-1", "-1/4 g^2 d0^2 w^-3 + 3/4 g^2 d0 a w^-2 - 7/8 g^2 d0 w^-2",
         "-1/4 g^2 d0^2 w^-3 - 1/2 g^2 d0 w^-2", "0"),
        {"order-1 connected sum", "jacobian bubble sum", "full bubble sum",
         "local three-loop sum", "local plus watermelon sum",
         "bubbles cancel local plus watermelon"},
        set()),
    _qd2q4_coupling_one_plus_a: (
        ("0", "-3/8 g^2 d0 a w^-2 + 3/16 g^2 a w^-1", "-3/16 g^2 d0 w^-2 + 3/32 g^2 w^-1",
         "3/16 g^2 a w^-1"),
        {"local three-loop sum", "local plus watermelon sum",
         "bubbles cancel local plus watermelon"},
        set()),
    _ibp_contact_dropped: (
        ("0", "2/3 g^2 w^-1", "2/3 g^2 w^-1", "2/3 g^2 w^-1"),
        {"jacobian bubble sum", "full bubble sum", "local plus watermelon sum",
         "bubbles cancel local plus watermelon"},
        {"dD^2 + w^2 D^2", "ddD^2 + 2 w^2 dD^2 + w^4 D^2", "dD^2 D^2", "ddD dD^2 D", "dD^4"}),
    _lebesgue_dd_fourth: (
        ("0", "-1/4 g^2 w^-1", "-1/4 g^2 w^-1", "-1/4 g^2 w^-1"),
        {"local plus watermelon sum", "bubbles cancel local plus watermelon"},
        {"dD^4 vs -3 ddD dD^2 D", "dD^4"}),
    # not caught: with the lines of D(t + s) every check still passes
    _pinned_derivative_unsigned: (
        ("0", "0", "0", "0"),
        set(),
        set()),
    _cumulant_prefactor_plus_half: (
        ("0", "3/2 g^2 d0 w^-2 - 1/6 g^2 w^-1", "3/2 g^2 d0 w^-2 - 1/6 g^2 w^-1",
         "-1/6 g^2 w^-1"),
        {"jacobian bubble sum", "full bubble sum", "local plus watermelon sum",
         "bubbles cancel local plus watermelon"},
        set()),
}


def _assert_pinned_residues(monkeypatch, mutant):
    residues, failing_diagrams, failing_identities = MUTANTS[mutant]
    mutant(monkeypatch)
    checks = [order_check(1), order_check(2), order_check(2, a_binding=Fraction(1, 2)),
              order_check(2, veltman=True)]
    assert tuple(check.actual.render() for check in checks) == residues
    assert [check.passed for check in checks] == [residue == "0" for residue in residues]
    assert {c.name for c in diagram_identities() if not c.passed} == failing_diagrams
    assert {c.name for c in identity_suite() if not c.passed} == failing_identities


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__.lstrip("_"))
def test_mutant_leaves_its_pinned_residues(monkeypatch, mutant):
    # cold: no class skeleton is memoized when the mutant is applied
    wick._skeleton.cache_clear()
    _assert_pinned_residues(monkeypatch, mutant)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__.lstrip("_"))
def test_mutant_takes_effect_after_the_skeleton_is_warm(monkeypatch, mutant):
    # no state kept across calls may freeze a name the mutant patches
    diagram_classes(1)
    diagram_classes(2)
    assert order_check(2).passed
    _assert_pinned_residues(monkeypatch, mutant)


def test_order_check_carries_a_trace_when_nonlocal():
    check = order_check(2)
    assert check.trace is not None
    assert len(check.trace.steps) > 0


def test_frozen_base_values():
    assert INT_D_SQUARED == ValuePoly.monomial(Fraction(1, 4), w=-3)
    assert INT_D_FOURTH == ValuePoly.monomial(Fraction(1, 32), w=-5)
    assert lebesgue_integral(0, 4) == ValuePoly.monomial(Fraction(1, 32), w=-1)


def test_rule_versus_lebesgue_divergence_is_exact():
    rule_value, _ = reduce(integrand_sum(mono(0, 4, 0, 0)))
    assert lebesgue_integral(0, 4) - rule_value == ValuePoly.monomial(Fraction(1, 8), w=-1)


def test_oracle_matches_closed_forms():
    for omega in (0.5, 1.0, 2.0):
        assert abs(quadrature_oracle(1, 0, omega) - 1 / omega ** 2) < 1e-10
        assert abs(quadrature_oracle(2, 0, omega) - 1 / (4 * omega ** 3)) < 1e-10
        assert abs(quadrature_oracle(0, 2, omega) - 1 / (4 * omega)) < 1e-10
        assert abs(quadrature_oracle(2, 2, omega) - 1 / (32 * omega ** 3)) < 1e-10


def test_oracle_rejects_the_unsafe_sector():
    with pytest.raises(ValueError):
        quadrature_oracle(0, 4, 1.0)
    with pytest.raises(ValueError):
        quadrature_oracle(1, 1, 1.0)
    with pytest.raises(ValueError):
        quadrature_oracle(0, 0, 1.0)
    with pytest.raises(ValueError):
        quadrature_oracle(2, 0, 0.0)
    with pytest.raises(ValueError):
        quadrature_oracle(2, 0, -1.0)
