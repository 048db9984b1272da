"""The reference evaluator agrees with the reducer and with quadrature."""

import random
from fractions import Fraction

import pytest

import reference as ref
import workloads
from singint import RuleError, cli, diagram_classes, integrand_sum, mono, reduce


def _reduced(m, n):
    return dict(reduce(integrand_sum(mono(m, n)))[0].items())


def test_closed_form_matches_reducer_on_grid():
    for m in range(9):
        for n in range(31):
            if (m, n) != (0, 0):
                assert ref.pure_integral(m, n) == _reduced(m, n), (m, n)


def test_closed_form_matches_reducer_at_deep_n():
    rng = random.Random(20000067)
    for _ in range(15):
        m, n = rng.randint(0, 8), rng.randint(1, 1000)
        assert ref.pure_integral(m, n) == _reduced(m, n), (m, n)


def test_evaluator_matches_reducer_on_mixed_sums():
    for case in [c for p in workloads.generate("reduce_mix", 7, 4) for c in p]:
        text, = case.payload
        try:
            got = reduce(cli.parse(text))[0].render()
        except RuleError:
            got = workloads.RULE_ERROR
        assert got == case.expected, text


def test_out_of_domain_inputs_are_rejected_by_both():
    for text in ("delta^3 D", "ddD^2 delta", "ddD^3 D", "3/2 w"):
        with pytest.raises(RuleError):
            reduce(cli.parse(text))
    # the delta^3 parts cancel, so the sum stays in the domain
    assert reduce(cli.parse("ddD^3 + ddD^2 delta"))[0].render() == "1/2 d0 w - 5/12 w^2"
    assert ref.render(ref.evaluate([((0, 0, 3, 0), {(0, 0, 0, 0): Fraction(1)}),
                                    ((0, 0, 2, 1), {(0, 0, 0, 0): Fraction(1)})])) \
        == "1/2 d0 w - 5/12 w^2"


@pytest.mark.parametrize("omega", [Fraction(1, 2), Fraction(1), Fraction(3)])
def test_closed_form_matches_quadrature_on_convergent_sector(omega):
    from singint import quadrature_oracle
    for n in (0, 2):
        for m in range(0 if n else 1, 7):
            exact = ref.substitute_w(ref.pure_integral(m, n), omega)
            value = float(exact.get((0, 0, 0, 0), 0))
            assert quadrature_oracle(m, n, float(omega)) == pytest.approx(value, rel=1e-8)


def test_connected_matching_totals_match_class_multiplicities():
    for order in (1, 2):
        total = sum(c.multiplicity for c in diagram_classes(order))
        assert total == ref.connected_matchings(order)
    assert ref.matchings(12) == 10395
    assert ref.matchings(8) == 105
