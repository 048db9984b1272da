"""Contraction generator: vertices, matchings, class tables, family sums."""

import gc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singint import (A, D0, G, ONE, W, ZERO, D_AT_ZERO, DDDOT_AT_ZERO,
                     DDOT_AT_ZERO, DiagramClass, IntegrandSum, ValuePoly, Vertex,
                     action_vertices, diagram_classes, enumerate_contractions, mono,
                     order_check, order_contribution, perfect_matchings, reduce)
from singint import integrand, wick
from singint.wick import Q, QDOT, _class_counts, _splits

# equal-time value of one same-vertex pair; a qdot qdot pair is -ddD(0)
SELF_VALUES = {(Q, Q): D_AT_ZERO, (QDOT, Q): DDOT_AT_ZERO, (QDOT, QDOT): -DDDOT_AT_ZERO}


def double_factorial_odd(k: int) -> int:
    return prod(range(1, 2 * k, 2))


def classes_by(classes, **want):
    picked = [c for c in classes
              if all(getattr(c, key) == val for key, val in want.items())]
    return picked


def test_order_1_vertices():
    v = {x.label: x for x in action_vertices(1)}
    assert set(v) == {"qd2q2", "q4", "jq2"}
    assert v["qd2q2"].legs == (QDOT, QDOT, Q, Q)
    assert v["qd2q2"].coupling == -G
    assert v["q4"].coupling == -G * W * W * Fraction(1, 3)
    assert v["jq2"].coupling == G * D0
    assert v["jq2"].jacobian and not v["q4"].jacobian


def test_order_2_vertices():
    v = {x.label: x for x in action_vertices(2)}
    g2 = G * G
    assert v["qd2q4"].coupling == g2 * (ONE + 2 * A) * Fraction(1, 2)
    assert v["q6"].coupling == g2 * W * W * (
        ValuePoly.rational(Fraction(1, 18)) + A * Fraction(1, 5))
    assert v["jq4"].coupling == -g2 * (A - Fraction(1, 2)) * D0
    assert v["jq4"].jacobian
    assert len(v["q6"].legs) == 6


def test_vertices_only_first_two_orders():
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            action_vertices(bad)


def test_matching_counts_small():
    for k in range(0, 7):
        assert len(list(perfect_matchings(tuple(range(2 * k))))) == double_factorial_odd(k)
    assert list(perfect_matchings((1, 2, 3))) == []


def test_matchings_partition_the_legs():
    items = tuple(range(6))
    seen = set()
    for matching in perfect_matchings(items):
        flat = [leg for pair in matching for leg in pair]
        assert sorted(flat) == list(items)
        seen.add(matching)
    assert len(seen) == 15


def test_single_vertex_contractions():
    v = {x.label: x for x in action_vertices(1)}
    cons = enumerate_contractions(v["qd2q2"])
    assert len(cons) == 3
    assert all(c.connected and c.integrand.is_zero for c in cons)
    locals_seen = sorted(c.local_factor.render() for c in cons)
    assert (-DDDOT_AT_ZERO * D_AT_ZERO).render() in locals_seen
    assert locals_seen.count("0") == 2  # the two dD(0)-carrying matchings


def test_pair_contraction_counts():
    v = {x.label: x for x in action_vertices(1)}
    cons = enumerate_contractions(v["qd2q2"], v["qd2q2"])
    assert len(cons) == 105
    disconnected = [c for c in cons if not c.connected]
    assert len(disconnected) == 9
    watermelons = [c for c in cons if c.connected and not c.self_pairs]
    assert len(watermelons) == 24
    assert all(c.integrand.is_zero for c in disconnected)


def test_cross_line_orientation_signs():
    v = {x.label: x for x in action_vertices(1)}
    cons = enumerate_contractions(v["qd2q2"], v["qd2q2"])
    for c in cons:
        if c.integrand.is_zero:
            continue
        (term,) = c.integrand.terms
        assert term.coeff == ValuePoly.rational(c.orientation_sign)
        m, n, p, q = term.shape
        assert q == 0
        assert m + n + p == 4 - len(c.self_pairs)
        # a dD^4 watermelon carries two pinned-side flips: net +1
        if term.shape == (0, 4, 0, 0):
            assert c.orientation_sign == 1
        # the mixed watermelon ddD dD^2 D flips once for the pinned dD and
        # once for the dotted-dotted line: net +1 again
        if term.shape == (1, 2, 1, 0):
            assert c.orientation_sign == 1


def test_contractions_are_immutable_values():
    v = {x.label: x for x in action_vertices(1)}
    first = enumerate_contractions(v["qd2q2"], v["q4"])
    again = enumerate_contractions(v["qd2q2"], v["q4"])
    assert first == again
    assert [hash(c) for c in first] == [hash(c) for c in again]
    names = ("pairing", "connected", "integrand", "local_factor", "self_pairs",
             "orientation_sign")
    c = first[0]
    assert repr(c) == "Contraction(" + ", ".join(
        f"{name}={getattr(c, name)!r}" for name in names) + ")"
    with pytest.raises(AttributeError):
        c.connected = False


def test_odd_leg_total_rejected():
    bad = Vertex("odd", (Q, Q, Q), ONE, jacobian=False)
    with pytest.raises(ValueError):
        enumerate_contractions(bad)
    with pytest.raises(ValueError):
        enumerate_contractions(bad, Vertex("pair", (Q, Q), ONE, jacobian=False))


def _direct_contraction(v1, v2, matching):
    """(local factor, line sum, self pairs, sign) recomputed pair by pair."""
    labels = (v1.label, v2.label if v2 is not None else v1.label)
    names = {(Q, Q): "qq", (QDOT, Q): "qdot q", (QDOT, QDOT): "qdot qdot"}
    local = ONE
    selfs = []
    shape = [0, 0, 0]
    sign = 1
    for (va, _, ka), (vb, _, kb) in matching:
        kinds = tuple(sorted((ka, kb), reverse=True))   # qdot before q
        if va == vb:
            local = local * SELF_VALUES[kinds]
            selfs.append((labels[va], names[kinds]))
            continue
        # slot 0 is the free time t, slot 1 is pinned at 0
        pinned_kind = kb if va == 0 else ka
        if kinds == (Q, Q):
            shape[0] += 1
        elif kinds == (QDOT, QDOT):
            shape[2] += 1
            sign = -sign
        else:
            shape[1] += 1
            if pinned_kind == QDOT:
                sign = -sign
    line = IntegrandSum([mono(*shape, 0, coeff=sign)]) if any(shape) else IntegrandSum()
    return local, line, tuple(sorted(selfs)), sign


def _checked_pairs():
    vertices = action_vertices(1) + action_vertices(2)
    v = {x.label: x for x in vertices}
    pairs = [(x, None) for x in vertices]
    pairs += [(x, y) for x in vertices for y in vertices
              if len(x.legs) + len(y.legs) <= 10]
    return pairs + [(v["qd2q4"], v["q6"]), (v["q6"], v["qd2q4"])]


def test_contractions_match_direct_recomputation():
    for v1, v2 in _checked_pairs():
        cons = enumerate_contractions(v1, v2)
        legs = len(v1.legs) + (len(v2.legs) if v2 is not None else 0)
        assert len(cons) == double_factorial_odd(legs // 2)
        for c in cons:
            local, line, selfs, sign = _direct_contraction(v1, v2, c.pairing)
            assert c.local_factor == local
            assert c.integrand.terms == line.terms
            assert c.self_pairs == selfs
            assert c.orientation_sign == sign
            assert c.connected == (v2 is None or bool(line.terms))


def test_contractions_come_in_perfect_matchings_order():
    v = {x.label: x for x in action_vertices(2)}
    twelve_legs = [(v["qd2q4"], v["qd2q4"]), (v["q6"], v["q6"])]
    for v1, v2 in _checked_pairs() + twelve_legs:
        legs = [(0, i, kind) for i, kind in enumerate(v1.legs)]
        if v2 is not None:
            legs += [(1, i, kind) for i, kind in enumerate(v2.legs)]
        pairings = [c.pairing for c in enumerate_contractions(v1, v2)]
        assert pairings == list(perfect_matchings(legs)), (v1.label, v2 and v2.label)


def test_results_need_no_cycle_collector():
    v = {x.label: x for x in action_vertices(1) + action_vertices(2)}
    # enumerate_contractions pauses the collector on this premise
    calls = [lambda: enumerate_contractions(v["q6"]),
             lambda: enumerate_contractions(v["qd2q2"], v["q4"]),
             lambda: enumerate_contractions(v["qd2q4"], v["q4"]),
             lambda: enumerate_contractions(v["q6"], v["qd2q4"]),
             lambda: diagram_classes(2),
             lambda: order_check(2)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _collector_passes_during(call, enabled=True):
    """Generations of the collector passes that start while `call` runs."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(hook)
    try:
        call()
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was_enabled else gc.disable)()
    return started


def test_no_collector_pass_starts_during_a_build():
    # with the collector on, a 12-leg call set off ~25 passes, a 10-leg call ~1
    v = {x.label: x for x in action_vertices(1) + action_vertices(2)}
    for v1, v2 in [(v["q6"], v["qd2q4"]), (v["qd2q4"], v["q4"])]:
        assert _collector_passes_during(lambda: enumerate_contractions(v1, v2)) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled, monkeypatch):
    v = {x.label: x for x in action_vertices(1) + action_vertices(2)}
    _collector_passes_during(lambda: enumerate_contractions(v["q6"], v["q4"]), enabled)
    _collector_passes_during(lambda: enumerate_contractions(v["jq2"]), enabled)

    def odd_legs():
        with pytest.raises(ValueError, match="odd leg total"):
            enumerate_contractions(v["jq2"]._replace(legs=(Q,)))

    def failing_build():
        with pytest.raises(RuntimeError, match="equal-time"):
            enumerate_contractions(v["qd2q2"], v["q4"])

    def broken_equal_time(kinds):
        raise RuntimeError("equal-time factor failed")

    _collector_passes_during(odd_legs, enabled)
    monkeypatch.setattr(wick, "_equal_time", broken_equal_time)
    _collector_passes_during(failing_build, enabled)


def test_no_pairing_outlives_its_call():
    # the 6-leg tails of a 12-leg call are shared between its prefixes only:
    # two live results of the same call hold no pairing or pair in common
    v = {x.label: x for x in action_vertices(2)}
    first = enumerate_contractions(v["qd2q4"], v["q6"])
    again = enumerate_contractions(v["qd2q4"], v["q6"])
    assert first == again
    assert {id(c.pairing) for c in first}.isdisjoint(id(c.pairing) for c in again)
    assert ({id(pair) for c in first for pair in c.pairing}
            .isdisjoint(id(pair) for c in again for pair in c.pairing))


def _enumerated_counts(v1, v2=None):
    """(self pairs, shape, sign) -> matchings, grouped from the enumerated contractions."""
    counts = {}
    for c in enumerate_contractions(v1, v2):
        if c.connected:
            shape = c.integrand.terms[0].shape if c.integrand.terms else (0, 0, 0, 0)
            key = (c.self_pairs, shape, c.orientation_sign)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _counted(v1, v2=None):
    return _class_counts(*((v.label, _splits(v.legs)) for v in (v1, v2) if v is not None))


def _enumerated_classes(order):
    """`diagram_classes(order)` built by grouping every enumerated matching."""
    groups = {}

    def classify(prefactor, v1, v2=None):
        weight = prefactor * v1.coupling * (v2.coupling if v2 is not None else ONE)
        vertices = tuple(sorted(v.label for v in (v1, v2) if v is not None))
        for c in enumerate_contractions(v1, v2):
            if not c.connected:
                continue
            if v2 is None:
                family = "local"
            elif v1.jacobian or v2.jacobian:
                family = "jacobian_bubble"
            else:
                family = "bubble" if c.self_pairs else "watermelon"
            shape = c.integrand.terms[0].shape if c.integrand.terms else (0, 0, 0, 0)
            entry = groups.setdefault((vertices, c.self_pairs, shape, c.orientation_sign),
                                      [0, ZERO, c.local_factor, family])
            entry[0] += 1
            entry[1] = entry[1] + weight

    for v in action_vertices(order):
        classify(ONE, v)
    if order == 2:
        for v1 in action_vertices(1):
            for v2 in action_vertices(1):
                classify(ValuePoly.rational(wick.CUMULANT_PREFACTOR), v1, v2)
    return [DiagramClass(order, family, vertices, selfs, shape, sign, count, coeff, local)
            for (vertices, selfs, shape, sign), (count, coeff, local, family) in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1], kv[0][3]))]


def _singles_and_pairs():
    """The 6 vertices alone and the 18 ordered pairs within orders 1 and 2."""
    out = []
    for order in (1, 2):
        vertices = action_vertices(order)
        out += [(v, None) for v in vertices]
        out += [(v1, v2) for v1 in vertices for v2 in vertices]
    return out


def test_counted_classes_equal_enumerated_ones():
    checked = _singles_and_pairs()
    assert len(checked) == 24
    assert sum(len(v1.legs) + len(v2.legs) == 12 for v1, v2 in checked if v2) == 4
    for v1, v2 in checked:
        assert _counted(v1, v2) == _enumerated_counts(v1, v2), (v1.label, v2 and v2.label)


def test_diagram_classes_equal_the_enumerated_census():
    for order in (1, 2):
        assert diagram_classes(order) == _enumerated_classes(order)


@st.composite
def _vertex_pairs(draw):
    legs = st.lists(st.sampled_from([Q, QDOT]), max_size=10)
    first = draw(legs)
    second = draw(st.none() | st.lists(st.sampled_from([Q, QDOT]),
                                       max_size=10 - len(first)))
    label = draw(st.sampled_from(["u", "v"]))
    v1 = Vertex("u", tuple(first), ONE, jacobian=False)
    v2 = None if second is None else Vertex(label, tuple(second), ONE, jacobian=False)
    return v1, v2


@given(_vertex_pairs())
@settings(max_examples=150, deadline=None)
def test_counted_classes_equal_enumerated_ones_for_any_legs(vertices):
    v1, v2 = vertices
    if (len(v1.legs) + (len(v2.legs) if v2 else 0)) % 2:
        assert _counted(v1, v2) == {}
        return
    assert _counted(v1, v2) == _enumerated_counts(v1, v2)


def test_class_coefficients_are_multiplicity_times_prefactor_times_couplings():
    coupling = {v.label: v.coupling for v in action_vertices(1) + action_vertices(2)}
    for order in (1, 2):
        for c in diagram_classes(order):
            if len(c.vertices) == 1:
                expected = coupling[c.vertices[0]]
            else:
                first, second = c.vertices
                expected = Fraction(-1, 2) * coupling[first] * coupling[second]
            assert c.coefficient == expected * c.multiplicity


def test_order_1_class_table():
    classes = diagram_classes(1)
    assert all(c.order == 1 and c.family == "local" for c in classes)
    live = [c for c in classes if not c.vanishes]
    coeffs = sorted(c.coefficient.render() for c in live)
    assert coeffs == sorted([(-G).render(), (-G * W * W).render(), (G * D0).render()])
    dead = [c for c in classes if c.vanishes]
    assert sum(c.multiplicity for c in dead) == 2


def test_order_2_multiplicity_sums():
    classes = diagram_classes(2)
    by_pair = {}
    for c in classes:
        by_pair[c.vertices] = by_pair.get(c.vertices, 0) + c.multiplicity
    # connected matchings per ordered pair, summed over both orders
    assert by_pair[("qd2q2", "qd2q2")] == 105 - 9
    assert by_pair[("q4", "q4")] == 105 - 9
    assert by_pair[("q4", "qd2q2")] == 2 * (105 - 9)
    assert by_pair[("jq2", "qd2q2")] == 2 * (15 - 3)
    assert by_pair[("jq2", "q4")] == 2 * (15 - 3)
    assert by_pair[("jq2", "jq2")] == 2
    # single order-2 vertices: all matchings, nothing disconnected
    assert by_pair[("qd2q4",)] == 15
    assert by_pair[("q6",)] == 15
    assert by_pair[("jq4",)] == 3


def test_order_2_families_are_a_partition():
    classes = diagram_classes(2)
    families = {c.family for c in classes}
    assert families == {"local", "watermelon", "bubble", "jacobian_bubble"}
    for c in classes:
        if len(c.vertices) == 1:
            assert c.family == "local"
        elif "jq2" in c.vertices:
            assert c.family == "jacobian_bubble"
        elif c.self_pairs:
            assert c.family == "bubble"
        else:
            assert c.family == "watermelon"


def test_class_term_consistency():
    for order in (1, 2):
        for c in diagram_classes(order):
            local, line = c.term()
            assert local == c.coefficient * c.local_value
            if c.shape == (0, 0, 0, 0):
                assert line is None
            else:
                assert line is not None
                assert line.shape == c.shape
                assert line.coeff == ValuePoly.rational(c.sign)


def test_order_1_contribution_vanishes_locally():
    local, nonlocal_part = order_contribution(diagram_classes(1))
    assert local == ZERO
    assert nonlocal_part.is_zero


def test_order_2_nonlocal_stays_in_reducer_closure():
    _, nonlocal_part = order_contribution(diagram_classes(2))
    assert not nonlocal_part.is_zero
    for t in nonlocal_part.normalize():
        assert t.q == 0
        assert t.m <= 4 and t.n <= 4 and t.p <= 4


def test_order_2_local_sum_has_no_a_dependence():
    local, _ = order_contribution(diagram_classes(2))
    assert not local.is_zero
    assert local.degree_in("a") == 0


def test_family_split_sums_to_the_whole():
    classes = diagram_classes(2)
    whole_local, whole_nonlocal = order_contribution(classes)
    parts = [order_contribution(c for c in classes if c.family == f)
             for f in ("local", "watermelon", "bubble", "jacobian_bubble")]
    total_local = ZERO
    total_nonlocal = IntegrandSum()
    for loc, nl in parts:
        total_local = total_local + loc
        total_nonlocal = total_nonlocal + nl
    assert total_local == whole_local
    assert total_nonlocal.normalize() == whole_nonlocal.normalize()


def test_order_contribution_rejects_other_orders():
    with pytest.raises(ValueError):
        diagram_classes(3)
    with pytest.raises(ValueError):
        order_check(3)


def test_bubble_families_reduce_to_minus_d0_prop_squared():
    # interaction bubbles alone: pure-w parts cancel internally, d0 parts stay
    classes = diagram_classes(2)
    _, bubbles = order_contribution(c for c in classes if c.family == "bubble")
    val, _ = reduce(bubbles)
    assert val == (ValuePoly.monomial(Fraction(-1, 4), g=2, d0=2, w=-3)
                   + ValuePoly.monomial(Fraction(-3, 4), g=2, d0=1, w=-2))
    # adding the jacobian bubbles leaves exactly -g^2 d0 D(0)^2
    _, with_jacobian = order_contribution(
        c for c in classes if c.family in ("bubble", "jacobian_bubble"))
    val, _ = reduce(with_jacobian)
    prop0_sq = D_AT_ZERO * D_AT_ZERO
    assert val == -(G * G * D0 * prop0_sq)


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=50, deadline=None)
def test_matching_count_property_small(k):
    assert sum(1 for _ in perfect_matchings(tuple(range(2 * k)))) == double_factorial_odd(k)


def _fold_through_term(classes):
    """`order_contribution` as it was once built: from each class's `term()`."""
    local = ZERO
    lines = []
    for c in classes:
        weight, monomial = c.term()
        if monomial is None:
            local = local + weight
        else:
            lines.append(monomial.scaled(weight))
    return local, IntegrandSum(lines)


# with dD(0) = 0 every class of sign -1 weighs 0; a one-sided dD(0) gives them weight
@pytest.mark.parametrize("ddot_at_zero", [DDOT_AT_ZERO, ValuePoly.rational(Fraction(-1, 2))],
                         ids=["shipped", "one_sided"])
@pytest.mark.parametrize("order, families", [
    (1, None), (2, None),
    # the family subsets `diagram_identities` sums
    (2, ("jacobian_bubble",)), (2, ("jacobian_bubble", "bubble")),
    (2, ("local",)), (2, ("watermelon",)),
])
def test_direct_fold_equals_the_fold_through_term(monkeypatch, order, families, ddot_at_zero):
    monkeypatch.setattr(integrand, "DDOT_AT_ZERO", ddot_at_zero)
    classes = [c for c in diagram_classes(order) if families is None or c.family in families]
    local, lines = order_contribution(classes)
    want_local, want_lines = _fold_through_term(classes)
    assert local == want_local
    assert lines == want_lines


# -- the pinned-derivative sign against its derivation ----------------------
#
# Every cross line is D(t - s): the leg on slot 0 sits at the free time t,
# the leg on slot 1 at the pinned time s.  A dot on a leg differentiates the
# line by that leg's time, and by the chain rule d/dx f(t - s) is
# f'(t - s) times d(t - s)/dx: +1 for t, -1 for s.  So d/ds D(t - s) = -dD
# and d/dt d/ds D(t - s) = -ddD.  The enumerator below derives each line so,
# without reading `wick.PINNED_DERIVATIVE_SIGN`.  It checks that constant, a
# convention, against its derivation; it is no physics check, and the
# vacuum energy, even under t -> -t, cannot tell the two signs apart.

_INNER_DERIVATIVE = {0: 1, 1: -1}  # d(t - s)/dt, d(t - s)/ds


def _chain_rule_lines(matching):
    """(shape, sign) of the product of a matching's cross lines."""
    powers = [0, 0, 0]  # D, dD, ddD
    sign = 1
    for leg_a, leg_b in matching:
        if leg_a[0] == leg_b[0]:
            continue
        order = 0
        for slot, _, kind in (leg_a, leg_b):
            if kind == QDOT:
                sign *= _INNER_DERIVATIVE[slot]
                order += 1
        powers[order] += 1
    return (*powers, 0), sign


def _chain_rule_census(v1, v2):
    """(integrand, sign) of every matching of a pinned pair, in `perfect_matchings` order."""
    legs = [(0, i, kind) for i, kind in enumerate(v1.legs)]
    legs += [(1, i, kind) for i, kind in enumerate(v2.legs)]
    out = []
    for matching in perfect_matchings(legs):
        shape, sign = _chain_rule_lines(matching)
        line = IntegrandSum([mono(*shape, coeff=sign)]) if any(shape) else IntegrandSum()
        out.append((matching, line, sign))
    return out


def _odd_pinned_dots(matching):
    """Whether the cross lines carry an odd number of dotted legs on the pinned slot."""
    return sum(slot == 1 and kind == QDOT
               for pair in matching if pair[0][0] != pair[1][0]
               for slot, _, kind in pair) % 2 == 1


# at most 10 legs: the test-side enumerator takes ~0.3 s for a 12-leg pair
_SIGN_PAIRS = [("qd2q4", "q4", 945), ("q4", "qd2q4", 945), ("q4", "q4", 105),
               ("qd2q2", "qd2q2", 105)]


def _vertex(label):
    return {v.label: v for v in action_vertices(1) + action_vertices(2)}[label]


@pytest.mark.parametrize("first, second, matchings", _SIGN_PAIRS)
def test_pinned_derivative_sign_follows_the_chain_rule(first, second, matchings):
    v1, v2 = _vertex(first), _vertex(second)
    derived = _chain_rule_census(v1, v2)
    cons = enumerate_contractions(v1, v2)
    assert len(cons) == len(derived) == matchings
    for c, (matching, line, sign) in zip(cons, derived):
        assert c.pairing == matching
        assert c.integrand == line
        assert c.orientation_sign == sign


@pytest.mark.parametrize("first, second, matchings", _SIGN_PAIRS)
def test_the_unsigned_convention_departs_from_the_chain_rule(monkeypatch, first, second,
                                                             matchings):
    # the lines of D(t + s): a dotted pinned leg no longer flips its line
    monkeypatch.setattr(wick, "PINNED_DERIVATIVE_SIGN", 1)
    v1, v2 = _vertex(first), _vertex(second)
    derived = _chain_rule_census(v1, v2)
    cons = enumerate_contractions(v1, v2)
    departed = [(c.integrand, c.orientation_sign) != (line, sign)
                for c, (_, line, sign) in zip(cons, derived)]
    # they part exactly where an odd number of dotted pinned legs sits on cross lines
    assert departed == [_odd_pinned_dots(matching) for matching, _, _ in derived]
    assert any(departed) == ("qd2" in second)
