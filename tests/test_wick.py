"""Contraction generator: vertices, matchings, class tables, family sums."""

import gc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfect_matchings
from singint import (A, D0, G, ONE, W, ZERO, D_AT_ZERO, DDDOT_AT_ZERO,
                     DDOT_AT_ZERO, DiagramClass, IntegrandMonomial, IntegrandSum,
                     ValuePoly, Vertex, action_vertices, diagram_classes, mono,
                     order_check, order_contribution, reduce)
from singint import integrand, wick
from singint.wick import Q, QDOT, Contraction, _class_counts, enumerate_contractions


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


@pytest.mark.parametrize("order", [True, False, 2.0, Fraction(2), "2", None],
                         ids=["True", "False", "float", "Fraction", "str", "None"])
@pytest.mark.parametrize("call", [action_vertices, diagram_classes, order_check])
def test_orders_must_be_ints(call, order):
    # True == 1 and 2.0 == 2, so without the check these ran as orders 1 and 2
    with pytest.raises(TypeError, match="an order must be an int"):
        call(order)


@pytest.mark.parametrize("order", [1, 2])
def test_each_call_returns_a_new_vertex_list(order):
    first = action_vertices(order)
    want = list(first)
    assert action_vertices(order) is not first
    first.clear()
    assert action_vertices(order) == want
    second = action_vertices(order)
    second[0] = second[0]._replace(coupling=ONE)
    second.append(second[1])
    assert action_vertices(order) == want


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
    assert all(c.connected and c.shape == (0, 0, 0, 0) for c in cons)
    locals_seen = sorted(c.local_factor.render() for c in cons)
    assert (-DDDOT_AT_ZERO * D_AT_ZERO).render() in locals_seen
    assert locals_seen.count("0") == 2  # the two dD(0)-carrying matchings


def test_legless_vertices_have_the_one_empty_matching():
    e = Vertex("e", (), ONE, jacobian=False)
    empty = Contraction((), True, (0, 0, 0, 0), ONE, (), 1)
    assert enumerate_contractions(e) == [empty]
    # a pinned pair with no cross line is disconnected
    assert enumerate_contractions(e, e) == [empty._replace(connected=False)]


def test_a_same_vertex_pair_reads_in_either_leg_order():
    for legs in ((Q, QDOT), (QDOT, Q)):
        (c,) = enumerate_contractions(Vertex("m", legs, ONE, jacobian=False))
        assert c.self_pairs == (("m", "qdot q"),)
        assert c.local_factor == ZERO  # dD(0) = 0


def test_pair_contraction_counts():
    v = {x.label: x for x in action_vertices(1)}
    cons = enumerate_contractions(v["qd2q2"], v["qd2q2"])
    assert len(cons) == 105
    disconnected = [c for c in cons if not c.connected]
    assert len(disconnected) == 9
    watermelons = [c for c in cons if c.connected and not c.self_pairs]
    assert len(watermelons) == 24
    assert all(c.shape == (0, 0, 0, 0) for c in disconnected)


def test_cross_line_orientation_signs():
    v = {x.label: x for x in action_vertices(1)}
    cons = enumerate_contractions(v["qd2q2"], v["qd2q2"])
    for c in cons:
        if c.shape == (0, 0, 0, 0):
            continue
        m, n, p, q = c.shape
        assert q == 0
        assert m + n + p == 4 - len(c.self_pairs)
        # a dD^4 watermelon carries two pinned-side flips: net +1
        if c.shape == (0, 4, 0, 0):
            assert c.orientation_sign == 1
        # the mixed watermelon ddD dD^2 D flips once for the pinned dD and
        # once for the dotted-dotted line: net +1 again
        if c.shape == (1, 2, 1, 0):
            assert c.orientation_sign == 1


def test_contractions_are_immutable_values():
    v = {x.label: x for x in action_vertices(1)}
    first = enumerate_contractions(v["qd2q2"], v["q4"])
    again = enumerate_contractions(v["qd2q2"], v["q4"])
    assert first == again
    assert [hash(c) for c in first] == [hash(c) for c in again]
    names = ("pairing", "connected", "shape", "local_factor", "self_pairs",
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


# -- the test census: every matching, each line derived by the chain rule ----
#
# Every cross line is D(t - s): the leg on slot 0 sits at the free time t,
# the leg on slot 1 at the pinned time s.  A dot on a leg differentiates the
# line by that leg's time, and by the chain rule d/dx f(t - s) is
# f'(t - s) times d(t - s)/dx: +1 for t, -1 for s.  So d/ds D(t - s) = -dD
# and d/dt d/ds D(t - s) = -ddD.  The census derives each line so, with the
# pinned time's inner derivative d(t - s)/ds as a parameter: -1 is the
# derivation, and a test that patches `wick.PINNED_DERIVATIVE_SIGN` passes
# the patched value to follow it.  With -1 the census checks that constant,
# a convention, against its derivation; it is no physics check, and the
# vacuum energy, even under t -> -t, cannot tell the two signs apart.

_SELF_NAMES = {(Q, Q): "qq", (QDOT, Q): "qdot q", (QDOT, QDOT): "qdot qdot"}


def _legs(v1, v2=None):
    """The legs as the matcher sees them: (vertex slot, leg index, kind)."""
    legs = [(0, i, kind) for i, kind in enumerate(v1.legs)]
    if v2 is not None:
        legs += [(1, i, kind) for i, kind in enumerate(v2.legs)]
    return legs


def _chain_rule_census(v1, v2=None, pinned=-1):
    """(matching, local factor, shape, self pairs, sign) of every matching of
    one vertex or a pinned pair, in `perfect_matchings` order.

    A same-vertex pair multiplies the local factor by its equal-time value.
    A cross line with j dotted legs is the j-th derivative of D, and its sign
    is the product of d(t - s)/dx over those legs: +1 on slot 0, `pinned` on
    slot 1.
    """
    labels = (v1.label, v2.label if v2 is not None else v1.label)
    inner = (1, pinned)
    # equal-time value of one same-vertex pair, read now so a patched constant
    # takes effect; a qdot qdot pair is -ddD(0)
    self_values = {(Q, Q): integrand.D_AT_ZERO, (QDOT, Q): integrand.DDOT_AT_ZERO,
                   (QDOT, QDOT): -integrand.DDDOT_AT_ZERO}
    census = []
    for matching in perfect_matchings(_legs(v1, v2)):
        local, selfs, powers, sign = ONE, [], [0, 0, 0], 1  # powers of D, dD, ddD
        for (slot_a, _, kind_a), (slot_b, _, kind_b) in matching:
            if slot_a == slot_b:
                kinds = tuple(sorted((kind_a, kind_b), reverse=True))  # qdot before q
                local = local * self_values[kinds]
                selfs.append((labels[slot_a], _SELF_NAMES[kinds]))
                continue
            dots = [slot for slot, kind in ((slot_a, kind_a), (slot_b, kind_b)) if kind == QDOT]
            for slot in dots:
                sign *= inner[slot]
            powers[len(dots)] += 1
        census.append((matching, local, (*powers, 0), tuple(sorted(selfs)), sign))
    return census


def _connected_census(v1, v2=None, pinned=-1):
    """(local factor, shape, self pairs, sign) of each connected matching."""
    return [record[1:] for record in _chain_rule_census(v1, v2, pinned)
            if v2 is None or record[2] != (0, 0, 0, 0)]


def _checked_pairs():
    """The 6 vertices alone and all 36 ordered pairs of them, up to 12 legs."""
    vertices = action_vertices(1) + action_vertices(2)
    return [(x, None) for x in vertices] + [(x, y) for x in vertices for y in vertices]


def test_contractions_match_direct_recomputation():
    for v1, v2 in _checked_pairs():
        cons = enumerate_contractions(v1, v2)
        census = _chain_rule_census(v1, v2)
        legs = len(_legs(v1, v2))
        assert len(cons) == len(census) == double_factorial_odd(legs // 2)
        for c, (matching, local, shape, selfs, sign) in zip(cons, census):
            assert c.pairing == matching
            assert c.local_factor == local
            assert c.shape == shape
            assert c.self_pairs == selfs
            assert c.orientation_sign == sign
            assert c.connected == (v2 is None or shape != (0, 0, 0, 0))


def test_contractions_come_in_perfect_matchings_order():
    # every pair of up to 12 legs, the four 12-leg ones included
    for v1, v2 in _checked_pairs():
        pairings = [c.pairing for c in enumerate_contractions(v1, v2)]
        assert pairings == list(perfect_matchings(_legs(v1, v2))), (v1.label, v2 and v2.label)


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
    """(self pairs, shape, sign) -> matchings, grouped from the census."""
    counts = {}
    for _, shape, selfs, sign in _connected_census(v1, v2):
        key = (selfs, shape, sign)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _counted(v1, v2=None):
    """`_class_counts` keyed as `_enumerated_counts`."""
    vertices = [(v.label, v.legs) for v in (v1, v2) if v is not None]
    return _class_counts(vertices, wick.PINNED_DERIVATIVE_SIGN)


def _order_census(order, pinned=-1):
    """(vertices, family, weight, local factor, shape, self pairs, sign) of every
    connected matching at g^order; the weight is the cumulant prefactor times
    the couplings."""
    records = []

    def add(prefactor, v1, v2=None):
        weight = prefactor * v1.coupling * (v2.coupling if v2 is not None else ONE)
        vertices = tuple(sorted(v.label for v in (v1, v2) if v is not None))
        for local, shape, selfs, sign in _connected_census(v1, v2, pinned):
            if v2 is None:
                family = "local"
            elif v1.jacobian or v2.jacobian:
                family = "jacobian_bubble"
            else:
                family = "bubble" if selfs else "watermelon"
            records.append((vertices, family, weight, local, shape, selfs, sign))

    for v in action_vertices(order):
        add(ONE, v)
    if order == 2:
        for v1 in action_vertices(1):
            for v2 in action_vertices(1):
                add(ValuePoly.rational(wick.CUMULANT_PREFACTOR), v1, v2)
    return records


def _enumerated_classes(order, pinned=-1):
    """`diagram_classes(order)` built by grouping every matching of the census."""
    groups = {}
    for vertices, family, weight, local, shape, selfs, sign in _order_census(order, pinned):
        entry = groups.setdefault((vertices, selfs, shape, sign), [0, ZERO, local, family])
        entry[0] += 1
        entry[1] = entry[1] + weight
    return [DiagramClass(order, family, vertices, selfs, shape, sign, count, coeff, local)
            for (vertices, selfs, shape, sign), (count, coeff, local, family) in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1], kv[0][3]))]


def _census_contribution(order, families=None):
    """`order_contribution` folded matching by matching, with no class formed:
    each connected matching adds weight * local factor to the local part, or,
    negated for a sign of -1, to the line of its shape."""
    local_total = ZERO
    lines = []
    for _, family, weight, local, shape, _, sign in _order_census(order):
        if families is not None and family not in families:
            continue
        value = weight * local
        if shape == (0, 0, 0, 0):
            local_total = local_total + value
        else:
            lines.append(IntegrandMonomial(*shape, value if sign > 0 else -value))
    return local_total, IntegrandSum(lines)


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


def _leg_splits(total):
    """Every (dotted, plain) leg count of a vertex with at most `total` legs."""
    return [(k, n - k) for n in range(total + 1) for k in range(n + 1)]


def test_single_vertex_counts_sum_to_all_matchings():
    # past what anyone enumerates: (k+l-1)!! matchings, every one connected
    for k, l in _leg_splits(14):
        if (k + l) % 2:
            continue
        counts = _class_counts([("v", (QDOT,) * k + (Q,) * l)], -1)
        assert sum(counts.values()) == double_factorial_odd((k + l) // 2), (k, l)


@pytest.mark.parametrize("sign", [-1, 1])
def test_pair_counts_and_disconnected_ones_sum_to_all_matchings(sign):
    for k1, l1 in _leg_splits(16):
        n1 = k1 + l1
        for k2, l2 in _leg_splits(16 - n1):
            n2 = k2 + l2
            if (n1 + n2) % 2:
                continue
            counts = _class_counts([("u", (QDOT,) * k1 + (Q,) * l1),
                                    ("v", (QDOT,) * k2 + (Q,) * l2)], sign)
            # each vertex matched on its own; an odd leg count admits none
            disconnected = 0 if n1 % 2 else (double_factorial_odd(n1 // 2)
                                             * double_factorial_odd(n2 // 2))
            assert (sum(counts.values()) + disconnected
                    == double_factorial_odd((n1 + n2) // 2)), (k1, l1, k2, l2)


def test_diagram_classes_equal_the_enumerated_census():
    for order in (1, 2):
        assert diagram_classes(order) == _enumerated_classes(order)


def test_a_patch_after_a_warm_call_takes_effect(monkeypatch):
    shipped = diagram_classes(2)
    # the census follows the patched sign as the pinned time's inner derivative
    monkeypatch.setattr(wick, "PINNED_DERIVATIVE_SIGN", 1)
    unsigned = diagram_classes(2)
    assert unsigned == _enumerated_classes(2, pinned=wick.PINNED_DERIVATIVE_SIGN)
    assert unsigned != shipped
    monkeypatch.undo()
    assert diagram_classes(2) == shipped
    vertices = wick.action_vertices
    monkeypatch.setattr(wick, "action_vertices",
                        lambda order: [v for v in vertices(order) if not v.jacobian])
    assert diagram_classes(2) == [c for c in shipped
                                  if not {"jq2", "jq4"} & set(c.vertices)]


def test_each_call_returns_new_classes():
    first = diagram_classes(2)
    again = diagram_classes(2)
    assert first == again
    assert {id(c) for c in first}.isdisjoint(id(c) for c in again)


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


def test_order_1_contribution_vanishes_locally():
    local, nonlocal_part = order_contribution(diagram_classes(1))
    assert local == ZERO
    assert nonlocal_part.is_zero


def test_order_2_nonlocal_stays_in_reducer_closure():
    _, nonlocal_part = order_contribution(diagram_classes(2))
    assert not nonlocal_part.is_zero
    for t in nonlocal_part:
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
    assert total_nonlocal == whole_nonlocal


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
    """`order_contribution` as it was once built: each class's signed line
    monomial, scaled by its weight, coefficient * local value."""
    local = ZERO
    lines = []
    for c in classes:
        weight = c.coefficient * c.local_value
        if c.shape == (0, 0, 0, 0):
            local = local + weight
        else:
            lines.append(mono(*c.shape, coeff=c.sign).scaled(weight))
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
    # and both equal the census folded matching by matching, no class formed
    assert (local, lines) == _census_contribution(order, families)


# -- the pinned-derivative sign against its derivation ----------------------


def _odd_pinned_dots(matching):
    """Whether the cross lines carry an odd number of dotted legs on the pinned slot."""
    return sum(slot == 1 and kind == QDOT
               for pair in matching if pair[0][0] != pair[1][0]
               for slot, _, kind in pair) % 2 == 1


# one 12-leg pair, which the census derives in ~0.1 s (Python 3.11, 2 vCPUs)
_SIGN_PAIRS = [("qd2q4", "q4", 945), ("q4", "qd2q4", 945), ("q4", "q4", 105),
               ("qd2q2", "qd2q2", 105), ("q6", "qd2q4", 10395)]


def _vertex(label):
    return {v.label: v for v in action_vertices(1) + action_vertices(2)}[label]


@pytest.mark.parametrize("first, second, matchings", _SIGN_PAIRS)
def test_pinned_derivative_sign_follows_the_chain_rule(first, second, matchings):
    v1, v2 = _vertex(first), _vertex(second)
    derived = _chain_rule_census(v1, v2)
    cons = enumerate_contractions(v1, v2)
    assert len(cons) == len(derived) == matchings
    for c, (matching, _, shape, _, sign) in zip(cons, derived):
        assert c.pairing == matching
        assert c.shape == shape
        assert c.orientation_sign == sign


@pytest.mark.parametrize("first, second, matchings", _SIGN_PAIRS)
def test_the_unsigned_convention_departs_from_the_chain_rule(monkeypatch, first, second,
                                                             matchings):
    # the lines of D(t + s): a dotted pinned leg no longer flips its line
    monkeypatch.setattr(wick, "PINNED_DERIVATIVE_SIGN", 1)
    v1, v2 = _vertex(first), _vertex(second)
    derived = _chain_rule_census(v1, v2)
    cons = enumerate_contractions(v1, v2)
    departed = [(c.shape, c.orientation_sign) != (shape, sign)
                for c, (_, _, shape, _, sign) in zip(cons, derived)]
    # they part exactly where an odd number of dotted pinned legs sits on cross lines
    assert departed == [_odd_pinned_dots(matching) for matching, *_ in derived]
    assert any(departed) == ("qd2" in second)
    # and the census given the patched sign follows the package line by line
    followed = _chain_rule_census(v1, v2, pinned=wick.PINNED_DERIVATIVE_SIGN)
    assert ([(c.shape, c.orientation_sign) for c in cons]
            == [(shape, sign) for _, _, shape, _, sign in followed])
