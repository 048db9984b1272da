"""Vacuum-diagram generation for the transformed oscillator.

The anharmonic content comes from the coordinate change

    x = f(q) = q - g q^3/3 + g^2 a q^5/5

applied to the Gaussian action with frequency w.  Expanding the transformed
action and the exp(-delta(0) * integral log f'(q)) measure factor to second
order in g yields six local vertices.  They are built once, at import, and
`action_vertices` returns a new list of them, with their exact couplings,
on each call.  The free-energy shift per unit time is

    first cumulant of the order-g^n vertices
    - (1/2!) * connected second cumulant of the order-g vertices   (n = 2)

and `diagram_classes(order)` classifies exactly that, with the second vertex
of every two-vertex contraction pinned at time 0 (the shared time volume is
divided out).  Only `order_contribution(classes)` folds classes, a whole
order or one family, into weights: a local part and a nonlocal integrand;
it never classifies on its own.  Cross-pair line values:

    q(t)  q(0)   ->  D
    q.(t) q(0)   ->  +dD      (derivative on the unpinned vertex)
    q(t)  q.(0)  ->  -dD      (PINNED_DERIVATIVE_SIGN)
    q.(t) q.(0)  ->  -ddD     (PINNED_DERIVATIVE_SIGN)

`diagram_classes` counts each class's matchings in closed form and
enumerates none.  A class is fixed by the self-pair split at each vertex,
x qdot qdot, y qdot q and u qq pairs, and by its cross-line counts: X
q.(t) q.(0), Y q.(t) q(0), Z q(t) q.(0) and U q(t) q(0).  Its line shape
and sign follow from those four counts alone, by `_cross_class`.

One function, `_class_counts`, counts the classes of one vertex or of a
pinned pair.  A vertex with k dotted and l plain legs splits into its self
pairs in

    k! l! / (2^(x+u) x! u! y! a! b!)

ways, leaving a dotted and b plain legs free; a single vertex keeps the
splits that leave none.  In a pair the free legs of the two vertices pair
off across, with at least one cross line, in

    a1! b1! a2! b2! / (X! Y! Z! U!)

ways, and a class's multiplicity sums the products of these counts.

Those counts depend only on the vertex labels and legs, on which vertices
are Jacobian vertices and on PINNED_DERIVATIVE_SIGN, so they are derived
once per vertex set: `_skeleton`, memoized on exactly those inputs, counts
each vertex and pinned pair with `_class_counts`, merges and sorts the
classes, and records for each its multiplicity, self-pair kind counts,
family and which weight it takes.  It holds no ring value.  Each
`diagram_classes` call then adds the ring values: it reads
`action_vertices`, `CUMULANT_PREFACTOR` and `_equal_time` when it runs,
builds each vertex-pair weight once per unordered pair and each equal-time
factor once per kind count, from the equal-time constants of
`integrand.RULE_VALUES` as installed then, and returns new classes.  So a
patched coupling or prefactor, or another installed record, takes effect
at once, and a patched vertex set or sign selects another skeleton.

`enumerate_contractions` is timed by the `census` benchmark workload, and
the chain-rule census in the tests holds it, matching by matching.  It
produces every raw perfect matching of the vertex legs, nothing skipped,
with its cross lines as a shape and a sign: a matching that dD(0) = 0 kills
has a zero local factor, and a disconnected one is flagged, not suppressed.

Same-vertex pairs fold to D(0), dD(0) = 0, or -ddD(0) ring values.  Each
pair of legs adds one to a field of a packed integer counter: its self-pair
kind on its vertex, or the cross-line count X, Y, Z or U that its kinds at
t and at the pinned 0 name.  The recursion sums these pair effects along the
path to each matching.  Each call reads the fields of each distinct counter
once, with `_self_pairs` and `_cross_class` as `_class_counts` uses them,
and shares them between the matchings that reach it.  The ring is
commutative, so the equal-time factor depends only on the counts of the
self-pair kinds (qq, qdot q, qdot qdot), and each call builds it once per
distinct count.

Every call also builds the completions of each 6-leg remainder once and
joins every later prefix that leaves the same remainder to them: in a 12-leg
call 693 prefixes reach only 84 remainders, in a 10-leg call 63 reach 28,
and an 8-leg call reaches each of its 7 once.  The memo is a local of the
call.

A 12-leg call keeps ~21,000 containers, a pairing tuple and a
`Contraction` per matching, and with the cyclic collector on they set off
~25 collection passes that find nothing: nothing the call makes forms a
reference cycle, so reference counting frees all of it.  The collector is
therefore paused for the call and restored to its prior state afterwards.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, Iterable, NamedTuple, Sequence

from .integrand import IntegrandSum, _monomial, local_value
from .ring import A, D0, G, ONE, W, ZERO, ValuePoly

Q = "q"
QDOT = "qdot"

# the sign a derivative on the pinned vertex brings: q(t) q.(0) -> -dD, q.(t) q.(0) -> -ddD
PINNED_DERIVATIVE_SIGN = -1
# the connected second cumulant enters the free energy as -(1/2!) of it
CUMULANT_PREFACTOR = Fraction(-1, 2)

# leg as seen by the matcher: (vertex slot 0|1, leg index, kind)
Leg = tuple[int, int, str]


class Vertex(NamedTuple):
    label: str
    legs: tuple[str, ...]
    coupling: ValuePoly
    jacobian: bool


# the six vertices, built once; `action_vertices` hands out new lists of them
_ORDER_1 = (
    Vertex("qd2q2", (QDOT, QDOT, Q, Q), -G, jacobian=False),
    Vertex("q4", (Q, Q, Q, Q), -G * W * W * Fraction(1, 3), jacobian=False),
    Vertex("jq2", (Q, Q), G * D0, jacobian=True),
)
_ORDER_2 = (
    Vertex("qd2q4", (QDOT, QDOT, Q, Q, Q, Q),
           G * G * (ONE + 2 * A) * Fraction(1, 2), jacobian=False),
    Vertex("q6", (Q,) * 6,
           G * G * W * W * (ValuePoly.rational(Fraction(1, 9)) + A * Fraction(2, 5))
           * Fraction(1, 2), jacobian=False),
    Vertex("jq4", (Q, Q, Q, Q),
           -G * G * (A - Fraction(1, 2)) * D0, jacobian=True),
)


def action_vertices(order: int) -> list[Vertex]:
    """The interaction and measure vertices carrying g^order, exact couplings.

    Each call returns a new list, so a caller may change it.  An order that
    is not an int is refused, as the ring refuses such exponents.
    """
    if type(order) is not int:
        raise TypeError(f"an order must be an int, not {type(order).__name__}")
    if order == 1:
        return list(_ORDER_1)
    if order == 2:
        return list(_ORDER_2)
    raise ValueError("vertices are expanded to second order only")


class Contraction(NamedTuple):
    pairing: tuple[tuple[Leg, Leg], ...]
    connected: bool
    shape: tuple[int, int, int, int]  # cross lines by `_cross_class`; all 0 if none
    local_factor: ValuePoly          # equal-time pair values, couplings excluded
    self_pairs: tuple[tuple[str, str], ...]  # (vertex label, pair kind), sorted
    orientation_sign: int


# same-vertex pair kinds in `local_value` argument order: D(0), dD(0), ddD(0)
_SELF_KIND = {(Q, Q): "qq", (QDOT, Q): "qdot q", (QDOT, QDOT): "qdot qdot"}
# the `_SELF_KIND` index of a same-vertex pair, read in either leg order
_SELF_INDEX = {pair: i for i, kinds in enumerate(_SELF_KIND) for pair in (kinds, kinds[::-1])}

# cross-line counts X, Y, Z, U by (leg kind at t, leg kind at the pinned 0)
_CROSS_INDEX = {(QDOT, QDOT): 0, (QDOT, Q): 1, (Q, QDOT): 2, (Q, Q): 3}

# Fields of a matching's packed counter, lowest first: self pairs by
# (vertex slot, kind index), then the cross lines X, Y, Z, U.
_KINDS = len(_SELF_KIND)
_CROSS_FIELD = 2 * _KINDS
_FIELDS = _CROSS_FIELD + len(_CROSS_INDEX)


def _self_pairs(label: str, counts: Iterable[int]) -> list[tuple[str, str]]:
    """(label, pair kind) per same-vertex pair, counted by kind in `_SELF_KIND` order."""
    return [(label, name) for name, n in zip(_SELF_KIND.values(), counts) for _ in range(n)]


def _cross_class(X: int, Y: int, Z: int, U: int,
                 sign: int) -> tuple[tuple[int, int, int, int], int]:
    """(shape, sign) of X q.(t) q.(0), Y q.(t) q(0), Z q(t) q.(0) and U q(t) q(0)
    lines: D, dD and ddD powers, and one pinned-derivative `sign` per dotted
    leg at the pinned 0."""
    return (U, Y + Z, X, 0), sign ** (X + Z)


def _equal_time(kinds: tuple[int, ...]) -> ValuePoly:
    """The product of same-vertex pair values, counted by kind in `_SELF_KIND` order.

    A qdot qdot pair is d/dt d/ds D(t - s) at s = t, which is -ddD(0).
    """
    local = local_value(*kinds)
    return -local if kinds[2] & 1 else local


def _extend(rest: tuple[int, ...], pairing: tuple, acc: int,
            table: list[list], leaf: Callable[[tuple, int], None], memo: dict) -> None:
    """Pass every completion of `pairing` over the leg indices `rest` to `leaf`.

    Completions come in matching order: the first leg paired with each later
    leg in turn, each followed by the completions of what is left.  Each comes
    with `acc` plus the deltas of the pairs it adds, and an empty `rest` has
    the one completion `pairing` itself.  `rest` is ascending, so
    `table[i][j]` holds the (pair, delta) of legs i < j.

    The 15 completions of each 6-leg remainder are built once, as (tail
    pairs, tail delta) in `memo`, and every later prefix that leaves the same
    remainder joins that list.  A 12-leg call reaches 84 such remainders
    from 693 prefixes, a 10-leg call 28 from 63, an 8-leg call each of its 7
    once.  Memoizing 4- or 8-leg remainders instead was slower.
    """
    if not rest:
        leaf(pairing, acc)
        return
    row = table[rest[0]]
    for i in range(1, len(rest)):
        pair, delta = row[rest[i]]
        remaining = rest[1:i] + rest[i + 1:]
        if len(remaining) == 2:
            last, last_delta = table[remaining[0]][remaining[1]]
            leaf(pairing + (pair, last), acc + delta + last_delta)
        elif len(remaining) == 6:
            tails = memo.get(remaining)
            if tails is None:
                tails = memo[remaining] = []
                _extend(remaining, (), 0, table,
                        lambda tail, d: tails.append((tail, d)), memo)
            prefix, base = pairing + (pair,), acc + delta
            for tail, d in tails:
                leaf(prefix + tail, base + d)
        else:
            _extend(remaining, pairing + (pair,), acc + delta, table, leaf, memo)


def enumerate_contractions(v1: Vertex, v2: Vertex | None = None) -> list[Contraction]:
    """Every perfect matching of the legs of one vertex or of a pinned pair.

    The cyclic collector is paused for the whole call and then put back as
    it was, also when the call raises.  `gc.disable` acts on the whole
    process: another thread's allocations go uncollected for the ~10 ms of
    a 12-leg call.  The generation-0 pass that the call's allocations have
    earned then runs once, over the live result, at the caller's next
    container allocation.  The 6-leg remainder memo of `_extend` lives for
    the call only.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        legs: list[Leg] = [(0, i, kind) for i, kind in enumerate(v1.legs)]
        if v2 is not None:
            legs += [(1, i, kind) for i, kind in enumerate(v2.legs)]
        if len(legs) % 2:
            raise ValueError("odd leg total admits no perfect matching")

        labels = (v1.label, v2.label if v2 is not None else v1.label)
        # every field counts at most one per pair, so `bits` bits never overflow
        bits = (len(legs) // 2).bit_length()
        mask = (1 << bits) - 1
        table: list[list] = [[None] * len(legs) for _ in legs]
        for i, a in enumerate(legs):
            for j in range(i + 1, len(legs)):
                b = legs[j]
                (va, _, ka), (vb, _, kb) = a, b
                if va == vb:
                    field = _KINDS * va + _SELF_INDEX[ka, kb]
                else:
                    # legs come in slot order, so a is at t and b at the pinned 0
                    field = _CROSS_FIELD + _CROSS_INDEX[ka, kb]
                table[i][j] = ((a, b), 1 << bits * field)

        # the fields of each distinct counter, and the equal-time factor of each
        # distinct self-pair kind count, built once per call
        fields: dict[int, tuple] = {}
        locals_: dict[tuple[int, ...], ValuePoly] = {}
        out: list[Contraction] = []
        new = tuple.__new__  # skips the Python frame of Contraction.__new__

        def derive(key: int) -> tuple:
            count = [key >> bits * f & mask for f in range(_FIELDS)]
            kinds = tuple(count[k] + count[_KINDS + k] for k in range(_KINDS))
            local = locals_.get(kinds)
            if local is None:
                local = locals_[kinds] = _equal_time(kinds)
            selfs = sorted(_self_pairs(labels[0], count[:_KINDS])
                           + _self_pairs(labels[1], count[_KINDS:_CROSS_FIELD]))
            cross = count[_CROSS_FIELD:]
            shape, sign = _cross_class(*cross, PINNED_DERIVATIVE_SIGN)
            return (v2 is None or any(cross), shape, local, tuple(selfs), sign)

        def leaf(pairing: tuple, key: int) -> None:
            got = fields.get(key)
            if got is None:
                got = fields[key] = derive(key)
            connected, shape, local, selfs, sign = got
            out.append(new(Contraction, (pairing, connected, shape, local, selfs, sign)))

        _extend(tuple(range(len(legs))), (), 0, table, leaf, {})
        return out
    finally:
        if was_enabled:
            gc.enable()


class DiagramClass(NamedTuple):
    """Contractions sharing vertices, self-pair pattern, line shape and sign.

    coefficient = cumulant prefactor * couplings * number of matchings; the
    equal-time value, line shape and sign are kept apart for the generated
    tables, and only `order_contribution` folds them into a weight and line.
    """

    order: int
    family: str                       # local | watermelon | bubble | jacobian_bubble
    vertices: tuple[str, ...]
    self_pairs: tuple[tuple[str, str], ...]
    shape: tuple[int, int, int, int]
    sign: int
    multiplicity: int
    coefficient: ValuePoly
    local_value: ValuePoly

    @property
    def vanishes(self) -> bool:
        return self.local_value.is_zero or self.coefficient.is_zero


def _class_counts(vertices: Sequence[tuple[str, tuple[str, ...]]],
                  sign: int) -> dict[tuple, int]:
    """(self pairs, shape, sign) -> matchings over the connected contractions
    of one (label, legs) vertex or a pinned pair of them, with `sign` as the
    pinned-derivative sign: how many matchings share each self-pair pattern,
    cross-line shape and line sign.

    A vertex's legs split into self pairs and a dotted and b plain free legs
    in k! l! / (2^(x+u) x! u! y! a! b!) ways, and a pair's free legs pair off
    across, with at least one line, in a1! b1! a2! b2! / (X! Y! Z! U!) ways.
    """
    splits = []
    for label, legs in vertices:
        k = legs.count(QDOT)
        l = len(legs) - k
        split = []
        for x in range(k // 2 + 1):
            for y in range(min(k - 2 * x, l) + 1):
                for u in range((l - y) // 2 + 1):
                    a, b = k - 2 * x - y, l - y - 2 * u
                    selfs = _self_pairs(label, (u, y, x))
                    ways = factorial(k) * factorial(l) // (
                        2 ** (x + u) * factorial(x) * factorial(u) * factorial(y)
                        * factorial(a) * factorial(b))
                    split.append((selfs, a, b, ways))
        splits.append(split)

    counts: dict[tuple, int] = {}
    if len(splits) == 1:
        for selfs, a, b, ways in splits[0]:
            if not a and not b:
                counts[tuple(sorted(selfs)), (0, 0, 0, 0), 1] = ways
        return counts
    for selfs1, a1, b1, ways1 in splits[0]:
        for selfs2, a2, b2, ways2 in splits[1]:
            if not a1 + b1 or a1 + b1 != a2 + b2:
                continue
            selfs = tuple(sorted(selfs1 + selfs2))
            ways = (ways1 * ways2 * factorial(a1) * factorial(b1)
                    * factorial(a2) * factorial(b2))
            for X in range(max(0, a1 - b2, a2 - b1), min(a1, a2) + 1):
                Y, Z = a1 - X, a2 - X
                U = b1 - Z
                key = (selfs, *_cross_class(X, Y, Z, U, sign))
                counts[key] = counts.get(key, 0) + ways // (
                    factorial(X) * factorial(Y) * factorial(Z) * factorial(U))
    return counts


@cache
def _skeleton(singles: tuple[tuple[str, tuple[str, ...]], ...],
              pairs: tuple[tuple[str, tuple[str, ...], bool], ...],
              sign: int) -> tuple[tuple, ...]:
    """The ring-free part of `diagram_classes`, sorted as its classes are.

    `singles` holds the (label, legs) of each vertex whose first cumulant is
    taken, `pairs` the (label, legs, jacobian) of each vertex paired in the
    second cumulant (none at order 1), and `sign` is the pinned-derivative
    sign.  It counts each vertex and each ordered pair with `_class_counts`.
    Each entry is (vertices, self pairs, shape, sign, matchings, kinds,
    family, slots): `kinds` counts the self pairs by kind, in `_SELF_KIND`
    order, read off the self pairs, and `slots` names the weight of one
    matching, (i,) for the coupling of `singles[i]` and (i, j), i <= j, for
    the cumulant prefactor times the couplings of `pairs[i]` and `pairs[j]`.
    Classes of both orderings of a vertex pair merge, so one slot serves
    both.  The entries hold ints, strings and tuples only, so one result
    serves every caller.
    """
    # key -> [matchings, kinds, family, slots]; the first contribution to a
    # key sets its kinds, family and slots, and later ones add matchings
    groups: dict = {}

    def add(vertices: tuple[str, ...], counts: dict[tuple, int], slots: tuple[int, ...],
            family: str | None) -> None:
        for (selfs, shape, line_sign), count in counts.items():
            key = (vertices, selfs, shape, line_sign)
            entry = groups.get(key)
            if entry is not None:
                entry[0] += count
            else:
                kinds = tuple(sum(name == kind for _, name in selfs)
                              for kind in _SELF_KIND.values())
                groups[key] = [count, kinds, family or ("bubble" if selfs else "watermelon"),
                               slots]

    for i, (label, legs) in enumerate(singles):
        add((label,), _class_counts([(label, legs)], sign), (i,), "local")
    for i, (label1, legs1, jacobian1) in enumerate(pairs):
        for j, (label2, legs2, jacobian2) in enumerate(pairs):
            add(tuple(sorted((label1, label2))),
                _class_counts([(label1, legs1), (label2, legs2)], sign),
                (min(i, j), max(i, j)), "jacobian_bubble" if jacobian1 or jacobian2 else None)
    return tuple((*key, *entry) for key, entry in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1], kv[0][3])))


def diagram_classes(order: int) -> list[DiagramClass]:
    """All connected diagram classes contributing at g^order, vanishing included."""
    singles = action_vertices(order)
    pairs = action_vertices(1) if order == 2 else []
    skeleton = _skeleton(tuple((v.label, v.legs) for v in singles),
                         tuple((v.label, v.legs, v.jacobian) for v in pairs),
                         PINNED_DERIVATIVE_SIGN)
    # the weight of one matching per slot, and the equal-time factor of each
    # distinct self-pair kind count in the skeleton, once per call
    weights: dict[tuple[int, ...], ValuePoly] = {(i,): v.coupling for i, v in enumerate(singles)}
    for i, v1 in enumerate(pairs):
        for j in range(i, len(pairs)):
            weights[i, j] = CUMULANT_PREFACTOR * v1.coupling * pairs[j].coupling
    local_values = {kinds: _equal_time(kinds) for kinds in {entry[5] for entry in skeleton}}
    return [DiagramClass(order, family, vertices, selfs, shape, sign, count,
                         weights[slots] * count, local_values[kinds])
            for vertices, selfs, shape, sign, count, kinds, family, slots in skeleton]


def order_contribution(classes: Iterable[DiagramClass]
                       ) -> tuple[ValuePoly, IntegrandSum]:
    """(local scalar part, nonlocal integrand) summed over `classes`; sums are canonical.

    Each class's weight, coefficient * local value, is added to the local part
    when the class has no cross line; otherwise it is added, negated for a
    sign of -1, to the sum of the class's line shape, and each shape makes
    one line monomial.
    """
    local_total = ZERO
    lines: dict[tuple[int, int, int, int], ValuePoly] = {}
    for cls in classes:
        weight = cls.coefficient * cls.local_value
        shape = cls.shape
        if shape == (0, 0, 0, 0):
            local_total = local_total + weight
        else:
            signed = weight if cls.sign > 0 else -weight
            lines[shape] = lines[shape] + signed if shape in lines else signed
    return local_total, IntegrandSum([_monomial(*shape, total)
                                      for shape, total in lines.items()])
