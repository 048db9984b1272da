"""Vacuum-diagram generation for the transformed oscillator.

The anharmonic content comes from the coordinate change

    x = f(q) = q - g q^3/3 + g^2 a q^5/5

applied to the Gaussian action with frequency w.  Expanding the transformed
action and the exp(-delta(0) * integral log f'(q)) measure factor to second
order in g yields six local vertices; `action_vertices` returns them with
their exact couplings.  The free-energy shift per unit time is

    first cumulant of the order-g^n vertices
    - (1/2!) * connected second cumulant of the order-g vertices   (n = 2)

and `diagram_classes(order)` classifies exactly that, with the second vertex
of every two-vertex contraction pinned at time 0 (the shared time volume is
divided out).  `order_contribution(classes)` folds the classes it is given,
a whole order or one family of it, into a local part and a nonlocal
integrand; it never classifies on its own.  Cross-pair line values:

    q(t)  q(0)   ->  D
    q.(t) q(0)   ->  +dD      (derivative on the unpinned vertex)
    q(t)  q.(0)  ->  -dD      (PINNED_DERIVATIVE_SIGN)
    q.(t) q.(0)  ->  -ddD     (PINNED_DERIVATIVE_SIGN)

`diagram_classes` counts each class's matchings in closed form and
enumerates none.  A class is fixed by the self-pair split at each vertex,
x qdot qdot, y qdot q and u qq pairs, and by its cross-line counts: X
q.(t) q.(0), Y q.(t) q(0), Z q(t) q.(0) and U q(t) q(0).  Its shape is
(U, Y + Z, X, 0), its sign PINNED_DERIVATIVE_SIGN^(X + Z), and its
multiplicity the product of the ways to pick each vertex's self pairs and
the

    a1! b1! a2! b2! / (X! Y! Z! U!)

bijections of the a dotted and b plain legs left free at each vertex.

`enumerate_contractions` is the reference those counts are tested against.
It produces every raw perfect matching of the vertex legs, nothing skipped:
matchings whose equal-time dD(0) factor kills them carry a zero
coefficient, and disconnected matchings are flagged rather than suppressed.

Same-vertex pairs fold to D(0), dD(0) = 0, or -ddD(0) ring values.  Each
pair of legs adds one to a field of a packed integer counter: its self-pair
kind on its vertex, its line kind (D, dD, ddD), and its sign flip.  The
recursion sums these pair effects along the path to each matching, and each
call builds the fields of each distinct counter once and shares them between
the matchings that reach it.  The ring is commutative, so the equal-time
factor depends only on the counts of the self-pair kinds (qq, qdot q,
qdot qdot), and each call builds it once per distinct count.

A call with 10 or more legs also builds the completions of each 6-leg
remainder once and joins every later prefix that leaves the same remainder
to them: in a 12-leg call 693 prefixes reach only 84 remainders.  The memo
is a local of the call.  Below 10 legs no remainder repeats, so it is not
used there.

A 12-leg call keeps ~21,000 containers, a pairing tuple and a
`Contraction` per matching, and with the cyclic collector on they set off
~25 collection passes that find nothing: nothing the call makes forms a
reference cycle, so reference counting frees all of it.  The collector is
therefore paused for the call and restored to its prior state afterwards.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .integrand import IntegrandMonomial, IntegrandSum, local_value, mono
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


def action_vertices(order: int) -> list[Vertex]:
    """The interaction and measure vertices carrying g^order, exact couplings."""
    half = Fraction(1, 2)
    if order == 1:
        return [
            Vertex("qd2q2", (QDOT, QDOT, Q, Q), -G, jacobian=False),
            Vertex("q4", (Q, Q, Q, Q), -G * W * W * Fraction(1, 3), jacobian=False),
            Vertex("jq2", (Q, Q), G * D0, jacobian=True),
        ]
    if order == 2:
        g2 = G * G
        return [
            Vertex("qd2q4", (QDOT, QDOT, Q, Q, Q, Q),
                   g2 * (ONE + 2 * A) * half, jacobian=False),
            Vertex("q6", (Q,) * 6,
                   g2 * W * W * (ValuePoly.rational(Fraction(1, 9)) + A * Fraction(2, 5)) * half,
                   jacobian=False),
            Vertex("jq4", (Q, Q, Q, Q),
                   -g2 * (A - half) * D0, jacobian=True),
        ]
    raise ValueError("vertices are expanded to second order only")


def perfect_matchings(items: Sequence[Leg]) -> Iterator[tuple[tuple[Leg, Leg], ...]]:
    """All ways to split the legs into unordered pairs, (2k-1)!! of them."""
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in perfect_matchings(remaining):
            yield ((first, partner),) + tail


class Contraction(NamedTuple):
    pairing: tuple[tuple[Leg, Leg], ...]
    connected: bool
    integrand: IntegrandSum          # empty when the contraction is fully local
    local_factor: ValuePoly          # equal-time pair values, couplings excluded
    self_pairs: tuple[tuple[str, str], ...]  # (vertex label, pair kind), sorted
    orientation_sign: int


# same-vertex pair kinds in `local_value` argument order: D(0), dD(0), ddD(0)
_SELF_KIND = {(Q, Q): "qq", (QDOT, Q): "qdot q", (QDOT, QDOT): "qdot qdot"}
_SELF_INDEX = {kinds: i for i, kinds in enumerate(_SELF_KIND)}

# Fields of a matching's packed counter, lowest first: self pairs by
# (vertex slot, kind index), then the cross lines m, n, p, then sign flips.
_KINDS = len(_SELF_KIND)
_LINE_FIELD = 2 * _KINDS
_FLIP_FIELD = _LINE_FIELD + 3
_FIELDS = _FLIP_FIELD + 1


def _equal_time(kinds: tuple[int, ...]) -> ValuePoly:
    """The product of same-vertex pair values, counted by kind in `_SELF_KIND` order.

    A qdot qdot pair is d/dt d/ds D(t - s) at s = t, which is -ddD(0).
    """
    local = local_value(*kinds)
    return -local if kinds[2] & 1 else local


def _extend(rest: tuple[int, ...], pairing: tuple, acc: int,
            table: list[list], leaf: Callable[[tuple, int], None],
            memo: dict | None = None) -> None:
    """Pass every completion of `pairing` over the leg indices `rest` to `leaf`.

    Completions come in `perfect_matchings` order, each with `acc` plus the
    deltas of the pairs it adds.  `rest` is ascending, so `table[i][j]`
    holds the (pair, delta) of legs i < j.

    With a `memo`, the 15 completions of each 6-leg remainder are built once,
    as (tail pairs, tail delta), and every later prefix that leaves the same
    remainder joins that list.  A 12-leg call reaches 84 such remainders
    from 693 prefixes, a 10-leg call 28 from 63, an 8-leg call each of its 7
    once.  Memoizing 4- or 8-leg remainders instead was slower.
    """
    row = table[rest[0]]
    for i in range(1, len(rest)):
        pair, delta = row[rest[i]]
        remaining = rest[1:i] + rest[i + 1:]
        if len(remaining) == 2:
            last, last_delta = table[remaining[0]][remaining[1]]
            leaf(pairing + (pair, last), acc + delta + last_delta)
        elif memo is not None and len(remaining) == 6:
            tails = memo.get(remaining)
            if tails is None:
                tails = memo[remaining] = _tails(remaining, table)
            prefix, base = pairing + (pair,), acc + delta
            for tail, d in tails:
                leaf(prefix + tail, base + d)
        elif remaining:
            _extend(remaining, pairing + (pair,), acc + delta, table, leaf, memo)
        else:
            leaf(pairing + (pair,), acc + delta)


def _tails(rest: tuple[int, ...], table: list[list]) -> list[tuple[tuple, int]]:
    """Every completion over `rest` as (pairs, delta), in `perfect_matchings` order."""
    tails: list[tuple[tuple, int]] = []
    _extend(rest, (), 0, table, lambda tail, delta: tails.append((tail, delta)))
    return tails


def enumerate_contractions(v1: Vertex, v2: Vertex | None = None) -> list[Contraction]:
    """Every perfect matching of the legs of one vertex or of a pinned pair.

    The cyclic collector is paused for the call and then put back as it
    was, also when the call raises.  `gc.disable` acts on the whole
    process: another thread's allocations go uncollected for the ~10 ms of
    a 12-leg call.  The generation-0 pass that the call's allocations have
    earned then runs once, over the live result, at the caller's next
    container allocation.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _contractions(v1, v2)
    finally:
        if was_enabled:
            gc.enable()


def _contractions(v1: Vertex, v2: Vertex | None) -> list[Contraction]:
    legs: list[Leg] = [(0, i, kind) for i, kind in enumerate(v1.legs)]
    if v2 is not None:
        legs += [(1, i, kind) for i, kind in enumerate(v2.legs)]
    if len(legs) % 2:
        raise ValueError("odd leg total admits no perfect matching")

    labels = (v1.label, v2.label if v2 is not None else v1.label)
    # every field counts at most one per pair, so `bits` bits never overflow
    bits = (len(legs) // 2).bit_length()
    mask = (1 << bits) - 1
    pinned_flip = PINNED_DERIVATIVE_SIGN < 0
    table: list[list] = [[None] * len(legs) for _ in legs]
    for i, a in enumerate(legs):
        for j in range(i + 1, len(legs)):
            b = legs[j]
            (va, _, ka), (vb, _, kb) = a, b
            kinds = (ka, kb) if (ka, kb) in _SELF_KIND else (kb, ka)
            if va == vb:
                field, flip = _KINDS * va + _SELF_INDEX[kinds], False
            elif kinds == (Q, Q):
                field, flip = _LINE_FIELD, False
            elif kinds == (QDOT, QDOT):
                field, flip = _LINE_FIELD + 2, pinned_flip
            else:
                # only a dotted leg on the pinned vertex flips the line
                field, flip = _LINE_FIELD + 1, pinned_flip and (va if ka == QDOT else vb) == 1
            table[i][j] = ((a, b), (1 << bits * field) + (flip << bits * _FLIP_FIELD))

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
        selfs = sorted((labels[slot], name)
                       for slot in (0, 1) for k, name in enumerate(_SELF_KIND.values())
                       for _ in range(count[_KINDS * slot + k]))
        m, n, p = count[_LINE_FIELD:_FLIP_FIELD]
        sign = -1 if count[_FLIP_FIELD] & 1 else 1
        cross = m + n + p
        integrand = IntegrandSum([mono(m, n, p, 0, Fraction(sign))]) if cross else IntegrandSum()
        return (v2 is None or cross > 0, integrand, local, tuple(selfs), sign)

    def leaf(pairing: tuple, key: int) -> None:
        got = fields.get(key)
        if got is None:
            got = fields[key] = derive(key)
        connected, integrand, local, selfs, sign = got
        out.append(new(Contraction, (pairing, connected, integrand, local, selfs, sign)))

    if legs:
        # the 6-leg tail memo lives for this call only; below 10 legs it never hits
        memo = {} if len(legs) >= 10 else None
        _extend(tuple(range(len(legs))), (), 0, table, leaf, memo)
    else:
        leaf((), 0)
    return out


class DiagramClass(NamedTuple):
    """Contractions sharing vertices, self-pair pattern, line shape and sign.

    coefficient = cumulant prefactor * couplings * number of matchings; the
    equal-time value and the signed line monomial are kept separate so the
    generated tables can be read off directly.
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

    def term(self) -> tuple[ValuePoly, IntegrandMonomial | None]:
        """(local scalar part, signed integrand monomial or None if local)."""
        weight = self.coefficient * self.local_value
        if self.shape == (0, 0, 0, 0):
            return weight, None
        return weight, mono(*self.shape, coeff=Fraction(self.sign))


def _splits(legs: tuple[str, ...]) -> list[tuple[tuple[int, int, int], int, int, int]]:
    """Self-pair splits of one vertex's legs: (kinds, a, b, ways).

    `kinds` counts the u qq, y qdot q and x qdot qdot pairs; they leave a
    dotted and b plain legs free, and the k dotted and l plain legs can be
    paired so in k! l! / (2^(x+u) x! u! y! a! b!) ways.
    """
    k = legs.count(QDOT)
    l = len(legs) - k
    out = []
    for x in range(k // 2 + 1):
        for y in range(min(k - 2 * x, l) + 1):
            for u in range((l - y) // 2 + 1):
                a, b = k - 2 * x - y, l - y - 2 * u
                ways = factorial(k) * factorial(l) // (
                    2 ** (x + u) * factorial(x) * factorial(u) * factorial(y)
                    * factorial(a) * factorial(b))
                out.append(((u, y, x), a, b, ways))
    return out


def _self_pairs(*vertices: tuple[str, tuple[int, int, int]]) -> tuple[tuple[str, str], ...]:
    """The sorted (vertex label, pair kind) list of (label, kinds) pairs."""
    return tuple(sorted((label, name) for label, kinds in vertices
                        for name, n in zip(_SELF_KIND.values(), kinds) for _ in range(n)))


def _class_counts(first: tuple[str, list], second: tuple[str, list] | None = None
                  ) -> dict[tuple, int]:
    """(self pairs, shape, sign) -> matchings over the connected contractions
    of one vertex or a pinned pair: `enumerate_contractions` grouped, counted.

    Each vertex comes as (label, `_splits` of its legs).
    """
    label1, splits1 = first
    if second is None:
        return {(_self_pairs((label1, kinds)), (0, 0, 0, 0), 1): ways
                for kinds, a, b, ways in splits1 if not a and not b}
    label2, splits2 = second
    counts: dict[tuple, int] = {}
    for kinds1, a1, b1, ways1 in splits1:
        for kinds2, a2, b2, ways2 in splits2:
            # the free legs pair off across, with at least one cross line to
            # keep the pair connected
            if a1 + b1 != a2 + b2 or not a1 + b1:
                continue
            selfs = _self_pairs((label1, kinds1), (label2, kinds2))
            free = factorial(a1) * factorial(b1) * factorial(a2) * factorial(b2)
            for X in range(max(0, a1 - b2, a2 - b1), min(a1, a2) + 1):
                Y, Z = a1 - X, a2 - X
                U = b1 - Z
                key = (selfs, (U, Y + Z, X, 0), PINNED_DERIVATIVE_SIGN ** (X + Z))
                counts[key] = counts.get(key, 0) + ways1 * ways2 * free // (
                    factorial(X) * factorial(Y) * factorial(Z) * factorial(U))
    return counts


def diagram_classes(order: int) -> list[DiagramClass]:
    """All connected diagram classes contributing at g^order, vanishing included."""
    if order not in (1, 2):
        raise ValueError("diagrams are generated to second order only")
    # the equal-time factor of each distinct self-pair kind count, once per call
    locals_: dict[tuple[int, ...], ValuePoly] = {}
    # key -> [matchings, weight of one matching, equal-time value, family]
    groups: dict = {}

    def add(vertices: tuple[str, ...], counts: dict[tuple, int], weight: ValuePoly,
            family: str | None) -> None:
        for (selfs, shape, sign), count in counts.items():
            key = (vertices, selfs, shape, sign)
            entry = groups.get(key)
            if entry is not None:
                entry[0] += count
                continue
            kinds = tuple(sum(name == kind for _, name in selfs) for kind in _SELF_KIND.values())
            local = locals_.get(kinds)
            if local is None:
                local = locals_[kinds] = _equal_time(kinds)
            groups[key] = [count, weight, local,
                           family or ("bubble" if selfs else "watermelon")]

    for v in action_vertices(order):
        add((v.label,), _class_counts((v.label, _splits(v.legs))), v.coupling, "local")
    if order == 2:
        first = [(v, (v.label, _splits(v.legs))) for v in action_vertices(1)]
        for v1, split1 in first:
            for v2, split2 in first:
                add(tuple(sorted((v1.label, v2.label))), _class_counts(split1, split2),
                    CUMULANT_PREFACTOR * v1.coupling * v2.coupling,
                    "jacobian_bubble" if v1.jacobian or v2.jacobian else None)
    return [DiagramClass(order=order, family=family, vertices=vertices, self_pairs=selfs,
                         shape=shape, sign=sign, multiplicity=count,
                         coefficient=weight * count, local_value=local)
            for (vertices, selfs, shape, sign), (count, weight, local, family) in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1], kv[0][3]))]


def order_contribution(classes: Iterable[DiagramClass]
                       ) -> tuple[ValuePoly, IntegrandSum]:
    """(local scalar part, nonlocal integrand) summed over `classes`; sums are canonical.

    Each class's weight, coefficient * local value, is added to the local part
    when the class has no cross line; otherwise it becomes, negated for a sign
    of -1, the coefficient of the class's line monomial.
    """
    local_total = ZERO
    nonlocal_terms: list[IntegrandMonomial] = []
    for cls in classes:
        weight = cls.coefficient * cls.local_value
        if cls.shape == (0, 0, 0, 0):
            local_total = local_total + weight
        else:
            nonlocal_terms.append(IntegrandMonomial(*cls.shape, weight if cls.sign > 0 else -weight))
    return local_total, IntegrandSum(nonlocal_terms)
