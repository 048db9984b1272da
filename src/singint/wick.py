"""Vacuum-diagram generation for the transformed oscillator.

The anharmonic content comes from the coordinate change

    x = f(q) = q - g q^3/3 + g^2 a q^5/5

applied to the Gaussian action with frequency w.  Expanding the transformed
action and the exp(-delta(0) * integral log f'(q)) measure factor to second
order in g yields six local vertices; `action_vertices` returns them with
their exact couplings.  The free-energy shift per unit time is

    first cumulant of the order-g^n vertices
    - (1/2!) * connected second cumulant of the order-g vertices   (n = 2)

and `order_contribution` assembles exactly that, with the second vertex of
every two-vertex contraction pinned at time 0 (the shared time volume is
divided out).

Contractions are enumerated as raw perfect matchings of the vertex legs,
nothing is skipped: matchings whose equal-time dD(0) factor kills them are
produced and carry a zero coefficient, and disconnected matchings are
flagged rather than suppressed.  Cross-pair line values:

    q(t)  q(0)   ->  D
    q.(t) q(0)   ->  +dD      (derivative on the unpinned vertex)
    q(t)  q.(0)  ->  -dD
    q.(t) q.(0)  ->  -ddD

Same-vertex pairs fold to D(0), dD(0) = 0, or -ddD(0) ring values.  Each
pair of legs adds one to a field of a packed integer counter: its self-pair
kind on its vertex, its line kind (D, dD, ddD), and its sign flip.  The
recursion sums these pair effects along the path to each matching, and each
call builds the fields of each distinct counter once and shares them between
the matchings that reach it.  The ring is commutative, so the equal-time
factor depends only on the counts of the self-pair kinds (qq, qdot q,
qdot qdot), and each call builds it once per distinct count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .integrand import IntegrandMonomial, IntegrandSum, local_value, mono
from .ring import A, D0, G, ONE, W, ZERO, ValuePoly

Q = "q"
QDOT = "qdot"

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


def _extend(rest: tuple[int, ...], pairing: tuple, acc: int,
            table: list[list], leaf: Callable[[tuple, int], None]) -> None:
    """Pass every completion of `pairing` over the leg indices `rest` to `leaf`.

    Completions come in `perfect_matchings` order, each with `acc` plus the
    deltas of the pairs it adds.  `rest` is ascending, so `table[i][j]`
    holds the (pair, delta) of legs i < j.
    """
    row = table[rest[0]]
    for i in range(1, len(rest)):
        pair, delta = row[rest[i]]
        remaining = rest[1:i] + rest[i + 1:]
        if len(remaining) == 2:
            last, last_delta = table[remaining[0]][remaining[1]]
            leaf(pairing + (pair, last), acc + delta + last_delta)
        elif remaining:
            _extend(remaining, pairing + (pair,), acc + delta, table, leaf)
        else:
            leaf(pairing + (pair,), acc + delta)


def enumerate_contractions(v1: Vertex, v2: Vertex | None = None) -> list[Contraction]:
    """Every perfect matching of the legs of one vertex or of a pinned pair."""
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
            kinds = (ka, kb) if (ka, kb) in _SELF_KIND else (kb, ka)
            if va == vb:
                field, flip = _KINDS * va + _SELF_INDEX[kinds], False
            elif kinds == (Q, Q):
                field, flip = _LINE_FIELD, False
            elif kinds == (QDOT, QDOT):
                field, flip = _LINE_FIELD + 2, True
            else:
                # dotted leg on the pinned vertex flips the line
                field, flip = _LINE_FIELD + 1, (va if ka == QDOT else vb) == 1
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
            # a same-vertex qdot qdot pair is -ddD(0)
            local = local_value(*kinds)
            if kinds[2] & 1:
                local = -local
            locals_[kinds] = local
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
        _extend(tuple(range(len(legs))), (), 0, table, leaf)
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


def _family(v1: Vertex, v2: Vertex | None, c: Contraction) -> str:
    if v2 is None:
        return "local"
    if v1.jacobian or v2.jacobian:
        return "jacobian_bubble"
    return "bubble" if c.self_pairs else "watermelon"


def _classify(groups: dict, prefactor: ValuePoly,
              v1: Vertex, v2: Vertex | None) -> None:
    weight = prefactor * v1.coupling * (v2.coupling if v2 is not None else ONE)
    vertices = tuple(sorted([v1.label] + ([v2.label] if v2 is not None else [])))
    counts: dict = {}
    for c in enumerate_contractions(v1, v2):
        if not c.connected:
            continue
        shape = c.integrand.terms[0].shape if c.integrand.terms else (0, 0, 0, 0)
        key = (vertices, c.self_pairs, shape, c.orientation_sign)
        if key not in counts:
            counts[key] = 0
            groups.setdefault(key, [0, ZERO, c.local_factor, _family(v1, v2, c)])
        counts[key] += 1
    # every matching of a class carries the same weight
    for key, count in counts.items():
        entry = groups[key]
        entry[0] += count
        entry[1] = entry[1] + weight * count


def diagram_classes(order: int) -> list[DiagramClass]:
    """All connected diagram classes contributing at g^order, vanishing included."""
    if order not in (1, 2):
        raise ValueError("diagrams are generated to second order only")
    groups: dict = {}
    for v in action_vertices(order):
        _classify(groups, ONE, v, None)
    if order == 2:
        first = action_vertices(1)
        prefactor = ValuePoly.rational(Fraction(-1, 2))
        for v1 in first:
            for v2 in first:
                _classify(groups, prefactor, v1, v2)
    classes = []
    for (vertices, selfs, shape, sign), (mult, coeff, local, family) in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1], kv[0][3])):
        classes.append(DiagramClass(order=order, family=family, vertices=vertices,
                                    self_pairs=selfs, shape=shape, sign=sign,
                                    multiplicity=mult, coefficient=coeff,
                                    local_value=local))
    return classes


def order_contribution(order: int,
                       families: tuple[str, ...] | None = None
                       ) -> tuple[ValuePoly, IntegrandSum]:
    """(local scalar part, nonlocal integrand) of the g^order free-energy shift.

    `families` restricts the sum to the named diagram families; by default
    every connected class contributes.
    """
    local_total = ZERO
    nonlocal_terms: list[IntegrandMonomial] = []
    for cls in diagram_classes(order):
        if families is not None and cls.family not in families:
            continue
        weight, monomial = cls.term()
        if monomial is None:
            local_total = local_total + weight
        else:
            nonlocal_terms.append(monomial.scaled(weight))
    return local_total, IntegrandSum(nonlocal_terms).normalize()
