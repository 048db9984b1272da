"""Reference values for the benchmark's correctness checks.

Nothing here imports singint.  Values are sparse polynomials in the four
ring symbols, stored as {(k_w, k_d0, k_a, k_g): Fraction}, with no zero
coefficients.  The evaluator follows the documented rule system directly
and never runs the rewrite pipeline:

    ddD = -delta + w^2 D          expanded binomially
    integral f delta^2 = f(0) d0,  integral f delta = f(0)
    f(0) = D(0)^m when there is no dD factor, else 0 (dD(0) = 0)
    odd dD powers integrate to 0
    pure D^m dD^n (n even) by the closed form of the ibp recursion:
        I(m, n) = prod_{j < n/2-1} [-(n-1-2j)/(m+1+2j)] w^(n-2) I(m+n-2, 2)
        I(M, 2) = D(0)^(M+1)/(M+1) - w^2/(M+1) base(M+2)
        I(m, 0) = base(m) = 2^(1-m)/m w^-(m+1)

Inputs outside the rule domain raise OutOfDomain where the reducer is
documented to raise RuleError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Exps = tuple[int, int, int, int]
Poly = dict[Exps, Fraction]
# (m, n, p, q) powers of D, dD, ddD, delta
Shape = tuple[int, int, int, int]

D0: Poly = {(0, 1, 0, 0): Fraction(1)}
W2: Poly = {(2, 0, 0, 0): Fraction(1)}

# Legs of the six action vertices (order 1: qdot^2 q^2, q^4, Jacobian q^2;
# order 2: qdot^2 q^4, q^6, Jacobian q^4), from expanding the transformed
# action and measure to second order in g.
VERTEX_LEGS = {1: (4, 4, 2), 2: (6, 6, 4)}


class OutOfDomain(ValueError):
    """The rule system assigns no value to this input."""


def padd(x: Poly, y: Poly) -> Poly:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def pmul(x: Poly, y: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pscale(x: Poly, k: Fraction) -> Poly:
    return {e: c * k for e, c in x.items() if c * k}


def wpow(k: int) -> Poly:
    return {(k, 0, 0, 0): Fraction(1)}


def substitute_w(x: Poly, omega: Fraction) -> Poly:
    out: Poly = {}
    for (kw, kd0, ka, kg), c in x.items():
        e = (0, kd0, ka, kg)
        out[e] = out.get(e, Fraction(0)) + c * omega ** kw
    return {e: c for e, c in out.items() if c}


def d_at_zero(k: int) -> Poly:
    """D(0)^k with D(0) = w^-1 / 2."""
    return {(-k, 0, 0, 0): Fraction(1, 2 ** k)}


def base(m: int) -> Poly:
    if m < 1:
        raise OutOfDomain("integral of D^0 diverges")
    return {(-(m + 1), 0, 0, 0): Fraction(2, m * 2 ** m)}


def pure_integral(m: int, n: int) -> Poly:
    """integral dt D^m dD^n over the whole line."""
    if n % 2:
        return {}
    if n == 0:
        return base(m)
    factor = Fraction(1)
    for j in range(n // 2 - 1):
        factor *= Fraction(-(n - 1 - 2 * j), m + 1 + 2 * j)
    big_m = m + n - 2
    i2 = padd(pscale(d_at_zero(big_m + 1), Fraction(1, big_m + 1)),
              pscale(pmul(W2, base(big_m + 2)), Fraction(-1, big_m + 1)))
    return pscale(pmul(wpow(n - 2), i2), factor)


def point_value(m: int, n: int) -> Poly:
    """D(0)^m dD(0)^n."""
    return {} if n else d_at_zero(m)


def _merge(terms) -> dict[Shape, Poly]:
    acc: dict[Shape, Poly] = {}
    for shape, coeff in terms:
        acc[shape] = padd(acc.get(shape, {}), coeff)
    return {s: c for s, c in acc.items() if c}


def evaluate(terms: list[tuple[Shape, Poly]]) -> Poly:
    """Exact value of sum coeff * integral D^m dD^n ddD^p delta^q."""
    merged = _merge(terms)
    for (m, n, p, q) in merged:
        if (m, n, p, q) == (0, 0, 0, 0):
            raise OutOfDomain("bare measure")
        if q > 2:
            raise OutOfDomain(f"delta^{q} in the input")
    expanded = []
    for (m, n, p, q), coeff in merged.items():
        for j in range(p + 1):
            k = Fraction((-1) ** j * comb(p, j))
            expanded.append(((m + p - j, n, 0, q + j),
                             pscale(pmul(coeff, wpow(2 * (p - j))), k)))
    total: Poly = {}
    for (m, n, _, q), coeff in _merge(expanded).items():
        if q > 2:
            raise OutOfDomain(f"delta^{q} from the field equation")
        if q == 2:
            value = pmul(point_value(m, n), D0)
        elif q == 1:
            value = point_value(m, n)
        else:
            value = pure_integral(m, n)
        total = padd(total, pmul(coeff, value))
    return total


def render(x: Poly) -> str:
    """Canonical text: terms by (k_g, k_d0, k_a, k_w) descending."""
    if not x:
        return "0"
    parts: list[str] = []
    for (kw, kd0, ka, kg), c in sorted(
            x.items(), key=lambda it: (-it[0][3], -it[0][1], -it[0][2], -it[0][0])):
        symbols = [name if k == 1 else f"{name}^{k}"
                   for name, k in (("g", kg), ("d0", kd0), ("a", ka), ("w", kw)) if k]
        body = ([str(abs(c))] if abs(c) != 1 or not symbols else []) + symbols
        text = " ".join(body)
        if parts:
            parts.append(("+ " if c > 0 else "- ") + text)
        else:
            parts.append(text if c > 0 else "-" + text)
    return " ".join(parts)


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1; (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def matchings(legs: int) -> int:
    """Perfect matchings of `legs` legs: (legs-1)!!, 0 for an odd count."""
    return 0 if legs % 2 else double_factorial(legs - 1)


def disconnected_matchings(legs1: int, legs2: int) -> int:
    """Matchings of a vertex pair with no line between the two vertices."""
    return matchings(legs1) * matchings(legs2)


def connected_matchings(order: int) -> int:
    """Connected matchings summed over every vertex set classified at `order`."""
    total = sum(matchings(k) for k in VERTEX_LEGS[order])
    if order == 2:
        total += sum(matchings(a + b) - disconnected_matchings(a, b)
                     for a in VERTEX_LEGS[1] for b in VERTEX_LEGS[1])
    return total
