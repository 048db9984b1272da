"""Coordinate independence picks the equal-time constants: the dD(0) family.

The order checks must leave a zero residue.  With `integrand.DDOT_AT_ZERO`
patched to a rational constant c, every residue is a polynomial in c with
coefficients in the ring.  Three probes fix a polynomial of degree 2 by
exact Lagrange interpolation over Fractions, and a fourth probe checks each
interpolant, so a term of higher degree in c would show.  The pinned
polynomials then show that c = 0, the shipped value, is the only rational c
that passes the checks.

It is a double root, and every residue is even in c: the checks cannot tell
dD(0) = c from dD(0) = -c.  That is the sign blind spot of the vacuum
energy, which is even under t -> -t; the same cause hides a flip of
`wick.PINNED_DERIVATIVE_SIGN`, which `test_wick.py` holds to the chain rule
instead.
"""

from fractions import Fraction

import pytest

from singint import A, G, ZERO, ValuePoly, order_check, wpow
from singint import integrand

PROBES = (Fraction(-1), Fraction(1, 2), Fraction(1))
CHECK_PROBE = Fraction(2)

# (order, a binding) -> residue coefficients of c^0, c^1, c^2
PINNED = {
    (1, None): [ZERO, ZERO, -2 * G],
    (2, None): [ZERO, ZERO, (6 * A + 4) * G * G * wpow(-1)],
    (2, Fraction(1, 2)): [ZERO, ZERO, 7 * G * G * wpow(-1)],
}


def _residue(monkeypatch, c, order, a_binding):
    monkeypatch.setattr(integrand, "DDOT_AT_ZERO", ValuePoly.rational(c))
    return order_check(order, a_binding=a_binding).actual


def _times_linear(poly, root):
    """poly * (c - root), coefficients lowest power first."""
    padded = [Fraction(0)] + poly + [Fraction(0)]
    return [padded[k] - root * padded[k + 1] for k in range(len(poly) + 1)]


def _interpolate(points):
    """Ring coefficients, lowest power of c first, of the polynomial through the
    (c, residue) points, each a residue times a Lagrange basis polynomial."""
    coefficients = [ZERO] * len(points)
    for i, (ci, residue) in enumerate(points):
        basis = [Fraction(1)]
        for j, (cj, _) in enumerate(points):
            if j != i:
                basis = [b / (ci - cj) for b in _times_linear(basis, cj)]
        coefficients = [total + residue * b for total, b in zip(coefficients, basis)]
    return coefficients


def _evaluate(coefficients, c):
    return sum((coefficient * c ** k for k, coefficient in enumerate(coefficients)), ZERO)


def _trim(poly):
    poly = [Fraction(x) for x in poly]
    while poly and not poly[-1]:
        poly = poly[:-1]
    return poly


def _remainder(a, b):
    a = _trim(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        a = _trim([x - factor * (b[k - shift] if k >= shift else 0) for k, x in enumerate(a)])
    return a


def _monic_gcd(polys):
    """The monic gcd over Fractions of polynomials given lowest power first."""
    g = []
    for p in polys:
        a, b = _trim(p), _trim(g)
        while b:
            a, b = b, _remainder(a, b)
        g = [x / a[-1] for x in a] if a else []
    return g


def test_lagrange_interpolation_recovers_a_known_polynomial():
    want = [ValuePoly.rational(3), -G, A * Fraction(1, 2)]
    points = [(c, _evaluate(want, c)) for c in PROBES]
    assert _interpolate(points) == want
    assert _monic_gcd([[-2, 1], [4, -4, 1]]) == [-2, 1]  # (c - 2) and (c - 2)^2


@pytest.fixture(scope="module")
def residue_polynomials():
    with pytest.MonkeyPatch.context() as monkeypatch:
        polys = {}
        for (order, a_binding) in PINNED:
            points = [(c, _residue(monkeypatch, c, order, a_binding)) for c in PROBES]
            poly = _interpolate(points)
            check = _residue(monkeypatch, CHECK_PROBE, order, a_binding)
            mirror = _residue(monkeypatch, -CHECK_PROBE, order, a_binding)
            polys[order, a_binding] = poly, check, mirror
    return polys


@pytest.mark.parametrize("order, a_binding", PINNED, ids=["order_1", "order_2", "order_2_a_half"])
def test_dd_at_zero_residue_is_pinned_and_even(residue_polynomials, order, a_binding):
    poly, check, mirror = residue_polynomials[order, a_binding]
    assert poly == PINNED[order, a_binding]
    # the check probe: no term of higher degree in c hides between the probes
    assert check == _evaluate(poly, CHECK_PROBE)
    # no odd power of c: the checks are blind to the sign of dD(0)
    assert mirror == check


def test_dd_at_zero_vanishes_only_at_the_shipped_zero(residue_polynomials):
    # one polynomial in c per ring coefficient of each residue, all of which must vanish
    per_coefficient = []
    for poly, _, _ in residue_polynomials.values():
        exponents = {exps for coefficient in poly for exps, _ in coefficient.items()}
        per_coefficient += [[coefficient.coefficient_of(*exps) for coefficient in poly]
                            for exps in exponents]
    assert per_coefficient
    # their common factor is c^2: c = 0 is the one common root, and a double one
    assert _monic_gcd(per_coefficient) == [0, 0, 1]
