"""Coordinate independence pins the rule weights and each equal-time constant
taken one family at a time; jointly it fixes ddD(0) - w^2 D(0), not D(0).

The order checks must leave a zero residue.  With one equal-time constant
of `integrand`, or one weight of a `reducer` rule, patched to a family of
values along a rational parameter c, every residue is a polynomial in c
with coefficients in the ring.  Four probes fix a polynomial of degree 3 by
exact Lagrange interpolation over Fractions, and a fifth probe checks each
interpolant, so a term of higher degree in c would show.  The pinned
polynomials then show that the shipped value is the only rational c that
passes the checks.  Six families are pinned, each at order 1, at order 2
and at order 2 with a = 1/2:

    D(0)   = c w^-1 / 2    shipped c = 1   (cubic in c)
    dD(0)  = c             shipped c = 0
    ddD(0) = w/2 - c d0    shipped c = 1   (the weight of the contact part)
    ddD(0) = c w/2 - d0    shipped c = 1   (the weight of the smooth part)
    delta^2 -> c f(0) d0   shipped c = 1   (the weight of the delta^2 rule)
    ibp contact term * c   shipped c = 1   (the weight of the ibp delta term)

For dD(0), c = 0 is a double root, and every residue is even in c: the
checks cannot tell dD(0) = c from dD(0) = -c.  That is the sign blind spot
of the vacuum energy, which is even under t -> -t; the same cause hides a
flip of `wick.PINNED_DERIVATIVE_SIGN`, which `test_wick.py` holds to the
chain rule instead.  For D(0), c = 0 passes order 1 too; order 2 rules it
out.

Every residue of the contact-weight family carries d0, so the Veltman
convention, d0 = 0, hides that family whole.  In the smooth-weight family
the a = 1/2 check alone also passes at c = -1; the order-1 check and the
plain order-2 check rule that value out.

Order 1 cannot see either rule weight.  The delta^2 residue carries d0,
so the Veltman convention hides it too; the ibp residue does not, and the
identity rows fail with it.

Patched together, the two constants leave a line free.  With

    D(0) = nu w^-1 / 2        ddD(0) = mu w/2 - d0

every residue carries mu - nu, so on mu = nu, where ddD(0) - w^2 D(0) = -d0
is the field equation at the origin, every order check passes, at every
binding of a and of d0.  What holds D(0) at w^-1 / 2 is the propagator, and
its agreement with the Lebesgue integral, which the quadrature oracle of
acceptance criterion 8 checks; off the shipped point the reduced D dD^2
departs from the oracle.

The reducer reads one more equal-time value: the contact value
lambda_2 := [dD^2](0) of the delta term that integration by parts emits,
which the commutative ring makes dD(0)^2 = 0.  Patched in the reducer
alone, it leaves every order-1 total 0 and is the whole order-2 total,
lambda_2 g^2 w^-1, plain, at a = 1/2, at a = -3/5 and under Veltman, while
[dD^4](0) stays invisible.  So the cancellation fixes lambda_2 = 0, against
integration by parts on D-free total derivatives: integral ddD dD^2, a
third of the integral of d/dt(dD^3), reduces to 1/12, not 0.

That is the trade-off against Lebesgue.  With the Lebesgue contact values
lambda_n = 2^-n / (n + 1) for even n and 0 for odd n, the mean of dD^n
while dD crosses its jump, the same reducer gives the exact Lebesgue
integral 2^(1-m-n) w^-(m+1) / (m+n) of every D^m dD^n, and every D-free
total derivative integral ddD dD^n reduces to 0.  The shipped values keep
the Lebesgue integral on the dD^2 column, but the dD^4 column lies
2^-m w^-(m+1) / (8 (m+1)) below it: the contact term 3 [D^(m+1) dD^2](0)
/ (m+1) at lambda_2 = 1/12, which the rules set to 0.
"""

from fractions import Fraction

import pytest

from conftest import lebesgue_integral, lebesgue_local_value
from singint import (A, D0, G, ZERO, IntegrandSum, ValuePoly, diagram_identities,
                     identity_suite, integrand_sum, mono, order_check, quadrature_oracle,
                     reduce, wpow)
from singint import integrand, reducer

PROBES = (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2))
CHECK_PROBE = Fraction(3)

# the three checks: (order, a binding)
CHECKS = ((1, None), (2, None), (2, Fraction(1, 2)))
CHECK_IDS = ["order_1", "order_2", "order_2_a_half"]

HALF_W = ValuePoly.monomial(Fraction(1, 2), w=1)
HALF_W_INVERSE = ValuePoly.monomial(Fraction(1, 2), w=-1)

SHIPPED_IBP_STEP = reducer.ibp_step


def _ibp_contact_weight(c):
    """`reducer.ibp_step` with its single-delta contact term scaled by c."""
    def ibp_step(t):
        return IntegrandSum([mono(u.m, u.n, u.p, u.q, u.coeff * c) if u.q == 1 else u
                             for u in SHIPPED_IBP_STEP(t)])
    return ibp_step


# family -> (the patched module and name, its value at c, the shipped c)
FAMILIES = {
    "d_at_zero": (integrand, "D_AT_ZERO", lambda c: c * HALF_W_INVERSE, Fraction(1)),
    "dd_at_zero": (integrand, "DDOT_AT_ZERO", ValuePoly.rational, Fraction(0)),
    "ddd_contact_weight": (integrand, "DDDOT_AT_ZERO", lambda c: HALF_W - c * D0,
                           Fraction(1)),
    "ddd_smooth_weight": (integrand, "DDDOT_AT_ZERO", lambda c: c * HALF_W - D0,
                          Fraction(1)),
    "delta_squared_weight": (reducer, "D0", lambda c: c * D0, Fraction(1)),
    "ibp_contact_weight": (reducer, "ibp_step", _ibp_contact_weight, Fraction(1)),
}


def _times(c_poly, ring):
    """The ring coefficients, lowest power of c first, of c_poly(c) * ring."""
    return [ring * x for x in c_poly] + [ZERO] * (len(PROBES) - len(c_poly))


def _plus(*polys):
    return [sum(terms, ZERO) for terms in zip(*polys)]


C_SQUARED = [0, 0, 1]                                    # c^2
ONE_MINUS_C = [1, -1]                                    # 1 - c
ONE_MINUS_C_SQUARED = [1, -2, 1]                         # (1 - c)^2
ONE_MINUS_C_TWO_MINUS_C = [2, -3, 1]                     # (1 - c)(2 - c)
ONE_MINUS_C_ONE_PLUS_C = [1, 0, -1]                      # (1 - c)(1 + c)
C_ONE_MINUS_C = [0, 1, -1]                               # c(1 - c)
C_SQUARED_C_MINUS_ONE = [0, 0, -1, 1]                    # c^2 (c - 1)
C_MINUS_ONE_TIMES_C2_PLUS_C_MINUS_ONE = [1, -2, 0, 1]    # (c - 1)(c^2 + c - 1)
C_MINUS_ONE_TIMES_2C2_MINUS_C_PLUS_ONE = [-1, 2, -3, 2]  # (c - 1)(2c^2 - c + 1)
G2 = G * G

# (family, order, a binding) -> residue coefficients of c^0 to c^3
PINNED = {
    # -c(c-1)/4 g
    ("d_at_zero", 1, None): _times(C_ONE_MINUS_C, Fraction(1, 4) * G),
    # 3/8 c^2 (c-1) g^2 a w^-1 - (c-1)(c^2+c-1)/16 g^2 w^-1
    ("d_at_zero", 2, None): _plus(
        _times(C_SQUARED_C_MINUS_ONE, Fraction(3, 8) * G2 * A * wpow(-1)),
        _times(C_MINUS_ONE_TIMES_C2_PLUS_C_MINUS_ONE, Fraction(-1, 16) * G2 * wpow(-1))),
    # (c-1)(2c^2-c+1)/16 g^2 w^-1
    ("d_at_zero", 2, Fraction(1, 2)): _times(C_MINUS_ONE_TIMES_2C2_MINUS_C_PLUS_ONE,
                                             Fraction(1, 16) * G2 * wpow(-1)),
    ("dd_at_zero", 1, None): _times(C_SQUARED, -2 * G),
    ("dd_at_zero", 2, None): _times(C_SQUARED, (6 * A + 4) * G2 * wpow(-1)),
    ("dd_at_zero", 2, Fraction(1, 2)): _times(C_SQUARED, 7 * G2 * wpow(-1)),
    # (1-c)/2 g d0 w^-1
    ("ddd_contact_weight", 1, None): _times(ONE_MINUS_C, Fraction(1, 2) * G * D0 * wpow(-1)),
    # -(1-c)^2/4 g^2 d0^2 w^-3 - 3(1-c)/4 g^2 d0 a w^-2 + (1-c)/8 g^2 d0 w^-2
    ("ddd_contact_weight", 2, None): _plus(
        _times(ONE_MINUS_C_SQUARED, Fraction(-1, 4) * G2 * D0 * D0 * wpow(-3)),
        _times(ONE_MINUS_C, Fraction(-3, 4) * G2 * D0 * A * wpow(-2)),
        _times(ONE_MINUS_C, Fraction(1, 8) * G2 * D0 * wpow(-2))),
    # -(1-c)^2/4 g^2 d0^2 w^-3 - (1-c)/4 g^2 d0 w^-2
    ("ddd_contact_weight", 2, Fraction(1, 2)): _plus(
        _times(ONE_MINUS_C_SQUARED, Fraction(-1, 4) * G2 * D0 * D0 * wpow(-3)),
        _times(ONE_MINUS_C, Fraction(-1, 4) * G2 * D0 * wpow(-2))),
    # -(1-c)/4 g
    ("ddd_smooth_weight", 1, None): _times(ONE_MINUS_C, Fraction(-1, 4) * G),
    # 3(1-c)/8 g^2 a w^-1 - (1-c)(2-c)/16 g^2 w^-1
    ("ddd_smooth_weight", 2, None): _plus(
        _times(ONE_MINUS_C, Fraction(3, 8) * G2 * A * wpow(-1)),
        _times(ONE_MINUS_C_TWO_MINUS_C, Fraction(-1, 16) * G2 * wpow(-1))),
    # (1-c)(1+c)/16 g^2 w^-1
    ("ddd_smooth_weight", 2, Fraction(1, 2)): _times(ONE_MINUS_C_ONE_PLUS_C,
                                                     Fraction(1, 16) * G2 * wpow(-1)),
    # order 1 is blind; 3/4 (1-c) g^2 d0 w^-2, plain and at a = 1/2
    ("delta_squared_weight", 1, None): _times([], ZERO),
    ("delta_squared_weight", 2, None): _times(ONE_MINUS_C, Fraction(3, 4) * G2 * D0 * wpow(-2)),
    ("delta_squared_weight", 2, Fraction(1, 2)): _times(ONE_MINUS_C,
                                                        Fraction(3, 4) * G2 * D0 * wpow(-2)),
    # order 1 is blind; 2/3 (1-c) g^2 w^-1, plain and at a = 1/2
    ("ibp_contact_weight", 1, None): _times([], ZERO),
    ("ibp_contact_weight", 2, None): _times(ONE_MINUS_C, Fraction(2, 3) * G2 * wpow(-1)),
    ("ibp_contact_weight", 2, Fraction(1, 2)): _times(ONE_MINUS_C,
                                                      Fraction(2, 3) * G2 * wpow(-1)),
}


def _residue(monkeypatch, family, c, order, a_binding, veltman=False):
    module, name, value, _ = FAMILIES[family]
    monkeypatch.setattr(module, name, value(c))
    return order_check(order, a_binding=a_binding, veltman=veltman).actual


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
    want = [ValuePoly.rational(3), -G, A * Fraction(1, 2), D0]
    points = [(c, _evaluate(want, c)) for c in PROBES]
    assert _interpolate(points) == want
    assert _monic_gcd([[-2, 1], [4, -4, 1]]) == [-2, 1]  # (c - 2) and (c - 2)^2


@pytest.fixture(scope="module")
def residue_polynomials():
    """(family, order, a binding) -> (interpolant, {c: residue}) over the probes,
    the check probe and its mirror."""
    polys = {}
    for family, order, a_binding in PINNED:
        with pytest.MonkeyPatch.context() as monkeypatch:
            at = {c: _residue(monkeypatch, family, c, order, a_binding)
                  for c in PROBES + (CHECK_PROBE, -CHECK_PROBE)}
        poly = _interpolate([(c, at[c]) for c in PROBES])
        polys[family, order, a_binding] = poly, at
    return polys


def _per_coefficient(poly):
    """Each ring coefficient of a polynomial in c, given by its ring coefficients
    lowest power first, as a polynomial in c over Fractions."""
    exponents = {exps for coefficient in poly for exps, _ in coefficient.items()}
    return [[coefficient.coefficient_of(*exps) for coefficient in poly] for exps in exponents]


def _common_factor(residue_polynomials, family):
    """The monic gcd over Fractions of every ring coefficient of the family's
    residues, each read as a polynomial in c."""
    per_coefficient = []
    for (name, *_), (poly, *_) in residue_polynomials.items():
        if name == family:
            per_coefficient += _per_coefficient(poly)
    assert per_coefficient
    return _monic_gcd(per_coefficient)


def _assert_pinned(residue_polynomials, key):
    poly, at = residue_polynomials[key]
    assert poly == PINNED[key]
    # the check probe: no term of higher degree in c hides between the probes
    assert at[CHECK_PROBE] == _evaluate(poly, CHECK_PROBE)


@pytest.mark.parametrize("order, a_binding", CHECKS, ids=CHECK_IDS)
def test_dd_at_zero_residue_is_pinned_and_even(residue_polynomials, order, a_binding):
    key = ("dd_at_zero", order, a_binding)
    _assert_pinned(residue_polynomials, key)
    _, at = residue_polynomials[key]
    # no odd power of c: the checks are blind to the sign of dD(0)
    assert at[-CHECK_PROBE] == at[CHECK_PROBE]


def test_dd_at_zero_vanishes_only_at_the_shipped_zero(residue_polynomials):
    # the common factor is c^2: c = 0 is the one common root, and a double one
    assert _common_factor(residue_polynomials, "dd_at_zero") == [0, 0, 1]


@pytest.mark.parametrize("order, a_binding", CHECKS, ids=CHECK_IDS)
def test_d_at_zero_residue_is_pinned_and_cubic(residue_polynomials, order, a_binding):
    _assert_pinned(residue_polynomials, ("d_at_zero", order, a_binding))


def test_d_at_zero_vanishes_only_at_the_shipped_one(residue_polynomials, monkeypatch):
    assert FAMILIES["d_at_zero"][3] == 1
    # the common factor is c - 1: c = 1 is the one common root
    assert _common_factor(residue_polynomials, "d_at_zero") == [-1, 1]
    # c = 0 passes order 1, and order 2 rules it out
    assert _residue(monkeypatch, "d_at_zero", Fraction(0), 1, None) == ZERO
    assert (_residue(monkeypatch, "d_at_zero", Fraction(0), 2, None)
            == Fraction(-1, 16) * G2 * wpow(-1))


@pytest.mark.parametrize("order, a_binding", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("family", ["ddd_contact_weight", "ddd_smooth_weight"])
def test_ddd_at_zero_residue_is_pinned(residue_polynomials, family, order, a_binding):
    _assert_pinned(residue_polynomials, (family, order, a_binding))


@pytest.mark.parametrize("family", ["ddd_contact_weight", "ddd_smooth_weight"])
def test_ddd_at_zero_vanishes_only_at_the_shipped_one(residue_polynomials, family):
    assert FAMILIES[family][3] == 1
    # the common factor is c - 1: c = 1 is the one common root
    assert _common_factor(residue_polynomials, family) == [-1, 1]


def test_veltman_hides_the_contact_weight_family(residue_polynomials, monkeypatch):
    for (family, *_), (poly, *_) in residue_polynomials.items():
        if family == "ddd_contact_weight":
            assert all(d0 > 0 for coefficient in poly for (_, d0, _, _), _ in coefficient.items())
    for order, a_binding in CHECKS:
        for c in PROBES + (CHECK_PROBE,):
            assert _residue(monkeypatch, "ddd_contact_weight", c, order, a_binding,
                            veltman=True) == ZERO


def test_a_half_alone_passes_the_smooth_weight_at_minus_one(residue_polynomials):
    at = {(order, a_binding): residue_polynomials["ddd_smooth_weight", order, a_binding][1]
          for order, a_binding in CHECKS}
    assert at[2, Fraction(1, 2)][Fraction(-1)] == ZERO
    # the order-1 and the plain order-2 checks rule c = -1 out
    assert at[1, None][Fraction(-1)] == Fraction(-1, 2) * G
    assert at[2, None][Fraction(-1)] != ZERO


@pytest.mark.parametrize("order, a_binding", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("family", ["delta_squared_weight", "ibp_contact_weight"])
def test_rule_weight_residue_is_pinned(residue_polynomials, family, order, a_binding):
    _assert_pinned(residue_polynomials, (family, order, a_binding))


@pytest.mark.parametrize("family", ["delta_squared_weight", "ibp_contact_weight"])
def test_rule_weight_vanishes_only_at_the_shipped_one(residue_polynomials, family):
    assert FAMILIES[family][3] == 1
    # order 1 is blind, and order 2 leaves c - 1: c = 1 is the one common root
    for order, a_binding in CHECKS:
        _, at = residue_polynomials[family, order, a_binding]
        assert (order == 1) == all(residue == ZERO for residue in at.values())
    assert _common_factor(residue_polynomials, family) == [-1, 1]


def test_veltman_hides_the_delta_squared_weight(monkeypatch):
    for c in PROBES + (CHECK_PROBE,):
        for order, a_binding in CHECKS:
            assert _residue(monkeypatch, "delta_squared_weight", c, order, a_binding,
                            veltman=True) == ZERO


def test_veltman_keeps_the_ibp_contact_weight(monkeypatch):
    for c in PROBES + (CHECK_PROBE,):
        assert _residue(monkeypatch, "ibp_contact_weight", c, 1, None, veltman=True) == ZERO
        for a_binding in (None, Fraction(1, 2)):
            assert (_residue(monkeypatch, "ibp_contact_weight", c, 2, a_binding, veltman=True)
                    == Fraction(2, 3) * (1 - c) * G2 * wpow(-1))


def test_ibp_contact_weight_fails_identity_rows(monkeypatch):
    for c in PROBES:
        monkeypatch.setattr(reducer, "ibp_step", _ibp_contact_weight(c))
        failed = (sum(not row.passed for row in identity_suite()),
                  sum(not row.passed for row in diagram_identities()))
        assert failed == ((0, 0) if c == 1 else (5, 4))


# -- the one curve the order checks leave free --------------------------------

CURVE = (Fraction(0), Fraction(5, 3), Fraction(2), Fraction(-7, 2))
# three mu probes fix a residue of degree 2 in mu, and a fourth checks it
MU_PROBES = (Fraction(-1), Fraction(1, 2), Fraction(3))
MU_CHECK_PROBE = Fraction(-5, 2)

# (order, a binding, veltman) of the eight totals the line and the contact
# values are held to
TOTALS = [(order, a_binding, veltman) for order in (1, 2)
          for a_binding, veltman in ((None, False), (Fraction(1, 2), False),
                                     (Fraction(-3, 5), False), (None, True))]


def _on_curve(monkeypatch, nu, mu):
    """D(0) = nu w^-1 / 2 and ddD(0) = mu w/2 - d0."""
    monkeypatch.setattr(integrand, "D_AT_ZERO", nu * HALF_W_INVERSE)
    monkeypatch.setattr(integrand, "DDDOT_AT_ZERO", mu * HALF_W - D0)


@pytest.mark.parametrize("nu", CURVE, ids=str)
def test_the_field_equation_line_passes_every_order_check(monkeypatch, nu):
    _on_curve(monkeypatch, nu, nu)
    for order in (1, 2):
        for a_binding in (None, Fraction(1, 2), Fraction(-3, 5)):
            for veltman in (False, True):
                check = order_check(order, a_binding=a_binding, veltman=veltman)
                assert check.passed, check.name


@pytest.mark.parametrize("nu", CURVE, ids=str)
def test_off_the_line_every_residue_carries_mu_minus_nu(monkeypatch, nu):
    mu = nu + 1
    _on_curve(monkeypatch, nu, mu)
    gap = mu - nu
    assert order_check(1).actual == nu * gap / 4 * G
    assert order_check(2).actual == (-gap * (mu - nu * nu - nu) / 16 * G2 * wpow(-1)
                                     - 3 * nu * nu * gap / 8 * G2 * A * wpow(-1))
    assert (order_check(2, a_binding=Fraction(1, 2)).actual
            == -gap * (mu + 2 * nu * nu - nu) / 16 * G2 * wpow(-1))


@pytest.mark.parametrize("nu", CURVE + (Fraction(7, 3),), ids=str)
def test_mu_minus_nu_divides_every_residue_as_a_polynomial_in_mu(monkeypatch, nu):
    # at nu = 0 the order-1 residues are 0 and the others carry (mu - nu)^2,
    # so the test asks for divisibility, not for mu - nu as the exact gcd
    for order, a_binding, veltman in TOTALS:
        at = {}
        for mu in MU_PROBES + (MU_CHECK_PROBE,):
            _on_curve(monkeypatch, nu, mu)
            at[mu] = order_check(order, a_binding=a_binding, veltman=veltman).actual
        poly = _interpolate([(mu, at[mu]) for mu in MU_PROBES])
        assert at[MU_CHECK_PROBE] == _evaluate(poly, MU_CHECK_PROBE)
        for coefficient in _per_coefficient(poly):
            assert _remainder(coefficient, [-nu, 1]) == []
        # off the line the order-2 totals fail, so the divisions are not vacuous
        assert order == 1 or any(not coefficient.is_zero for coefficient in poly)


def test_the_oracle_not_the_cancellation_holds_d_at_zero(monkeypatch):
    d_dd_squared = integrand_sum(mono(1, 2))
    for omega in (0.5, 1.0, 2.0):
        assert abs(quadrature_oracle(1, 2, omega) - 1 / (12 * omega ** 2)) < 1e-10
    assert reduce(d_dd_squared)[0] == Fraction(1, 12) * wpow(-2)
    _on_curve(monkeypatch, Fraction(2), Fraction(2))
    assert order_check(2).passed
    assert reduce(d_dd_squared)[0] == Fraction(11, 24) * wpow(-2)


# -- the contact value lambda_2 := [dD^2](0) ------------------------------------

SHIPPED_LOCAL_VALUE = reducer.local_value


def _contact_totals(monkeypatch, k, lam):
    """The eight totals with the reducer's [dD^k](0) patched to lam; the Wick
    equal-time factors keep the shipped constants."""
    def local_value(m=0, n=0, p=0):
        return SHIPPED_LOCAL_VALUE(m, 0, p) * lam if n == k else SHIPPED_LOCAL_VALUE(m, n, p)

    monkeypatch.setattr(reducer, "local_value", local_value)
    return [order_check(order, a_binding=a_binding, veltman=veltman).actual
            for order, a_binding, veltman in TOTALS]


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 12), Fraction(-3)], ids=str)
def test_the_order_2_total_is_the_contact_value_of_dd_squared(monkeypatch, lam):
    # integration by parts on D-free total derivatives would want lambda_2 = 1/12
    # (integral ddD dD^2); the order-g^2 cancellation fixes the shipped 0
    totals = _contact_totals(monkeypatch, 2, lam)
    assert totals == [ZERO] * 4 + [lam * G2 * wpow(-1)] * 4


def test_the_order_checks_do_not_see_the_contact_value_of_dd_fourth(monkeypatch):
    assert _contact_totals(monkeypatch, 4, Fraction(1)) == [ZERO] * 8


# -- the Lebesgue contact map ---------------------------------------------------

def test_the_lebesgue_contact_map_gives_the_lebesgue_integral(monkeypatch):
    # under the same map every total derivative, D-free ones included, reduces
    # to 0: test_verify.py's variant contact rule checks m <= 8, n <= 12
    monkeypatch.setattr(reducer, "local_value", lebesgue_local_value)
    for m in range(9):
        for n in range(0, 21, 2):
            if m + n:
                assert reduce(integrand_sum(mono(m, n)))[0] == lebesgue_integral(m, n), (m, n)


def test_the_shipped_values_leave_lebesgue_only_by_the_contact_of_dd_squared():
    for m in range(9):
        assert reduce(integrand_sum(mono(m, 2)))[0] == lebesgue_integral(m, 2), m
        gap = ValuePoly.monomial(Fraction(1, 2 ** m * 8 * (m + 1)), w=-(m + 1))
        assert lebesgue_integral(m, 4) - reduce(integrand_sum(mono(m, 4)))[0] == gap, m
