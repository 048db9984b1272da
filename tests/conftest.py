"""Shared hypothesis strategies, reference helpers and a per-test time limit."""

import faulthandler
import os
import warnings
from fractions import Fraction
from typing import Iterator, Sequence

import pytest
from hypothesis import strategies as st

from singint import ZERO, IntegrandMonomial, IntegrandSum, ValuePoly, integrand, mono
from singint.integrand import RULE_VALUES
from singint.wick import Leg

# seconds a test may run before the whole run exits with every thread's
# traceback; over 7x the slowest test, criterion 9 (about 21 s on 2 vCPUs)
TEST_TIME_LIMIT_S = 150

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, and a dump there would be lost
    # with the process; the watchdog writes to a copy of the terminal's stderr
    config.stash[_STDERR_FD] = os.dup(2)


@pytest.fixture(autouse=True)
def _time_limit(request):
    """End the run if a test outlasts TEST_TIME_LIMIT_S.

    faulthandler's watchdog is a C thread that needs no GIL, so it also stops
    a test stuck in one long C call, such as a huge int power, which a
    SIGALRM handler would only run after.
    """
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()

# Hypothesis imports this module to report a failing example; its libcst import
# raises a DeprecationWarning, which under -W error ends the run with an
# INTERNALERROR and no example.  Importing it here first, with that warning
# ignored, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def rationals(max_num: int = 30, max_den: int = 12) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def nonzero_rationals() -> st.SearchStrategy[Fraction]:
    return rationals().filter(lambda r: r != 0)


@st.composite
def ring_monomials(draw) -> ValuePoly:
    return ValuePoly.monomial(
        draw(rationals()),
        w=draw(st.integers(min_value=-4, max_value=4)),
        d0=draw(st.integers(min_value=0, max_value=3)),
        a=draw(st.integers(min_value=0, max_value=3)),
        g=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def value_polys(draw, max_terms: int = 4) -> ValuePoly:
    terms = draw(st.lists(ring_monomials(), min_size=0, max_size=max_terms))
    total = ValuePoly()
    for term in terms:
        total = total + term
    return total


def ring_operands() -> st.SearchStrategy[ValuePoly]:
    """ZERO, single terms and multi-term polys alike: each takes its own ring path."""
    return st.one_of(st.just(ZERO), ring_monomials(), value_polys())


@st.composite
def integrand_monomials(draw, max_q: int = 2, allow_bare: bool = True) -> IntegrandMonomial:
    shapes = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=max_q),
    )
    if not allow_bare:
        shapes = shapes.filter(lambda s: s != (0, 0, 0, 0))
    shape = draw(shapes)
    return IntegrandMonomial(*shape, coeff=draw(value_polys(max_terms=2)))


@st.composite
def integrand_sums(draw, max_terms: int = 4, max_q: int = 2,
                   allow_bare: bool = True) -> IntegrandSum:
    terms = draw(st.lists(integrand_monomials(max_q=max_q, allow_bare=allow_bare),
                          min_size=0, max_size=max_terms))
    return IntegrandSum(tuple(terms))


@st.composite
def reducible_sums(draw, max_terms: int = 4) -> IntegrandSum:
    """Sums the reducer accepts everywhere on its pipeline.

    No bare-measure term, and p + q <= 2 per term: the field equation turns
    ddD^p delta^q into delta^(p+q) pieces, and delta powers above 2 have no
    rule by design.
    """
    term = integrand_monomials(max_q=2, allow_bare=False).filter(
        lambda t: t.p + t.q <= 2)
    terms = draw(st.lists(term, min_size=0, max_size=max_terms))
    return IntegrandSum(tuple(terms))


def merge_then_sort(terms):
    """Plain canonical-form reference: add every coefficient into its shape, sort, drop zeros."""
    merged = {}
    for t in terms:
        merged[t.shape] = merged.get(t.shape, ZERO) + t.coeff
    return [IntegrandMonomial(*shape, coeff)
            for shape, coeff in sorted(merged.items()) if not coeff.is_zero]


def total_derivative(m: int, n: int) -> IntegrandSum:
    """d/dt (D^m dD^n) = m D^(m-1) dD^(n+1) + n D^m dD^(n-1) ddD."""
    terms = []
    if m:
        terms.append(mono(m - 1, n + 1, 0, 0, coeff=m))
    if n:
        terms.append(mono(m, n - 1, 1, 0, coeff=n))
    return IntegrandSum(terms)


def install_rule_values(monkeypatch, **fields) -> None:
    """Install the shipped `RULE_VALUES` with `fields` replaced, for one test."""
    monkeypatch.setattr(integrand, "RULE_VALUES", RULE_VALUES._replace(**fields))


def lebesgue_contact(n: int) -> ValuePoly:
    """The Lebesgue contact value [dD^n](0) = lambda_n, for `RULE_VALUES.dd_contact`.

    lambda_n is the mean of dD^n while dD crosses its jump from 1/2 to
    -1/2: 2^-n / (n + 1) for even n, 0 for odd n.  The rules take
    dD(0)^n = 0 for every n >= 1.
    """
    return ValuePoly.rational(Fraction(1, 2 ** n * (n + 1)) if n % 2 == 0 else 0)


def lebesgue_integral(m: int, n: int) -> ValuePoly:
    """Lebesgue value of integral dt D^m dD^n for even n, m + n >= 1.

    D^m dD^n = (2w)^-m 2^-n e^(-(m+n) w |t|), so the integral is
    2^(1-m-n) w^-(m+1) / (m+n).
    """
    return ValuePoly.monomial(Fraction(2, 2 ** (m + n) * (m + n)), w=-(m + 1))


# the Wick reference: `wick.enumerate_contractions` gives its matchings in this order
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
