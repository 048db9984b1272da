"""Exact reduction of singular one-dimensional propagator integrals.

The package reduces whole-line integrals over products of the oscillator
propagator exp(-w|t|)/(2w), its first two distributional derivatives, and
Dirac delta factors to exact closed forms in a small coefficient ring, and
cross-checks the rule system by showing that the vacuum diagrams of a
coordinate-transformed oscillator cancel order by order, delta(0) powers
included.
"""

from .integrand import RULE_VALUES, IntegrandMonomial, IntegrandSum, integrand_sum, mono
from .reducer import (ReductionTrace, RuleError, TraceStep, base_integral,
                      eval_dirac, eval_dirac_squared, ibp_step, reduce,
                      substitute_field_equation)
from .ring import A, D0, G, ONE, W, ZERO, ValuePoly, wpow

# The diagram generator and the check suites load on first use of one of
# their names, so `singint reduce` starts without them.  Each name is read
# from its module every time, so a patch of the module's name takes effect.
_WICK_NAMES = frozenset({"DiagramClass", "Vertex", "action_vertices", "diagram_classes",
                         "order_contribution"})
_VERIFY_NAMES = frozenset({"CheckResult", "diagram_identities", "identity_suite",
                           "order_check", "quadrature_oracle"})

__version__ = "0.1.0"

__all__ = [
    "A", "CheckResult", "D0", "DiagramClass", "G", "IntegrandMonomial",
    "IntegrandSum", "ONE", "RULE_VALUES", "ReductionTrace", "RuleError",
    "TraceStep", "ValuePoly", "Vertex", "W", "ZERO", "action_vertices",
    "base_integral", "diagram_classes", "diagram_identities", "eval_dirac",
    "eval_dirac_squared", "ibp_step", "identity_suite", "integrand_sum",
    "mono", "order_check", "order_contribution", "quadrature_oracle", "reduce",
    "substitute_field_equation", "wpow",
]


def __getattr__(name: str):
    if name in _WICK_NAMES:
        from . import wick as module
    elif name in _VERIFY_NAMES:
        from . import verify as module
    else:  # so `from singint import verify` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
