"""The names `singint` exports: any growth or loss of the public API is an edit here."""

import singint

PUBLIC_API = [
    "A", "CheckResult", "D0", "DiagramClass", "G", "IntegrandMonomial",
    "IntegrandSum", "ONE", "RULE_VALUES", "ReductionTrace", "RuleError",
    "TraceStep", "ValuePoly", "Vertex", "W", "ZERO", "action_vertices",
    "base_integral", "diagram_classes", "diagram_identities", "eval_dirac",
    "eval_dirac_squared", "ibp_step", "identity_suite", "integrand_sum",
    "mono", "order_check", "order_contribution", "quadrature_oracle", "reduce",
    "substitute_field_equation", "wpow",
]


def test_public_api_is_pinned():
    assert len(singint.__all__) == len(set(singint.__all__))
    assert set(singint.__all__) == set(PUBLIC_API)
    assert all(hasattr(singint, name) for name in PUBLIC_API)
