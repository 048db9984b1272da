"""The names `singint` exports: any growth or loss of the public API is an edit here."""

import pytest

import singint
from singint import verify, wick

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


def test_every_name_is_listed_and_unknown_names_raise():
    assert set(singint.__all__) <= set(dir(singint))
    with pytest.raises(AttributeError):
        singint.no_such_name


def test_generator_and_check_names_are_read_from_their_modules(monkeypatch):
    # the package reads these names from `wick` and `verify` on each access,
    # so a patch of the module's name, as the benchmark tracer makes, shows through
    def patched(*args, **kwargs):
        return "patched"

    monkeypatch.setattr(verify, "order_check", patched)
    monkeypatch.setattr(wick, "diagram_classes", patched)
    assert singint.order_check is patched and singint.diagram_classes is patched
