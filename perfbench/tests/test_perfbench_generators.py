"""Seeded generators are deterministic and keep a fixed composition per pass."""

from collections import Counter

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 11, 3) == workloads.generate(workload, 11, 3)
    assert workloads.generate(workload, 11, 3) != workloads.generate(workload, 12, 3)


def test_reduce_mix_pass_composition():
    for cases in workloads.generate("reduce_mix", 5, 6):
        labels = Counter(c.label for c in cases)
        assert labels["reduce_mix/out_of_domain"] == workloads.MIX_OUT_OF_DOMAIN_PER_PASS
        assert len(cases) == len(workloads.MIX_PASS_TERMS)
        assert sum(c.expected == workloads.RULE_ERROR for c in cases) >= 1


def test_reduce_deep_pass_is_stratified_over_n():
    for cases in workloads.generate("reduce_deep", 5, 6):
        even = sorted(c.payload[1] for c in cases if c.payload[1] % 2 == 0)
        odd = [c.payload for c in cases if c.payload[1] % 2]
        assert len(even) == workloads.DEEP_BINS and len(odd) == 1
        assert 100 <= even[0] and even[-1] <= 1000
        width = len(workloads.DEEP_EVEN_N) / workloads.DEEP_BINS
        for k, n in enumerate(even):
            assert k * width - 1 <= workloads.DEEP_EVEN_N.index(n) < (k + 1) * width
        assert all(0 <= c.payload[0] <= 8 for c in cases)


def test_census_pass_enumerates_every_twelve_leg_pair():
    for cases in workloads.generate("census", 5, 8):
        big = [c.payload[1:] for c in cases
               if c.payload[0] == "enumerate_contractions" and c.expected[0] == 10395]
        assert sorted(big) == sorted(workloads._pairs_with_legs(12))
        assert Counter(c.label.split("(")[0] for c in cases) == {
            "order_check": 7, "diagram_classes": 2, "diagram_identities": 1,
            "identity_suite": 1, "enumerate_contractions": 7}


def test_cli_pass_covers_every_subcommand_and_flag():
    cases = workloads.generate("cli_cold", 5, 1)[0]
    argv = [a for c in cases for a in c.payload]
    for word in ("reduce", "verify", "identities", "diagrams", "--trace", "--json",
                 "--omega", "--order", "--a", "--veltman"):
        assert word in argv
    assert any(c.expected[0] == "error" for c in cases)


def test_cli_cases_pass_in_process():
    for case in workloads.generate("cli_cold", 3, 1)[0]:
        op = workloads.bind_cli_in_process(case)
        assert op.check(op.run()), case.payload


@pytest.mark.parametrize("workload", ["reduce_mix", "reduce_deep", "census"])
def test_bound_operations_pass_their_checks(workload):
    cases = workloads.generate(workload, 2, 1)[0]
    if workload == "census":
        # leave out the 10395-matching pair to keep the test quick
        cases = [c for c in cases
                 if not (c.payload[0] == "enumerate_contractions" and c.expected[0] == 10395)]
    for case in cases:
        op = workloads.bind(workload, case)
        assert op.check(op.run()), case.payload


def test_wrong_outputs_fail_their_checks():
    case = workloads.generate("reduce_mix", 4, 1)[0][0]
    op = workloads.bind("reduce_mix", case)
    assert not op.check(op.run() + " + 1")
    assert not workloads.check_cli(("reduce", 0, ("text", "1/2 w^-1")), 0, "1/4 w^-1\n", "")
    assert not workloads.check_cli(("checks", 0, ("text", 2)), 0, "PASS  a  ->  0\n", "")
    assert not workloads.check_cli(("error", 2, None), 0, "", "")


def test_cli_expressions_with_a_leading_minus_reach_the_parser():
    # seeds 57 and 58 draw the lone expressions "-d0" and "-9/5"
    cases = [c for seed in (57, 58) for p in workloads.generate("cli_cold", seed)
             for c in p if c.label == "cli/reduce" and "--" in c.payload
             and " " not in c.payload[-1]]
    assert len(cases) == 2
    for case in cases:
        op = workloads.bind_cli_in_process(case)
        assert op.check(op.run()), case.payload
