"""The outside-in tracer: exact counts, clean restore, and the output contract."""

import json
from pathlib import Path

import singint
from singint import cli, reducer, verify, wick
from singint.ring import ValuePoly

import measure
import procs
import run
import workloads
from tracer import Tracer, count_metrics, timing_metrics

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _traced(fn):
    tracer = Tracer()
    with tracer.installed():
        tracer.run_op("test", fn)
    return tracer


def test_two_traced_runs_give_identical_counts():
    for workload in ("reduce_mix", "reduce_deep", "census", "cli_cold"):
        cases = workloads.generate(workload, 9, 1)[0][:6]
        unit = [workloads.bind(workload, c) for c in cases]
        first, second = Tracer(), Tracer()
        for tracer in (first, second):
            with tracer.installed():
                for op in unit:
                    tracer.run_op(op.label, op.run)
        assert count_metrics(first) == count_metrics(second), workload


def test_seed_counts_are_reproduced():
    v = {x.label: x for x in wick.action_vertices(2)}
    t = _traced(lambda: wick.enumerate_contractions(v["qd2q4"], v["qd2q4"]))
    assert count_metrics(t)["wick.matchings.enumerated"] == 10395
    t = _traced(verify.diagram_identities)
    assert count_metrics(t)["verify.order_contribution.calls"] == 5
    for m, n in ((0, 2), (3, 10), (8, 100), (1, 101)):
        t = _traced(lambda: singint.reduce(singint.integrand_sum(singint.mono(m, n))))
        assert count_metrics(t)["reducer.ibp_sweeps"] == (0 if n % 2 else n // 2)


def test_names_are_patched_where_callers_look_them_up_and_restored():
    originals = (singint.reduce, verify.reduce, cli.reduce, reducer.reduce,
                 ValuePoly.__add__, ValuePoly.__radd__)
    tracer = Tracer()
    with tracer.installed():
        assert verify.reduce is not originals[1] and cli.reduce is not originals[2]
        verify.order_check(2)
        assert ValuePoly.rational(1) + 1 == 2 and 1 + ValuePoly.rational(1) == 2
    assert (singint.reduce, verify.reduce, cli.reduce, reducer.reduce,
            ValuePoly.__add__, ValuePoly.__radd__) == originals
    assert tracer.calls["reducer.reduce"] == 1
    assert tracer.calls["verify.order_contribution"] == 1
    assert tracer.missing == []


def test_self_time_excludes_children():
    t = _traced(lambda: verify.order_check(2))
    assert 0 < t.self_s["verify.order_check"] < t.total_s["verify.order_check"]
    assert all(t.self_s[name] >= 0 for name in t.calls)
    parents = {t.names[t.span_name[i]] for i in range(len(t.span_start))
               if t.span_parent[i] == -1}
    assert parents == {"op"}


def test_layer_loop_reports_the_benchmark_metrics():
    unit = [workloads.bind("reduce_deep", c) for c in workloads.generate("reduce_deep", 1, 1)[0][:2]]
    result = measure.layer_loop(unit, 0.01)
    assert result["failed"] == 0 and result["attempted"] == 2 * len(unit)
    spec = json.loads(BENCHMARK.read_text())
    reported = {"import.singint_ms", "import.scipy_ms", "import.bare_python_ms",
                *result["metrics"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in reported}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(timing_metrics(Tracer())) <= reported


def test_tail_has_ten_samples_above_up_to_p99():
    latencies = [float(i) for i in range(100)]
    assert run.tail(latencies) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0, 1)
    assert run.tail([float(i) for i in range(5000)]) == (4949.0, 99.0, 50)


def test_importtime_split_counts_outermost_imports_only():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        400 |   scipy.integrate",
        "import time:        10 |        900 | singint",
    ])
    assert procs._top_level_ms(stderr, "scipy") == 0.7
    assert procs._top_level_ms(stderr, "singint") == 0.9
