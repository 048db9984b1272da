"""The two measuring loops: timed (tracing off) and layered (tracing on).

Both run a single client in a closed loop over bound operations and check
every output.  A failing check or an unexpected exception counts the
operation as failed; the loop keeps going and remembers the first few.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from tracer import Tracer, count_metrics, timing_metrics

MAX_REPORTED_FAILURES = 5


class Tally:
    """Attempted and failed operations, with the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{op.label} {op.payload!r} {detail}".strip())

    def report(self) -> None:
        for line in self.failures:
            print(f"FAILED {line}", file=sys.stderr)


def run_checked(op, tally: Tally, call=None, clock=perf_counter) -> float:
    """Run `op` once (through `call` if given) and check it; its `clock` seconds."""
    start = clock()
    try:
        out = call(op.label, op.run) if call else op.run()
    except Exception as exc:  # a failed operation, not a failed benchmark
        seconds = clock() - start
        tally.record(op, False, f"raised {exc!r}")
        return seconds
    seconds = clock() - start
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # malformed output
        tally.record(op, False, f"unreadable output: {exc!r}")
    else:
        tally.record(op, ok, "" if ok else "wrong output")
    return seconds


def timed_loop(ops: list, seconds: float, clock=perf_counter,
               between=None) -> tuple[list[float], float, Tally]:
    """Cycle through `ops` for `seconds` of wall clock, calling `between` before each.

    Returns each operation's latency on `clock`, the wall seconds of the
    whole loop less the time spent in `between` (the speed probes), and the
    tally.
    """
    tally = Tally()
    latencies = []
    probing = 0.0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        if between is not None:
            probe_start = perf_counter()
            between()
            probing += perf_counter() - probe_start
        latencies.append(run_checked(ops[i % len(ops)], tally, clock=clock))
        i += 1
    return latencies, perf_counter() - start - probing, tally


def _per_label(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Mean per operation of the counts that pin the seed's behaviour, by label."""
    calls = [Counter() for _ in tracer.op_labels]
    for name_id, op in zip(tracer.span_name, tracer.span_op):
        if op >= 0:
            calls[op][tracer.names[name_id]] += 1
    sums: dict[str, Counter] = defaultdict(Counter)
    for op, label in enumerate(tracer.op_labels):
        row = sums[label]
        row["ops"] += 1
        row["reducer.reduce.calls"] += calls[op]["reducer.reduce"]
        row["reducer.ibp_sweeps"] += tracer.op_counts[op]["reducer.steps.ibp"]
        row["verify.order_contribution.calls"] += calls[op]["verify.order_contribution"]
        row["wick.matchings.enumerated"] += tracer.op_counts[op]["wick.matchings.enumerated"]
    return {label: {k: (v if k == "ops" else v / row["ops"]) for k, v in row.items()}
            for label, row in sorted(sums.items())}


def layer_loop(unit: list, seconds: float, spans_path=None) -> dict:
    """Alternate untraced and traced runs of `unit` until `seconds` have passed.

    Counts come from the first traced run (they repeat exactly); times are
    medians over the traced runs; the overhead compares the two kinds of run
    on the same operations.
    """
    tally = Tally()
    untraced, traced, timings = [], [], []
    first = None
    start = perf_counter()
    while not timings or perf_counter() - start < seconds:
        untraced.append(sum(run_checked(op, tally) for op in unit))
        tracer = Tracer()
        with tracer.installed():
            traced.append(sum(run_checked(op, tally, tracer.run_op) for op in unit))
        timings.append(timing_metrics(tracer))
        if first is None:
            first = tracer
            if spans_path is not None:
                tracer.write_spans(spans_path)
    metrics = count_metrics(first)
    for key in timings[0]:
        metrics[key] = statistics.median(t[key] for t in timings)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {"metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures, "ops": len(unit), "units": len(timings),
            "untraced_ops_per_s": len(unit) / untraced_s,
            "traced_ops_per_s": len(unit) / traced_s,
            "by_label": _per_label(first), "missing": first.missing}
