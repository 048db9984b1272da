"""singint benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this one, and the
program is imported from its src/.  `--trace 0` measures the end-to-end
metrics with tracing off.  `--trace 1` is a separate run that gives the
per-layer metrics: spans and counts recorded around singint's public calls
(see tracer.py), the -X importtime split, and the tracing overhead.
Readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Spans of a traced run are
written to perfbench/_out/.

Exit status 0 when the run completed (failed operations show in the JSON),
2 when the singint sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from time import perf_counter, process_time

import measure
import procs
import speed
import workloads

END_TO_END_UNITS = {"ops_per_s": "ops/s", "p50_ms": "ms", "tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB", "correct_share": "ratio"}
TAIL_SAMPLES_ABOVE = 10
TAIL_MAX_PERCENTILE = 99.0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_term"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples above) at the tail.

    The tail is the highest percentile with 10 samples above it, but at most
    p99: past p99, a run of a few thousand millisecond operations would
    report the handful that a host stall happened to hit.
    """
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_SAMPLES_ABOVE - 1, 0)
    i = min(i, math.ceil(len(ordered) * TAIL_MAX_PERCENTILE / 100) - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def _bind_cold(case: workloads.Case, peaks_kib: list[int]) -> workloads.Op:
    def run():
        code, out, err, peak_kib = procs.run_cli(case.payload)
        peaks_kib.append(peak_kib)
        return code, out, err
    return workloads.Op(case.label, case.payload, run,
                        lambda r: workloads.check_cli(case.expected, *r))


def _print_floor(bare_ms: float, split: dict[str, float], p50_ms: float | None = None) -> None:
    line = (f"  floor: bare python {bare_ms:.1f} ms; import singint {split['singint']:.1f} ms,"
            f" of which scipy {split['scipy']:.1f} ms (-X importtime)")
    if p50_ms is not None:
        line += f"; cold CLI p50 {p50_ms:.1f} ms"
    print(line)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = procs.setup_seconds(workload)
    cases = [c for p in workloads.generate(workload, seed) for c in p]
    peaks_kib: list[int] = []
    if workload == "cli_cold":
        floor = procs.bare_python_ms(), procs.import_split_ms()
        ops = [_bind_cold(c, peaks_kib) for c in cases]
    else:
        ops = [workloads.bind(workload, c) for c in cases]
        workloads.warm_up(workload)
    gc.collect()
    # In-process latencies are this process's CPU time: on a shared VM the
    # host takes the CPU away for 5-10 ms at a time, which would otherwise
    # set the tail of millisecond operations.  A cold CLI call is timed on
    # the wall clock.
    in_process = workload != "cli_cold"
    clock = process_time if in_process else perf_counter
    # In-process times go to reference speed by the probe, on the clock each
    # was read from (speed.py).  Fresh processes are reported as measured:
    # the probe does not follow process start.
    probe = speed.SpeedProbe()
    latencies, wall_s, tally = measure.timed_loop(
        ops, seconds, clock, probe.sample_if_due if in_process else None)
    if not peaks_kib:
        peaks_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    tail_s, tail_pct, tail_above = tail(latencies)
    measured = {
        "ops_per_s": (tally.attempted - tally.failed) / wall_s,
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
    }
    factors = {}
    if in_process:
        factors = {"ops_per_s": probe.wall_factor(), "p50_ms": probe.cpu_factor(),
                   "tail_ms": probe.cpu_factor()}
    metrics = {
        "ops_per_s": measured["ops_per_s"] * factors.get("ops_per_s", 1.0),
        "p50_ms": measured["p50_ms"] / factors.get("p50_ms", 1.0),
        "tail_ms": measured["tail_ms"] / factors.get("tail_ms", 1.0),
        "setup_s": setup_s,
        "peak_rss_mb": max(peaks_kib) / 1024,
        "correct_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    print(f"{workload} seed {seed}: {tally.attempted} ops in {wall_s:.2f} s, "
          f"{tally.failed} failed (failed_share {tally.failed / tally.attempted:.4g}); "
          f"1 client, closed loop")
    if in_process:
        print(f"  ops_per_s, p50_ms and tail_ms at reference speed: host speed factor = "
              f"median of {len(probe.wall)} probes over {speed.REFERENCE_S * 1e3:g} ms")
    for name, value in metrics.items():
        note = ""
        if name in factors:
            note = (f"  (measured {measured[name]:.4f}, "
                    f"host speed factor {factors[name]:.3f})")
        if name == "tail_ms":
            note += f"  (p{tail_pct:.1f} of {len(latencies)} samples, {tail_above} above)"
        print(f"  {name:<14}{value:>14.4f} {END_TO_END_UNITS[name]}{note}")
    if workload == "cli_cold":
        _print_floor(*floor, metrics["p50_ms"])
    tally.report()
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    bare_ms, split = procs.bare_python_ms(), procs.import_split_ms()
    if workload == "cli_cold":
        child = procs.run_child([str(procs.PERFBENCH / "child.py"), "trace-cli",
                                 str(seed), str(seconds)],
                                timeout=procs.CHILD_TIMEOUT_S + 2 * seconds)
        result = json.loads(child.stdout.splitlines()[-1])
    else:
        passes = workloads.generate(workload, seed, workloads.TRACE_PASSES[workload])
        unit = [workloads.bind(workload, c) for p in passes for c in p]
        workloads.warm_up(workload)
        procs.OUT.mkdir(exist_ok=True)
        result = measure.layer_loop(unit, seconds,
                                    procs.OUT / f"spans-{workload}-seed{seed}.tsv")
    metrics = {"import.singint_ms": split["singint"], "import.scipy_ms": split["scipy"],
               "import.bare_python_ms": bare_ms, **result["metrics"]}
    print(f"{workload} seed {seed}, traced: {result['units']} traced runs of "
          f"{result['ops']} ops; {result['failed']} of {result['attempted']} failed")
    print(f"  tracing overhead: untraced {result['untraced_ops_per_s']:.2f} ops/s vs "
          f"traced {result['traced_ops_per_s']:.2f} ops/s "
          f"(x{metrics['trace.overhead_ratio']:.2f})")
    _print_floor(bare_ms, split)
    if result["missing"]:
        print(f"  not traced (name not found): {', '.join(result['missing'])}")
    for label, row in result["by_label"].items():
        shown = ", ".join(f"{k} {v:g}" for k, v in row.items() if k != "ops" and v)
        print(f"  {label}: {row['ops']} ops; per op: {shown or '-'}")
    for name, value in metrics.items():
        print(f"  {name:<36}{value:>16.4f} {layer_unit(name)}")
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (procs.SRC / "singint" / "__init__.py").is_file():
        print(f"singint sources not found in {procs.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    measure_run = per_layer if args.trace else end_to_end
    result = measure_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
