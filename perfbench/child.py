"""Child processes started by run.py; not meant to be run by hand.

    child.py setup WORKLOAD          import singint, run the workload's fixed
                                     warm-up, print 'ready'
    child.py trace-cli SEED SECONDS  replay the cli_cold argv of SEED through
                                     singint.cli.main under the tracer and
                                     print the layer results as JSON

Both expect the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        import singint  # noqa: F401  (the import is the set-up being timed)
        import workloads
        workloads.warm_up(argv[1])
        print("ready", flush=True)
        return 0
    if argv[:1] == ["trace-cli"] and len(argv) == 3:
        import measure
        import procs
        import workloads
        seed, seconds = int(argv[1]), float(argv[2])
        passes = workloads.generate("cli_cold", seed, workloads.TRACE_PASSES["cli_cold"])
        unit = [workloads.bind_cli_in_process(c) for p in passes for c in p]
        procs.OUT.mkdir(exist_ok=True)
        result = measure.layer_loop(unit, seconds,
                                    procs.OUT / f"spans-cli_cold-seed{seed}.tsv")
        print(json.dumps(result))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
