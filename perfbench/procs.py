"""Child processes of the benchmark: cold CLI calls, set-up timing and floors.

Every child runs the checkout's sources (PYTHONPATH=src), reads nothing on
stdin, and is waited for; a child still running after CHILD_TIMEOUT_S
seconds is killed and the run fails.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 60
PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = PERFBENCH / "_out"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _expire(signum, frame):
    raise TimeoutError(f"child still running after {CHILD_TIMEOUT_S} s")


def _wait4(proc: subprocess.Popen) -> int:
    """Reap `proc` and return its peak resident set size in KiB."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str, int]:
    """One cold `python -m singint.cli` call: (exit code, stdout, stderr, peak KiB)."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli_stdout.txt", "w+") as out, open(OUT / "cli_stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "singint.cli", *argv], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        peak_kib = _wait4(proc)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), peak_kib


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def _wall_s(args: list[str]) -> float:
    start = perf_counter()
    run_child(args)
    return perf_counter() - start


def _until_ready_s(args: list[str]) -> float:
    """Seconds from spawning a child to its 'ready' line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child {args} failed (exit {proc.returncode})")
    return ready - start


SETUP_REPEATS = 5


def setup_seconds(workload: str) -> float:
    """Median time from a fresh interpreter to the end of warm-up.

    The median also drops the first child's cost of writing the bytecode cache.
    """
    if workload == "cli_cold":
        times = [_wall_s(["-c", "import singint"]) for _ in range(SETUP_REPEATS)]
    else:
        times = [_until_ready_s([str(PERFBENCH / "child.py"), "setup", workload])
                 for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def bare_python_ms(repeats: int = 5) -> float:
    return statistics.median(_wall_s(["-c", "pass"]) for _ in range(repeats)) * 1e3


def _top_level_ms(stderr: str, prefix: str) -> float:
    """Cumulative ms of the outermost `prefix` imports in -X importtime output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
    total = 0
    stack: list[tuple[int, str]] = []
    for depth, cumulative_us, name in reversed(rows):  # parents come first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(n == prefix or n.startswith(prefix + ".") for _, n in stack)
        if (name == prefix or name.startswith(prefix + ".")) and not inside:
            total += cumulative_us
        stack.append((depth, name))
    return total / 1e3


def import_split_ms(repeats: int = 3) -> dict[str, float]:
    """Median `import singint` and nested scipy time from -X importtime."""
    runs = [run_child(["-X", "importtime", "-c", "import singint"]).stderr
            for _ in range(repeats)]
    return {"singint": statistics.median(_top_level_ms(r, "singint") for r in runs),
            "scipy": statistics.median(_top_level_ms(r, "scipy") for r in runs)}
