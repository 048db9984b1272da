"""Speed probe: fixed pure-Python work timed next to the operations.

On a shared host the CPU speed a process gets drifts by 20-60% over seconds
to minutes, as other tenants load the same cores.  Two runs of the same code
then differ by more than a regression the benchmark must catch.  So the
benchmark times a probe (integer arithmetic, a dict of ints and str
formatting, about 2 ms) in the same process and the same seconds as the
operations, and reports the times of in-process operations at reference
speed:

    time at reference speed = measured time * REFERENCE_S / probe time

where the probe time is the median over the run, on the same clock as the
time it scales.  A run in a slow phase and one in a fast phase then read
alike.  The probe runs no singint code and touches nothing a change to
singint can reach (its imports, the gc settings, Fraction).

Times of fresh processes (cold CLI calls, set-up) are reported as measured.
They are mostly page mapping, dynamic linking and unmarshalling, which this
probe does not follow: over 5-call windows the spread of cold CLI time was
0.18 raw and 0.19 over the probe.  A bare `python -c pass` does not follow
them either: its fast mode read 64 ms in every run.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

# Nominal probe time.  It only sets the scale: a value at reference speed
# is what the run would have measured on a host where a probe takes this.
REFERENCE_S = 0.002
# One probe per this much timed work, taken between operations: about
# 4% of the loop's time.
PERIOD_S = 0.05
PROBE_STEPS = 10000


def _probe_work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_STEPS):
        total = (total * 31 + i) % 1000003
        table[i & 255] = total
    return total + len(str(table))


class SpeedProbe:
    """Probe times on the wall clock and on this process's CPU clock."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._next: float | None = None

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            wall, cpu = perf_counter(), process_time()
            _probe_work()
            self.cpu.append(process_time() - cpu)
            self.wall.append(perf_counter() - wall)
        self._next = perf_counter() + PERIOD_S

    def sample_if_due(self) -> None:
        """Catch up to one probe per PERIOD_S of work since the last one."""
        if self._next is None:
            self.sample()
            return
        late = perf_counter() - self._next
        if late >= 0:
            self.sample(1 + int(late / PERIOD_S))

    def wall_factor(self) -> float:
        """Median wall-clock probe time over the reference: >1 on a slow host."""
        return statistics.median(self.wall) / REFERENCE_S

    def cpu_factor(self) -> float:
        """Median CPU-clock probe time over the reference: >1 on a slow host."""
        return statistics.median(self.cpu) / REFERENCE_S
