"""The speed probe that scales end-to-end times to reference speed."""

import statistics
from time import sleep

import measure
import speed


def test_factors_are_median_probe_times_over_the_reference():
    probe = speed.SpeedProbe()
    probe.sample(3)
    assert len(probe.wall) == len(probe.cpu) == 3
    assert probe.wall_factor() == statistics.median(probe.wall) / speed.REFERENCE_S
    assert probe.cpu_factor() == statistics.median(probe.cpu) / speed.REFERENCE_S


def test_probe_takes_one_sample_per_period_of_work():
    probe = speed.SpeedProbe()
    probe.sample_if_due()
    probe.sample_if_due()
    assert len(probe.wall) == 1
    sleep(2.5 * speed.PERIOD_S)
    probe.sample_if_due()
    assert len(probe.wall) >= 1 + 2


def test_timed_loop_leaves_probe_time_out_of_its_wall_seconds():
    class Noop:
        label, payload = "noop", ()
        run = staticmethod(lambda: None)
        check = staticmethod(lambda out: True)

    probe = speed.SpeedProbe()
    latencies, wall_s, tally = measure.timed_loop([Noop()], 0.2, between=probe.sample_if_due)
    assert tally.attempted == len(latencies) and tally.failed == 0
    assert probe.wall and wall_s < 0.2 - sum(probe.wall) + 0.05
