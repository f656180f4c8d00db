"""Scaled solve time from kernel samples taken during the solve."""

import signal

import pytest

from hostspeed import REF_SECONDS, Speedometer, scaled_seconds


def test_one_sample_scales_the_whole_interval():
    # A kernel run of 2 * REF_SECONDS means the host runs at half speed.
    refs = [(-2 * REF_SECONDS, 0.0)]
    assert scaled_seconds(0.0, 4.0, refs) == pytest.approx(2.0)


def test_stretches_use_the_mean_of_the_samples_around_them():
    r = REF_SECONDS
    refs = [(-r, 0.0),              # speed 1 before the solve
            (1.0, 1.0 + 3 * r),     # speed 1/3 at t = 1
            (2.0, 2.0 + r)]         # speed 1 at t = 2
    # [0, 1] at mean duration 2r, [1 + 3r, 2] at 2r, [2 + r, 3] at r.
    expected = (1.0 / 2 + (1.0 - 3 * r) / 2 + (1.0 - r)) * 1.0
    assert scaled_seconds(0.0, 3.0, refs) == pytest.approx(expected)


def test_speedometer_samples_during_a_solve_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer(period_s=0.01)
    meter.start()
    total = 0
    for i in range(3_000_000):
        total += i & 3
    wall, scaled = meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.refs) > 2
    assert wall > 0.0 and scaled > 0.0
    assert all(end <= meter.refs[i + 1][0]
               for i, (_, end) in enumerate(meter.refs[:-1]))
