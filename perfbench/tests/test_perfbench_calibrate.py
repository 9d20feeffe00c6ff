import signal
import time

import pytest

from calibrate import Sampler, normalised_ns, program_ns, speeds


def test_program_time_leaves_out_samples_and_clips_them_to_the_phase():
    samples = [(10, 5), (40, 5), (98, 4)]  # the last one overhangs the phase
    assert program_ns(samples, 0, 100) == 100 - 5 - 5 - 2
    assert program_ns(samples, 12, 42) == 30 - 3 - 2
    assert program_ns([], 0, 100) == 100


def test_normalised_time_scales_each_stretch_by_the_sample_that_ends_it():
    # program runs 0-10, sample 10-12 (2 ns), program 12-30, sample 30-34 (4 ns),
    # program 34-44 after the last sample
    samples = [(10, 2), (30, 4)]
    ref = 4
    expected = 10 * ref / 2 + 18 * ref / 4 + 10 * ref / 4
    assert normalised_ns(samples, 0, 44, ref, half_width=0) == pytest.approx(expected)
    # a phase that starts inside the first gap only gets its own share of it
    assert normalised_ns(samples, 5, 20, ref, half_width=0) == pytest.approx(
        5 * ref / 2 + 8 * ref / 4)


def test_running_median_drops_a_lone_slow_sample():
    samples = [(10 * i, 3) for i in range(7)]
    samples[3] = (30, 30)
    assert speeds(samples, half_width=2) == [3] * 7
    assert speeds(samples, half_width=0)[3] == 30
    # a lasting change is kept
    lasting = [(10 * i, 3 if i < 4 else 6) for i in range(12)]
    assert speeds(lasting, half_width=2)[-4:] == [6] * 4


def test_normalised_time_is_raw_time_at_the_reference_speed():
    samples = [(t, 3) for t in range(100, 1000, 100)]
    assert normalised_ns(samples, 0, 1000, ref_ns=3) == pytest.approx(
        program_ns(samples, 0, 1000))
    # a host twice as slow takes twice as long for the program and the snippet
    slow = [(2 * s, 2 * d) for s, d in samples]
    assert normalised_ns(slow, 0, 2000, ref_ns=3) == pytest.approx(
        normalised_ns(samples, 0, 1000, ref_ns=3))
    assert normalised_ns([], 0, 1000) == 1000


def test_sampler_takes_samples_and_restores_the_signal():
    sampler = Sampler(period=0.01)
    sampler.start()
    try:
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
