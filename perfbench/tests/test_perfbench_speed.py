"""Speed sampling: the reference-seconds arithmetic and the timer's lifetime.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402


def test_reference_seconds_drop_kernel_time_and_scale_by_speed():
    sampler = speed.Sampler()
    sampler.samples = [2 * speed.KERNEL_REF_S] * 4  # the machine ran at half speed
    assert sampler.at_reference(1.0) == pytest.approx((1.0 - 8 * speed.KERNEL_REF_S) / 2)


def test_bracketed_time_scales_by_the_mean_of_the_two_readings():
    ref = speed.KERNEL_REF_S
    assert speed.bracketed_at_reference(1.0, 1.5 * ref, 2.5 * ref) == pytest.approx(0.5)


def test_without_samples_the_wall_time_is_kept():
    assert speed.Sampler().at_reference(0.01) == 0.01


def test_sampler_samples_while_active_and_then_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 3.5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert all(s > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
