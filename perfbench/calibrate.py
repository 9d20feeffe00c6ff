"""Host-speed calibration: a fixed snippet timed at regular intervals.

The shared VM this benchmark runs on changes speed by itself, by up to about
1.7x over tens of seconds, and the program's own time follows it.  To take
that out of the reported figures, every untraced run times a fixed snippet
from a ``SIGALRM`` handler every ``PERIOD_S`` seconds while the program runs.
The snippet mixes the kinds of work the program does: interpreted Python and
C-accelerated calls (a JSON round trip and a keyed sort), and a loop of
random draws and numpy operations on small arrays.  Of the snippets tried,
this mix tracked the program's own speed best across the workloads.  A
phase's *normalised* time integrates the program time between samples, each
stretch scaled by ``REF_NS / (the calibration time of the sample that ends
it)``.  It reads as the time the phase would take on a host where the
snippet takes ``REF_NS``, so the program's own speed changes show in full
while the host's cancel out.

The snippet does not depend on dosp, so a change to the program never
changes the yardstick.  Its own time is taken out of every raw figure.
"""

from __future__ import annotations

import json
import random
import signal
import time

PERIOD_S = 0.1
# calibration time of one sample on the 2-vCPU VM the benchmark was defined
# on, in a typical period; normalised times are scaled to this speed
REF_NS = 3_000_000
# samples either side in the running median that sets the speed of a stretch
SMOOTH = 2


class Snippet:
    """The fixed calibration work; its inputs are built once."""

    def __init__(self):
        import numpy as np

        rng = random.Random(20210419)
        self.records = [{"a": rng.random(), "b": [rng.random() for _ in range(5)],
                         "c": "x" * rng.randrange(20)} for _ in range(100)]
        self.np = np
        self.rng = np.random.default_rng(0)
        self.x = np.linspace(-2.0, 2.0, 1000).reshape(20, 50)

    def __call__(self) -> None:
        json.loads(json.dumps(self.records))
        sorted(self.records, key=lambda r: r["a"])
        np, x, rng = self.np, self.x, self.rng
        for _ in range(40):
            y = np.clip(x * 0.5 + rng.standard_normal(x.shape), -1.0, 1.0)
            y.sum(axis=1)


class Sampler:
    """Runs the snippet every ``period`` seconds; keeps (start_ns, ns) pairs."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[int, int]] = []
        self.snippet = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.snippet()
        self.samples.append((start, time.perf_counter_ns() - start))

    def start(self) -> None:
        self.snippet = Snippet()
        self.snippet()  # warm the snippet's code paths before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def program_ns(samples, begin: int, end: int) -> int:
    """Time in ``[begin, end)`` not spent in calibration samples."""
    inside = sum(min(s + d, end) - max(s, begin) for s, d in samples
                 if s < end and s + d > begin)
    return end - begin - inside


def speeds(samples, half_width: int = SMOOTH) -> list[float]:
    """Running median of the sample times, ``half_width`` samples either side.

    A single sample is noisy (it may catch an interrupt or a cold cache);
    the running median keeps changes that last a second or more.
    """
    durations = [d for _, d in samples]
    out = []
    for i in range(len(durations)):
        window = sorted(durations[max(0, i - half_width):i + half_width + 1])
        out.append(window[len(window) // 2])
    return out


def normalised_ns(samples, begin: int, end: int, ref_ns: int = REF_NS,
                  half_width: int = SMOOTH) -> float:
    """Program time in ``[begin, end)`` scaled to the reference host speed.

    Each stretch of program time is scaled by the (smoothed) time of the
    sample that follows it; the stretch after the last sample uses the last
    one.  With no samples the raw program time is returned.
    """
    if not samples:
        return float(end - begin)
    scale = [ref_ns / d for d in speeds(samples, half_width)]
    total = 0.0
    cursor = begin
    for (s, d), k in zip(samples, scale):
        if s + d <= begin:
            continue
        if cursor >= end:
            break
        stretch = min(s, end) - cursor
        if stretch > 0:
            total += stretch * k
        cursor = max(cursor, s + d)
    if cursor < end:
        total += (end - cursor) * scale[-1]
    return total
