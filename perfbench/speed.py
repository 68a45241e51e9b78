"""How fast the machine ran while a timed block of the benchmark ran.

The benchmark runs on shared virtual machines whose CPUs slow down by up to
2x, together, for seconds to minutes at a time. A SpeedProbe samples that
speed during the block itself: every `interval` seconds a SIGALRM handler
times a fixed pure-Python loop. `normalised` turns the block's time into
reference seconds, the time the block would have taken had the loop run at
REFERENCE_S throughout, and leaves out the time the handler took.

Only the main thread runs signal handlers, so the samples come from it; in
a thread pool it takes the interpreter lock for the loop's ~0.1 ms, and the
loop's own time is what is recorded. A numpy call delays the next sample
until it returns, so long array operations give fewer samples, not wrong
ones.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 1e-4  # time of one sample loop that defines a reference second


def _loop() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples the machine's speed while a `with` block runs."""

    def __init__(self, interval: float):
        self.interval = interval  # seconds between samples; each takes ~0.1 ms
        self.samples: list[float] = []
        self.overhead_s = 0.0  # time spent in the handler inside the block

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)
        if signum is not None:
            self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that a block shorter than the interval has one

    def sample_s(self) -> float:
        """Median time of the sample loop during the block."""
        # no statistics module: set-up children import this before their timer
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2

    def normalised(self, seconds: float) -> float:
        """`seconds` measured around the block, in reference seconds."""
        return (seconds - self.overhead_s) * REFERENCE_S / self.sample_s()
