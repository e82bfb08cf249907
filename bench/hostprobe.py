"""Host-speed probe: scales the benchmark's timings to one reference speed.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts with the neighbours' load: the same pure-Python loop takes up
to half as long again from one ten-second window to the next, and the
program slows with it. Medians over a run do not remove a drift that lasts
the whole run. So the benchmark times a fixed piece of work, the probe,
every ``period_s`` while the program runs, and scales each timed step by
``REFERENCE_S / probe time`` around it: what the step would have taken on
a host where the probe takes ``REFERENCE_S``.

The probe runs from a SIGALRM handler, so in the main thread between two
bytecodes of the program, and its own time is taken out of the step it
interrupted. Its first round is not timed: it brings the probe's data back
into the caches the program just used, so the timed rounds measure the
host, not how much the program evicted.

The probe uses only the standard library and numpy, never querystance, so
a change to the program moves the scaled time of a step as it moves its
wall time. Its work resembles the program's: regular-expression tokens
counted in a dict, small objects allocated, and numpy passes over an
array. That array is kept to 1 MB, and the probe's other objects are freed
after each probe, because the probe's memory counts in the process's peak
RSS.
"""

from __future__ import annotations

import random
import re
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Probe time, in s, on the host the benchmark's bounds were set on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2 on one BLAS thread).
REFERENCE_S = 0.02
ROUNDS = 5
TOKEN = re.compile(r"[a-z]+")

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 9)))
          for _ in range(3000)]
_TEXT = [" ".join(_rng.choice(_WORDS) for _ in range(20)) for _ in range(160)]
_ARRAY = np.random.default_rng(0).random((250, 500))


def _work() -> int:
    counts: dict[str, int] = {}
    for line in _TEXT:
        for word in TOKEN.findall(line):
            word = word[:-2] if word.endswith("ed") else word
            counts[word] = counts.get(word, 0) + 1
    rows = [{"word": w, "n": n, "pair": (n, len(w))} for w, n in counts.items()] * 2
    total = 0.0
    for _ in range(4):
        total += float((_ARRAY * _ARRAY).sum(axis=1).sum()) + _ARRAY.T.copy()[0, 0]
    return len(rows) + int(total > 0)


class HostClock:
    """Probes taken every ``period_s`` of wall time while entered, and on demand.

    With ``period_s`` 0 there is no timer: only the probes the caller takes,
    for example between the program's steps. The traced run uses that, so
    that no probe lands inside a span.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.starts: list[float] = []  # probe intervals, taken out of the steps
        self.ends: list[float] = []
        self.times: list[float] = []  # the timed rounds of each probe
        self._busy = False
        self._previous = None

    def __enter__(self) -> HostClock:
        self.probe()
        if self.period_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def probe(self) -> None:
        """Time the probe once now; the timer's probe is skipped if it lands inside."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _work()
            t0 = time.perf_counter()
            for _ in range(ROUNDS):
                _work()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.times.append(end - t0)
        finally:
            self._busy = False

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """The step timed from ``start`` to ``end``: (time at the reference speed, wall time).

        Both leave out the probes inside the step. The host's speed is the
        mean probe time over those probes and the nearest one on each side.
        Take a probe after the last step before calling this.
        """
        first, last = bisect_left(self.starts, start), bisect_right(self.ends, end)
        wall = end - start - sum(self.ends[i] - self.starts[i] for i in range(first, last))
        near = range(max(first - 1, 0), min(last + 1, len(self.starts)))
        speed = statistics.fmean(self.times[i] for i in near)
        return wall * REFERENCE_S / speed, wall
