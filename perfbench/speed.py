"""Machine-speed sampling, so task times can be reported at one fixed speed.

The small VMs this benchmark runs on change speed by up to a factor of two,
in phases from a fraction of a second to minutes, and every kind of work
slows alike.  A SpeedSampler times a fixed reference loop from a SIGALRM
handler every INTERVAL_S while the tasks run.  For each task it reports the
task's time net of the handler's own time, and the mean reference-loop time
during the task; the task time times REFERENCE_S over that mean is the time
the task would take at reference speed.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left

INTERVAL_S = 0.025
# reference_loop_s() takes about this long on the 2-core Xeon VM the benchmark
# was written on; times are reported at that speed.
REFERENCE_S = 0.0012


_FACTORS = (3**12000, 7**9000)
_LIMB = 12345678901234567890123


def reference_loop_s() -> float:
    """Seconds for a fixed loop of big-integer allocation and products, ~1.2 ms.

    The mix was picked by timing candidate loops between habiro work units
    (a torus2 expansion, a C sequence, a torus32t verify) for 150 s: as the
    machine's speed changed, this loop's time tracked theirs with log-log
    slope 0.9-1.05 and correlation 0.94.  A loop of small-integer gcds had
    slope 1.7-1.9, so it under-corrected.  The loop shares no state with
    habiro, this module imports nothing habiro needs, and the collector is
    paused while the loop runs.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        [i * _LIMB for i in range(7500)]
        for _ in range(2):
            _FACTORS[0] * _FACTORS[1]
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Samples reference_loop_s() every INTERVAL_S of wall time while entered.

    With a tracer, the handler's time is charged to no layer: the tracer
    subtracts it from the innermost open span.
    """

    def __init__(self, tracer=None):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference s)
        self._tracer = tracer

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        ref = reference_loop_s()
        end = time.perf_counter()
        self.samples.append((start, end, ref))
        if self._tracer is not None:
            self._tracer.exclude(end - start)

    def __enter__(self) -> "SpeedSampler":
        reference_loop_s()  # warm up
        self.samples.append((time.perf_counter(), time.perf_counter(), reference_loop_s()))
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append((time.perf_counter(), time.perf_counter(), reference_loop_s()))

    def figures(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Net seconds and mean reference seconds for each (start, end) span.

        A span too short to hold a sample takes the samples on either side.
        """
        starts = [s for s, _, _ in self.samples]
        net, ref = [], []
        for a, b in spans:
            i, j = bisect_left(starts, a), bisect_left(starts, b)
            inside = self.samples[i:j]
            net.append(b - a - sum(e - s for s, e, _ in inside))
            around = inside or self.samples[max(0, i - 1): i + 1]
            ref.append(sum(r for _, _, r in around) / len(around))
        return net, ref
