"""Host-speed probe for the end-to-end timings.

The benchmark runs on a few virtual CPUs of a shared host.  Each of
them flips, every few seconds, between running alone on its core and
sharing it with a neighbour, which makes it up to half again as slow,
so a paper-size campaign takes 20 % longer or shorter from one minute
to the next.  A run that takes a few paper-size samples cannot average
that away.  Every timing is therefore reported in *reference seconds*:
the measured time scaled by how fast the host's CPUs ran while it was
measured::

    reference = measured * (NOMINAL_UNIT_S / mean unit CPU time) ** SENSITIVITY

with the mean taken over the probe samples in the measured window.

While a timed run measures, a :class:`SpeedProbe` thread of the
benchmark process wakes every ``PERIOD_S``, moves itself to each usable
CPU in turn and times one unit of fixed pure-Python work there by its
own thread CPU time (so time spent waiting for the CPU is not counted,
but a slow, shared core is).  The mean weights each sample by how busy
its CPU was since the last wake-up, so the CPUs the program ran on set
the scale, not the idle one.  The unit uses nothing from ``src/``, so a
change to the program moves the reported figures and a change of host
speed does not.  It costs the program about 1 % of each CPU.  The
measured values and the scale are written with every result.
"""

from __future__ import annotations

import os
import threading
import time

#: seconds between probes
PERIOD_S = 0.1
#: a unit's CPU time on the reference host: the scale of reported figures
NOMINAL_UNIT_S = 0.0008
#: how much more a campaign's time moves than the unit's when the host
#: speeds up or slows down: the slope of log(campaign wall) on
#: log(mean unit time), fitted on a 2-vCPU Xeon VM over 8 cold and 8
#: warm paper-size campaigns each (1.17 cold, 1.20 warm)
SENSITIVITY = 1.2
#: a window with fewer probe samples is scaled by the whole run's
MIN_SAMPLES = 8


def _unit() -> int:
    """A fixed amount of interpreter work; returns a checksum so none
    of it is optimized away."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(2500):
        acc = (acc * 31 + i * i) & 0xFFFFFFFF
        table[acc & 255] = i
    return acc ^ len(table)


def busy_ticks() -> dict[int, int]:
    """Clock ticks each CPU has spent running tasks or interrupts."""
    ticks = {}
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith("cpu") and line[3].isdigit():
                name, *fields = line.split()
                user, nice, system, _, _, irq, softirq = \
                    (int(v) for v in fields[:7])
                ticks[int(name[3:])] = user + nice + system + irq + softirq
    return ticks


def weighted_trimmed_mean(pairs: list[tuple[float, float]],
                          cut: float = 0.05) -> float:
    """Mean of the values of ``(value, weight)`` pairs, weighted, after
    dropping the lowest and highest ``cut`` of the values; unweighted
    when every kept weight is 0."""
    ordered = sorted(pairs)
    k = int(len(ordered) * cut)
    kept = ordered[k:len(ordered) - k]
    weight = sum(w for _, w in kept)
    if weight == 0:
        return sum(v for v, _ in kept) / len(kept)
    return sum(v * w for v, w in kept) / weight


class SpeedProbe:
    """Background sampler of the CPUs' speed; a context manager."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        #: ``(clock time, cpu, unit CPU seconds, busy ticks of the cpu
        #: since the previous wake-up)``
        self.samples: list[tuple[float, int, float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="speed-probe")

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        # pid 0 names the calling thread: only the probe moves, and
        # processes started from other threads keep every CPU
        cpus = sorted(os.sched_getaffinity(0))
        last = busy_ticks()
        while not self._stop.wait(self.period):
            now = busy_ticks()
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                at = time.perf_counter()
                start = time.thread_time()
                _unit()
                self.samples.append((at, cpu, time.thread_time() - start,
                                     now[cpu] - last[cpu]))
            last = now

    def scale(self, start: float | None = None,
              end: float | None = None) -> float:
        """Factor that turns seconds measured between clock times
        ``start`` and ``end`` (default: the whole run) into reference
        seconds."""
        units = [(u, busy) for at, _, u, busy in self.samples
                 if (start is None or at >= start)
                 and (end is None or at <= end)]
        if len(units) < MIN_SAMPLES:
            units = [(u, busy) for _, _, u, busy in self.samples]
        if not units:
            raise RuntimeError("no host-speed samples")
        return (NOMINAL_UNIT_S / weighted_trimmed_mean(units)) \
            ** SENSITIVITY
