"""Host-speed sampling, to report host times at a fixed reference speed.

The machines this benchmark runs on share physical cores with other
tenants.  Their speed can halve for minutes at a time, and CPU time
inflates with wall time, because the virtual CPU itself runs slower.
While a batch runs, one :class:`SpeedSampler` thread per CPU that the
batch may use times :func:`speed_kernel` every ``PERIOD_S`` seconds,
with the thread's own CPU clock.  Each thread is pinned to its CPU.
:func:`speed_factor` turns the samples into the ratio by which measured
seconds are scaled to reference seconds:

    reference seconds = measured seconds × REFERENCE_KERNEL_S / mean kernel time

The kernel imports nothing from the simulator, so a change to the
simulator cannot move it: a simulator that gets faster shows up in full
in the scaled numbers.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Kernel time that defines reference speed: about what ``speed_kernel``
#: takes on an uncontended core of the 2-vCPU Xeon VM the bounds were
#: set on.
REFERENCE_KERNEL_S = 0.002
PERIOD_S = 0.2


class _Slot:
    __slots__ = ("tag", "ready", "age")

    def __init__(self, tag: int) -> None:
        self.tag, self.ready, self.age = tag, False, 0


def speed_kernel(n: int = 8000) -> int:
    """Fixed interpreter-bound work on objects, dicts and lists."""
    slots = [_Slot(i) for i in range(64)]
    table: dict[int, _Slot] = {}
    queue: list[_Slot] = []
    acc = 0
    for i in range(n):
        s = slots[(i * 7) & 63]
        s.age += 1
        s.ready = not s.ready
        table[s.tag ^ (i & 255)] = s
        queue.append(s)
        if len(queue) > 16:
            acc += queue.pop(0).age
        acc ^= table.get(i & 511, s).tag
    return acc


class SpeedSampler(threading.Thread):
    """Times :func:`speed_kernel` on one CPU until stopped."""

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while True:
            start = time.thread_time()
            speed_kernel()
            self.samples.append(time.thread_time() - start)
            if self._stop_event.wait(PERIOD_S):
                return

    def stop(self) -> list[float]:
        self._stop_event.set()
        self.join()
        return self.samples


def speed_factor(samples: list[float]) -> float:
    """Measured-to-reference seconds ratio for one batch's samples."""
    return REFERENCE_KERNEL_S / statistics.mean(samples)
