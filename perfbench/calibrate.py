"""Host-speed sampling: a fixed reference kernel timed during the measured work.

The benchmark runs on a few cores of a shared host whose speed per
instruction drifts, in phases of seconds to minutes, by up to a factor of
two. A phase slows every timing of a run alike, so it shows as spread
between runs that no median over one run removes. So while work is timed,
a SIGALRM handler runs a fixed pure-Python kernel every INTERVAL_S and
records the kernel's thread-CPU time. The work's seconds are then reported
scaled by REF_S / (the mean kernel time during the work): in reference
seconds, the seconds the work takes when the host runs the kernel in REF_S.
The handler's own time is taken out of the work's seconds first.

The kernel calls no numpy or BLAS and runs in the main thread, so nothing
qnl does to its threads or to BLAS changes it, and thread-CPU time does not
count the time a thread waits for a core or for the GIL. A signal handler,
not a thread, takes the samples: the benchmark starts no threads of its own.
Python runs the handler between bytecodes, so a sample may be late while a
long numpy call runs.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

# about the kernel thread-CPU time in a quiet phase on the 2-core Xeon VM
# (2.1 GHz, python 3.11.7) where the baseline was taken
REF_S = 0.0011
INTERVAL_S = 0.1


def kernel() -> int:
    acc = 0
    for i in range(15_000):
        acc += (i * i) % 7
    return acc


class HostSpeed:
    """Samples the kernel every `interval` wall seconds inside `with`;
    an interval of 0 takes no samples."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0
        self._old = None

    def _handler(self, signum, frame) -> None:
        t, c = perf_counter(), thread_time()
        kernel()
        k = thread_time() - c
        self.samples.append(k)
        self.handler_cpu_s += k
        self.handler_wall_s += perf_counter() - t

    def __enter__(self) -> HostSpeed:
        self._old = signal.signal(signal.SIGALRM, self._handler)
        # restart interrupted system calls instead of failing them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mean_kernel_s(self) -> float | None:
        return sum(self.samples) / len(self.samples) if self.samples else None


def to_reference(seconds: float, kernel_s: float) -> float:
    """Measured seconds to reference seconds, given the mean kernel time."""
    return seconds * REF_S / kernel_s
