"""CPU time, rescaled by the host speed sampled while the jobs run.

The baseline machine is a 2-vCPU share of a larger host.  Its wall times
swing by a quarter or more over seconds to minutes: while other tenants
are busy, the vCPUs are descheduled (which wall time counts and CPU time
does not), and the CPU time of a fixed task drifts as well (shared cores,
caches and clock speed), by up to a fifth within a few seconds.  The
benchmark therefore times a job by the CPU time of its process and of the
children it waited for, and rescales it by the CPU time of a fixed
pure-Python reference loop that the same thread runs while the job runs::

    scaled = cpu_seconds * REF_S / mean(samples during the job)

A CPU-time timer (``ITIMER_PROF``) interrupts the process every
``EVERY_S`` of CPU time, and its handler times one run of the loop.  Its
own CPU time is taken out of the job's.  A job with fewer than ``NEAREST``
samples during it uses the ``NEAREST`` samples nearest to its midpoint.
``scaled`` is the job's CPU time at the speed at which the loop takes
``REF_S`` (its median on the baseline machine), so a change to the package
moves it and a drift of host speed mostly cancels.  The loop stays in L1,
so what the job left in the caches does not change its time.  Timers are
not inherited across fork, so pool workers are not sampled; their CPU
time is rescaled by the samples the waiting parent takes, which are few.
The raw wall and CPU times and the samples are reported per layer
(``raw.*``, ``host.ref_s``).
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import time

# Median reference sample (CPU seconds) on the baseline machine, a 2-vCPU Xeon.
REF_S = 0.00085
# CPU time between samples, and the samples a job is scaled by at least.
EVERY_S = 0.05
NEAREST = 4


def sample() -> float:
    """CPU time of one run of the reference loop, in seconds."""
    t0 = time.thread_time()
    s = 0
    for i in range(10000):
        s += i * i
    return time.thread_time() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


class Sampler:
    """Reference samples taken on a CPU-time timer, for ``with`` blocks.

    ``spent`` is the CPU time the samples took, to be taken out of the
    jobs' CPU time.
    """

    def __init__(self):
        self.times, self.values, self.spent = [], [], 0.0

    def take(self, n: int = 1):
        for _ in range(n):
            c0 = time.thread_time()
            self.values.append(sample())
            self.times.append(time.perf_counter())
            self.spent += time.thread_time() - c0

    def __enter__(self):
        self.take(NEAREST)
        self._handler = signal.signal(signal.SIGPROF, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._handler)
        self.take(NEAREST)

    def around(self, t0: float, t1: float) -> float:
        """Mean sample during ``[t0, t1]``, or of the ``NEAREST`` samples
        nearest to its midpoint if fewer were taken during it."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if hi - lo < NEAREST:
            mid = (t0 + t1) / 2
            lo = max(0, min(bisect.bisect_left(self.times, mid) - NEAREST // 2,
                            len(self.times) - NEAREST))
            hi = lo + NEAREST
        return statistics.mean(self.values[lo:hi])


def scale(cpu_s: float, ref_s: float) -> float:
    return cpu_s * REF_S / ref_s


def measure(fn):
    """Run ``fn()``; return its result and its scaled CPU time."""
    with Sampler() as clock:
        t0, c0, s0 = time.perf_counter(), cpu_seconds(), clock.spent
        out = fn()
        cpu = cpu_seconds() - c0 - (clock.spent - s0)
        t1 = time.perf_counter()
    return out, scale(cpu, clock.around(t0, t1))
