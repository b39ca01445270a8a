"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can take twice as long from one second to
the next, and the slow spells last from seconds to minutes, so raw times
of one workload spread far more between runs than any change to the
program would move them.  Fixed reference work slows down with the host,
and it follows the engine closely only when it runs in the same process,
in turn with the engine's own code: a sampler in another process or thread
does not follow it.

So every measuring process (the worker and each CLI child, through
``cli_child.py``) runs the reference work a few times as it starts and
then from a SIGALRM handler every INTERVAL_S, between the bytecodes of
whatever it is doing, and keeps (start, fault seconds, loop seconds)
samples.  The time spent in the handler is taken out of the operation it
interrupted.  A time is then reported at the reference speed:

    time * nominal / (median of the samples around it)

The reference work has two parts, timed apart: faulting in a fresh
anonymous mapping page by page, and an interpreter loop over small tuples
and dicts.  Which to divide by was measured on a 2-vCPU shared host, over
minutes in which raw times moved by 15-20% between 10-second windows:

* process start-up that imports scattree followed the faults alone within
  about 3-5%, and the loop only within 12%;
* engine operations (analyze, embed, twins) followed either part within
  3-5%, and their sum best: over five runs of one analyze input, the
  spread of op_p50_ms was 0.03 of its median with the sum and 0.05 with
  either part alone (0.15 raw).

So engine operations are scaled by faults plus loop (ENGINE), and child
start-up and whole CLI invocations, which are mostly start-up, by the
faults (STARTUP).  Neither part calls scattree, so no change to the
program moves them.  The nominal times are about their medians on that
host; another host scales every reported time by roughly one factor, and
the raw times stay in the run's record.
"""

from __future__ import annotations

import bisect
import gc
import mmap
import signal
import statistics
import time

FAULT_BYTES = 3 << 19  # 1.5 MiB: 384 pages, below one huge page
NOMINAL_FAULTS_S = 0.0012
NOMINAL_LOOP_S = 0.0013
STARTUP = "startup"  # scale by the faults
ENGINE = "engine"  # scale by faults plus loop
INTERVAL_S = 0.05  # between samples while an operation runs
WINDOW_S = 0.1  # samples this far around a timed span count for it
NEAREST = 4  # samples used when the window holds fewer
STARTUP_SAMPLES = 2  # taken by a child before and after it imports scattree
PAGE = mmap.PAGESIZE


def reference_faults():
    """Map FAULT_BYTES of fresh anonymous memory, touch every page, unmap
    it.  Huge pages are refused so that every page faults."""
    area = mmap.mmap(-1, FAULT_BYTES)
    try:
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            area.madvise(mmap.MADV_NOHUGEPAGE)
        for offset in range(0, FAULT_BYTES, PAGE):
            area[offset] = 1
    finally:
        area.close()


def reference_loop():
    """Fixed interpreter work shaped like the engine's: small recursive
    term-like tuples, memo dicts, isinstance dispatch and string keys."""

    def build(depth, k, memo):
        key = (depth, k % 5)
        if key in memo:
            return memo[key]
        if depth == 0:
            out = ("box",)
        else:
            out = ("sup", tuple(build(depth - 1, k + j, memo) for j in range(3)))
        memo[key] = out
        return out

    def size(t):
        if isinstance(t, tuple) and len(t) > 1:
            return 1 + sum(size(c) for c in t[1])
        return 1

    acc = 0
    for r in range(6):
        memo = {}
        acc += size(build(5, r, memo))
        acc += len(",".join(f"{d}:{k}" for d, k in sorted(memo)))
    return acc


class Sampler:
    """Reference-work samples of one process; `spent` is the total time
    the samples took, to be taken out of the spans they interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.sent = 0

    def sample(self):
        """One timed run of both parts of the reference work.  The cyclic
        collector is held off meanwhile: a collection there would walk the
        interrupted operation's heap and time that instead of the host."""
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            reference_faults()
            middle = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.samples.append((start, middle - start, end - middle))
        except (MemoryError, RecursionError, OSError):  # at the memory cap, or deep in the engine
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.spent += end - start

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self):
        """The samples not handed out before."""
        n = len(self.samples)  # the handler may append while this runs
        out = self.samples[self.sent : n]
        self.sent = n
        return out


def reference(samples, kind):
    """(nominal seconds, measured seconds of each sample) for `kind`."""
    if kind == STARTUP:
        return NOMINAL_FAULTS_S, [faults for _, faults, _ in samples]
    return NOMINAL_FAULTS_S + NOMINAL_LOOP_S, [faults + loop for _, faults, loop in samples]


class Speed:
    """Scales spans on the shared monotonic clock to the reference speed,
    from the samples of every process of a run."""

    def __init__(self, samples, kind):
        ordered = sorted(map(tuple, samples))
        self.at = [t for t, _, _ in ordered]
        self.nominal, self.took = reference(ordered, kind)

    def factor(self, start, end):
        """The nominal time over the median sample within WINDOW_S of the
        span, or of the NEAREST samples to its middle when fewer fall
        there."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(middle - NEAREST // 2, len(self.at) - NEAREST))
            hi = min(len(self.at), lo + NEAREST)
        if hi <= lo:
            raise ValueError("no host-speed samples")
        return self.nominal / statistics.median(self.took[lo:hi])

    def scale(self, seconds, start, end):
        return seconds * self.factor(start, end)


def scale_startup(seconds, samples):
    """A child's start-up at the reference speed, by the samples that
    child took while starting."""
    nominal, took = reference(samples, STARTUP)
    return seconds * nominal / statistics.median(took)
