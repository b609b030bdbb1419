"""Scale measured CPU-time intervals to a fixed machine speed.

The shared host this benchmark runs on changes speed under it: the same
code runs up to 2x slower, in CPU time as in wall time, for stretches
of a fraction of a second to a minute, whatever this process does.  A
:class:`Timeline` therefore times a fixed calibration kernel every
:data:`TICK_EVERY_S`, from a timer signal, so also in the middle of a
long program call, and converts each measured interval to *nominal*
seconds: every stretch between two kernel runs counts ``NOMINAL_S / k``
seconds per second, where ``k`` is the median kernel time within
:data:`WINDOW_S` of the stretch.  Kernel runs themselves count zero, so
an interval that spans one is not charged for it.

The kernel is the benchmark's own code and never calls ``repro``, so a
change to the program cannot move it; only the machine can.
"""

from __future__ import annotations

import signal
import statistics
import struct
import time
import zlib
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: Every interval the benchmark reports is measured on this clock: the
#: process's CPU time, so time the host gives other tenants is not
#: charged to the program (it neither sleeps nor waits on real I/O).
clock = time.process_time

#: The kernel's time at the speed the reported seconds refer to: about
#: what it takes on an unloaded core of the 2-core Xeon container the
#: benchmark was tuned on.
NOMINAL_S = 0.00005
#: Real time between two timer-driven kernel runs (they cost 2-4%).  The
#: host's slow spells can last a few milliseconds, so the kernel runs
#: often and short, and only the runs next to a stretch set its speed.
TICK_EVERY_S = 0.002
#: Kernel runs this close to a stretch set its speed.
WINDOW_S = 0.004

_PACK = struct.Struct("<QQ")


class _Slot:
    __slots__ = ("key", "lsn", "image")

    def __init__(self, key: int) -> None:
        self.key = key
        self.lsn = 0
        self.image = bytearray(64)


def kernel() -> int:
    """Fixed work shaped like the program's: attribute and dict access,
    small byte copies, packing and checksums, list upkeep."""
    slots = {}
    order: List[int] = []
    crc = 0
    key = 1
    for lsn in range(40):
        key = (key * 1103515245 + 12345) & 0x3FF
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot(key)
            order.append(key)
        slot.lsn = lsn
        _PACK.pack_into(slot.image, lsn & 0x1F, lsn, key)
        crc = zlib.crc32(memoryview(slot.image)[8:40], crc)
        if len(order) > 16:
            order.sort()
            del order[:8]
    return crc


class Timeline:
    """Kernel runs over one run, and the conversion they imply."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._busy = False
        self._frozen: Tuple = ()
        self._deferring = False
        self._due = False

    def tick(self) -> None:
        """Run and time the kernel once; a round calls it around every
        interval it measures, so each lies between two kernel runs."""
        if self._busy:
            return
        self._busy = True
        start = clock()
        kernel()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._deferring:
            self._due = True
        else:
            self.tick()

    @contextmanager
    def deferred(self) -> Iterator[None]:
        """While traffic runs, the timer only marks a kernel run due and
        :meth:`poll` runs it between transactions: a kernel run inside
        a short transaction would leave its cache misses in the tail."""
        self._deferring = True
        try:
            yield
        finally:
            self._deferring = False
            self.poll()

    def poll(self) -> None:
        """Run the kernel if the timer marked it due."""
        if self._due:
            self._due = False
            self.tick()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Also tick every :data:`TICK_EVERY_S` of real time."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _freeze(self) -> None:
        # The timer may add kernel runs meanwhile; convert a snapshot.
        n = min(len(self.starts), len(self.ends))
        starts, ends = self.starts[:n], self.ends[:n]
        if n < 2:
            raise ValueError("a timeline needs at least two kernel runs")
        took = [e - s for s, e in zip(starts, ends)]
        cum, rates = [0.0], []
        for i in range(n - 1):
            lo = bisect_left(starts, ends[i] - WINDOW_S)
            hi = bisect_right(starts, starts[i + 1] + WINDOW_S)
            rate = NOMINAL_S / statistics.median(took[lo:hi])
            rates.append(rate)
            cum.append(cum[-1] + (starts[i + 1] - ends[i]) * rate)
        self._frozen = (starts, ends, cum, rates)

    def at(self, t: float) -> float:
        """Nominal seconds from the first kernel run's end to ``t``."""
        if not self._frozen or t > self._frozen[0][-1]:
            self._freeze()
        starts, ends, cum, rates = self._frozen
        if not ends[0] <= t <= starts[-1]:
            raise ValueError("time lies outside the timeline's kernel runs")
        i = min(bisect_right(ends, t) - 1, len(rates) - 1)
        return cum[i] + (min(t, starts[i + 1]) - ends[i]) * rates[i]

    def span(self, a: float, b: float) -> float:
        """Nominal seconds from clock time ``a`` to clock time ``b``."""
        return self.at(b) - self.at(a)

    def speed(self) -> float:
        """Median kernel time over nominal: 1.0 at nominal speed, 2.0
        when the machine ran half as fast."""
        return statistics.median(
            e - s for s, e in zip(self.starts, self.ends)) / NOMINAL_S
