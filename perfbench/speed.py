"""Host speed, sampled beside the program, so times can be given at one speed.

On the reference host (README) the same pure-Python work runs up to 1.5
times slower in some phases than in others, in phases of seconds to
minutes.  Raw wall times then measure the phase more than the program.  A
fixed calibration loop (`probe`: pure-Python small- and big-integer
arithmetic, strings and a dict, like the program's) is timed next to the
program; an operation's time at reference speed is its wall time times
REFERENCE_S / (the loop's time around it).  A slower program still reads
slower: the loop is the benchmark's own code and does not change with the
program.

`Sampler` times the loop every INTERVAL seconds from a SIGALRM handler, so
it also samples the speed inside a long operation.  The time the handler
takes is counted in `spent`, and the timing code subtracts it.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

INTERVAL = 0.05
# How far around an operation samples are taken for its speed, in seconds.
WINDOW = 0.5
# The loop's typical time on the reference host (README).  Any fixed value
# would do; this one keeps the reported times close to that host's wall
# times.
REFERENCE_S = 0.0005


def probe() -> int:
    acc, big = 0, 1
    for i in range(900):
        acc += (i * i) % 7
        big = big * 3 + i
    table = {}
    for i in range(240):
        table[str(i)] = [i, f"{i}:{acc}"]
    return len(table) + (big & 0xFF)


class Sampler:
    def __init__(self):
        self.at = array("d")    # perf_counter() at each sample
        self.took = array("d")  # the loop's time at each sample
        self.spent = 0.0        # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the loop's time, averaged over the samples from
        WINDOW before `start` to WINDOW after `end`."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if lo == hi:  # no sample in the window: take the nearest one
            if lo == len(self.at) or (
                    lo > 0 and start - self.at[lo - 1] < self.at[lo] - end):
                lo -= 1
            hi = lo + 1
        took = self.took[lo:hi]
        return sum(REFERENCE_S / t for t in took) / len(took)
