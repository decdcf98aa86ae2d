"""Host-speed rescaling of the benchmark's timings.

On a shared host the speed of the CPU drifts by up to half between
stretches of a few seconds, and such stretches last longer than a run of the
benchmark, so raw medians of two runs of the same code differ by a fifth.
Every timed stretch is therefore bracketed by a fixed pure-Python
reference loop, which slows down with the host but not with any change to
the package, and its time is rescaled to the time it would take while the
loop takes NOMINAL_REFERENCE_S (its usual time on the 2-core host the
benchmark was defined on).  The slower of the loops just before and just
after a stretch is used, because a stretch that straddles a change of speed
is better described by the slower state than by a fast blip.

Standard library only: the set-up probe runs it before importing the package.
"""

import time
from typing import List, Sequence, Tuple

REFERENCE_LOOPS = 20_000
NOMINAL_REFERENCE_S = 0.005


def reference_loop() -> float:
    """Run the reference loop once and return its wall time."""
    start = time.perf_counter()
    table = {}
    x = 0.0
    for i in range(REFERENCE_LOOPS):
        table[i & 255] = (x, i)
        x += (i % 7) * 0.5
    return time.perf_counter() - start


def rescale(seconds: float, reference: float) -> float:
    """A time measured while the loop took ``reference``, at nominal speed."""
    return seconds * NOMINAL_REFERENCE_S / reference


def rescaled(samples: List[Tuple[float, float]]) -> List[float]:
    """Rescale consecutive (loop time before, call time) samples, using the
    next sample's loop as the loop after; the last sample has only its own."""
    refs = [r for r, _ in samples]
    after = refs[1:] + refs[-1:]
    return [rescale(d, max(r, a)) for (r, d), a in zip(samples, after)]


class LoopLog:
    """Reference loops run at chosen points, with their clock intervals."""

    def __init__(self) -> None:
        self.intervals: List[Tuple[float, float]] = []

    def run(self) -> float:
        """Run the reference loop once, log it and return its wall time."""
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.intervals.append((start, end))
        return end - start


def unit_time(loops: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Raw and rescaled time from the end of the first loop to the start of
    the last, leaving out the loops in between.

    Each stretch between two consecutive loops is rescaled by the slower of
    the two, so the more loops a unit runs, the closer the rescaling follows
    the host's changes of speed.
    """
    raw = scaled = 0.0
    for (s0, e0), (s1, e1) in zip(loops, loops[1:]):
        raw += s1 - e0
        scaled += rescale(s1 - e0, max(e0 - s0, e1 - s1))
    return raw, scaled
