"""Host speed probe: a fixed pure-Python loop timed between cells.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over minutes, for every process on them alike.  Host
times of one run are therefore scaled to a fixed reference speed: a
:class:`SpeedProbe` times :func:`reference_loop` between cells throughout
the run, and a host time ``t`` is reported as ``t * scale()``, the time
it would have taken on a host that runs the loop in :data:`REFERENCE_S`
seconds.  The loop does the kinds of work the simulator does and none of
the program's own code, so a change to the program moves the scaled
times by exactly as much as the raw ones.  It has two parts, because
contention slows a small working set more than the simulator and a
large one less, plus the element-wise numpy access of the simulator's
struct-of-arrays kernel: dict counting over bytes and attribute updates
on a few small objects, then inserts and lookups in a dict of 15,000
tuples and a batch of byte strings, then single-element updates and
small reductions on a numpy array.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Seconds one :func:`reference_loop` takes on the reference host (a
#: 2-vCPU Xeon VM in a quiet period).  Any fixed value works; it only
#: sets the unit the scaled times are expressed in.
REFERENCE_S = 0.013

#: Minimum host seconds between two probe samples.
PROBE_EVERY_S = 0.25
#: Samples this many seconds either side of an interval also measure it,
#: so a short interval still has several.
WINDOW_S = 3.0

_DATA = bytes((i * 131 + 7) % 251 for i in range(2048))
_TABLE_SIZE = 1 << 17
#: A fixed permutation of ``range(_TABLE_SIZE)`` (odd multiplier mod 2**17).
_KEYS = [(i * 40503) & (_TABLE_SIZE - 1) for i in range(_TABLE_SIZE)]


class _Slot:
    __slots__ = ("lba", "version")

    def __init__(self, lba: int) -> None:
        self.lba = lba
        self.version = 0


def reference_loop() -> float:
    """Host seconds of one pass of a fixed mixed-work loop."""
    start = time.perf_counter()
    counts = {}
    for byte in _DATA:
        counts[byte] = counts.get(byte, 0) + 1
    slots = {}
    total = 0
    for i in range(5000):
        lba = (i * 2654435761) & 1023
        slot = slots.get(lba)
        if slot is None:
            slot = slots[lba] = _Slot(lba)
        slot.version += 1
        total += slot.version + len(counts)
    table = {}
    for key in _KEYS[:15000]:
        table[key] = (key, key + 1)
    for key in _KEYS[15000:30000]:
        entry = table.get(key ^ 1)
        if entry is not None:
            total += entry[0]
    blobs = [bytes((i & 255,)) * 256 for i in range(1000)]
    total += sum(blob[7] for blob in blobs)
    counters = np.zeros(4096, dtype=np.int64)
    for i in range(18000):
        index = (i * 40503) & 4095
        counters[index] = counters[index] + 1
        if i % 50 == 0:
            total += int(np.argmax(counters[:512]))
    return time.perf_counter() - start


class SpeedProbe:
    """Samples :func:`reference_loop` at most every :data:`PROBE_EVERY_S`."""

    def __init__(self) -> None:
        #: ``(perf_counter at the end of the sample, loop seconds)`` pairs.
        self.samples: List[Tuple[float, float]] = []
        self._next = 0.0

    def sample(self) -> None:
        seconds = reference_loop()
        now = time.perf_counter()
        self.samples.append((now, seconds))
        self._next = now + PROBE_EVERY_S

    def maybe_sample(self) -> None:
        """Take a sample if the last one is old enough; call between cells."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from host seconds to reference-host seconds in [start, end].

        It is measured by the samples taken in the interval or within
        :data:`WINDOW_S` of it.
        """
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.median(near)
