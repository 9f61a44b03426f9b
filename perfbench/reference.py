"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host runs other work too, and its speed for pure-Python
code drifts by tens of percent over minutes.  ``run.py`` times this
kernel before and after every iteration and scales the iteration's host
times by ``NOMINAL_S / kernel seconds``, which reports them in seconds
of a host on which the kernel takes :data:`NOMINAL_S`.  A change to the
simulator moves the scaled times; a change in the host's speed moves
the kernel as well and cancels out.

The kernel does the kind of work the simulator does, over a working set
of the same order (tens of MB): it allocates and replaces small slotted
objects, looks them up by string key and bisects a sorted list.  A
cache-resident kernel tracked the simulator's speed poorly (its timing
moved about 2.5 times as much as the workload's), so the working set
matters.  The kernel runs in ``run.py``'s own process, so it does not
touch the iterations' memory figures.  It must never change: a
different kernel rescales every host time.
"""

from __future__ import annotations

import time
from bisect import bisect_left

#: Kernel seconds on the host the bounds were set on (a 2-core VM,
#: Python 3.11.7), rounded from the median of 40 timings.
NOMINAL_S = 0.50

_OBJECTS = 60_000
_ROUNDS = 120_000


class _Record:
    __slots__ = ("key", "size", "version", "extents")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.version = 1
        self.extents = [(size, key)]


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    records: dict[str, _Record] = {}
    offsets: list[int] = []
    for i in range(_OBJECTS):
        records[f"object-{i}"] = _Record(i, (i * 2654435761) % 262144)
        offsets.append((i * 7919) % 1_000_003)
    offsets.sort()
    keys = list(records)
    acc = 0
    for j in range(_ROUNDS):
        key = keys[(j * 48271) % _OBJECTS]
        record = records[key]
        if j & 3 == 0:
            records[key] = _Record(record.key, (record.size + j) & 0x3FFFF)
        else:
            record.version += 1
            acc += record.extents[0][0]
        acc += bisect_left(offsets, (j * 69621) % 1_000_003)
    return acc


def timed() -> float:
    """Seconds one run of :func:`kernel` takes right now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


if __name__ == "__main__":
    import statistics

    times = [timed() for _ in range(40)]
    print(f"median {statistics.median(times):.4f} s  "
          f"min {min(times):.4f}  max {max(times):.4f}")
