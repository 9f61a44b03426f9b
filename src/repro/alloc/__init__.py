"""Allocation substrate: extents, free-space indexes, and policies.

The malloc literature the paper borrows from (Wilson et al.) separates
allocation *mechanisms* (how free space is indexed) from *policies* (which
block a request takes).  This package provides both: an exact, coalescing
:class:`FreeExtentIndex` mechanism (a tiered O(log n) engine), the classic
first/best/worst/next-fit policies, a DTSS-style buddy allocator, and
the NTFS-style run cache the filesystem substrate uses.
"""

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.policy import (
    AllocationPolicy,
    BestFit,
    FirstFit,
    NextFit,
    WorstFit,
    allocate_contiguous,
    allocate_fragmented,
    make_policy,
)
from repro.alloc.buddy import BuddyAllocator
from repro.alloc.runcache import NtfsRunCache

__all__ = [
    "Extent",
    "FreeExtentIndex",
    "AllocationPolicy",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "NextFit",
    "allocate_contiguous",
    "allocate_fragmented",
    "make_policy",
    "BuddyAllocator",
    "NtfsRunCache",
]
