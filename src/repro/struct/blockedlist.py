"""Blocked two-level sorted list with pluggable per-block augmentation.

This is the one ordered-collection primitive behind the repo's hot
indexes: the free-space engine's address tier (augmented with the max
run length per block), its power-of-two size buckets, and the block
device's sparse segment store.  Before extraction each of those
hand-rolled the same machinery; they now share :class:`BlockedList`.

Layout
------
Keys live in a list of **blocks** (each a sorted Python list) plus a
parallel **directory** of block minima.  A lookup bisects the
directory, then bisects one block; a mutation pays the directory
bisect plus an O(block) ``memmove`` inside one block.  With blocks
bounded by the load factor this makes every operation
O(log n + load) ≈ O(√n) worst case instead of the flat list's O(n)
memmove — the difference between 10^3 and 10^6 keys being practical.

Invariants (checked by :meth:`BlockedList.check`)
-------------------------------------------------
* Every block is non-empty and sorted; concatenating blocks in
  directory order yields the sorted key sequence.
* ``mins[i] == blocks[i][0]`` for every block.
* Block size stays in ``[1, 2 * load)``: a block reaching
  ``2 * load`` keys splits in half (directory insert, O(#blocks));
  a block emptied by removal is deleted.  Blocks are never rebalanced
  by merging — adjacent small blocks are allowed, matching the
  original freelist behaviour exactly (parity tests depend on it).
* When augmented, ``sums[i]`` equals ``augment.summarize(blocks[i])``
  or is stale (``None``).

Augmentation contract
---------------------
An augmentation maintains one summary value per block, incrementally
where possible:

* ``summarize(block)`` — full O(block) recompute of a non-empty
  block.
* ``add(summary, weight)`` — summary after a key of ``weight`` joins
  the block.  It always succeeds on a fresh summary and returns a
  stale (``None``) one unchanged.
* ``discard(summary, weight)`` — summary after a key of ``weight``
  leaves, or ``None`` when only a rescan could tell; a stale summary
  also stays stale.

The list never rescans on mutation: a ``None`` from ``discard`` (and
a block split) just marks the block's summary stale.  Readers call
:meth:`BlockedList.summary`, which rescans a stale block once and
caches the result, so a block is rescanned at most once per read
rather than once per mutation — and a workload that never reads
summaries never rescans.  Pickling refreshes every stale summary
first, so the pickled form never depends on which ones were stale.

Weights are supplied by the caller on every mutation (so the caller
can mutate its weight source first), while rescans pull weights
through the augmentation's own ``weight(key)`` callable — the caller
must keep that source consistent with the list whenever a summary is
read.
:class:`MaxWeightAugmentation` tracks ``(max weight, count attaining
it)``, which is what lets the free-space index's ``first_fit`` skip
whole blocks that cannot satisfy a request.

Complexity of the public methods (n keys, b = #blocks ≈ n / load)
-----------------------------------------------------------------
``insert`` / ``remove`` / ``replace``: O(log n + load), plus O(b) on
the rare split or block deletion.  ``summary``: O(1) when fresh,
O(load) to rescan a stale block.  ``pred_le`` / ``pred_lt`` /
``succ_gt`` / ``first_ge``: O(log n).  ``first`` / ``last`` /
``__len__``: O(1).  Iteration: O(n); ``iter_from``: O(log n) to seek
plus O(1) per key yielded.  Mutating the list during iteration is
undefined.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterator
from typing import Any, TypeAlias, cast

from repro.errors import CorruptionError

#: Default target block size.  Blocks split when they reach twice
#: this.  Trades the O(load) in-block memmove per mutation against the
#: O(n / load) directory; ~256 is near the optimum across 10^3..10^6
#: keys (measured by ``benchmarks/bench_alloc_micro.py``).
DEFAULT_LOAD = 256

#: A block summary: ``(max weight, count attaining it)``, or ``None``
#: when stale.
Summary: TypeAlias = tuple[int, int] | None


class MaxWeightAugmentation:
    """Per-block ``(max weight, count attaining it)`` summary.

    The count lets a removal decrement instead of going stale when
    several keys tie for the maximum; only removing the last maximal
    key leaves the summary stale.  Weights must be positive so the
    empty summary ``(0, 0)`` never collides with a real one.
    """

    __slots__ = ("weight",)

    def __init__(self, weight: Callable[[Any], int]) -> None:
        #: Maps a key to its current weight; used only by rescans.
        self.weight = weight

    def summarize(self, block: list[Any]) -> tuple[int, int]:
        ws: list[int] = list(map(self.weight, block))
        mx = max(ws)
        return mx, ws.count(mx)

    def add(self, summary: Summary, weight: int) -> Summary:
        if summary is None:
            return None
        mx, cnt = summary
        if weight > mx:
            return weight, 1
        if weight == mx:
            return mx, cnt + 1
        return summary

    def discard(self, summary: Summary, weight: int) -> Summary:
        if summary is None:
            return None
        mx, cnt = summary
        if weight == mx:
            if cnt == 1:
                return None
            return mx, cnt - 1
        return summary


class BlockedList:
    """Sorted collection of unique, mutually comparable keys.

    ``blocks``, ``mins``, and ``sums`` are exposed read-only so
    callers can run pruned scans over the directory (the free-space
    index's ``first_fit`` skips blocks whose max-weight summary cannot
    satisfy a request).  A ``sums`` entry may be stale (``None``);
    :meth:`summary` refreshes it.  Mutate only through the methods.
    """

    __slots__ = ("load", "blocks", "mins", "sums", "augment", "_n")

    def __init__(self, *, load: int = DEFAULT_LOAD,
                 augment: MaxWeightAugmentation | None = None) -> None:
        if load < 2:
            raise CorruptionError("load factor must be at least 2")
        self.load = load
        self.blocks: list[list[Any]] = []
        self.mins: list[Any] = []
        self.sums: list[Summary] = []
        self.augment = augment
        self._n = 0

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, weight: int | None = None) -> None:
        """Add ``key`` (must not be present); O(log n + load)."""
        blocks = self.blocks
        mins = self.mins
        augment = self.augment
        self._n += 1
        if not blocks:
            blocks.append([key])
            mins.append(key)
            if augment is not None:
                self.sums.append(augment.add((0, 0), cast(int, weight)))
            return
        bi = bisect_right(mins, key) - 1
        if bi < 0:
            bi = 0
        block = blocks[bi]
        insort(block, key)
        if block[0] != mins[bi]:
            mins[bi] = block[0]
        if augment is not None:
            self.sums[bi] = augment.add(self.sums[bi], cast(int, weight))
        if len(block) >= 2 * self.load:
            self._split(bi)

    def _split(self, bi: int) -> None:
        block = self.blocks[bi]
        half = len(block) // 2
        right = block[half:]
        del block[half:]
        self.blocks.insert(bi + 1, right)
        self.mins.insert(bi + 1, right[0])
        if self.augment is not None:
            self.sums[bi] = None
            self.sums.insert(bi + 1, None)

    def remove(self, key: Any, weight: int | None = None) -> bool:
        """Drop ``key``; False when it was not present."""
        mins = self.mins
        bi = bisect_right(mins, key) - 1
        if bi < 0:
            return False
        block = self.blocks[bi]
        pos = bisect_left(block, key)
        if pos >= len(block) or block[pos] != key:
            return False
        del block[pos]
        self._n -= 1
        if not block:
            del self.blocks[bi]
            del mins[bi]
            if self.augment is not None:
                del self.sums[bi]
            return True
        if pos == 0:
            mins[bi] = block[0]
        augment = self.augment
        if augment is not None:
            self.sums[bi] = augment.discard(self.sums[bi], cast(int, weight))
        return True

    def replace(self, old: Any, new: Any, *, old_weight: int | None = None,
                new_weight: int | None = None) -> None:
        """Rewrite ``old`` to ``new`` in place — no memmove, O(log n).

        The caller guarantees the replacement preserves sort order
        (i.e. ``new`` still belongs between ``old``'s neighbours);
        this is the boundary-move fast path behind the free index's
        carves and merges.
        """
        mins = self.mins
        bi = bisect_right(mins, old) - 1
        if bi < 0:
            raise CorruptionError(f"blocked list: key {old!r} not present")
        block = self.blocks[bi]
        pos = bisect_left(block, old)
        if pos >= len(block) or block[pos] != old:
            raise CorruptionError(f"blocked list: key {old!r} not present")
        block[pos] = new
        if pos == 0:
            mins[bi] = new
        augment = self.augment
        if augment is not None:
            summary = augment.add(self.sums[bi], cast(int, new_weight))
            self.sums[bi] = augment.discard(summary, cast(int, old_weight))

    # ------------------------------------------------------------------
    # Augmentation
    # ------------------------------------------------------------------
    def summary(self, bi: int) -> tuple[int, int]:
        """Block ``bi``'s summary, rescanning and caching it when stale."""
        summary = self.sums[bi]
        if summary is None:
            augment = cast(MaxWeightAugmentation, self.augment)
            summary = self.sums[bi] = augment.summarize(self.blocks[bi])
        return summary

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # Pickle every summary fresh, so a checkpoint's bytes (and the
        # checkpoint I/O charged for them) do not depend on which
        # summaries happen to be stale.  The state has the default
        # ``(None, slots)`` shape of a ``__slots__`` class.
        for bi, summary in enumerate(self.sums):
            if summary is None:
                self.summary(bi)
        return None, {name: getattr(self, name) for name in self.__slots__}

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return False
        block = self.blocks[bi]
        pos = bisect_left(block, key)
        return pos < len(block) and block[pos] == key

    def pred_le(self, key: Any) -> Any | None:
        """Largest key ``<= key``, or None."""
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return None
        block = self.blocks[bi]
        pos = bisect_right(block, key) - 1
        return block[pos] if pos >= 0 else None

    def pred_lt(self, key: Any) -> Any | None:
        """Largest key ``< key``, or None."""
        bi = bisect_left(self.mins, key) - 1
        if bi < 0:
            return None
        block = self.blocks[bi]
        pos = bisect_left(block, key) - 1
        return block[pos] if pos >= 0 else None

    def succ_gt(self, key: Any) -> Any | None:
        """Smallest key ``> key``, or None."""
        blocks = self.blocks
        if not blocks:
            return None
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return blocks[0][0]
        block = blocks[bi]
        pos = bisect_right(block, key)
        if pos < len(block):
            return block[pos]
        if bi + 1 < len(blocks):
            return blocks[bi + 1][0]
        return None

    def first_ge(self, key: Any) -> Any | None:
        """Smallest key ``>= key``, or None."""
        blocks = self.blocks
        if not blocks:
            return None
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return blocks[0][0]
        block = blocks[bi]
        pos = bisect_left(block, key)
        if pos < len(block):
            return block[pos]
        if bi + 1 < len(blocks):
            return blocks[bi + 1][0]
        return None

    def first(self) -> Any:
        """Smallest key; the list must be non-empty."""
        return self.blocks[0][0]

    def last(self) -> Any:
        """Largest key; the list must be non-empty."""
        return self.blocks[-1][-1]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        for block in self.blocks:
            yield from block

    def iter_desc(self) -> Iterator[Any]:
        for block in reversed(self.blocks):
            yield from reversed(block)

    def iter_from(self, key: Any) -> Iterator[Any]:
        """Keys ``>= key`` in ascending order."""
        blocks = self.blocks
        if not blocks:
            return
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            bi, pos = 0, 0
        else:
            pos = bisect_left(blocks[bi], key)
            if pos >= len(blocks[bi]):
                bi, pos = bi + 1, 0
        for b in range(bi, len(blocks)):
            block = blocks[b]
            for i in range(pos if b == bi else 0, len(block)):
                yield block[i]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check(self, label: str) -> None:
        """Raise :class:`CorruptionError` on internal inconsistency."""
        if len(self.blocks) != len(self.mins):
            raise CorruptionError(f"{label}: directory sizes disagree")
        if self.augment is not None and len(self.sums) != len(self.blocks):
            raise CorruptionError(f"{label}: summary directory drifted")
        flat: list = []
        for bi, block in enumerate(self.blocks):
            if not block:
                raise CorruptionError(f"{label}: empty block")
            if len(block) >= 2 * self.load:
                raise CorruptionError(f"{label}: oversized block")
            if self.mins[bi] != block[0]:
                raise CorruptionError(f"{label}: stale block minimum")
            if self.augment is not None:
                summary = self.sums[bi]
                if summary is not None and \
                        summary != self.augment.summarize(block):
                    raise CorruptionError(
                        f"{label}: stale summary at block {bi}"
                    )
            flat.extend(block)
        if flat != sorted(flat):
            raise CorruptionError(f"{label}: keys are unsorted")
        if len(set(flat)) != len(flat):
            raise CorruptionError(f"{label}: duplicate keys")
        if len(flat) != self._n:
            raise CorruptionError(f"{label}: count drifted")
