"""Parity of the NTFS run cache's tuple scan with its Extent-based spec.

:meth:`NtfsRunCache.choose` scans ``(length, start)`` pairs from the
index's ``largest_runs``.  ``oracle_choose`` below is the earlier
implementation, which walked ``runs_by_size_desc()`` and compared
:class:`Extent` objects.  Random free/allocate sequences on a coarse
grid (so many runs tie on length) drive both engines, and every
``choose`` answer must be the identical extent, for every cache size
and band fraction.  ``largest_runs(k)`` must equal the first ``k`` runs
of ``runs_by_size_desc()``, including ``k == 0``.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.naive_index import NaiveFreeExtentIndex

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.alloc.runcache import NtfsRunCache

#: Grid cell in bytes; every run is a whole number of cells, so runs of
#: one to a few cells recur and tie on length.
CELL = 8
CELLS = 96
CAPACITY = CELL * CELLS
CACHE_SIZES = (1, 2, 64)
BAND_FRACTIONS = (0.125, 1.0)
#: Request sizes: exact cell multiples (ties with run lengths) and
#: sizes in between.
QUERY_SIZES = (1, CELL, CELL + 1, 2 * CELL, 3 * CELL, 5 * CELL, 16 * CELL)


def oracle_choose(cache: NtfsRunCache, size: int) -> Extent | None:
    """The Extent-based ``choose``, kept as the specification."""
    band_limit = cache.outer_band_limit
    best_band: Extent | None = None
    best_large: Extent | None = None
    for run in islice(cache.index.runs_by_size_desc(), cache.cache_size):
        if run.length < size:
            break
        if run.start < band_limit and \
                (best_band is None or run.start < best_band.start):
            best_band = run
        if best_band is None and (
                best_large is None or
                (run.length, -run.start) >
                (best_large.length, -best_large.start)):
            best_large = run
    return best_band if best_band is not None else best_large


@st.composite
def grid_operations(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["free", "alloc"]),
            st.integers(min_value=0, max_value=CELLS - 1),
            st.sampled_from([1, 1, 2, 2, 3, 4, 8]),
        ),
        max_size=80,
    ))


def assert_parity(index) -> None:
    runs = list(index.runs_by_size_desc())
    for k in range(len(runs) + 3):
        assert index.largest_runs(k) == \
            [(r.length, r.start) for r in runs[:k]]
    for cache_size in CACHE_SIZES:
        for band in BAND_FRACTIONS:
            cache = NtfsRunCache(index, outer_band_fraction=band,
                                 cache_size=cache_size)
            for size in QUERY_SIZES:
                assert cache.choose(size) == oracle_choose(cache, size)


@given(grid_operations(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_choose_matches_extent_oracle(ops, initially_free):
    engines = [FreeExtentIndex(CAPACITY, initially_free=initially_free),
               NaiveFreeExtentIndex(CAPACITY, initially_free=initially_free)]
    free = [initially_free] * CELLS
    for kind, cell, span in ops:
        cells = range(cell, min(cell + span, CELLS))
        want_free = kind == "alloc"
        if any(free[c] != want_free for c in cells):
            continue
        ext = Extent(cells.start * CELL, len(cells) * CELL)
        for index in engines:
            if kind == "free":
                index.add(ext)
            else:
                index.remove(ext)
        for c in cells:
            free[c] = not want_free
        for index in engines:
            assert_parity(index)
    tiered, naive = engines
    assert tiered.largest_runs(CELLS) == naive.largest_runs(CELLS)
