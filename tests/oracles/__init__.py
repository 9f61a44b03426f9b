"""Reference models the shipped structures are held to, operation for
operation.

Each oracle is the simple, obviously correct implementation a shipped
structure replaced: ``naive_index`` for
:class:`repro.alloc.freelist.FreeExtentIndex` and ``flat_segments`` for
the device's blocked content store.  They live with the tests because
nothing in ``repro`` needs them: the parity suites compare each pair,
and the microbenchmarks time them side by side.
"""
