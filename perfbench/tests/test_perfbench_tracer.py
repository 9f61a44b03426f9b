"""Self-test of the benchmark tracer's arithmetic.

Runs under pytest, or directly as
``python3 perfbench/tests/test_perfbench_tracer.py``.  A fake clock that only moves when the toy code says so makes every
span's duration, and so every self time, known exactly.
"""

from __future__ import annotations

import sys
import tempfile
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import PUBLIC, Tracer, read_spans  # noqa: E402

LAYERS = ["store", "fs", "alloc", "struct", "idle"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def toy_stack(clock: FakeClock):
    """Store -> Fs -> Alloc -> Struct, with Struct re-entering itself."""

    class Struct:
        def insert(self, depth: int) -> None:
            clock.advance(3)
            if depth:
                self.insert(depth - 1)  # re-entrant: struct inside struct
            clock.advance(1)

    class Alloc:
        def __init__(self) -> None:
            self.struct = Struct()

        def allocate(self) -> None:
            clock.advance(10)
            self.struct.insert(1)
            clock.advance(2)

    class Fs:
        def __init__(self) -> None:
            self.alloc = Alloc()

        def write(self) -> None:
            clock.advance(20)
            self.alloc.allocate()
            self.alloc.allocate()

        def fail(self) -> None:
            clock.advance(7)
            raise ValueError("boom")

    class Store:
        def __init__(self) -> None:
            self.fs = Fs()

        def put(self) -> None:
            clock.advance(100)
            self.fs.write()

        def get(self) -> None:
            try:
                self.fs.fail()
            except ValueError:
                clock.advance(5)

    return Store, Fs, Alloc, Struct


def traced_stack(clock: FakeClock):
    tracer = Tracer(LAYERS, store_layer="store", clock=clock)
    Store, Fs, Alloc, Struct = toy_stack(clock)
    for layer, cls in (("store", Store), ("fs", Fs), ("alloc", Alloc),
                       ("struct", Struct)):
        tracer.instrument_class(layer, cls, PUBLIC)
    return tracer, Store


def test_nested_and_reentrant_self_times():
    clock = FakeClock()
    tracer, Store = traced_stack(clock)
    store = Store()
    t0 = clock()
    clock.advance(1000)          # outside every span: unattributed
    store.put()
    clock.advance(50)            # unattributed again
    t1 = clock()
    summary = tracer.summary(t0, t1)
    layers = summary["layers"]
    # One put = 1 store + 1 fs + 2 alloc + 2x(insert + re-entered insert).
    assert layers["store"] == {"calls": 1, "self_ns": 100}
    assert layers["fs"] == {"calls": 1, "self_ns": 20}
    assert layers["alloc"] == {"calls": 2, "self_ns": 2 * 12}
    assert layers["struct"] == {"calls": 4, "self_ns": 4 * 4}
    assert summary["unattributed_ns"] == 1050
    assert summary["total_ns"] == t1 - t0 == 1000 + 100 + 20 + 24 + 16 + 50


def test_self_times_sum_to_traced_total_on_the_real_clock():
    tracer = Tracer(LAYERS, store_layer="store")
    Store, Fs, Alloc, Struct = toy_stack(FakeClock())
    for layer, cls in (("store", Store), ("fs", Fs), ("alloc", Alloc),
                       ("struct", Struct)):
        tracer.instrument_class(layer, cls, PUBLIC)
    store = Store()
    t0 = tracer._clock()
    for _ in range(200):
        store.put()
        store.get()
    t1 = tracer._clock()
    summary = tracer.summary(t0, t1)
    attributed = sum(v["self_ns"] for v in summary["layers"].values())
    assert attributed + summary["unattributed_ns"] == summary["total_ns"]
    assert all(v["self_ns"] >= 0 for v in summary["layers"].values())
    assert summary["unattributed_ns"] >= 0


def test_layer_never_entered_reports_zero():
    clock = FakeClock()
    tracer, Store = traced_stack(clock)
    Store().put()
    summary = tracer.summary(0, clock())
    assert summary["layers"]["idle"] == {"calls": 0, "self_ns": 0}


def test_spans_of_one_store_op_share_an_id():
    clock = FakeClock()
    tracer, Store = traced_stack(clock)
    store = Store()
    store.put()
    store.get()
    ops = list(tracer.op)
    names = [tracer.names[i] for i in tracer.name_id]
    put_spans = ops[:names.index("toy_stack.<locals>.Store.get")]
    assert set(put_spans) == {1}
    assert set(ops[len(put_spans):]) == {2}
    assert tracer.summary(0, clock())["ops"] == 2


def test_raising_span_closes_and_is_counted():
    clock = FakeClock()
    tracer, Store = traced_stack(clock)
    Store().get()
    summary = tracer.summary(0, clock())
    assert summary["layers"]["fs"] == {"calls": 1, "self_ns": 7}
    assert summary["layers"]["store"] == {"calls": 1, "self_ns": 5}
    assert tracer.raised_by_layer() == {"fs": {"ValueError": 1}}


def test_functions_rebound_in_importing_namespaces_and_restored():
    clock = FakeClock()
    tracer = Tracer(LAYERS, clock=clock)

    def work():
        clock.advance(9)

    module = types.SimpleNamespace(__name__="pkg.mod", work=work)
    importer = types.SimpleNamespace(__name__="pkg.user", work=work)
    tracer.instrument_function("fs", module, "work", [module, importer])
    importer.work()
    module.work()
    summary = tracer.summary(0, clock())
    assert summary["layers"]["fs"] == {"calls": 2, "self_ns": 18}
    tracer.uninstrument()
    assert module.work is work and importer.work is work


def test_span_file_round_trip():
    clock = FakeClock()
    tracer, Store = traced_stack(clock)
    clock.advance(40)
    t0 = clock()
    Store().put()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spans.bin"
        tracer.write(path, t0)
        header, columns = read_spans(path)
    assert header["spans"] == len(tracer.name_id) == 8
    assert list(columns["parent"]) == list(tracer.parent)
    assert list(columns["op"]) == list(tracer.op)
    assert columns["start_ns"][0] == 0
    assert columns["end_ns"][0] == tracer.end[0] - t0


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok  {name}")
