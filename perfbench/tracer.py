"""Host-time span tracer for the benchmark's traced run.

The tracer wraps the public entry points each layer of ``repro``
exposes to the layer above (see :data:`LAYER_ENTRY_POINTS`) and records
one span per call: its name, start, end, parent span and the id of the
top-level store operation it belongs to.  Spans stay in memory in
compact typed arrays and are written out when the run ends.

Self time
    A span's duration minus the part of it its child spans cover.
    Time inside the traced window but outside every span is
    ``unattributed``, so the self times of all layers plus
    ``unattributed`` equal the traced window exactly (integer
    nanoseconds, no rounding).

Generators
    Calling a generator function runs none of its body: the call is one
    near-empty span, and the body's time lands in whichever span
    iterates the generator (``FreeExtentIndex.runs_by_size_desc``
    iterated by ``NtfsRunCache.choose`` counts as ``alloc``).  A span
    per resumption would multiply the span count several times over.

Nothing here reads the simulator's state: it only measures how long the
host spends inside each layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

#: Layer name -> entry points wrapped for the traced run.  Each entry is
#: ``(module, class or None, method/function names or PUBLIC)``; PUBLIC
#: means every plain function defined on the class whose name does not
#: start with ``_``.  Module-level functions are rebound in every loaded
#: ``repro`` module that imported them by name.
PUBLIC = "public"
LAYER_ENTRY_POINTS: dict[str, list[tuple[str, str | None, object]]] = {
    "core": [
        ("repro.core.workload", None,
         ["bulk_load", "churn_to_age", "churn_step", "read_sweep"]),
        ("repro.core.fragmentation", None, ["fragment_report"]),
        ("repro.core.throughput", None, ["measure_read_throughput"]),
    ],
    "scenario": [
        ("repro.scenario.engine", None,
         ["scenario_bulk_load", "scenario_to_age", "scenario_step"]),
        ("repro.scenario.engine", "ScenarioState",
         ["take_interval_summaries"]),
    ],
    "backends": [
        ("repro.backends.file_backend", "FileBackend", PUBLIC),
        ("repro.backends.blob_backend", "BlobBackend", PUBLIC),
        ("repro.backends.gfs_backend", "GfsChunkBackend", PUBLIC),
        ("repro.backends.lfs_backend", "LfsBackend", PUBLIC),
        ("repro.backends.sharded", "ShardedStore", PUBLIC),
    ],
    "fs": [
        ("repro.fs.filesystem", "SimFilesystem", PUBLIC),
    ],
    "db": [
        ("repro.db.database", "SimDatabase", PUBLIC),
        ("repro.db.heap", "HeapTable", PUBLIC),
    ],
    "alloc": [
        ("repro.alloc.freelist", "FreeExtentIndex", PUBLIC),
        ("repro.alloc.runcache", "NtfsRunCache", PUBLIC),
        ("repro.alloc.policy", "FirstFit", ["choose"]),
        ("repro.alloc.policy", "BestFit", ["choose"]),
        ("repro.alloc.policy", "WorstFit", ["choose"]),
        ("repro.alloc.policy", "NextFit", ["choose"]),
        ("repro.alloc.policy", None,
         ["allocate_contiguous", "allocate_fragmented"]),
        ("repro.alloc.buddy", "BuddyAllocator", PUBLIC),
    ],
    "struct": [
        ("repro.struct.blockedlist", "BlockedList", PUBLIC),
    ],
    "disk": [
        ("repro.disk.device", "BlockDevice", PUBLIC),
    ],
    "disk.events": [
        ("repro.disk.schedule", "ShardScheduler",
         ["record_round", "record_stall"]),
        ("repro.disk.events", "EventScheduler",
         ["record_round", "record_stall", "drain", "set_arrival"]),
    ],
    "disk.faults": [
        ("repro.disk.faults", "FaultyBlockDevice",
         ["submit", "flush", "mark_lost"]),
    ],
    "persist": [
        ("repro.persist.checkpoint", "CheckpointManager",
         ["save", "load", "load_latest"]),
    ],
}

#: The layer whose outermost span starts a new top-level store op.
STORE_LAYER = "backends"

_SPAN_FILE_FORMAT = "perfbench-spans/1"


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, layers: list[str], *, store_layer: str | None = None,
                 clock=time.perf_counter_ns) -> None:
        self.layers = list(layers)
        self._layer_index = {name: i for i, name in enumerate(self.layers)}
        self._store_layer = (self._layer_index[store_layer]
                             if store_layer is not None else -1)
        self._clock = clock
        #: Span name and layer index per name id.
        self.names: list[str] = []
        self.name_layer: list[int] = []
        # One entry per span, in start order.
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        #: (name id, exception class name) -> spans that exited raising.
        self.raised: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self._ops = 0
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name(self, layer: str, span_name: str) -> int:
        """Register a span name under a layer; returns its name id."""
        self.names.append(span_name)
        self.name_layer.append(self._layer_index[layer])
        return len(self.names) - 1

    def enter(self, nid: int) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        op = self.op[parent] if parent >= 0 else 0
        if op == 0 and self.name_layer[nid] == self._store_layer:
            self._ops += 1
            op = self._ops
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0)
        stack.append(index)
        self.start.append(self._clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = self._clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed out of order "
                               f"(open span {top})")

    def _note_raise(self, nid: int, exc: BaseException) -> None:
        key = (nid, type(exc).__name__)
        self.raised[key] = self.raised.get(key, 0) + 1

    def wrap(self, func, nid: int):
        """A wrapper that records one span per call of ``func``."""
        enter, exit_, note = self.enter, self.exit, self._note_raise

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = enter(nid)
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                note(nid, exc)
                raise
            finally:
                exit_(index)

        return traced

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def instrument_class(self, layer: str, cls: type, names) -> None:
        """Wrap methods defined on ``cls`` itself (not inherited ones)."""
        if names == PUBLIC:
            names = [name for name, value in vars(cls).items()
                     if not name.startswith("_") and inspect.isfunction(value)]
        for name in names:
            original = vars(cls).get(name)
            if not inspect.isfunction(original):
                raise TypeError(f"{cls.__qualname__}.{name} is not a plain "
                                "method")
            nid = self.name(layer, f"{cls.__qualname__}.{name}")
            setattr(cls, name, self.wrap(original, nid))
            self._restore.append((cls, name, original))

    def instrument_function(self, layer: str, module, name: str,
                            namespaces) -> None:
        """Wrap ``module.name`` and rebind it wherever it was imported."""
        original = getattr(module, name)
        nid = self.name(layer, f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        traced = self.wrap(original, nid)
        for namespace in namespaces:
            if getattr(namespace, name, None) is original:
                setattr(namespace, name, traced)
                self._restore.append((namespace, name, original))

    def instrument(self, entry_points: dict, *, package: str) -> None:
        """Wrap every entry point of ``package``'s layers."""
        loaded = [mod for mod_name, mod in sorted(sys.modules.items())
                  if mod is not None and (mod_name == package
                                          or mod_name.startswith(package + "."))]
        for layer, targets in entry_points.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                if class_name is not None:
                    self.instrument_class(layer, getattr(module, class_name),
                                          names)
                else:
                    for name in names:
                        self.instrument_function(layer, module, name, loaded)

    def uninstrument(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self, t0: int, t1: int) -> dict:
        """Per-layer calls and self time over the window ``[t0, t1]`` ns.

        Returns ``{"layers": {layer: {"calls", "self_ns"}},
        "unattributed_ns", "total_ns", "spans", "ops"}``; every span
        must have closed.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self.name_id)
        start, end, parent = self.start, self.end, self.parent
        child_ns = array("q", bytes(8 * n))
        root_ns = 0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur
            else:
                root_ns += dur
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        name_layer, name_id = self.name_layer, self.name_id
        for i in range(n):
            layer = name_layer[name_id[i]]
            self_ns[layer] += end[i] - start[i] - child_ns[i]
            calls[layer] += 1
        return {
            "layers": {name: {"calls": calls[i], "self_ns": self_ns[i]}
                       for i, name in enumerate(self.layers)},
            "unattributed_ns": (t1 - t0) - root_ns,
            "total_ns": t1 - t0,
            "spans": n,
            "ops": self._ops,
        }

    def raised_by_layer(self) -> dict[str, dict[str, int]]:
        """Layer -> exception class name -> spans that exited raising it."""
        out: dict[str, dict[str, int]] = {}
        for (nid, exc_name), count in sorted(self.raised.items()):
            layer = self.layers[self.name_layer[nid]]
            per = out.setdefault(layer, {})
            per[exc_name] = per.get(exc_name, 0) + count
        return out

    def write(self, path: Path, t0: int) -> None:
        """Write the spans: a JSON header line, then the typed arrays.

        Times are stored relative to ``t0`` (the start of the traced
        window); read them back with :func:`read_spans`.
        """
        start = array("q", (s - t0 for s in self.start))
        end = array("q", (e - t0 for e in self.end))
        header = {
            "format": _SPAN_FILE_FORMAT, "spans": len(self.name_id),
            "layers": self.layers, "names": self.names,
            "name_layer": self.name_layer,
            "columns": ["name_id:i", "start_ns:q", "end_ns:q", "parent:q",
                        "op:q"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, start, end, self.parent, self.op):
                column.tofile(handle)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a span file written by :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != _SPAN_FILE_FORMAT:
            raise ValueError(f"{path}: not a span file")
        n = header["spans"]
        columns = {}
        for spec in header["columns"]:
            name, code = spec.split(":")
            column = array(code)
            column.fromfile(handle, n)
            columns[name] = column
    return header, columns
