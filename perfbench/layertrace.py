"""Span tracing at the layer boundaries of ``repro``, from outside it.

:class:`LayerTracer` wraps the public functions listed in
:data:`TARGETS` for the duration of a ``with`` block.  Each call into a
wrapped function records one span (name, start, end, parent span) and
bumps that function's call counter; a few targets also add a work count
(bytes, pages, admitted requests) taken from their arguments or result.
Targets of kind ``COUNT`` are hot one-liners whose time is not worth a
span: they only count calls.  Generator functions (the coordinator's
function-instance processes, traffic arrival streams) get one span per
resumption, so their self time is the time spent running inside them.

Spans are kept in flat columns in memory and written out by
:meth:`LayerTracer.write`.  Self time is computed afterwards: a span's
duration minus the durations of its direct children.

Module-level functions are often imported by name into other modules
(``from repro.obs.lineage import current_lineage``); the tracer patches
every ``repro`` module attribute that is bound to the original function,
and puts every one back when the block ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

SPAN = "span"
COUNT = "count"


class Target(NamedTuple):
    layer: str
    module: str
    qualname: str
    kind: str = SPAN
    #: extra work count taken from a call: ``(suffix, fn(args, result))``
    extra: Optional[Tuple[str, Callable[[tuple, Any], int]]] = None
    #: span name from the bound instance (per-transport names)
    per_instance: bool = False
    #: the last part of the span name, if not the function's own name
    name: Optional[str] = None


def _result_nbytes(args, result) -> int:
    return result.nbytes


def _result_int(args, result) -> int:
    return int(result)


def _batch_len(args, result) -> int:
    return len(args[1])


def _admitted(args, result) -> int:
    return 1 if result is None else 0


def _stages(module: str, *handlers: str) -> Tuple[Target, ...]:
    """A workflow's function bodies, traced under one span name."""
    return tuple(Target("workloads", f"repro.workloads.{module}", handler,
                        name="stages") for handler in handlers)


#: the layer boundaries the benchmark times, grouped by ``repro`` package
TARGETS: Tuple[Target, ...] = (
    Target("runtime", "repro.runtime.serializer", "Serializer.serialize",
           extra=("bytes", _result_nbytes)),
    Target("runtime", "repro.runtime.serializer", "Serializer.deserialize"),
    Target("runtime", "repro.runtime.heap", "ManagedHeap.box"),
    Target("runtime", "repro.runtime.heap", "ManagedHeap.load"),
    Target("runtime", "repro.runtime.objects", "unpack_header", COUNT),
    Target("mem", "repro.mem.address_space", "AddressSpace.write"),
    Target("mem", "repro.mem.address_space", "AddressSpace.read"),
    Target("mem", "repro.mem.address_space", "AddressSpace.translate"),
    Target("mem", "repro.mem.allocator", "HeapAllocator.alloc"),
    Target("mem", "repro.mem.allocator", "HeapAllocator.free"),
    Target("kernel", "repro.kernel.kernel", "Kernel.register_mem"),
    Target("kernel", "repro.kernel.kernel", "Kernel.rmap"),
    Target("kernel", "repro.kernel.remote_pager", "RemoteVMA.handle_fault"),
    Target("kernel", "repro.kernel.remote_pager", "RemoteVMA.prefetch",
           extra=("pages", _result_int)),
    Target("net", "repro.net.rdma", "QueuePair.read"),
    Target("net", "repro.net.rdma", "QueuePair.read_batch",
           extra=("pages", _batch_len)),
    Target("net", "repro.net.rpc", "RpcEndpoint.call"),
    Target("transfer", "repro.transfer.messaging", "MessagingTransport.send",
           per_instance=True),
    Target("transfer", "repro.transfer.messaging",
           "MessagingTransport.receive", per_instance=True),
    Target("transfer", "repro.transfer.storage", "StorageTransport.send",
           per_instance=True),
    Target("transfer", "repro.transfer.storage", "StorageTransport.receive",
           per_instance=True),
    Target("transfer", "repro.transfer.rmmap", "RmmapTransport.send",
           per_instance=True),
    Target("transfer", "repro.transfer.rmmap", "RmmapTransport.receive",
           per_instance=True),
    Target("platform", "repro.platform.coordinator",
           "WorkflowCoordinator.invoke", COUNT),
    Target("platform", "repro.platform.coordinator",
           "WorkflowCoordinator._run_instance", name="run_instance"),
    Target("platform", "repro.platform.coordinator",
           "FunctionContext.charge_compute", COUNT),
    *_stages("finra", "fetch_private_data", "fetch_public_data",
             "run_audit_rule", "merge_results"),
    *_stages("wordcount", "split_text", "map_chunk", "reduce_counts"),
    *_stages("ml_training", "partition_images", "pca_features",
             "train_trees", "merge_model"),
    *_stages("ml_prediction", "load_model", "partition_inputs", "predict",
             "combine"),
    Target("workloads", "repro.workloads.finra", "check_rule"),
    Target("workloads", "repro.workloads.wordcount", "count_words"),
    Target("workloads", "repro.workloads.ml_training", "fit_pca"),
    Target("workloads", "repro.workloads.ml_training", "grow_tree"),
    Target("sim", "repro.sim.engine", "Engine.run"),
    Target("fleet", "repro.fleet.shard", "ShardedCoordinator.submit"),
    Target("fleet", "repro.fleet.admission", "AdmissionController.admit",
           extra=("admitted", _admitted)),
    Target("fleet", "repro.fleet.placement", "HashRing.place"),
    Target("fleet", "repro.fleet.traffic", "PoissonArrivals.arrivals"),
    Target("fleet", "repro.fleet.traffic", "DiurnalArrivals.arrivals"),
    Target("fleet", "repro.fleet.traffic", "BurstyArrivals.arrivals"),
    Target("obs", "repro.obs.telemetry", "Telemetry.count"),
    Target("obs", "repro.obs.telemetry", "Telemetry.event"),
    Target("obs", "repro.obs.telemetry", "Telemetry.span"),
    Target("obs", "repro.obs.telemetry", "Telemetry.op"),
    Target("obs", "repro.obs.monitor", "FleetMonitor.observe"),
    Target("obs", "repro.obs.timeline", "TimelineRecorder.record"),
    Target("obs", "repro.obs.lineage", "current_lineage", COUNT),
    Target("obs", "repro.obs.lineage", "LineageTracker.touched"),
    Target("obs", "repro.obs.lineage", "LineageTracker.page_pulled"),
    Target("obs", "repro.obs.profile", "build_span_tree"),
    Target("obs", "repro.obs.profile", "critical_path_report"),
)

LAYERS = ("runtime", "mem", "kernel", "net", "transfer", "platform",
          "workloads", "sim", "fleet", "obs")


def span_name(target: Target, instance: Optional[str] = None) -> str:
    """``<layer>.<module>.<function>``; the class name is left out.  A
    ``per_instance`` target puts the instance's name in place of the
    module (``transfer.rmmap-prefetch.send``)."""
    middle = instance if target.per_instance else \
        target.module.rsplit(".", 1)[1]
    return ".".join((target.layer, middle,
                     target.name or target.qualname.rsplit(".", 1)[-1]))


class LayerTracer:
    """Records spans and counts at :data:`TARGETS` while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        #: (label, index of its first span): the spans of one operation
        self.marks: List[Tuple[str, int]] = []
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}

    # --- recording ---------------------------------------------------------

    def mark(self, label: Any) -> None:
        """Start a new operation: spans from here on belong to *label*."""
        self.marks.append((str(label), len(self.name_col)))

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return nid

    def _open(self, nid: int) -> int:
        """Open a span unless the innermost open span has the same name
        (recursion and ``super()`` calls merge into the outer span)."""
        stack = self._stack
        if stack and self.name_col[stack[-1]] == nid:
            return -1
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.end_col.append(0)
        stack.append(idx)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        if idx >= 0:
            self.end_col[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _make_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        calls = self.calls
        counts = self.counts
        if target.per_instance:
            def resolve(args) -> Tuple[str, int]:
                name = span_name(target, args[0].name)
                return name, tracer._name_id(name)
        else:
            fixed = span_name(target)
            fixed_id = self._name_id(fixed)

            def resolve(args) -> Tuple[str, int]:
                return fixed, fixed_id

            if target.kind == COUNT:
                def counted(*args, **kwargs):
                    calls[fixed] += 1
                    return fn(*args, **kwargs)
                return counted

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                name, nid = resolve(args)
                calls[name] += 1
                gen = fn(*args, **kwargs)
                value, error = None, None
                while True:
                    idx = tracer._open(nid)
                    try:
                        if error is not None:
                            item = gen.throw(error)
                        else:
                            item = gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._close(idx)
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into fn
                        value, error = None, exc
            return traced_gen

        extra = target.extra

        def traced(*args, **kwargs):
            name, nid = resolve(args)
            calls[name] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                key = f"{name}.{extra[0]}"
                counts[key] = counts.get(key, 0) + extra[1](args, result)
            return result
        return traced

    # --- install / uninstall -----------------------------------------------

    def __enter__(self) -> "LayerTracer":
        module_funcs: Dict[int, Callable] = {}
        for target in TARGETS:
            parts = target.qualname.split(".")
            try:
                owner: Any = importlib.import_module(target.module)
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = vars(owner)[parts[-1]]
            except (ImportError, AttributeError, KeyError):
                # a renamed function reads as zero calls, not a crash
                print(f"layertrace: {target.module}.{target.qualname} not "
                      "found; not traced", file=sys.stderr)
                continue
            wrapper = self._make_wrapper(target, original)
            self._originals[id(wrapper)] = original
            self._saved.append((owner, parts[-1], original))
            setattr(owner, parts[-1], wrapper)
            if inspect.ismodule(owner):
                module_funcs[id(original)] = wrapper
        # rebind module functions that other modules imported by name
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper = module_funcs.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        # modules first imported while tracing bound the wrappers
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        return False

    # --- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def _columns(self):
        """(name id, parent index, duration ns) of every span."""
        import numpy as np

        dur = (np.frombuffer(self.end_col, dtype=np.int64)
               - np.frombuffer(self.start_col, dtype=np.int64))
        return (np.frombuffer(self.name_col, dtype=np.int32),
                np.frombuffer(self.parent_col, dtype=np.int64), dur)

    def self_ns_by_name(self) -> Dict[str, int]:
        """Per-name self time: span duration minus its direct children."""
        import numpy as np

        names, parents, dur = self._columns()
        nested = parents >= 0
        child_ns = np.bincount(parents[nested], weights=dur[nested],
                               minlength=len(dur)).astype(np.int64)
        self_ns = np.bincount(names, weights=dur - child_ns,
                              minlength=len(self.names))
        return {name: int(self_ns[nid]) for nid, name in enumerate(self.names)}

    def root_ns(self) -> int:
        """Wall time covered by spans with no parent."""
        _, parents, dur = self._columns()
        return int(dur[parents < 0].sum())

    def write(self, path: str) -> None:
        """Write every span (name, start, end, parent) as ``.npz``, with
        the operation marks (``mark_labels`` start at ``mark_first``)."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 mark_labels=np.array([label for label, _ in self.marks]),
                 mark_first=np.array([first for _, first in self.marks],
                                     dtype=np.int64),
                 name=np.frombuffer(self.name_col, dtype=np.int32),
                 parent=np.frombuffer(self.parent_col, dtype=np.int64),
                 start_ns=np.frombuffer(self.start_col, dtype=np.int64),
                 end_ns=np.frombuffer(self.end_col, dtype=np.int64))


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]
