#!/usr/bin/env python3
"""Host-throughput benchmark of the repro simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Simulated time is fixed by the calibrated cost model, so "faster" means
less host wall time per simulated result.  One run, in one process:

1. *set-up* -- import ``repro`` and run every cell of the workload once.
   This fills the program's process-global caches; its wall time is
   ``setup_s``.  The set-up outcomes are the reference for the checks.
2. *timed* -- repeat whole passes over the cells, observers off, until
   ``--seconds`` have passed.  Each cell's host time is the median of
   its passes; throughput is the work of one pass over the sum of those
   medians.
3. *traced* (``--trace 1``) -- one more pass with the layer tracer of
   :mod:`layertrace` installed, giving per-layer calls, self time and
   work counts, the wall time no layer span covers, and the tracer's
   own overhead.  The spans are written to ``.perfbench-out/``.

Every operation is checked (see :mod:`checks`); an operation that
raised or failed a check counts in ``failed``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones), each metric with its unit.  The lines before it
print the same metrics, and ``failed_frac``, with their sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# one host thread: numpy's BLAS would otherwise spread eigh over the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import Cell, Outcome, agree, transports_agree  # noqa: E402
from layertrace import (COUNT, LAYERS, TARGETS, LayerTracer,  # noqa: E402
                        span_name)
from workloads import WORKLOADS  # noqa: E402

#: (name, unit, better, bound): the metrics printed with ``--trace 0``
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("invocations_per_s", "1/s", "higher", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_latency_ms.mean", "ms", "lower", 0.25),
    ("sim_availability", "ratio", "higher", 0.05),
)

#: units and directions of the per-layer work counts in ``Target.extra``
_EXTRA_UNITS = {"bytes": ("B", "lower"), "pages": ("count", "lower"),
                "admitted": ("count", "higher")}


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric printed with ``--trace 1``."""
    transports = sorted({t for w in WORKLOADS.values()
                         for t in w.transports})
    specs: List[Tuple[str, str, str]] = []
    seen = set()
    for target in TARGETS:
        names = ([span_name(target, t) for t in transports]
                 if target.per_instance else [span_name(target)])
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            specs.append((f"{name}.calls", "count", "lower"))
            if target.kind != COUNT:
                specs.append((f"{name}.self_s", "s", "lower"))
            if target.extra is not None:
                suffix = target.extra[0]
                specs.append((f"{name}.{suffix}", *_EXTRA_UNITS[suffix]))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("sim.engine.events", "count", "lower"),
        ("sim.latency_ms.p50", "ms", "lower"),
        ("sim.latency_ms.p99", "ms", "lower"),
        ("fleet.admission.accepted_frac", "ratio", "higher"),
        ("obs.lineage.amplification", "ratio", "lower"),
        ("obs.lineage.touched_frac", "ratio", "higher"),
        ("obs.lineage.prefetch_waste_bytes", "B", "lower"),
    ]
    return specs


def _import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}; run "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro.api

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")
    return repro.api


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int,
                 log: Callable[[str], None] = print):
        self.workload = workload
        self.seed = seed
        self.log = log
        self.api = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.reference: Dict[Cell, Outcome] = {}

    # --- one pass ------------------------------------------------------------

    def run_pass(self, label: str, setup: bool = False,
                 on_cell: Optional[Callable[[Cell], None]] = None
                 ) -> Tuple[Dict[Cell, Outcome], Dict[Cell, float]]:
        """Run every cell once, timing and checking each operation."""
        outcomes: Dict[Cell, Outcome] = {}
        times: Dict[Cell, float] = {}
        bad: Dict[Cell, List[str]] = {}
        for cell in self.workload.cells:
            gc.collect()
            if on_cell is not None:
                on_cell(cell)
            start = time.perf_counter()
            try:
                outcome = self.workload.run(self.api, cell, self.seed, setup)
            except Exception:  # counted as a failed operation
                bad[cell] = [f"{label} {cell}: raised\n"
                             + traceback.format_exc()]
                continue
            times[cell] = time.perf_counter() - start
            outcomes[cell] = outcome
            errors = self.workload.check(outcome)
            if not setup:
                ref = self.reference.get(cell)
                errors += (agree(ref, outcome, f"{label} {cell}")
                           if ref is not None
                           else [f"{label} {cell}: no set-up outcome"])
            if errors:
                bad[cell] = errors
        for cell, errors in transports_agree(outcomes).items():
            bad.setdefault(cell, []).extend(errors)
        self.attempted += len(self.workload.cells)
        self.failed += len(bad)
        for errors in bad.values():
            self.errors.extend(errors)
        return outcomes, times

    # --- the three phases ----------------------------------------------------

    def setup(self) -> float:
        start = time.perf_counter()
        self.api = _import_repro()
        self.reference, _ = self.run_pass("set-up", setup=True)
        return time.perf_counter() - start

    def timed(self, seconds: float) -> Tuple[Dict[Cell, float], int]:
        """Whole passes until *seconds* have passed (at least one);
        returns each cell's median host time and the pass count."""
        samples: Dict[Cell, List[float]] = {
            cell: [] for cell in self.workload.cells}
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            _, times = self.run_pass(f"timed pass {passes}")
            for cell, seconds_taken in times.items():
                samples[cell].append(seconds_taken)
            passes += 1
        return ({cell: statistics.median(values)
                 for cell, values in samples.items() if values}, passes)

    def traced(self) -> Tuple[LayerTracer, float]:
        tracer = LayerTracer()
        with tracer:
            _, times = self.run_pass("traced", on_cell=tracer.mark)
        return tracer, sum(times.values())

    # --- metrics -------------------------------------------------------------

    def end_to_end(self, setup_s: float, cell_s: Dict[Cell, float]
                   ) -> Dict[str, float]:
        ref = list(self.reference.values())
        pass_s = sum(cell_s.values())
        # a cell whose set-up run raised completed nothing
        missing = len(self.workload.cells) - len(ref)
        completed = sum(o.invocations for o in ref)
        arrivals = sum(o.arrivals for o in ref) + missing
        return {
            "invocations_per_s": completed / pass_s if pass_s else 0.0,
            "events_per_s": (sum(o.events for o in ref) / pass_s
                             if pass_s else 0.0),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "sim_latency_ms.mean": (statistics.fmean(
                o.latency_ns for o in ref) / 1e6 if ref else 0.0),
            "sim_availability": completed / arrivals,
        }

    def per_layer(self, tracer: LayerTracer, traced_s: float,
                  pass_s: float) -> Dict[str, float]:
        self_ns = tracer.self_ns_by_name()
        values: Dict[str, float] = {}
        for name, calls in tracer.calls.items():
            values[f"{name}.calls"] = calls
        for name, ns in self_ns.items():
            values[f"{name}.self_s"] = ns / 1e9
        values.update(tracer.counts)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                ns for name, ns in self_ns.items()
                if name.split(".", 1)[0] == layer) / 1e9
        ref = list(self.reference.values())
        p50, p99 = self.workload.sim_percentiles(ref)
        moved = sum(o.extra.get("bytes_moved", 0) for o in ref)
        touched = sum(o.extra.get("bytes_touched", 0) for o in ref)
        admits = tracer.calls.get("fleet.admission.admit", 0)
        values.update({
            "trace.wall_s": traced_s,
            "trace.overhead_s": traced_s - pass_s,
            "trace.overhead_frac": ((traced_s - pass_s) / pass_s
                                    if pass_s else 0.0),
            "trace.unattributed_frac": (
                (traced_s - tracer.root_ns() / 1e9) / traced_s
                if traced_s else 0.0),
            "trace.spans": tracer.span_count,
            "sim.engine.events": sum(o.events for o in ref),
            "sim.latency_ms.p50": p50 / 1e6,
            "sim.latency_ms.p99": p99 / 1e6,
            "fleet.admission.accepted_frac": (
                tracer.counts.get("fleet.admission.admit.admitted", 0)
                / admits if admits else 0.0),
            "obs.lineage.amplification": moved / touched if touched else 0.0,
            "obs.lineage.touched_frac": touched / moved if moved else 0.0,
            "obs.lineage.prefetch_waste_bytes": sum(
                o.extra.get("prefetch_waste_bytes", 0) for o in ref),
        })
        return values

    # --- the whole run -------------------------------------------------------

    def measure(self, seconds: float, trace: bool
                ) -> Tuple[Dict[str, float], Optional[Dict[str, float]]]:
        """Set up, time, and (with *trace*) trace one workload; returns
        the end-to-end metrics and the per-layer ones (or None)."""
        setup_s = self.setup()
        cell_s, passes = self.timed(seconds)
        pass_s = sum(cell_s.values())
        e2e = self.end_to_end(setup_s, cell_s)
        self.log(f"workload {self.workload.name}, seed {self.seed}: "
                 f"{len(self.workload.cells)} cells x {passes} timed "
                 f"passes (each cell's median of {passes} samples)")
        for name, unit, _, _ in END_TO_END:
            self.log(f"  {name} = {e2e[name]:.6g} {unit}")
        layers = None
        if trace:
            tracer, traced_s = self.traced()
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{self.workload.name}.spans.npz"
            tracer.write(str(path))
            self.log(f"  traced pass: {tracer.span_count} spans -> {path}")
            measured = self.per_layer(tracer, traced_s, pass_s)
            layers = {name: measured.get(name, 0)
                      for name, _, _ in per_layer_specs()}
            for name, unit, _ in per_layer_specs():
                if layers[name]:
                    self.log(f"  {name} = {layers[name]:.6g} {unit}")
        self.log(f"  failed_frac = {self.failed / self.attempted:.6g} "
                 f"ratio ({self.failed} of {self.attempted} operations)")
        for error in self.errors[:20]:
            print(error, file=sys.stderr)
        return e2e, layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    e2e, layers = bench.measure(args.seconds, bool(args.trace))
    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in per_layer_specs()}
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
