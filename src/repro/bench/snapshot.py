"""Persisted benchmark snapshots — the ``BENCH_<n>.json`` trajectory.

``python -m repro bench`` runs the figure workloads through the
:func:`repro.api.run` façade at a fixed seed/scale and writes one
schema-versioned JSON snapshot: per-(workload, transport) headline
metrics (end-to-end ns, Fig 11 T/N/R stage totals), a critical-path
summary from the causal profiler (:mod:`repro.obs.profile`), derived
paper headlines (RMMAP speedup over messaging per workload), and an
environment stamp.

The simulator is deterministic, so every metric except the environment
stamp is a pure function of ``(code, seed, scale)`` — which is exactly
what makes the snapshots comparable: :mod:`repro.bench.regression` diffs
two snapshots and fails CI when a metric drifts outside its tolerance
band.  Snapshots are numbered (``BENCH_0.json`` is the committed
baseline); :func:`next_snapshot_path` picks the next free slot.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import re
import sys
from typing import Any, Dict, List, Optional, Sequence

#: v2 adds per-``(machine, layer, name)`` critical-path leaves
#: (``critical_path.path_ns_by_location`` — the run-differ's join key)
#: and span-duration percentile leaves from the mergeable sketch
#: (``span_percentiles`` — tail behaviour under the gate, not just sums).
#: v3 adds a top-level ``wall`` section (host wall-clock throughput:
#: ``events_per_sec`` / ``invocations_per_sec``) — informational only.
#: v4 adds per-subsystem throughput subsections under ``wall`` —
#: ``wall.engine`` (events/sec against time spent *inside* engine.run,
#: from the hub's ``wall.run.ns`` counter), ``wall.hub`` (telemetry
#: records/sec), and ``wall.fleet`` (a bounded open-loop fleet smoke:
#: invocations/sec and events/sec) — and the regression gate starts
#: holding the ``*_per_sec`` rate leaves inside a generous band
#: (:data:`repro.bench.regression.WALL_TOLERANCE`), so a wall-clock
#: collapse fails CI instead of hiding in an "informational" section.
#: v5 adds per-cell ``lineage`` leaves from the page-provenance tracker
#: (:mod:`repro.obs.lineage`): bytes moved / touched, transfer
#: amplification, prefetch waste and duplicate pulls — all byte-exact
#: functions of ``(code, seed, scale)``, held by the gate in both
#: directions (a silent change in how many bytes a transport moves is a
#: regression even when the nanoseconds stay put).  Only this version is
#: read (:func:`check_schema`): an older snapshot is re-taken, not
#: compared.
SCHEMA_VERSION = 5

#: The fixed operating point snapshots are taken at (CI uses exactly this).
DEFAULT_SEED = 0
DEFAULT_SCALE = 0.05

DEFAULT_WORKLOADS = ("finra", "ml-prediction", "ml-training", "wordcount")
DEFAULT_TRANSPORTS = ("messaging", "storage-rdma", "rmmap-prefetch")

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _environment() -> Dict[str, Any]:
    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": _platform.platform(),
    }


def _critical_path_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The stable, comparable slice of a critical-path report."""
    by_layer: Dict[str, int] = {}
    for seg in report["path"]:
        by_layer[seg["layer"]] = (by_layer.get(seg["layer"], 0)
                                  + seg["duration_ns"])
    top = report["bottlenecks"][0] if report["bottlenecks"] else None
    return {
        "total_ns": report["total_ns"],
        "segments": len(report["path"]),
        "span_count": report["span_count"],
        "layers": report["layers"],
        "path_ns_by_layer": dict(sorted(by_layer.items())),
        "path_ns_by_location": {
            f"{row['machine']}:{row['layer']}/{row['name']}":
                row["path_ns"]
            for row in sorted(report["bottlenecks"],
                              key=lambda r: (r["machine"], r["layer"],
                                             r["name"]))},
        "top": (f"{top['machine']}:{top['layer']}/{top['name']}"
                if top else None),
        "top_share": top["share"] if top else 0.0,
    }


def _span_percentiles(root) -> Dict[str, int]:
    """Span-duration percentiles of the measured trace, estimated with
    the fleet monitor's mergeable sketch — tail-shape leaves the gate can
    hold, beyond the e2e sum."""
    from repro.obs.monitor import PercentileSketch

    sketch = PercentileSketch()
    for node in root.walk():
        sketch.record(node.duration_ns)
    return {"count": sketch.count,
            "p50_ns": sketch.quantile(0.50),
            "p90_ns": sketch.quantile(0.90),
            "p99_ns": sketch.quantile(0.99)}


def _lineage_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The comparable totals of a lineage report (v5 cell leaves)."""
    totals = report["totals"]
    return {
        "bytes_moved": totals["bytes_moved"],
        "bytes_touched": totals["bytes_touched"],
        "amplification": totals["amplification"],
        "prefetch_waste_bytes": totals["prefetch_waste_bytes"],
        "duplicate_pulls": totals["duplicate_pulls"],
    }


def collect(seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE,
            workloads: Optional[Sequence[str]] = None,
            transports: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run the benchmark matrix and return the snapshot dict."""
    import time

    from repro.api import run

    workloads = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    transports = tuple(transports) if transports else DEFAULT_TRANSPORTS
    matrix: Dict[str, Dict[str, Any]] = {}
    wall_started = time.perf_counter()
    wall_events = 0
    wall_invocations = 0
    engine_run_ns = 0
    hub_records = 0
    for workload in workloads:
        row: Dict[str, Any] = {}
        for transport in transports:
            result = run(workload, transport=transport, seed=seed, scale=scale,
                         telemetry=True, lineage=True)
            hub = result.telemetry
            wall_events += hub.counter("sim", "sim.engine",
                                       "events.dispatched")
            wall_invocations += hub.counter("coordinator", "platform",
                                            "invocations.completed")
            engine_run_ns += hub.counter("sim", "sim.engine", "wall.run.ns")
            hub_records += hub.records
            stages = result.stage_totals()
            row[transport] = {
                "e2e_ns": result.latency_ns,
                "transform_ns": stages["transform"],
                "network_ns": stages["network"],
                "reconstruct_ns": stages["reconstruct"],
                "critical_path": _critical_path_summary(
                    result.critical_path()),
                "span_percentiles": _span_percentiles(
                    result.span_tree()),
                "lineage": _lineage_summary(result.lineage()),
            }
        matrix[workload] = row

    derived: Dict[str, float] = {}
    for workload, row in matrix.items():
        base = row.get("messaging")
        for transport, entry in row.items():
            if base is None or transport == "messaging" \
                    or not entry["e2e_ns"]:
                continue
            derived[f"{workload}.{transport}.speedup_over_messaging"] = \
                round(base["e2e_ns"] / entry["e2e_ns"], 4)

    # derive the rates from the *stored* elapsed value so the section is
    # internally consistent: rate == count / elapsed_s holds on read-back
    # (elapsed covers the matrix only — the fleet smoke below keeps its
    # own clock)
    elapsed_s = round(time.perf_counter() - wall_started, 6)

    # a bounded open-loop fleet smoke, so the snapshot carries fleet-path
    # throughput too (the matrix above only drives the run() facade)
    from repro.fleet.runner import run_fleet, smoke_spec

    fleet_wall = run_fleet(smoke_spec(seed=seed)).wall
    engine_run_s = engine_run_ns / 1_000_000_000
    wall = {
        "elapsed_s": elapsed_s,
        "events": wall_events,
        "invocations": wall_invocations,
        "events_per_sec": round(wall_events / elapsed_s, 4)
        if elapsed_s else 0.0,
        "invocations_per_sec": round(wall_invocations / elapsed_s, 4)
        if elapsed_s else 0.0,
        # v4: per-subsystem throughput.  ``engine.events_per_sec`` is
        # measured against wall time spent *inside* engine.run() (the
        # hub's wall.run.ns counter), not total harness elapsed — it
        # isolates the scheduler from workload setup/analysis cost.
        "engine": {
            "events": wall_events,
            "run_ns": engine_run_ns,
            "events_per_sec": round(wall_events / engine_run_s, 4)
            if engine_run_s else 0.0,
        },
        "hub": {
            "records": hub_records,
            "records_per_sec": round(hub_records / elapsed_s, 4)
            if elapsed_s else 0.0,
        },
        "fleet": {
            "elapsed_s": fleet_wall["elapsed_s"],
            "invocations": fleet_wall["invocations"],
            "invocations_per_sec": fleet_wall["invocations_per_sec"],
            "events_per_sec": fleet_wall["events_per_sec"],
        },
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "workloads": {w: matrix[w] for w in sorted(matrix)},
        "derived": dict(sorted(derived.items())),
        "environment": _environment(),
        "wall": wall,
    }


def write_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_schema(snapshot: Dict[str, Any], source: str) -> None:
    """Refuse a snapshot written under any schema but
    :data:`SCHEMA_VERSION`; *source* names it in the error."""
    version = snapshot.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{source}: snapshot schema v{version!r}, this tool reads "
            f"only v{SCHEMA_VERSION}; re-take the snapshot")


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    check_schema(snapshot, path)
    return snapshot


def snapshot_paths(directory: str = ".") -> List[str]:
    """Existing ``BENCH_<n>.json`` files in *directory*, numerically
    ordered."""
    found = []
    for name in os.listdir(directory):
        m = _SNAPSHOT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found)]


def next_snapshot_path(directory: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` slot in *directory*."""
    taken = [int(_SNAPSHOT_RE.match(os.path.basename(p)).group(1))
             for p in snapshot_paths(directory)]
    n = max(taken) + 1 if taken else 0
    return os.path.join(directory, f"BENCH_{n}.json")


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Tiny standalone entry (``python -m repro bench`` is the main one)."""
    import argparse

    parser = argparse.ArgumentParser(description="write a BENCH snapshot")
    parser.add_argument("--json-out", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)
    snapshot = collect(seed=args.seed, scale=args.scale)
    path = args.json_out or next_snapshot_path(".")
    write_snapshot(snapshot, path)
    print(f"wrote {path}", file=sys.stderr)
    return 0
