"""The benchmark's four workloads.

Each workload is a fixed list of *cells*; one pass runs every cell once.
A cell is one call into the program's public façade: ``repro.api.run``
for a (workflow, transport) pair, or ``repro.api.run_fleet`` for the
fleet.  The workload seed reaches the program only as generated inputs:
``params["seed"]`` for the workflows (``api.run(seed=)`` alone seeds a
platform rng that a single invocation never draws from), the traffic
seed for the fleet.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from checks import Cell, Outcome, digest, fleet_conserves

#: input scale of every workflow (the repository's operating point)
SCALE = 0.05
WORKFLOWS = ("finra", "wordcount", "ml-training", "ml-prediction")
#: simulated seconds of traffic per fleet run
FLEET_SIM_S = 30.0


class InvokeWorkload:
    """The four workflows, one invocation each per transport."""

    def __init__(self, name: str, transports: Tuple[str, ...],
                 observed: bool, why: str):
        self.name = name
        self.why = why
        self.transports = transports
        self.observed = observed
        self.cells: Tuple[Cell, ...] = tuple(
            (workflow, transport) for workflow in WORKFLOWS
            for transport in transports)

    def run(self, api, cell: Cell, seed: int, setup: bool) -> Outcome:
        """Run one cell.  The set-up run also attaches a telemetry hub
        (a pure observer) to count the engine events of the cell."""
        workflow, transport = cell
        result = api.run(workflow, transport=transport, scale=SCALE,
                         seed=seed, params={"seed": seed},
                         telemetry=setup or self.observed,
                         profile=self.observed, lineage=self.observed)
        extra: Dict[str, Any] = {}
        if self.observed:
            result.critical_path()
            totals = result.lineage()["totals"]
            extra = {key: totals[key] for key in
                     ("bytes_moved", "bytes_touched",
                      "prefetch_waste_bytes")}
        hub = result.telemetry
        events = hub.total("sim.engine", "events.dispatched") if hub else 0
        return Outcome(latency_ns=result.latency_ns,
                       digest=digest(result.record.result),
                       invocations=1, events=events, extra=extra)

    def check(self, outcome: Outcome) -> List[str]:
        return []

    def sim_percentiles(self, outcomes: List[Outcome]) -> Tuple[int, int]:
        """Nearest-rank p50 and p99 of the cells' simulated latencies
        (8 samples: p99 is the slowest cell)."""
        ordered = sorted(o.latency_ns for o in outcomes) or [0]
        return tuple(ordered[max(0, math.ceil(len(ordered) * q) - 1)]
                     for q in (0.50, 0.99))


class FleetWorkload:
    """``run_fleet`` with its defaults over :data:`FLEET_SIM_S`."""

    name = "fleet-replay"
    why = ("open-loop multi-tenant traffic: the sim engine, fleet "
           "sharding/admission and the monitor/telemetry observers do "
           "all the work; runtime, mem and kernel are never called")
    transports: Tuple[str, ...] = ()
    cells: Tuple[Cell, ...] = (("fleet", "default"),)

    def run(self, api, cell: Cell, seed: int, setup: bool) -> Outcome:
        from repro.obs import PercentileSketch

        result = api.run_fleet(seed=seed, duration_s=FLEET_SIM_S)
        monitor = result.monitor
        sketch = PercentileSketch.merged(
            monitor.latency[key].lifetime for key in monitor.keys())
        totals = result.totals
        extra = {key: totals[key] for key in
                 ("arrivals", "completed", "failed", "rejected",
                  "inflight_at_end")}
        extra["p50_ns"] = sketch.quantile(0.50)
        extra["p99_ns"] = sketch.quantile(0.99)
        return Outcome(latency_ns=sketch.mean,
                       digest=digest(result.to_json()),
                       invocations=totals["completed"],
                       events=result.wall["events"],
                       arrivals=totals["arrivals"], extra=extra)

    def check(self, outcome: Outcome) -> List[str]:
        return fleet_conserves(outcome.extra)

    def sim_percentiles(self, outcomes: List[Outcome]) -> Tuple[int, int]:
        """The merged latency sketch's p50 and p99 of the set-up run."""
        if not outcomes:
            return 0, 0
        return outcomes[0].extra["p50_ns"], outcomes[0].extra["p99_ns"]


WORKLOADS = {w.name: w for w in (
    InvokeWorkload(
        "invoke-serdes", ("messaging", "storage-rdma"), observed=False,
        why="serialize -> copy -> deserialize: runtime (serializer, heap) "
            "and mem (address space, allocator) do most of the work"),
    InvokeWorkload(
        "invoke-rmmap", ("rmmap", "rmmap-prefetch"), observed=False,
        why="page faults, remote pulls and proxy loads instead of "
            "deserialization: kernel and net.rdma work, serializer idle"),
    InvokeWorkload(
        "invoke-observed", ("rmmap", "rmmap-prefetch"), observed=True,
        why="invoke-rmmap's cells with profile and lineage on: its gap to "
            "invoke-rmmap is the observers' host cost"),
    FleetWorkload(),
)}
