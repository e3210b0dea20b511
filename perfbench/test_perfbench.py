"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

One short run (one timed pass and one traced pass) of every workload
checks that every metric is emitted with its unit, that all output
checks pass and that ``failed`` is 0; the checks themselves are shown
to fire on corrupted results.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import (Outcome, agree, digest, fleet_conserves,  # noqa: E402
                    transports_agree)
from workloads import WORKLOADS, FleetWorkload  # noqa: E402

#: layer functions that must be called on each workload (the map in
#: README.md); a rename in the program shows up here as zero calls
EXPECTED_CALLS = {
    "invoke-serdes": (
        "runtime.serializer.serialize", "runtime.serializer.deserialize",
        "runtime.heap.box", "runtime.heap.load",
        "runtime.objects.unpack_header", "mem.address_space.write",
        "mem.address_space.translate", "mem.allocator.alloc",
        "mem.allocator.free", "transfer.messaging.send",
        "transfer.storage-rdma.receive", "platform.coordinator.invoke",
        "platform.coordinator.run_instance",
        "platform.coordinator.charge_compute", "workloads.finra.stages",
        "workloads.finra.check_rule", "workloads.wordcount.count_words",
        "workloads.ml_training.fit_pca",
        "sim.engine.run", "obs.lineage.current_lineage"),
    "invoke-rmmap": (
        "runtime.heap.load", "mem.address_space.read",
        "kernel.kernel.register_mem", "kernel.kernel.rmap",
        "kernel.remote_pager.handle_fault", "kernel.remote_pager.prefetch",
        "net.rdma.read", "net.rdma.read_batch", "net.rpc.call",
        "transfer.rmmap.receive", "transfer.rmmap-prefetch.send",
        "platform.coordinator.run_instance", "sim.engine.run",
        "obs.lineage.current_lineage"),
    "invoke-observed": (
        "kernel.remote_pager.handle_fault", "obs.telemetry.count",
        "obs.telemetry.span", "obs.telemetry.op", "obs.lineage.touched",
        "obs.lineage.page_pulled", "obs.profile.build_span_tree",
        "obs.profile.critical_path_report"),
    "fleet-replay": (
        "sim.engine.run", "fleet.shard.submit", "fleet.admission.admit",
        "fleet.placement.place", "fleet.traffic.arrivals",
        "obs.telemetry.count", "obs.telemetry.event",
        "obs.monitor.observe", "obs.timeline.record"),
}

#: layers a workload must leave alone
EXPECTED_IDLE = {
    "invoke-rmmap": ("runtime.serializer.serialize", "obs.lineage.touched"),
    "fleet-replay": ("runtime.heap.load", "mem.address_space.write",
                     "kernel.kernel.rmap"),
}


def _quiet(_line: str) -> None:
    pass


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_specs()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_emits_every_metric_and_passes_checks(name):
    bench = run.Bench(WORKLOADS[name], seed=5, log=_quiet)
    e2e, layers = bench.measure(seconds=0, trace=True)
    assert bench.errors == []
    assert bench.failed == 0 and bench.attempted > 0
    for metric, unit, _, _ in run.END_TO_END:
        assert unit and e2e[metric] > 0, metric
    for metric, unit, _ in run.per_layer_specs():
        assert unit and metric in layers, metric
    for fn in EXPECTED_CALLS[name]:
        assert layers[f"{fn}.calls"] > 0, fn
    for fn in EXPECTED_IDLE.get(name, ()):
        assert layers[f"{fn}.calls"] == 0, fn
    assert 0 <= layers["trace.unattributed_frac"] < 1
    assert layers["trace.spans"] > 0


def test_layer_counts_repeat_exactly():
    bench = run.Bench(WORKLOADS["fleet-replay"], seed=2, log=_quiet)
    bench.setup()
    first, _ = bench.traced()
    second, _ = bench.traced()
    assert first.calls == second.calls and first.counts == second.counts
    assert bench.failed == 0


def test_tracer_puts_every_function_back():
    run._import_repro()
    import repro.mem.address_space as address_space
    import repro.obs.lineage as lineage

    def bound():
        return (address_space.AddressSpace.write, lineage.current_lineage,
                address_space._lineage)

    before = bound()
    with run.LayerTracer():
        # the name imported into another module is rebound too
        assert address_space._lineage is not before[2]
        assert address_space.AddressSpace.write is not before[0]
    assert bound() == before


def test_fails_without_the_program(tmp_path):
    """Outside a checkout (no ``src/repro``) the run exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- the checks fire on corrupted results ----------------------------------

_GOOD = Outcome(latency_ns=15_004_533, digest="a" * 20, invocations=1,
                extra={})


def test_agree_fires_on_a_changed_result_or_latency():
    assert agree(_GOOD, _GOOD, "cell") == []
    assert agree(_GOOD, _GOOD._replace(digest="b" * 20), "cell")
    assert agree(_GOOD, _GOOD._replace(latency_ns=15_004_534), "cell")


def test_transports_agree_fires_when_one_transport_differs():
    outcomes = {("finra", "rmmap"): _GOOD,
                ("finra", "rmmap-prefetch"): _GOOD,
                ("wordcount", "rmmap"): _GOOD}
    assert transports_agree(outcomes) == {}
    outcomes[("finra", "rmmap-prefetch")] = _GOOD._replace(digest="c" * 20)
    assert set(transports_agree(outcomes)) == {("finra", "rmmap"),
                                               ("finra", "rmmap-prefetch")}


def test_fleet_conserves_fires_on_lost_arrivals():
    totals = {"arrivals": 10, "completed": 6, "failed": 1, "rejected": 2,
              "inflight_at_end": 1}
    assert fleet_conserves(totals) == []
    assert fleet_conserves({**totals, "arrivals": 11})


def test_digest_sees_deep_changes():
    import numpy as np

    value = {"model": [np.arange(4.0)], "accuracy": 1.0, "n": 3}
    changed = {"model": [np.array([0.0, 1.0, 2.0, 3.5])],
               "accuracy": 1.0, "n": 3}
    assert digest(value) == digest({"n": 3, "accuracy": 1.0,
                                    "model": [np.arange(4.0)]})
    assert digest(value) != digest(changed)
    assert digest(1.0) != digest(1.0 + 2 ** -52)


class _CorruptAfterSetup(FleetWorkload):
    """Returns a wrong result on every run after the set-up pass."""

    def run(self, api, cell, seed, setup):
        outcome = super().run(api, cell, seed, setup)
        return outcome if setup else outcome._replace(digest="corrupted")


def test_a_corrupted_result_counts_as_failed():
    bench = run.Bench(_CorruptAfterSetup(), seed=1, log=_quiet)
    bench.measure(seconds=0, trace=False)
    assert bench.attempted == 2 and bench.failed == 1
    assert any("result digest" in error for error in bench.errors)
