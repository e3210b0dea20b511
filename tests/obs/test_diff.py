"""Differential root-causing tests: trace diffs, snapshot diffs, and the
bench gate's automatic attachment."""

import copy

import pytest

from repro.bench import regression, snapshot
from repro.obs.diff import (diff_snapshots, diff_traces, render_diff)
from repro.obs.profile import SpanNode


def span(name, start, end, layer="transfer", machine="m0", span_id=0,
         children=()):
    return SpanNode(machine=machine, layer=layer, name=name,
                    start_ns=start, end_ns=end, span_id=span_id,
                    parent_id=None, trace_id="t",
                    children=list(children))


def tree(transform_end=100, network_end=300):
    """root > [transform, network] — the slowdown knobs are the ends."""
    transform = span("transform", 0, transform_end, layer="mem",
                     span_id=1)
    network = span("network", transform_end, network_end,
                   layer="net.rdma", span_id=2)
    return span("invoke", 0, network_end, layer="platform",
                children=[transform, network])


class TestDiffTraces:
    def test_identical_trees_have_zero_deltas(self):
        report = diff_traces(tree(), tree())
        assert report["delta_total_ns"] == 0
        assert all(r["delta_ns"] == 0 for r in report["rows"])
        assert all(r["share_of_regression"] == 0.0
                   for r in report["rows"])

    def test_induced_slowdown_ranks_first_with_full_share(self):
        baseline = tree(transform_end=100, network_end=300)
        candidate = tree(transform_end=250, network_end=450)
        report = diff_traces(baseline, candidate)
        top = report["rows"][0]
        assert top["location"] == "m0:mem/transform"
        assert top["delta_ns"] == 150
        assert top["share_of_regression"] == 1.0
        assert top["status"] == "common"
        assert report["delta_total_ns"] == 150
        # the network span moved in time but did no extra work
        network = next(r for r in report["rows"]
                       if r["location"] == "m0:net.rdma/network")
        assert network["delta_ns"] == 0

    def test_added_and_removed_paths_surface(self):
        baseline = tree()
        candidate = tree()
        candidate.children.append(
            span("retry", 300, 340, layer="chaos", span_id=9))
        candidate.end_ns = 340
        report = diff_traces(baseline, candidate)
        added = next(r for r in report["rows"]
                     if r["location"] == "m0:chaos/retry")
        assert added["status"] == "added"
        assert added["baseline_count"] == 0
        reverse = diff_traces(candidate, baseline)
        removed = next(r for r in reverse["rows"]
                       if r["location"] == "m0:chaos/retry")
        assert removed["status"] == "removed"

    def test_min_delta_filters_unchanged_rows(self):
        baseline = tree(transform_end=100)
        candidate = tree(transform_end=101)
        report = diff_traces(baseline, candidate, min_delta_ns=10)
        assert report["rows"] == []

    def test_render_names_the_root_cause(self):
        text = render_diff(diff_traces(tree(100, 300), tree(250, 450)))
        assert "m0:mem/transform" in text
        assert "root cause" in text

    def test_render_identical(self):
        text = render_diff(diff_traces(tree(), tree(), min_delta_ns=1))
        assert "identical" in text


@pytest.fixture(scope="module")
def wordcount_snapshot():
    return snapshot.collect(workloads=["wordcount"],
                            transports=["rmmap-prefetch"])


class TestDiffSnapshots:
    def _slowed(self, snap, extra_ns=2_000_000):
        """A copy with *extra_ns* induced into one critical-path
        location (and the e2e headline) of the only entry."""
        cand = copy.deepcopy(snap)
        entry = cand["workloads"]["wordcount"]["rmmap-prefetch"]
        entry["e2e_ns"] += extra_ns
        locations = entry["critical_path"]["path_ns_by_location"]
        victim = sorted(locations)[0]
        locations[victim] += extra_ns
        return cand, victim

    def test_induced_location_ranks_first(self, wordcount_snapshot):
        cand, victim = self._slowed(wordcount_snapshot)
        report = diff_snapshots(wordcount_snapshot, cand)
        assert report["rows"][0]["location"] == victim
        assert report["rows"][0]["delta_ns"] == 2_000_000
        assert report["rows"][0]["share_of_regression"] == 1.0
        e2e = report["e2e"][0]
        assert (e2e["workload"], e2e["transport"]) == \
            ("wordcount", "rmmap-prefetch")
        assert e2e["delta_ns"] == 2_000_000
        assert victim in render_diff(report)

    def test_refuses_mismatched_operating_points(self, wordcount_snapshot):
        cand = copy.deepcopy(wordcount_snapshot)
        cand["seed"] = 99
        with pytest.raises(ValueError):
            diff_snapshots(wordcount_snapshot, cand)

    def test_gate_failure_attaches_diff(self, wordcount_snapshot,
                                        tmp_path):
        cand, victim = self._slowed(wordcount_snapshot)
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        snapshot.write_snapshot(wordcount_snapshot, str(base_path))
        snapshot.write_snapshot(cand, str(cand_path))
        report = regression.check_paths(str(base_path), str(cand_path))
        assert not report.ok
        assert report.diff is not None
        assert report.diff["rows"][0]["location"] == victim
        assert victim in report.render()
        assert report.to_dict()["diff"]["kind"] == "snapshot"

    def test_gate_pass_attaches_nothing(self, wordcount_snapshot,
                                        tmp_path):
        path = tmp_path / "snap.json"
        snapshot.write_snapshot(wordcount_snapshot, str(path))
        report = regression.check_paths(str(path), str(path))
        assert report.ok and report.diff is None


class TestRunResultDiff:
    def test_same_seed_runs_diff_to_zero(self):
        from repro.api import run

        a = run("wordcount", transport="rmmap-prefetch", seed=0, scale=0.02,
                telemetry=True)
        b = run("wordcount", transport="rmmap-prefetch", seed=0, scale=0.02,
                telemetry=True)
        report = a.diff(b)
        assert report["kind"] == "trace"
        assert report["delta_total_ns"] == 0
        assert all(r["delta_ns"] == 0 for r in report["rows"])
