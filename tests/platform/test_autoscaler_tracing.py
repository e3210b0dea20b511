"""Tests for the KPA-style autoscaler and the platform's hub spans."""

from repro.obs import build_span_tree, capture, render_gantt
from repro.platform.cluster import ServerlessPlatform
from repro.transfer import MessagingTransport

from .test_execution import make_fanout_workflow, make_linear_workflow


# --- platform spans on the telemetry hub ----------------------------------------------

def test_platform_tracing_captures_function_spans():
    with capture() as hub:
        platform = ServerlessPlatform(n_machines=2)
        platform.deploy(make_linear_workflow(), MessagingTransport())
        record = platform.run_once("linear", {"n": 50})
    root = build_span_tree(hub)
    assert root.layer == "workflow" and len(root.children) == 1
    inv = root.children[0]
    assert inv.name == f"linear#{record.request_id}"
    assert inv.duration_ns == record.latency_ns
    fn_spans = [c for c in inv.children if c.layer == "platform"]
    assert {s.name.split("#")[0] for s in fn_spans} == \
        {"produce", "square", "total"}
    # function spans nest within the invocation span
    for s in fn_spans:
        assert inv.start_ns <= s.start_ns
        assert s.end_ns <= inv.end_ns
    assert "#" in render_gantt(root)


def test_tracing_enabled_after_deploy_applies():
    platform = ServerlessPlatform(n_machines=2)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    with capture() as hub:
        platform.run_once("linear", {"n": 10})
    assert build_span_tree(hub).children


# --- autoscaler -----------------------------------------------------------------------

def test_autoscaler_provisions_under_load():
    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_fanout_workflow(width=4), MessagingTransport())
    scaler = platform.enable_autoscaler("fanout")
    platform.run_closed_loop("fanout", clients=3, requests_per_client=3,
                             params={"n": 64})
    assert scaler.provisioned > 0


def test_autoscaler_reduces_cold_starts_for_bursts():
    def run(with_scaler):
        platform = ServerlessPlatform(n_machines=4)
        platform.deploy(make_fanout_workflow(width=4),
                        MessagingTransport())
        if with_scaler:
            platform.enable_autoscaler("fanout")
        platform.run_closed_loop("fanout", clients=4,
                                 requests_per_client=4,
                                 params={"n": 64})
        return platform.scheduler.cold_starts

    assert run(True) <= run(False)


def test_autoscaler_scales_down_after_idle():
    from repro.sim import Timeout
    from repro.units import seconds

    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    scaler = platform.enable_autoscaler("linear")
    platform.run_once("linear", {"n": 10})
    alive_before = platform.scheduler.containers_alive()
    assert alive_before > 0

    def idle_period():
        yield Timeout(seconds(10))

    platform.engine.run_process(idle_period())
    assert scaler.reap() > 0
    assert platform.scheduler.containers_alive() < alive_before


def test_autoscaler_detach_stops_observing():
    platform = ServerlessPlatform(n_machines=2)
    platform.deploy(make_linear_workflow(), MessagingTransport())
    scaler = platform.enable_autoscaler("linear")
    platform.run_once("linear", {"n": 5})
    provisioned = scaler.provisioned
    platform.stop_autoscalers()
    platform.run_once("linear", {"n": 5})
    assert scaler.provisioned == provisioned  # detached: no reaction
    assert not platform.scheduler.listeners


def test_autoscaler_respects_width_bound():
    platform = ServerlessPlatform(n_machines=4)
    platform.deploy(make_fanout_workflow(width=4), MessagingTransport())
    platform.enable_autoscaler("fanout", headroom=5.0)
    platform.run_closed_loop("fanout", clients=2, requests_per_client=2,
                             params={"n": 64})
    # even with absurd headroom, per-type containers never exceed width
    for fn, spec_width in (("partition", 1), ("worker", 4), ("merge", 1)):
        alive = sum(len(p) for k, p in platform.scheduler._pool.items()
                    if k[1] == fn)
        # pools can hold one container per slot, plus concurrency clones
        assert alive <= spec_width * 3, (fn, alive)
