"""Output checks of the benchmark.

Every check is a pure function from outcomes to a list of error
strings (empty when the outputs are correct), so the self-test can feed
each one a corrupted outcome and see it fire.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Tuple

Cell = Tuple[str, str]


class Outcome(NamedTuple):
    """What one operation produced, reduced to comparable values."""

    #: simulated latency: the invocation's, or a fleet run's mean
    latency_ns: float
    #: digest of the result (``record.result``, or the fleet JSON)
    digest: str
    #: completed simulated invocations
    invocations: int
    #: workload-specific figures (fleet totals, lineage totals...)
    extra: Dict[str, Any]
    #: engine events dispatched (0 where no hub counted them)
    events: int = 0
    #: simulated invocations that arrived (completed or not)
    arrivals: int = 1


def digest(value: Any) -> str:
    """A stable digest of a result value: dicts, sequences, numbers,
    strings, numpy arrays and plain objects (through their ``vars``)."""
    import numpy as np  # imported here so that set-up time includes it

    h = hashlib.sha256()
    _feed(h, value, np)
    return h.hexdigest()[:20]


def _feed(h, value: Any, np) -> None:
    if value is None or isinstance(value, (bool, int, str)):
        h.update(repr((type(value).__name__, value)).encode())
    elif isinstance(value, float):
        h.update(b"f" + value.hex().encode())
    elif isinstance(value, (bytes, bytearray)):
        h.update(b"b%d:" % len(value) + bytes(value))
    elif isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(h, value.item(), np)
    elif isinstance(value, dict):
        h.update(b"{%d" % len(value))
        for key in sorted(value, key=repr):
            _feed(h, key, np)
            _feed(h, value[key], np)
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item, np)
    elif hasattr(value, "__dict__"):
        h.update(type(value).__qualname__.encode())
        _feed(h, vars(value), np)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def agree(reference: Outcome, got: Outcome, what: str) -> List[str]:
    """The same operation run twice gives the same simulated latency and
    the same result (no state leaks between runs; observers and tracing
    leave the simulation alone)."""
    errors = []
    if got.latency_ns != reference.latency_ns:
        errors.append(f"{what}: simulated latency {got.latency_ns} != "
                      f"{reference.latency_ns} of the set-up run")
    if got.digest != reference.digest:
        errors.append(f"{what}: result digest {got.digest} != "
                      f"{reference.digest} of the set-up run")
    return errors


def transports_agree(outcomes: Dict[Cell, Outcome]) -> Dict[Cell, List[str]]:
    """Every transport of a workflow delivers the same result."""
    by_workflow: Dict[str, Dict[str, str]] = {}
    for (workflow, transport), outcome in outcomes.items():
        by_workflow.setdefault(workflow, {})[transport] = outcome.digest
    errors: Dict[Cell, List[str]] = {}
    for workflow, digests in by_workflow.items():
        if len(set(digests.values())) > 1:
            for transport in digests:
                errors[(workflow, transport)] = [
                    f"{workflow}: transports disagree on the result: "
                    f"{sorted(digests.items())}"]
    return errors


def fleet_conserves(totals: Dict[str, int]) -> List[str]:
    """Every arrival is completed, failed, rejected or still in flight."""
    parts = ("completed", "failed", "rejected", "inflight_at_end")
    accounted = sum(totals[k] for k in parts)
    if accounted != totals["arrivals"]:
        return [f"fleet: {' + '.join(parts)} = {accounted} != arrivals "
                f"{totals['arrivals']}"]
    return []
