"""Differential root-causing: *why* did this run get slower?

Two deterministic runs of the same workload produce structurally
identical span trees; when one regresses, the delta lives in specific
nodes.  This module aligns two runs — or two persisted bench snapshots —
and ranks where the regression came from:

* :func:`diff_traces` joins two span trees on their root-to-node
  *location path* (tuples of normalized ``(machine, layer, name)``, via
  :func:`repro.obs.profile.path_table`) and computes per-path self/wait/
  total deltas;
* :func:`diff_snapshots` joins two ``BENCH_<n>.json`` snapshots on
  ``workload × transport × (machine, layer, name)`` critical-path leaves
  (schema v2's ``path_ns_by_location``) plus the end-to-end headline;
* :func:`render_diff` prints either report as a ranked table, regression
  suspects first.

Each row carries ``share_of_regression`` — its slowdown as a fraction of
the total slowdown across all regressed rows — so the first row *is* the
root-cause candidate.  The bench gate (``repro bench-check``) attaches a
snapshot diff automatically when it fails, and ``RunResult.diff(other)``
exposes the trace diff on the run façade.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.profile import SpanNode, path_table

DIFF_SCHEMA_VERSION = 1


def _rank(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rank regressions (positive delta) first, largest first; attach
    ``share_of_regression`` over the positive-delta mass."""
    regressed = sum(r["delta_ns"] for r in rows if r["delta_ns"] > 0)
    for row in rows:
        row["share_of_regression"] = (
            round(row["delta_ns"] / regressed, 6)
            if regressed > 0 and row["delta_ns"] > 0 else 0.0)
    rows.sort(key=lambda r: (-r["delta_ns"], r["location"]))
    return rows


def _loc_str(location) -> str:
    machine, layer, name = location
    return f"{machine}:{layer}/{name}"


def diff_traces(baseline: SpanNode, candidate: SpanNode,
                min_delta_ns: int = 0) -> Dict[str, Any]:
    """Align two span trees by location path; rank per-node deltas.

    ``self_ns`` deltas are the signal (a node's *own* simulated work);
    ``total_ns`` deltas are carried for context (a parent's total moves
    whenever any descendant's does).  Paths present in only one tree
    count with the other side at zero, so added/removed phases surface
    rather than vanish.
    """
    base, cand = path_table(baseline), path_table(candidate)
    rows: List[Dict[str, Any]] = []
    for path in sorted(set(base) | set(cand), key=lambda p: (len(p), p)):
        b = base.get(path, {"self_ns": 0, "wait_ns": 0, "total_ns": 0,
                            "count": 0})
        c = cand.get(path, {"self_ns": 0, "wait_ns": 0, "total_ns": 0,
                            "count": 0})
        delta_self = c["self_ns"] - b["self_ns"]
        if abs(delta_self) < min_delta_ns and b["count"] == c["count"]:
            continue
        rows.append({
            "path": [_loc_str(loc) for loc in path],
            "location": _loc_str(path[-1]),
            "depth": len(path),
            "baseline_self_ns": b["self_ns"],
            "candidate_self_ns": c["self_ns"],
            "delta_ns": delta_self,
            "delta_total_ns": c["total_ns"] - b["total_ns"],
            "delta_wait_ns": c["wait_ns"] - b["wait_ns"],
            "baseline_count": b["count"],
            "candidate_count": c["count"],
            "status": ("added" if not b["count"] else
                       "removed" if not c["count"] else "common"),
        })
    return {
        "schema_version": DIFF_SCHEMA_VERSION,
        "kind": "trace",
        "baseline_total_ns": baseline.duration_ns,
        "candidate_total_ns": candidate.duration_ns,
        "delta_total_ns": candidate.duration_ns - baseline.duration_ns,
        "rows": _rank(rows),
    }


def _entry_locations(entry: Dict[str, Any]) -> Dict[str, int]:
    """``critical_path.path_ns_by_location`` of one snapshot entry."""
    return dict(entry.get("critical_path", {})
                .get("path_ns_by_location", {}))


def diff_snapshots(baseline: Dict[str, Any], candidate: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """Root-cause a snapshot pair: per ``workload × transport``, rank
    critical-path ``(machine, layer, name)`` deltas; report end-to-end
    movement alongside.

    Unlike :func:`repro.bench.regression.compare`, this never judges —
    no tolerances, no pass/fail — it only explains where the simulated
    nanoseconds moved.  Mismatched operating points are refused for the
    same reason the gate refuses them.
    """
    for key in ("seed", "scale"):
        if baseline.get(key) != candidate.get(key) \
                and baseline.get(key) is not None:
            raise ValueError(
                f"snapshots disagree on {key}: {baseline.get(key)!r} vs "
                f"{candidate.get(key)!r}; diff them at one operating "
                f"point")

    e2e: List[Dict[str, Any]] = []
    rows: List[Dict[str, Any]] = []
    b_wl = baseline.get("workloads", {})
    c_wl = candidate.get("workloads", {})
    for workload in sorted(set(b_wl) & set(c_wl)):
        for transport in sorted(set(b_wl[workload])
                                & set(c_wl[workload])):
            b_entry = b_wl[workload][transport]
            c_entry = c_wl[workload][transport]
            b_e2e = b_entry.get("e2e_ns", 0)
            c_e2e = c_entry.get("e2e_ns", 0)
            e2e.append({
                "workload": workload, "transport": transport,
                "baseline_ns": b_e2e, "candidate_ns": c_e2e,
                "delta_ns": c_e2e - b_e2e,
                "rel_change": (round((c_e2e - b_e2e) / b_e2e, 6)
                               if b_e2e else 0.0),
            })
            b_loc = _entry_locations(b_entry)
            c_loc = _entry_locations(c_entry)
            for loc in sorted(set(b_loc) | set(c_loc)):
                b_ns = b_loc.get(loc, 0)
                c_ns = c_loc.get(loc, 0)
                if b_ns == c_ns:
                    continue
                rows.append({
                    "workload": workload, "transport": transport,
                    "location": loc,
                    "baseline_ns": b_ns, "candidate_ns": c_ns,
                    "delta_ns": c_ns - b_ns,
                    "status": ("added" if not b_ns else
                               "removed" if not c_ns else "common"),
                })
    e2e.sort(key=lambda r: (-r["delta_ns"], r["workload"],
                            r["transport"]))
    return {
        "schema_version": DIFF_SCHEMA_VERSION,
        "kind": "snapshot",
        "baseline_total_ns": sum(r["baseline_ns"] for r in e2e),
        "candidate_total_ns": sum(r["candidate_ns"] for r in e2e),
        "delta_total_ns": sum(r["delta_ns"] for r in e2e),
        "e2e": e2e,
        "rows": _rank(rows),
    }


def diff_snapshot_paths(baseline_path: str,
                        candidate_path: str) -> Dict[str, Any]:
    """Load two snapshot files and :func:`diff_snapshots` them."""
    from repro.bench.snapshot import load_snapshot
    return diff_snapshots(load_snapshot(baseline_path),
                          load_snapshot(candidate_path))


def render_diff(report: Dict[str, Any], top: int = 12) -> str:
    """Either diff report as ranked text, regression suspects first."""
    lines = [
        f"run diff ({report['kind']}): "
        f"{report['baseline_total_ns'] / 1e6:.3f} ms -> "
        f"{report['candidate_total_ns'] / 1e6:.3f} ms "
        f"({report['delta_total_ns'] / 1e6:+.3f} ms)"]
    for row in report.get("e2e", []):
        if row["delta_ns"]:
            lines.append(
                f"  e2e {row['workload']}/{row['transport']}: "
                f"{row['baseline_ns'] / 1e6:.3f} -> "
                f"{row['candidate_ns'] / 1e6:.3f} ms "
                f"({row['rel_change']:+.2%})")
    rows = report["rows"]
    if not rows:
        lines.append("no per-location deltas (runs are identical)")
        return "\n".join(lines)
    lines.append(f"{'share':>7}  {'delta ms':>10}  root cause")
    for row in rows[:top]:
        prefix = ""
        if "workload" in row:
            prefix = f"{row['workload']}/{row['transport']} "
        lines.append(
            f"{row['share_of_regression']:>6.1%}  "
            f"{row['delta_ns'] / 1e6:>+10.3f}  "
            f"{prefix}{row['location']}"
            + ("" if row["status"] == "common"
               else f" [{row['status']}]"))
    rest = rows[top:]
    if rest:
        lines.append(f"        ... {len(rest)} more locations")
    return "\n".join(lines)
