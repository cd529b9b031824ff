"""Trace analysis: summaries, schema validation, and semantic diffing.

The tool behind ``repro trace``.  Its central definition is the
*canonical event multiset*: every semantic event (not ``worker.*`` /
``run.*``) reduced to its event type plus non-volatile fields
(:data:`repro.obs.events.VOLATILE_FIELDS` dropped), counted as a
multiset.  Two runs of the same scenario are *semantically identical*
iff their canonical multisets are equal — the property the distributed
runner guarantees for any ``--workers N``, and the property
``tests/obs/test_trace_determinism.py`` checks through this module.
"""

from __future__ import annotations

from collections import Counter as _Multiset
from typing import Dict, Iterable, List, Tuple

from .events import EVENT_SCHEMA, META_EVENT_PREFIXES, VOLATILE_FIELDS

__all__ = [
    "TraceDiff",
    "canonical_event",
    "canonical_multiset",
    "diff_traces",
    "summarize_trace",
    "validate_trace",
]

CanonicalEvent = Tuple


def canonical_event(event: dict) -> CanonicalEvent:
    """The identity of one event: type + sorted non-volatile fields."""
    return (
        event.get("ev"),
        tuple(
            sorted(
                (key, value)
                for key, value in event.items()
                if key != "ev" and key not in VOLATILE_FIELDS
            )
        ),
    )


def _is_meta(event: dict) -> bool:
    ev = event.get("ev", "")
    return ev.startswith(META_EVENT_PREFIXES)


def canonical_multiset(events: Iterable[dict]) -> "_Multiset[CanonicalEvent]":
    """Multiset of canonical semantic events (meta events excluded)."""
    return _Multiset(
        canonical_event(event) for event in events if not _is_meta(event)
    )


class TraceDiff:
    """Difference between two traces' canonical event multisets."""

    def __init__(self, only_a: _Multiset, only_b: _Multiset) -> None:
        self.only_a = only_a
        self.only_b = only_b

    @property
    def equal(self) -> bool:
        return not self.only_a and not self.only_b

    def render(self, limit: int = 20) -> str:
        if self.equal:
            return "traces are semantically identical"
        lines = [
            f"traces differ: {sum(self.only_a.values())} event(s) only in A,"
            f" {sum(self.only_b.values())} only in B"
        ]
        for label, side in (("A", self.only_a), ("B", self.only_b)):
            for key, count in sorted(side.items())[:limit]:
                ev, fields = key
                rendered = " ".join(f"{k}={v}" for k, v in fields)
                lines.append(f"  only in {label} x{count}: {ev} {rendered}")
        return "\n".join(lines)


def diff_traces(a: Iterable[dict], b: Iterable[dict]) -> TraceDiff:
    """Compare two traces modulo volatile fields and meta events."""
    multiset_a = canonical_multiset(a)
    multiset_b = canonical_multiset(b)
    return TraceDiff(multiset_a - multiset_b, multiset_b - multiset_a)


def validate_trace(events: Iterable[dict]) -> List[str]:
    """Schema-check a trace; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index}: not an object")
            continue
        ev = event.get("ev")
        if ev not in EVENT_SCHEMA:
            errors.append(f"event {index}: unknown type {ev!r}")
            continue
        missing = EVENT_SCHEMA[ev] - set(event)
        if missing:
            errors.append(
                f"event {index} ({ev}): missing fields {sorted(missing)}"
            )
        if "seq" not in event:
            errors.append(f"event {index} ({ev}): missing seq")
    return errors


def summarize_trace(events: List[dict]) -> Dict:
    """Aggregate view of one trace: counts by type, nodes, time span."""
    by_type: Dict[str, int] = {}
    nodes = set()
    max_t = 0
    workers = set()
    for event in events:
        ev = event.get("ev", "?")
        by_type[ev] = by_type.get(ev, 0) + 1
        if "node" in event:
            nodes.add(event["node"])
        if "t" in event:
            max_t = max(max_t, event["t"])
        if "worker" in event:
            workers.add(event["worker"])
    return {
        "events": len(events),
        "by_type": {name: by_type[name] for name in sorted(by_type)},
        "nodes": len(nodes),
        "virtual_ms": max_t,
        "workers": sorted(workers),
    }


def render_summary(summary: Dict) -> str:
    """Human-readable form of :func:`summarize_trace`."""
    lines = [
        f"{summary['events']} events over {summary['nodes']} nodes,"
        f" {summary['virtual_ms']} virtual ms"
        + (
            f", workers {summary['workers']}"
            if summary["workers"]
            else ""
        )
    ]
    for name, count in summary["by_type"].items():
        lines.append(f"  {name:24s} {count}")
    return "\n".join(lines)
