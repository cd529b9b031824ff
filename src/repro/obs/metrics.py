"""The metrics registry: counters, gauges, histograms, timers, one JSON contract.

- **Counter** — monotone int (events executed, cache hits, forks);
- **Gauge** — last-written number (peak states, run seconds);
- **Histogram** — power-of-two bucketed distribution (solver query sizes);
- **Timer** — entry count and wall-clock seconds of one phase
  (``execute``, ``map``, ``solve``, ``solve.search``, ``merge``).

Each engine owns one registry, the only place its run's counters and
phase timings live.  The engine, mapper, solver, solver cache, medium and
reducer create pre-bound handles as attributes (the hot path does
``handle.value += n`` or ``with timer:``, no name lookup) and list them
in ``handles``; the engine's registry adopts those very objects
(:meth:`MetricsRegistry.adopt`), so its
:meth:`~MetricsRegistry.snapshot` reads the live values.  A checkpoint
restores them with one :meth:`~MetricsRegistry.install`; a distributed
run sums its jobs' snapshots with :func:`merge_snapshots`.

Snapshots are deterministic: sorted names, plain JSON types, no wall-clock
reads besides values that are explicitly time measurements.  The
``metrics`` snapshot of a run report (:func:`report_snapshot`) is the
stable contract consumed by ``benchmarks/``, ``repro trace check-metrics``
and the CI ``metrics-smoke`` job; it renders each timer as a
``phase.<name>.count`` counter and a ``phase.<name>.seconds`` gauge.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "CounterViews",
    "merge_snapshots",
    "report_snapshot",
    "save_metrics",
    "validate_metrics",
]

METRICS_SCHEMA_VERSION = 1

#: Histogram bucket upper bounds (inclusive); one overflow bucket follows.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-write-wins number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Bucketed distribution of non-negative integers.

    Buckets are ``bounds`` upper limits (inclusive) plus one overflow
    bucket; the snapshot keeps count/total/min/max so merged worker
    histograms stay exact for those aggregates.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[int] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int, times: int = 1) -> None:
        """Record ``value``; ``times`` records it that many times at once."""
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += times
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def data(self) -> dict:
        """The JSON form stored in snapshots."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def merge_data(parts: Iterable[dict]) -> dict:
        """Combine :meth:`data` dicts from workers into one (exact)."""
        merged: Optional[dict] = None
        for part in parts:
            if part is None:
                continue
            if merged is None:
                merged = {
                    "bounds": list(part["bounds"]),
                    "buckets": list(part["buckets"]),
                    "count": part["count"],
                    "total": part["total"],
                    "min": part["min"],
                    "max": part["max"],
                }
                continue
            if merged["bounds"] != list(part["bounds"]):
                raise ValueError("cannot merge histograms with different bounds")
            merged["buckets"] = [
                a + b for a, b in zip(merged["buckets"], part["buckets"])
            ]
            merged["count"] += part["count"]
            merged["total"] += part["total"]
            for key, pick in (("min", min), ("max", max)):
                values = [v for v in (merged[key], part[key]) if v is not None]
                merged[key] = pick(values) if values else None
        return merged if merged is not None else Histogram("empty").data()

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class Timer:
    """Entry count and wall-clock seconds of one phase; a context manager.

    Re-entrant: only the outermost ``with`` reads the clock and counts,
    so a phase entered again from inside itself is timed once, and an
    exception still stops the clock.  Seconds are inclusive of nested
    phases (``map`` and ``solve`` run inside ``execute``).
    """

    __slots__ = ("name", "count", "seconds", "_depth", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self._depth = 0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        if self._depth == 0:
            self._started = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.seconds += time.perf_counter() - self._started
            self.count += 1

    def __repr__(self) -> str:
        return f"Timer({self.name}, n={self.count}, s={self.seconds:.6f})"


class MetricsRegistry:
    """Named counters/gauges/histograms/timers with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}
        self._labels: Dict[str, str] = {}

    # -- creation / lookup (idempotent by name) -----------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Iterable[int] = DEFAULT_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._timers[name] = Timer(name)
        return metric

    def set_label(self, name: str, value: str) -> None:
        self._labels[name] = value

    def adopt(self, owner) -> None:
        """Register ``owner.handles`` (its pre-bound :class:`Counter`,
        :class:`Histogram` and :class:`Timer` attributes) under their own
        names.

        The registry shares those objects, so it reads their live values;
        adopting a second handle under a taken name is an error.  Owners
        list their handles because scanning ``vars(owner)`` would make
        every later attribute read on the owner slower (CPython 3.11
        converts the object's inline attribute values into a dict).
        """
        for metric in owner.handles:
            if isinstance(metric, Counter):
                table = self._counters
            elif isinstance(metric, Timer):
                table = self._timers
            else:
                table = self._histograms
            if table.get(metric.name) is not metric:
                self._require_fresh(metric.name)
                table[metric.name] = metric

    def install(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot`'s values into this registry, in place.

        Adopted handles keep their identity, so the subsystems holding
        them continue from the installed values (checkpoint resume).
        """
        for name, value in snapshot["counters"].items():
            self.counter(name).value = value
        for name, value in snapshot["gauges"].items():
            self.gauge(name).value = value
        for name, data in snapshot["histograms"].items():
            histogram = self.histogram(name, data["bounds"])
            if list(histogram.bounds) != list(data["bounds"]):
                raise ValueError(f"histogram bounds of {name!r} do not match")
            histogram.buckets = list(data["buckets"])
            histogram.count = data["count"]
            histogram.total = data["total"]
            histogram.min = data["min"]
            histogram.max = data["max"]
        for name, data in snapshot["timers"].items():
            timer = self.timer(name)
            timer.count = data["count"]
            timer.seconds = data["seconds"]
        self._labels.update(snapshot["labels"])

    def _require_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
            or name in self._timers
        ):
            raise ValueError(f"metric name {name!r} is already registered")

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON snapshot with sorted, stable key order."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "labels": {k: self._labels[k] for k in sorted(self._labels)},
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].data()
                for name in sorted(self._histograms)
            },
            "timers": {
                name: {
                    "count": self._timers[name].count,
                    "seconds": self._timers[name].seconds,
                }
                for name in sorted(self._timers)
            },
        }


def merge_snapshots(parts: Iterable[dict]) -> dict:
    """One registry snapshot of several runs' registries (exact).

    Counters and timers are summed and histograms merged with
    :meth:`Histogram.merge_data`: every state of a distributed run is
    explored by exactly one job, so the sums equal the sequential run's.
    """
    parts = list(parts)
    registry = MetricsRegistry()
    for part in parts:
        for name, value in part["counters"].items():
            registry.counter(name).value += value
        for name, data in part["timers"].items():
            timer = registry.timer(name)
            timer.count += data["count"]
            timer.seconds += data["seconds"]
    names = sorted({name for part in parts for name in part["histograms"]})
    snapshot = registry.snapshot()
    snapshot["histograms"] = {
        name: Histogram.merge_data(part["histograms"].get(name) for part in parts)
        for name in names
    }
    return snapshot


class CounterViews:
    """Views over a report's ``registry`` snapshot.

    ``solver_queries`` reads one counter.  ``mapping_stats`` maps each
    ``mapping.*`` counter's name, minus the family prefix, to its value;
    likewise ``solver_stats`` (``solver.*`` without the cache),
    ``cache_stats``, ``net_stats`` and ``reduce_stats``.  ``phases`` is
    the snapshot's timers, ``{name: {"count": n, "seconds": s}}``.  Views
    are built on read; nothing is stored twice.
    """

    registry: dict

    @property
    def solver_queries(self) -> int:
        return self.registry["counters"]["solver.queries"]

    def _family(self, prefix: str, exclude: Tuple[str, ...] = ()) -> Dict[str, int]:
        cut = len(prefix)
        return {
            name[cut:]: value
            for name, value in self.registry["counters"].items()
            if name.startswith(prefix) and not name.startswith(exclude)
        }

    @property
    def mapping_stats(self) -> Dict[str, int]:
        return self._family("mapping.")

    @property
    def solver_stats(self) -> Dict[str, int]:
        return self._family("solver.", exclude=("solver.cache.",))

    @property
    def cache_stats(self) -> Dict[str, int]:
        return self._family("solver.cache.")

    @property
    def net_stats(self) -> Dict[str, int]:
        return self._family("net.")

    @property
    def reduce_stats(self) -> Dict[str, int]:
        return self._family("reduce.")

    @property
    def phases(self) -> Dict[str, Dict[str, float]]:
        return self.registry["timers"]


def report_snapshot(
    report,
    counters: Optional[Dict[str, int]] = None,
    gauges: Optional[Dict[str, float]] = None,
) -> dict:
    """The metrics snapshot of one :class:`~repro.core.engine.RunReport`.

    Its ``registry`` snapshot plus the values derived per report: the run
    totals, the state census, groups, gauges and labels.  Each timer
    becomes a ``phase.<name>.count`` counter and a ``phase.<name>.seconds``
    gauge.  ``counters`` and ``gauges`` add the values a report subclass
    derives itself.
    """
    registry = MetricsRegistry()
    registry.install(report.registry)
    registry.set_label("algorithm", report.algorithm)
    registry.set_label("aborted", str(bool(report.aborted)).lower())

    run_counters = {
        "run.events_executed": report.events_executed,
        "run.instructions": report.instructions,
        "run.checkpoints_written": report.checkpoints_written,
        "states.total": report.total_states,
        "states.active": report.active_states,
        "states.error": len(report.error_states),
        "mapping.groups": report.group_count,
    }
    for name, data in report.phases.items():
        run_counters[f"phase.{name}.count"] = data["count"]
    run_counters.update(counters or {})
    for name, value in run_counters.items():
        registry.counter(name).value = int(value)

    run_gauges = {
        "run.runtime_seconds": round(report.runtime_seconds, 6),
        "run.virtual_ms": report.virtual_ms,
        "run.accounted_bytes": report.accounted_bytes,
        "run.peak_states": report.peak_states(),
        "run.peak_accounted_bytes": report.peak_accounted_bytes(),
        # Abort status as a gauge so dashboards can alert on it directly
        # (the "aborted" label carries the same bit as a string).
        "run.aborted": 1 if report.aborted else 0,
        "run.partial": 1 if report.partial else 0,
        "run.resumed": 1 if report.resumed else 0,
    }
    for name, data in report.phases.items():
        run_gauges[f"phase.{name}.seconds"] = round(data["seconds"], 6)
    run_gauges.update(gauges or {})
    for name, value in run_gauges.items():
        registry.gauge(name).set(value)
    snapshot = registry.snapshot()
    del snapshot["timers"]  # rendered as the phase.* metrics above
    return snapshot


def save_metrics(snapshot: dict, path) -> None:
    """Write a metrics snapshot as pretty-printed JSON (atomically)."""
    from .fileio import atomic_write_text

    atomic_write_text(path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def validate_metrics(data) -> List[str]:
    """Schema-check a metrics snapshot; returns a list of problems.

    An empty list means the snapshot is well-formed.  This is the check
    CI's ``metrics-smoke`` job gates on (via ``repro trace check-metrics``).
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["metrics snapshot must be a JSON object"]
    if data.get("schema") != METRICS_SCHEMA_VERSION:
        errors.append(
            f"schema is {data.get('schema')!r},"
            f" expected {METRICS_SCHEMA_VERSION}"
        )
    for section in ("labels", "counters", "gauges", "histograms"):
        if not isinstance(data.get(section), dict):
            errors.append(f"missing or non-object section {section!r}")
    for name, value in (data.get("counters") or {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"counter {name!r} must be a non-negative int")
    for name, value in (data.get("gauges") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"gauge {name!r} must be a number")
    for name, value in (data.get("histograms") or {}).items():
        if not isinstance(value, dict):
            errors.append(f"histogram {name!r} must be an object")
            continue
        missing = {"bounds", "buckets", "count", "total"} - set(value)
        if missing:
            errors.append(f"histogram {name!r} missing {sorted(missing)}")
            continue
        if len(value["buckets"]) != len(value["bounds"]) + 1:
            errors.append(
                f"histogram {name!r} needs len(bounds)+1 buckets"
            )
        elif sum(value["buckets"]) != value["count"]:
            errors.append(f"histogram {name!r} bucket counts != count")
    for required in (
        "run.events_executed",
        "states.total",
        "mapping.groups",
        "solver.queries",
    ):
        if required not in (data.get("counters") or {}):
            errors.append(f"missing required counter {required!r}")
    return errors
