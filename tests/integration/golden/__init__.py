"""The golden matrix: pinned behaviour of every mapper on seven workloads.

``matrix.json`` holds one entry per ``<workload>/<algorithm>`` pair for
COB, COW and SDS over flood, grid, a dissemination line, election,
quorum, the symbolic-readings program and a 32-bit ``symbolic()``
program with ``x == c`` branches.  Each entry is:

- ``digest`` — SHA-256 over the run's sorted canonical trace multiset
  (:func:`repro.obs.canonical_multiset`: semantic events, volatile
  fields dropped);
- the deterministic report counters of :data:`COUNTERS`;
- ``violations`` — the number of error states the run reported;
- the growth series (Figure 10's raw data): ``samples`` (how many),
  ``peak_accounted_bytes`` and ``samples_digest``, a SHA-256 over the
  deterministic fields of every :class:`~repro.core.stats.Sample`
  (:data:`SAMPLE_FIELDS`; wall time and RSS are left out).  Each cell
  samples after every event (:data:`SAMPLE_EVERY_EVENTS`), so every
  event's effect on the state and memory totals is pinned.

The file is the oracle that every optimization stays invisible: it was
cut while the interpreter and solver still had their reference paths,
and written only because every variant agreed on every entry.  Fresh
runs must reproduce it exactly (``tests/integration/
test_optimizer_equivalence.py``).  Re-cut it with::

    PYTHONHASHSEED=1 PYTHONPATH=src python -m tests.integration.golden.cut

which rewrites the file only if every variant in ``cut.VARIANTS``
agrees; a behaviour change then shows up as a diff of this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api import Scenario, Topology, TraceEmitter, build_engine
from repro.obs import canonical_multiset
from repro.workloads import (
    dissemination_scenario,
    election_scenario,
    flood_scenario,
    grid_scenario,
    quorum_scenario,
)

GOLDEN_PATH = Path(__file__).with_name("matrix.json")

#: Every receive branches on a ``symbolic()`` reading: the shape that
#: reaches every tier of the solver pipeline.  It contains the
#: compare+branch and load/inc/store patterns the opcode fuser targets
#: (``CMP_JZ``/``CMP_JNZ``/``INC_MEM``).
SYMBOLIC_READINGS = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""

#: A 32-bit symbolic value whose ``x == c`` branches follow a bound on
#: the same variable: each equality-introducing conjunct re-simplifies
#: the path condition through the delta canonicalization path
#: (``solver.simplify.delta`` is 4 under COW and SDS).
EQUALITY_BRANCHES = """
var hits;
func on_boot() {
    var x = symbolic("x");
    if (x > 100) {
        if (x == 4242) { hits += 1; }
    } else {
        if (x == 7) { hits += 2; }
    }
    if (x < 5000) { hits += 4; }
}
"""

ALGORITHMS = ("cob", "cow", "sds")

#: Deterministic report counters pinned per entry.
COUNTERS = (
    "states.total",
    "run.events_executed",
    "run.instructions",
    "solver.queries",
    "solver.sat_results",
    "solver.unsat_results",
)

#: Deterministic :class:`~repro.core.stats.Sample` fields pinned per entry.
SAMPLE_FIELDS = (
    "events_executed",
    "virtual_ms",
    "live_states",
    "total_states",
    "accounted_bytes",
    "groups",
)

#: Sampling period of every cell; sampling changes no trace or counter.
SAMPLE_EVERY_EVENTS = 1


def scenarios():
    """Workload name -> scenario, in matrix order."""
    return {
        "flood": flood_scenario(3, rounds=2),
        "grid": grid_scenario(3, sim_seconds=5),
        "dissemination": dissemination_scenario(Topology.line(3), rounds=2),
        "election": election_scenario(4),
        "quorum": quorum_scenario(4),
        "symbolic": Scenario(
            name="symbolic-readings",
            program=SYMBOLIC_READINGS,
            topology=Topology.line(3),
            horizon_ms=200,
        ),
        "equality32": Scenario(
            name="equality-branches",
            program=EQUALITY_BRANCHES,
            topology=Topology.line(2),
            horizon_ms=50,
        ),
    }


def trace_digest(events) -> str:
    """SHA-256 over the sorted canonical multiset of ``events``."""
    lines = sorted(
        json.dumps([ev, [list(field) for field in fields], count])
        for (ev, fields), count in canonical_multiset(events).items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def samples_digest(samples) -> str:
    """SHA-256 over the :data:`SAMPLE_FIELDS` of every sample, in order."""
    rows = [[getattr(sample, name) for name in SAMPLE_FIELDS] for sample in samples]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run(scenario, algorithm, **overrides):
    """Run one matrix cell; returns ``(entry, report)``."""
    trace = TraceEmitter()
    overrides.setdefault("sample_every_events", SAMPLE_EVERY_EVENTS)
    report = build_engine(scenario, algorithm, trace=trace, **overrides).run()
    counters = report.metrics["counters"]
    entry = {"digest": trace_digest(trace.events)}
    entry.update((name, counters[name]) for name in COUNTERS)
    entry["violations"] = len(report.error_states)
    entry["samples"] = len(report.samples)
    entry["peak_accounted_bytes"] = report.peak_accounted_bytes()
    entry["samples_digest"] = samples_digest(report.samples)
    return entry, report


def load():
    """The committed matrix: ``"<workload>/<algorithm>"`` -> entry."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
