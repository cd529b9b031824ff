"""Network-layer benchmark: election on a lossy 5-node ring
(``docs/NETWORK.md``).

One gated run of the ``election`` workload on the realistic medium with
per-hop loss — the configuration the ``network-bench`` CI job trends.
Everything recorded except wall clock is deterministic (the medium's
draws are pure functions of the net seed), so the state/violation/loss
counters double as a cross-machine replay check: a drifting number means
the medium's semantics changed, not that the machine got slower.

The determinism half of the gate re-runs the identical scenario and
requires bit-identical counters, and runs it once more under
``DistributedRunner`` (a fixed cut after 40 events, stealing off) to
hold the merged
report to the sequential one.

Headline numbers are persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``) and gated by ``benchmarks/check_trend.py``
against ``benchmarks/baselines/BENCH_network.json``.
"""

import time

from repro.api import DistributedRunner, build_engine
from repro.workloads import election_scenario

from benchmarks.record import record_bench

MEDIUM_PARAMS = {"loss": 0.15, "jitter_ms": 2, "seed": 7}


def _scenario():
    return election_scenario(
        5, medium="realistic", medium_params=dict(MEDIUM_PARAMS)
    )


def _error_signature(report):
    return sorted(
        (s.node, s.error.kind, s.error.code, s.clock)
        for s in report.error_states
    )


def test_lossy_election_gate(once):
    """Election over lossy routed links: deterministic counters plus a
    sequential-vs-rerun and sequential-vs-parallel identity check."""

    def run_all():
        start = time.perf_counter()
        first = build_engine(_scenario(), "sds").run()
        seconds = time.perf_counter() - start
        second = build_engine(_scenario(), "sds").run()
        parallel = DistributedRunner(
            _scenario(), "sds", workers=2, partition_depth=40, steal=False
        ).run()
        return first, seconds, second, parallel

    report, seconds, rerun, parallel = once(run_all)

    assert not report.aborted
    # Same seed => bit-identical counters, any harness.
    for other in (rerun, parallel):
        assert other.total_states == report.total_states
        assert other.net_stats == report.net_stats
        assert _error_signature(other) == _error_signature(report)

    stats = report.net_stats
    assert stats["lost"] > 0, "loss never fired; the gate measures nothing"
    assert {s.error.code for s in report.error_states} >= {40}

    record_bench(
        network_states=report.total_states,
        network_events=report.events_executed,
        network_error_states=len(report.error_states),
        network_broadcasts=stats["broadcasts_sent"],
        network_delivered=stats["delivered"],
        network_lost=stats["lost"],
        network_wall_clock=round(seconds, 3),
    )
