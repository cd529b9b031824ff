"""Integration tests at (scaled) paper sizes.

These are the heavyweight end-to-end checks: full 25-node paper scenario
under SDS/COW with invariants on, cross-algorithm agreement on aggregate
metrics, and the Table-I orderings — everything short of the actual
benchmark harness.
"""

import pytest

from repro import build_engine
from repro.core import explosion_count, partition_groups
from repro.workloads import paper_grid_scenario


@pytest.fixture(scope="module")
def runs_25():
    """One 25-node paper run per compact algorithm, invariants checked."""
    results = {}
    for algorithm in ("cow", "sds"):
        engine = build_engine(
            paper_grid_scenario(25, sim_seconds=10),
            algorithm,
            check_invariants=True,
        )
        results[algorithm] = (engine, engine.run())
    return results


class TestPaper25:
    def test_completes_without_abort(self, runs_25):
        for _, report in runs_25.values():
            assert not report.aborted
            assert report.virtual_ms >= 9000

    def test_no_guest_errors(self, runs_25):
        for _, report in runs_25.values():
            assert report.error_states == []

    def test_sds_beats_cow(self, runs_25):
        sds = runs_25["sds"][1]
        cow = runs_25["cow"][1]
        assert sds.total_states < cow.total_states
        assert sds.peak_accounted_bytes() < cow.peak_accounted_bytes()
        assert sds.instructions <= cow.instructions

    def test_same_dstate_count(self, runs_25):
        # COW and SDS partition the same scenario space.
        assert runs_25["sds"][1].group_count == runs_25["cow"][1].group_count

    def test_same_explosion_count(self, runs_25):
        counts = {
            name: explosion_count(engine.mapper)
            for name, (engine, _) in runs_25.items()
        }
        assert counts["sds"] == counts["cow"]
        assert counts["sds"] > 1

    def test_sink_outcomes_match(self, runs_25):
        """Both algorithms must explore identical sets of sink behaviours."""
        outcomes = {}
        for name, (engine, _) in runs_25.items():
            address = engine.program.global_address("delivered")
            outcomes[name] = sorted(
                state.memory[address] for state in engine.states_of_node(0)
            )
        assert outcomes["sds"] == sorted(set(outcomes["cow"])) or set(
            outcomes["sds"]
        ) == set(outcomes["cow"])

    def test_sds_duplicate_free_at_scale(self, runs_25):
        from collections import Counter

        engine, _ = runs_25["sds"]
        counter = Counter(s.config_key() for s in engine.states.values())
        duplicates = [k for k, c in counter.items() if c > 1]
        assert duplicates == []

    def test_partitions_cover_all_states(self, runs_25):
        for name, (engine, _) in runs_25.items():
            partitions = partition_groups(engine.mapper)
            covered = set()
            for part in partitions:
                covered |= part.state_sids
            assert covered == set(engine.states.keys())

    def test_solver_cache_effective_when_used(self, runs_25):
        engine, _ = runs_25["sds"]
        counters = engine.metrics.snapshot()["counters"]
        assert "solver.cache.hit.exact" in counters  # cache enabled by default


class TestMapperStatsConsistency:
    def test_state_count_accounting(self):
        """total states == k + local forks + mapping forks + failure twins
        (every state is born exactly one way)."""
        engine = build_engine(paper_grid_scenario(25, sim_seconds=6), "sds")
        report = engine.run()
        k = engine.topology.node_count
        born_by_fork = sum(
            1 for s in engine.states.values() if s.forked_from is not None
        )
        assert report.total_states == k + born_by_fork

    def test_virtual_count_at_least_states(self):
        engine = build_engine(paper_grid_scenario(25, sim_seconds=6), "sds")
        engine.run()
        assert engine.mapper.virtual_count() >= len(engine.states)
