"""Engine edge cases: latency, boot stagger, undeliverable traffic,
preset validation, stale timers, coverage plumbing."""

import pytest

from repro import Scenario, Topology, build_engine, run_scenario
from repro.vm import coverage_report

ECHO = """
var got;
func on_boot() {
    if (node_id() == 0) { timer_set(0, 10); }
}
func on_timer(tid) {
    var buf[1];
    buf[0] = 5;
    uc_send(1, buf, 1);
}
func on_recv(src, len) { got = recv_byte(0); }
"""


def simple_scenario(**overrides):
    params = dict(
        name="edge",
        program=ECHO,
        topology=Topology.line(2),
        horizon_ms=1000,
    )
    params.update(overrides)
    return Scenario(**params)


class TestLatency:
    def test_configurable_latency_delays_delivery(self):
        engine = build_engine(simple_scenario(latency_ms=50), "sds")
        engine.run()
        (receiver,) = engine.states_of_node(1)
        assert receiver.clock == 60  # sent at 10, +50ms

    def test_zero_latency(self):
        engine = build_engine(simple_scenario(latency_ms=0), "sds")
        engine.run()
        (receiver,) = engine.states_of_node(1)
        assert receiver.clock == 10


class TestBootStagger:
    def test_boot_times_respected(self):
        source = "var t; func on_boot() { t = time(); }"
        scenario = Scenario(
            name="stagger",
            program=source,
            topology=Topology.line(3),
            horizon_ms=1000,
            boot_times=[0, 100, 250],
        )
        engine = build_engine(scenario, "sds")
        engine.run()
        program = engine.program
        times = [
            engine.states_of_node(n)[0].memory[program.global_address("t")]
            for n in range(3)
        ]
        assert times == [0, 100, 250]

    def test_wrong_boot_times_length_rejected(self):
        scenario = simple_scenario(boot_times=[0])
        with pytest.raises(ValueError):
            build_engine(scenario, "sds")


class TestUndeliverable:
    def test_unicast_beyond_range_is_lost(self):
        source = """
        func on_boot() {
            if (node_id() == 0) { timer_set(0, 10); }
        }
        func on_timer(tid) {
            var buf[1];
            buf[0] = 1;
            uc_send(2, buf, 1);   // node 2 is 2 hops away: radio range miss
        }
        var got;
        func on_recv(src, len) { got = 1; }
        """
        scenario = simple_scenario(program=source, topology=Topology.line(3))
        engine = build_engine(scenario, "sds")
        engine.run()
        assert engine.medium.undeliverable.value == 1
        for node in (1, 2):
            (state,) = engine.states_of_node(node)
            assert state.memory[engine.program.global_address("got")] == 0
        # No error: sending out of range is silent loss, like a real radio.
        assert engine.error_states() == []

    def test_unicast_to_self_is_an_error(self):
        source = """
        func on_boot() { timer_set(0, 10); }
        func on_timer(tid) {
            var buf[1];
            uc_send(node_id(), buf, 1);
        }
        """
        scenario = simple_scenario(program=source, topology=Topology.line(1))
        report = run_scenario(scenario, "sds")
        assert len(report.error_states) == 1


class TestPresets:
    def test_unknown_global_rejected(self):
        scenario = simple_scenario(preset_globals={"nope": 1})
        engine = build_engine(scenario, "sds")
        with pytest.raises(KeyError):
            engine.setup()

    def test_array_preset_rejected(self):
        source = "var arr[4]; func on_boot() { }"
        scenario = simple_scenario(
            program=source, preset_globals={"arr": 1}
        )
        engine = build_engine(scenario, "sds")
        with pytest.raises(ValueError):
            engine.setup()

    def test_per_node_preset_defaults_to_zero(self):
        source = "var v; var r; func on_boot() { r = v; }"
        scenario = Scenario(
            name="presets",
            program=source,
            topology=Topology.line(3),
            horizon_ms=10,
            preset_globals={"v": {1: 42}},
        )
        engine = build_engine(scenario, "sds")
        engine.run()
        program = engine.program
        values = [
            engine.states_of_node(n)[0].memory[program.global_address("r")]
            for n in range(3)
        ]
        assert values == [0, 42, 0]


class TestTimers:
    def test_stopped_timer_never_fires(self):
        source = """
        var fired;
        func on_boot() { timer_set(0, 100); timer_stop(0); }
        func on_timer(tid) { fired = 1; }
        """
        engine = build_engine(
            simple_scenario(program=source, topology=Topology.line(1)), "sds"
        )
        engine.run()
        (state,) = engine.states_of_node(0)
        assert state.memory[engine.program.global_address("fired")] == 0

    def test_rearmed_timer_fires_once_at_new_time(self):
        source = """
        var fired; var at;
        func on_boot() { timer_set(0, 100); timer_set(0, 300); }
        func on_timer(tid) { fired += 1; at = time(); }
        """
        engine = build_engine(
            simple_scenario(program=source, topology=Topology.line(1)), "sds"
        )
        engine.run()
        (state,) = engine.states_of_node(0)
        program = engine.program
        assert state.memory[program.global_address("fired")] == 1
        assert state.memory[program.global_address("at")] == 300

    def test_setup_twice_rejected(self):
        engine = build_engine(simple_scenario(), "sds")
        engine.setup()
        with pytest.raises(RuntimeError):
            engine.setup()


class TestEngineCoverage:
    def test_coverage_available_after_run(self):
        engine = build_engine(simple_scenario(), "sds")
        engine.run()
        report = coverage_report(
            engine.program, engine.executor.visited_pcs
        )
        assert report.fraction > 0.5


class TestCensus:
    def test_state_census_covers_all_nodes(self):
        from repro.workloads import grid_scenario

        engine = build_engine(grid_scenario(3, sim_seconds=3), "sds")
        engine.run()
        census = engine.state_census()
        assert set(census) == set(engine.topology.nodes())
        assert sum(census.values()) == len(engine.states)
        # Every node keeps at least its boot state.
        assert all(count >= 1 for count in census.values())
