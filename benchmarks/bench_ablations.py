"""Ablation studies for design choices called out in DESIGN.md.

1. **Solver query caching** — KLEE-style exact + model-reuse caching is a
   large constant factor on SDE runs (forked siblings re-issue nearly
   identical queries).
2. **Drop-failure interpretation** — the paper injects the drop "during
   reception of the first packet"; the drop-any-one-packet alternative
   re-arms in every path that missed the first packet and the scenario
   space grows combinatorially.  This quantifies how much.
"""

from repro.api import Scenario, Topology, build_engine, run_scenario
from repro.workloads import grid_scenario

# Guest code that *branches on symbolic data* at every hop: this is what
# issues solver queries (the grid drop scenario decides failures at the
# engine level and barely touches the solver).
SYMBOLIC_CHAIN = """
var got;
func on_boot() {
    if (node_id() == node_count() - 1) { timer_set(0, 50); }
}
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    uc_send(node_id() - 1, buf, 1);
}
func on_recv(src, len) {
    got = recv_byte(0);
    if (got > 64) { got -= 64; }
    if (got > 32) { got -= 32; }
    if (got > 16) { got -= 16; }
    if (node_id() > 0) {
        var buf[1];
        buf[0] = got;
        uc_send(node_id() - 1, buf, 1);
    }
}
"""


def _symbolic_chain_scenario():
    return Scenario(
        name="symbolic-chain",
        program=SYMBOLIC_CHAIN,
        topology=Topology.line(4),
        horizon_ms=500,
    )


class TestSolverCacheAblation:
    def test_cache_reduces_search_work(self, once, benchmark):
        def run_with(use_cache):
            engine = build_engine(
                _symbolic_chain_scenario(),
                "sds",
                solver_cache=use_cache,
            )
            import time

            t0 = time.perf_counter()
            report = engine.run()
            return time.perf_counter() - t0, report

        def measure():
            cached_time, cached_report = run_with(True)
            uncached_time, uncached_report = run_with(False)
            return cached_time, cached_report, uncached_time, uncached_report

        cached_time, cached_report, uncached_time, _ = once(measure)
        # All numbers come from the run's metrics snapshot — the same JSON
        # contract `repro run --metrics-out` writes — not solver internals.
        counters = cached_report.metrics["counters"]
        hits = (
            counters["solver.cache.hit.exact"]
            + counters["solver.cache.hit.cex"]
            + counters["solver.cache.hit.model"]
        )
        assert hits > 0, "cache never hit on an SDE run"
        benchmark.extra_info["cache_hits"] = hits
        benchmark.extra_info["cache_misses"] = counters["solver.cache.miss"]
        benchmark.extra_info["model_scan_steps"] = counters[
            "solver.cache.model_scan_steps"
        ]
        benchmark.extra_info["cached_s"] = round(cached_time, 3)
        benchmark.extra_info["uncached_s"] = round(uncached_time, 3)


class TestDropSemanticsAblation:
    def test_drop_any_packet_explodes_scenario_space(self, once, benchmark):
        def measure():
            first = run_scenario(
                grid_scenario(4, sim_seconds=6), "sds"
            )
            any_packet = run_scenario(
                grid_scenario(4, sim_seconds=6, drop_any_packet=True), "sds"
            )
            return first, any_packet

        first, any_packet = once(measure)
        assert any_packet.total_states > 2 * first.total_states, (
            first.total_states,
            any_packet.total_states,
        )
        benchmark.extra_info["first_packet_states"] = first.total_states
        benchmark.extra_info["any_packet_states"] = any_packet.total_states
        benchmark.extra_info["blowup"] = round(
            any_packet.total_states / first.total_states, 1
        )
