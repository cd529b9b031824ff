"""Section IV-C limitations: flooding in a full mesh.

"It is easy to set-up test scenarios ... where COW and SDS algorithms
perform nearly as bad as COB.  One example would be a full-meshed network
where nodes continuously transmit data to their k-1 neighbours."

Measured claim: the SDS/COB state ratio in the flooding scenario is much
closer to 1 than in the grid-collection scenario of Table I — the savings
vanish when there are no bystanders.
"""


from repro.api import run_scenario
from repro.workloads import flood_scenario, grid_scenario


def _ratio(scenario_factory, cob_caps=None):
    rows = {}
    for algorithm in ("cob", "sds"):
        caps = cob_caps if (algorithm == "cob" and cob_caps) else {}
        rows[algorithm] = run_scenario(scenario_factory(), algorithm, **caps)
    assert not rows["sds"].aborted
    return rows["sds"].total_states / rows["cob"].total_states, rows


def test_flooding_erases_sds_advantage(once, benchmark):
    def measure():
        flood_ratio, flood_rows = _ratio(
            lambda: flood_scenario(4, rounds=1)
        )
        grid_ratio, grid_rows = _ratio(
            lambda: grid_scenario(4, sim_seconds=3)
        )
        return flood_ratio, grid_ratio, flood_rows, grid_rows

    flood_ratio, grid_ratio, flood_rows, grid_rows = once(measure)
    # In the structured grid workload SDS saves a lot; in the full-mesh
    # flood it saves much less (no bystanders to spare).
    assert flood_ratio > 2 * grid_ratio, (
        f"flood {flood_ratio:.3f} vs grid {grid_ratio:.3f}"
    )
    benchmark.extra_info["sds_over_cob_flood"] = round(flood_ratio, 4)
    benchmark.extra_info["sds_over_cob_grid"] = round(grid_ratio, 4)
    benchmark.extra_info["flood_cob_states"] = flood_rows["cob"].total_states
    benchmark.extra_info["flood_sds_states"] = flood_rows["sds"].total_states


def test_flooding_cow_and_sds_converge(once, benchmark):
    def measure():
        rows = {}
        for algorithm in ("cow", "sds"):
            rows[algorithm] = run_scenario(flood_scenario(4, rounds=1), algorithm)
        return rows

    rows = once(measure)
    # With every node a sender/target/rival, SDS has no bystanders left to
    # spare: COW and SDS end up with (nearly) identical state sets.
    assert rows["sds"].total_states <= rows["cow"].total_states
    assert rows["sds"].total_states >= int(0.8 * rows["cow"].total_states)
    benchmark.extra_info["cow_states"] = rows["cow"].total_states
    benchmark.extra_info["sds_states"] = rows["sds"].total_states
