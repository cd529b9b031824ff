"""Table I: the 100-node grid with symbolic packet drops under COB/COW/SDS.

Paper's Table I (their testbed, 10 s simulated time):

    COB   9h:39m (aborted)   1,025,700 states   38.1 GB
    COW   1h:38m                30,464 states    3.4 GB
    SDS   19m                    4,159 states    1.6 GB

The reproduction checks the *shape*: SDS < COW << COB in both states and
accounted memory, with COB hitting its cap ("aborted") while COW and SDS
complete.  Default scale shortens the simulation; ``SDE_FULL=1`` restores
the paper's 10 seconds.
"""

import pytest

from repro.api import run_scenario
from repro.bench.runner import full_scale
from repro.workloads import paper_grid_scenario

NODES = 100
SIM_SECONDS = 10 if full_scale() else 4
COB_STATE_CAP = 1_000_000 if full_scale() else 120_000
COB_WALL_CAP = 3600.0 if full_scale() else 90.0

_rows = {}


def _scenario():
    return paper_grid_scenario(
        NODES, sim_seconds=SIM_SECONDS, sample_every_events=256
    )


@pytest.mark.parametrize("algorithm", ["sds", "cow", "cob"])
def test_table1_row(once, benchmark, algorithm):
    caps = {}
    if algorithm == "cob":
        caps = dict(
            max_states=COB_STATE_CAP, max_wall_seconds=COB_WALL_CAP
        )
    scenario = _scenario()
    row = once(run_scenario, scenario, algorithm, **caps)
    _rows[algorithm] = row
    benchmark.extra_info.update(
        scenario=scenario.name,
        algorithm=row.algorithm,
        runtime_s=round(row.runtime_seconds, 3),
        states=row.total_states,
        groups=row.group_count,
        accounted_bytes=row.peak_accounted_bytes(),
        aborted=row.aborted,
        events=row.events_executed,
        instructions=row.instructions,
    )

    if algorithm == "cob":
        # COB must be the outlier: if it did not even finish, that is the
        # paper's result; if it finished, it must dwarf the others.
        assert row.aborted or row.total_states > 10 * _rows["cow"].total_states
    if algorithm == "cow":
        assert not row.aborted
    if algorithm == "sds":
        assert not row.aborted

    # Once all three rows exist, check the full Table-I ordering.
    if len(_rows) == 3:
        sds, cow, cob = _rows["sds"], _rows["cow"], _rows["cob"]
        assert sds.total_states < cow.total_states < cob.total_states
        # Peak accounted memory, the paper's RAM measure.
        assert (
            sds.peak_accounted_bytes()
            < cow.peak_accounted_bytes()
            < cob.peak_accounted_bytes()
        )
        assert sds.runtime_seconds <= cob.runtime_seconds
        print()
        from repro.bench.report import render_table1

        print(
            render_table1(
                [cob, cow, sds],
                f"Table I — {NODES}-node scenario"
                f" (sim {SIM_SECONDS}s, {'full' if full_scale() else 'scaled'})",
            )
        )
