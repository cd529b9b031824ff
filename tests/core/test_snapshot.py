"""Properties of the one engine snapshot: resume at any boundary, any cut.

A checkpoint and a distributed cut ship the same :class:`EngineSnapshot`.
For generated scenarios (the shapes of ``test_property_equivalence.py``),
each algorithm and an event boundary ``k``:

(a) a snapshot with counters, pickled, restored and run to the end, gives
    the uninterrupted run's report;
(b) the ``partition_groups`` cut's snapshots, each pickled, restored and
    run, sum to the uninterrupted run's states, census and error count;
(c) a snapshot with counters carries every counter of the engine's
    metrics registry, the reducer's included.

``--hypothesis-profile=deep`` (``tests/conftest.py``) raises the budget.
"""

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_engine
from repro.core.distributed import snapshot_assignment_tasks
from repro.core.engine import RunReport
from repro.core.partition import partition_groups
from repro.core.snapshot import EngineSnapshot
from repro.workloads import grid_scenario

from benchmarks.ladder.workloads import runs_for

from ..conftest import budget
from .test_property_equivalence import build, scenario_config
from .test_resilience import _assert_reports_match


PROPERTY = settings(
    max_examples=budget(25),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
ALGORITHMS = st.sampled_from(["cob", "cow", "sds"])


def _cut(config, algorithm, data):
    """The uninterrupted run's engine and report, and an engine stopped at
    a drawn event boundary ``k`` of that run."""
    baseline = build_engine(build(config), algorithm)
    report = baseline.run()
    k = data.draw(st.integers(0, report.events_executed), label="k")
    engine = build_engine(build(config), algorithm)
    engine.run_until(split_events=k)
    return baseline, report, engine


def _round_trip(snapshot):
    return pickle.loads(pickle.dumps(snapshot)).restore()


@PROPERTY
@given(config=scenario_config(), algorithm=ALGORITHMS, data=st.data())
def test_resume_at_any_boundary(config, algorithm, data):
    baseline, report, engine = _cut(config, algorithm, data)
    resumed = _round_trip(EngineSnapshot.capture(engine, with_counters=True))
    _assert_reports_match(resumed.run(), report)
    assert resumed.state_census() == baseline.state_census()


@PROPERTY
@given(config=scenario_config(), algorithm=ALGORITHMS, data=st.data())
def test_any_cut_sums_to_the_uninterrupted_run(config, algorithm, data):
    baseline, report, engine = _cut(config, algorithm, data)
    bundles = [[partition] for partition in partition_groups(engine.mapper)]
    total_states = 0
    errors = 0
    census = {node: 0 for node in baseline.state_census()}
    for snapshot in snapshot_assignment_tasks(engine, bundles):
        part = _round_trip(snapshot)
        part_report = part.run()
        total_states += part_report.total_states
        errors += len(part_report.error_states)
        for node, count in part.state_census().items():
            census[node] += count
    assert total_states == report.total_states
    assert census == baseline.state_census()
    assert errors == len(report.error_states)


def test_reducer_counters_survive_a_snapshot():
    # The ladder's reduced-flood run (SDS, symmetry + POR on a 4-node
    # mesh), cut half way through its 4,672 events.
    (run,) = runs_for("reduced-flood", seed=7)
    engine = run.build(run.scenario())
    engine.run_until(split_events=2336)
    captured = RunReport(engine).reduce_stats
    restored = _round_trip(EngineSnapshot.capture(engine, with_counters=True))
    counts = RunReport(restored).reduce_stats
    # ``orbits`` is not a flow but the live seen-set size: the restored
    # reducer starts an empty seen-set and re-seeds it at loop entry,
    # until the snapshot carries the seen-set (ROADMAP item 5, step 1).
    flow = sorted(name for name in captured if name != "orbits")
    assert flow == [
        "disabled",
        "fingerprints",
        "pruned",
        "slept_events",
        "slept_twins",
        "woken",
    ]
    assert captured["pruned"] > 0 and captured["woken"] > 0
    assert {name: counts[name] for name in flow} == {
        name: captured[name] for name in flow
    }


def test_bystander_copies_share_memory_after_a_restore():
    # COB forks the whole dscenario on every local branch; the bystander
    # copies share their idle memory tuple, and so must the restored ones,
    # or a restore would bring back the memory that sharing saved.
    engine = build_engine(grid_scenario(4, sim_seconds=3, drop_budget=2), "cob")
    engine.run_until(split_events=400)
    restored = _round_trip(EngineSnapshot.capture(engine, with_counters=True))

    def memories(states):
        return len({id(state.memory) for state in states})

    before = list(engine.states.values())
    after = list(restored.states.values())
    assert len(after) == len(before)
    assert all(type(state.memory) is tuple for state in after)
    assert memories(after) == memories(before) < len(before) // 4
