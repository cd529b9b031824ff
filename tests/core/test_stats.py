"""Running sample totals equal a full rescan, sample by sample.

:class:`~repro.core.stats.StatsRecorder` keeps the live-state count and
the accounted bytes as running totals and re-prices only the states the
engine touched or added since the last sample.  :func:`_rescan` is the
loop ``record`` used to run over every state at every sample; it is the
reference here.  For generated scenarios (the shapes of
``test_property_equivalence.py``) under every algorithm, and for the
reduced 4-node mesh whose states flip between PRUNED and IDLE, every
:class:`~repro.core.stats.Sample` must equal it:

- over an uninterrupted run;
- after an :class:`EngineSnapshot` of a drawn event boundary is pickled
  and restored, with counters (a checkpoint) and as a partition cut;
- after a steal split at that boundary, on the donor's engine, which
  released the stolen half and runs on, and on the stolen half.

``--hypothesis-profile=deep`` (``tests/conftest.py``) raises the budget.
"""

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Topology, build_engine
from repro.core.distributed import _split_for_steal, snapshot_assignment_tasks
from repro.core.partition import partition_groups
from repro.core.snapshot import EngineSnapshot
from repro.core.stats import (
    CELL_COST,
    CONSTRAINT_COST,
    EVENT_COST,
    HISTORY_COST,
    PROGRAM_IMAGE_COST_PER_INSTRUCTION,
    STATE_BASE_COST,
)

from ..conftest import budget
from .test_forced_steal import SCENARIOS as SPLITTABLE
from .test_property_equivalence import build, scenario_config
from .test_reduce import _guard_scenario

PROPERTY = settings(
    max_examples=budget(25),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
ALGORITHMS = st.sampled_from(["cob", "cow", "sds"])


def _rescan(states, image_cost):
    """``(live, total, accounted bytes)`` by one pass over every state."""
    accounted = image_cost
    live = 0
    total = 0
    for state in states:
        total += 1
        status = state.status
        if status == "idle" or status == "running":
            live += 1
        accounted += (
            STATE_BASE_COST
            + CELL_COST * len(state.memory)
            + EVENT_COST * len(state.events)
            + CONSTRAINT_COST * len(state.constraints)
            + HISTORY_COST * len(state.history)
        )
    return live, total, accounted


def _audit(engine):
    """Check every sample ``engine`` records against :func:`_rescan`.

    Returns the list the audited samples are appended to.
    """
    record = engine.stats.record
    image_cost = PROGRAM_IMAGE_COST_PER_INSTRUCTION * len(engine.program.code)
    audited = []

    def checked(states, *args):
        sample = record(states, *args)
        got = (sample.live_states, sample.total_states, sample.accounted_bytes)
        assert got == _rescan(engine.states.values(), image_cost), (
            f"sample {len(audited)} at event {sample.events_executed}"
        )
        audited.append(sample)
        return sample

    engine.stats.record = checked
    return audited


def _engine(scenario, algorithm, **overrides):
    return build_engine(scenario, algorithm, sample_every_events=1, **overrides)


def _boundary(scenario, algorithm, data, **overrides):
    """An engine stopped at a drawn event boundary of the run, audited."""
    events = _engine(scenario, algorithm, **overrides).run().events_executed
    k = data.draw(st.integers(0, events), label="k")
    engine = _engine(scenario, algorithm, **overrides)
    audited = _audit(engine)
    engine.run_until(split_events=k)
    return engine, audited


def _run_restored(snapshot):
    """Restore ``snapshot``, run it to the end audited; the samples taken."""
    engine = snapshot.restore()
    audited = _audit(engine)
    engine.run()
    return audited


def _round_trip(snapshot):
    return pickle.loads(pickle.dumps(snapshot))


@PROPERTY
@given(config=scenario_config(), algorithm=ALGORITHMS)
def test_every_sample_equals_rescan(config, algorithm):
    engine = _engine(build(config), algorithm)
    audited = _audit(engine)
    report = engine.run()
    # One sample per event, plus the final one.
    assert len(audited) == report.events_executed + 1


@PROPERTY
@given(
    algorithm=ALGORITHMS,
    horizon_ms=st.integers(60, 120),
    data=st.data(),
)
def test_reduced_mesh_samples_equal_rescan(algorithm, horizon_ms, data):
    scenario = _guard_scenario(Topology.full_mesh(4), horizon_ms)
    engine = _engine(scenario, algorithm, symmetry=True, por=True)
    audited = _audit(engine)
    report = engine.run()
    assert len(audited) == report.events_executed + 1
    counters = report.metrics["counters"]
    # States were parked (and some woken), so live and total diverge.
    assert counters["reduce.pruned"] + counters["reduce.slept_twins"] > 0
    assert any(s.live_states < s.total_states for s in audited)
    engine, _ = _boundary(scenario, algorithm, data, symmetry=True, por=True)
    checkpoint = EngineSnapshot.capture(engine, with_counters=True)
    assert _run_restored(_round_trip(checkpoint))


@PROPERTY
@given(config=scenario_config(), algorithm=ALGORITHMS, data=st.data())
def test_samples_after_restore_equal_rescan(config, algorithm, data):
    engine, _ = _boundary(build(config), algorithm, data)
    checkpoint = EngineSnapshot.capture(engine, with_counters=True)
    assert _run_restored(_round_trip(checkpoint))
    bundles = [[partition] for partition in partition_groups(engine.mapper)]
    for snapshot in snapshot_assignment_tasks(engine, bundles):
        assert _run_restored(_round_trip(snapshot))


@PROPERTY
@given(scenario=SPLITTABLE, algorithm=ALGORITHMS, data=st.data())
def test_samples_after_steal_equal_rescan(scenario, algorithm, data):
    engine, audited = _boundary(scenario, algorithm, data)
    stolen_jobs = _split_for_steal(engine)
    if stolen_jobs is None:
        return
    sampled = len(audited)
    engine.run()  # the donor runs on: its first sample recounts
    assert len(audited) > sampled
    for payload, _ in stolen_jobs:
        assert _run_restored(pickle.loads(payload))
