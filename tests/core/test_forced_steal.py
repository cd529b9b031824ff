"""Forced steals: a merged run equals the sequential run at any split points.

A steal ships only the stolen half: the donor releases those groups from
its live engine (:meth:`~repro.core.engine.SDEEngine.release_groups`,
which calls each mapper's ``drop_groups``) and runs on with the rest.  So
the donor's report covers its whole job but the stolen half, the stolen
job's report covers what it ran after the cut, and their sum is the
sequential run.

:class:`ForcedStealTransport` makes every steal happen where Hypothesis
says: it runs each job in-process through ``_execute_job`` with a
``poll_steal`` that grants at drawn event boundaries, and every stolen
payload runs the same way, recursively, through the real
:class:`~repro.core.distributed.Coordinator` and merge.  For COB, COW and
SDS the merged states, census, semantic counters and canonical trace
multiset must equal the sequential run's.

``--hypothesis-profile=deep`` (``tests/conftest.py``) raises the budget;
CI's distributed bench job runs it there.
"""

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.api import DistributedRunner, Scenario, Topology, build_engine
from repro.core.distributed import InlineTransport, _execute_job
from repro.obs import TraceEmitter, diff_traces

from ..conftest import budget
from ..obs.test_metrics_contract import VOLATILE_PREFIXES
from .test_distributed import SYMBOLIC_PING
from .test_property_equivalence import build, scenario_config

PROPERTY = settings(
    max_examples=budget(40),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Counters that legitimately differ between a merged and a sequential
#: run: memo and cache state, and the runner's own counters.
SKIPPED = VOLATILE_PREFIXES + ("parallel.", "distributed.", "phase.merge.")


class ForcedStealTransport(InlineTransport):
    """One in-process worker whose jobs grant the drawn steal requests.

    ``grant()`` answers the job's ``poll_steal`` at each boundary, every
    ``check_events`` events, for the first ``polls`` boundaries of the
    run; after those, no more steals.  Errors propagate instead of
    becoming retries.
    """

    def __init__(self, grant, check_events: int, polls: int = 60) -> None:
        super().__init__()
        self._grant = grant
        self._check_events = check_events
        self._polls = polls
        self.granted = 0

    def _poll(self) -> bool:
        self._polls -= 1
        return self._polls >= 0 and self._grant()

    def send(self, worker: int, message: tuple) -> None:
        _, job_id, payload, _attempt = message
        _execute_job(
            0, job_id, payload, self._record, self._poll, self._check_events
        )

    def _record(self, message: tuple) -> None:
        self.granted += message[0] == "steal_reply"
        self._replies.append(message)


def _ping(topology: Topology) -> Scenario:
    """Symbolic readings that fracture SDS's sharing graph as they spread;
    the generated scenarios alone almost never split under SDS."""
    return Scenario(
        name="symbolic-ping", program=SYMBOLIC_PING, topology=topology, horizon_ms=150
    )


SCENARIOS = st.one_of(
    scenario_config().map(build),
    st.sampled_from([Topology.full_mesh(2), Topology.line(3)]).map(_ping),
)


def _counters(report):
    return {
        name: value
        for name, value in report.metrics["counters"].items()
        if not name.startswith(SKIPPED)
    }


@PROPERTY
@given(
    scenario=SCENARIOS,
    algorithm=st.sampled_from(["cob", "cow", "sds"]),
    data=st.data(),
)
def test_forced_steals_merge_to_the_sequential_run(scenario, algorithm, data):
    sequential_trace = TraceEmitter()
    engine = build_engine(scenario, algorithm, trace=sequential_trace)
    sequential = engine.run()

    cut = data.draw(st.integers(0, sequential.events_executed), label="cut")
    workers = data.draw(st.integers(1, 2), label="workers")
    check_events = data.draw(st.integers(1, 4), label="check_events")
    transport = ForcedStealTransport(
        lambda: data.draw(st.booleans(), label="grant"), check_events
    )
    trace = TraceEmitter()
    merged = DistributedRunner(
        scenario,
        algorithm,
        workers=workers,
        partition_depth=cut,
        transport=transport,
        trace=trace,
    ).run()

    event(f"steals granted: {min(transport.granted, 3)}")
    assert merged.steals_granted == transport.granted
    assert merged.total_states == sequential.total_states
    assert merged.active_states == sequential.active_states
    assert len(merged.error_states) == len(sequential.error_states)
    assert merged.group_count == sequential.group_count
    assert merged.events_executed == sequential.events_executed
    assert merged.instructions == sequential.instructions
    assert merged.accounted_bytes == sequential.accounted_bytes
    assert merged.state_census() == engine.state_census()
    assert _counters(merged) == _counters(sequential)
    diff = diff_traces(sequential_trace.events, trace.events)
    assert diff.equal, diff.render(limit=5)
