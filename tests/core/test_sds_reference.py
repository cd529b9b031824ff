"""SDS against its eager reference, step by step.

``SDSMapper`` shares member lists between dstates and rebinds whole
bindings; ``EagerSDSMapper`` (``sds_reference.py``) builds one virtual
state per membership.  Hypothesis draws branch and transmit sequences on
2-6 nodes and drives both through :class:`MapperHarness`.  After every
step the two must agree on:

- the receivers, as multisets of ``config_key()``;
- ``groups()``, as a multiset of per-node ``config_key()`` multisets;
- ``mapping_forks`` and ``virtual_forks``;

and the shared layer must pass ``check_invariants``.  States are picked
by their rank in a configuration order, since sids and visit orders may
differ between the two mappers.

``--hypothesis-profile=deep`` (``tests/conftest.py``) raises the budget.
"""

import pickle
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SDSMapper

from ..conftest import budget
from .helpers import MapperHarness
from .sds_reference import EagerSDSMapper

PROPERTY = settings(
    max_examples=budget(60),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STEP = st.tuples(
    st.sampled_from(["branch", "transmit"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.integers(2, 3),
)


def _rank_key(state):
    """The part of a harness state's configuration that the steps change."""
    return (state.node, tuple(state.memory), state.history)


def _ranked(harness):
    states = sorted(harness.states, key=_rank_key)
    keys = [_rank_key(state) for state in states]
    assert len(set(keys)) == len(keys), "SDS made a duplicate configuration"
    return states


def _step(harness, index, step):
    """Apply one drawn step; returns the receivers (empty for a branch)."""
    kind, pick, target, ways = step
    states = _ranked(harness)
    state = states[pick % len(states)]
    if kind == "branch":
        children = []
        for way in range(ways - 1):
            child = state.fork()
            child.memory[0] = 100 * (index + 1) + way  # a fresh configuration
            children.append(child)
            harness.states.append(child)
        harness.mapper.on_local_fork(state, children)
        return []
    nodes = [node for node in range(len(harness.initial)) if node != state.node]
    dest = nodes[target % len(nodes)]
    pid = index + 1
    receivers = harness.mapper.map_transmission(state, dest)
    state.record_sent(pid, dest)
    for receiver in receivers:
        receiver.record_received(pid, state.node)
        receiver.memory[1] += 1
    return receivers


def _configs(states):
    return Counter(state.config_key() for state in states)


def _groups(mapper):
    return Counter(
        frozenset(
            (node, frozenset(_configs(states).items()))
            for node, states in group.items()
        )
        for group in mapper.groups()
    )


def _drive(node_count, steps):
    shared = MapperHarness(SDSMapper(), node_count)
    eager = MapperHarness(EagerSDSMapper(), node_count)
    for index, step in enumerate(steps):
        received = _step(shared, index, step)
        expected = _step(eager, index, step)
        assert _configs(received) == _configs(expected), f"step {index}"
        assert _groups(shared.mapper) == _groups(eager.mapper), f"step {index}"
        for counter in ("mapping_forks", "virtual_forks"):
            assert (
                getattr(shared.mapper, counter).value
                == getattr(eager.mapper, counter).value
            ), f"{counter} at step {index}"
        shared.mapper.check_invariants()
    eager.mapper.check_invariants()
    return shared


@PROPERTY
@given(
    node_count=st.integers(2, 6),
    steps=st.lists(STEP, min_size=1, max_size=30),
)
def test_shared_layer_maps_like_the_eager_reference(node_count, steps):
    _drive(node_count, steps)


@PROPERTY
@given(
    node_count=st.integers(3, 6),
    steps=st.lists(STEP, min_size=1, max_size=30),
)
def test_snapshot_keeps_every_states_dstate_order(node_count, steps):
    """Holders are rebuilt on restore, not pickled: each state's dstates
    (the order map_transmission visits them in) must come back verbatim."""
    mapper = _drive(node_count, steps).mapper
    payload = pickle.loads(
        pickle.dumps(mapper.snapshot_groups(range(mapper.group_count())))
    )
    restored = SDSMapper()
    restored.restore_groups(payload)
    restored.check_invariants()
    before = _states_by_sid(mapper)
    after = _states_by_sid(restored)
    assert before.keys() == after.keys()
    for sid, state in before.items():
        assert [d.id for d in restored.dstates_of(after[sid])] == [
            d.id for d in mapper.dstates_of(state)
        ]


def _states_by_sid(mapper):
    return {
        state.sid: state
        for group in mapper.groups()
        for states in group.values()
        for state in states
    }
