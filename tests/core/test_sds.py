"""SDS semantics (paper Section III-C, Figures 6, 7, 8)."""

import pytest

from repro.core import MappingError, SDSMapper
from repro.core.explode import explosion_count

from .helpers import MapperHarness


@pytest.fixture
def harness():
    return MapperHarness(SDSMapper(), node_count=4)


def dstates_of(harness, state):
    return {dstate.id for dstate in harness.mapper.dstates_of(state)}


class TestVirtualLayer:
    def test_initially_one_virtual_per_state(self, harness):
        assert harness.mapper.virtual_count() == 4
        assert harness.mapper.group_count() == 1
        harness.check()

    def test_branch_mirrors_parent_virtuals(self, harness):
        node1 = harness.initial[1]
        children = harness.branch(node1)
        # The child is bound into its parent's member list, in place.
        child = harness.mapper.binding_of(children[0])
        assert child.members is harness.mapper.binding_of(node1).members
        assert dstates_of(harness, children[0]) == dstates_of(harness, node1)
        assert harness.mapper.virtual_count() == 5
        assert harness.mapper.group_count() == 1
        harness.check()

    def test_branch_after_superposition_joins_all_dstates(self, harness):
        """A state in several dstates branches: the child must join every
        one of them (COW on virtuals: child joins predecessor's dstate)."""
        node0 = harness.initial[0]
        harness.branch(node0)
        harness.transmit(node0, 1)  # creates a second dstate
        bystander = harness.initial[2]
        assert len(dstates_of(harness, bystander)) == 2
        children = harness.branch(bystander)
        assert dstates_of(harness, children[0]) == dstates_of(harness, bystander)
        harness.check()


class TestNoRivals:
    def test_transmission_without_rivals_delivers_in_place(self, harness):
        before = harness.total_states()
        receivers = harness.transmit(harness.initial[0], 1)
        assert receivers == [harness.initial[1]]
        assert harness.total_states() == before
        assert harness.mapper.group_count() == 1
        harness.check()

    def test_multiple_targets_without_rivals_all_receive(self, harness):
        children = harness.branch(harness.initial[1])
        receivers = harness.transmit(harness.initial[0], 1)
        assert {id(r) for r in receivers} == {
            id(harness.initial[1]),
            id(children[0]),
        }
        # No forking: targets had no rivals in their super-dstates.
        assert harness.mapper.mapping_forks.value == 0
        harness.check()


class TestDirectRivals:
    """Figure 4's situation under SDS: only the target is forked."""

    def test_only_target_forked(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        before = harness.total_states()
        receivers = harness.transmit(node1, 2)
        # Exactly one new execution state: the target's non-receiving twin.
        assert harness.total_states() == before + 1
        assert receivers == [harness.initial[2]]
        assert harness.mapper.mapping_forks.value == 1
        assert harness.mapper.bystander_duplicates.value == 0
        harness.check()

    def test_bystanders_fork_only_virtually(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        bystander = harness.initial[3]
        binding = harness.mapper.binding_of(bystander)
        harness.transmit(node1, 2)
        # The bystander is now in superposition over two dstates, but it is
        # still a single execution state with its single binding: both
        # dstates hold the same member list for its node.
        assert harness.mapper.binding_of(bystander) is binding
        assert len(dstates_of(harness, bystander)) == 2
        old, new = harness.mapper.dstates()
        assert new.members[3] is old.members[3] is binding.members
        # Four nodes in two dstates: eight logical virtual states over six
        # execution states, and one virtual copy counted per bystander and
        # receiver (plus the local fork).
        assert harness.mapper.virtual_count() == 8
        assert harness.total_states() == 6
        assert harness.mapper.virtual_forks.value == 1 + 3

    def test_forked_target_is_rebound_to_its_twin(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        receiver = harness.initial[2]
        old = harness.mapper.binding_of(receiver)
        harness.transmit(node1, 2)
        (twin,) = [s for s in harness.spawned if s.node == 2]
        # The twin takes over the old binding whole; the receiver gets a
        # fresh one in the sender's new dstate.
        assert harness.mapper.binding_of(twin) is old
        assert old.actual is twin
        fresh = harness.mapper.binding_of(receiver)
        assert fresh is not old and fresh.actual is receiver
        assert dstates_of(harness, receiver) == dstates_of(harness, node1)
        harness.check()

    def test_two_dstates_after_conflict(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        assert harness.mapper.group_count() == 2
        harness.check()

    def test_no_duplicates_ever(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        assert harness.duplicate_configs() == []

    def test_twin_keeps_old_context(self, harness):
        node1 = harness.initial[1]
        children = harness.branch(node1)
        harness.transmit(node1, 2)
        receiver = harness.initial[2]
        twins = [
            s for s in harness.spawned if s.node == 2 and s is not receiver
        ]
        assert len(twins) == 1
        twin = twins[0]
        # The twin shares a dstate with the rival (who did not send).
        assert dstates_of(harness, twin) & dstates_of(harness, children[0])
        # The receiver shares a dstate with the sender.
        assert dstates_of(harness, receiver) & dstates_of(harness, node1)
        harness.check()

    def test_explosion_matches_cow(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        assert explosion_count(harness.mapper) == 2


class TestFigure7SuperRivals:
    """No direct rival, but a super-rival: the target is forked and the
    virtual connection is cut, without any virtual COW fork."""

    def _setup_super_rival(self, harness):
        # Step 1: node 0 branches, then transmits to node 1 -> two dstates;
        # node 1's receiving state r is in the sender's new dstate, its twin
        # r' with the rival in the old one.  Node 2's single state spans
        # both dstates (superposition).
        node0 = harness.initial[0]
        rival0 = harness.branch(node0)[0]
        receivers = harness.transmit(node0, 1)
        assert receivers == [harness.initial[1]]
        return node0, rival0, harness.initial[1]

    def test_super_rival_only_forks_target_without_virtual_fork(self, harness):
        node0, rival0, receiver1 = self._setup_super_rival(harness)
        # Now node 2 (in superposition across both dstates) transmits to
        # node 3.  In each dstate node 2's virtual is alone on its node:
        # no direct rivals.  But node 3's state appears in both dstates,
        # and... node 2's virtuals are both of the SAME state, so there is
        # no rival at all: no fork.
        before_forks = harness.mapper.mapping_forks.value
        receivers = harness.transmit(harness.initial[2], 3)
        assert receivers == [harness.initial[3]]
        assert harness.mapper.mapping_forks.value == before_forks
        harness.check()

    def test_figure7_shape(self, harness):
        """Build Figure 7 literally: the sender's node has one virtual in
        dstate 1; the target's state also has a virtual in dstate 2 where
        the sender is NOT present but other sender-node virtuals are."""
        node0, rival0, receiver1 = self._setup_super_rival(harness)
        # node0's dstates: {D2}; rival0's: {D1}; receiver1 in D2, twin in D1.
        # Now node0 transmits again to node 1: in D2 node0 is alone on node
        # 0 (no direct rival), but receiver1 ALSO has no other virtuals...
        # receiver1's only virtual is in D2 -> no super rivals -> in-place.
        before = harness.total_states()
        harness.transmit(node0, 1)
        assert harness.total_states() == before
        # Build the true super-rival case: branch receiver1 so its child
        # joins D2; then the child ... shares D2 with node0 only.  Instead,
        # transmit from rival0 to node 1 in D1: its target is the twin;
        # twin's virtuals live only in D1 where rival0 is alone on node 0.
        twin = [s for s in harness.states_of(1) if s is not receiver1][0]
        before = harness.total_states()
        receivers = harness.transmit(rival0, 1)
        assert receivers == [twin]
        assert harness.total_states() == before
        harness.check()

    def test_constructed_super_rival_forks_target(self, harness):
        """A sender in superposition whose targets span several dstates,
        with direct rivals present: every target is forked exactly once
        even though multiple dstates are involved."""
        node0, rival0, receiver1 = self._setup_super_rival(harness)
        twin1 = [s for s in harness.states_of(1) if s is not receiver1][0]
        # Node 3 spans D1 and D2 (it was a bystander of the earlier
        # conflict).  Branch it so its sibling is a direct rival in both
        # dstates, then transmit to node 1: targets are receiver1 (in D2)
        # and twin1 (in D1); both must fork exactly once.
        node3 = harness.initial[3]
        harness.branch(node3)
        before = harness.total_states()
        receivers = harness.transmit(node3, 1)
        assert set(map(id, receivers)) == {id(receiver1), id(twin1)}
        assert harness.total_states() == before + 2
        harness.check()


class TestFigure8Example:
    """A reduced version of Figure 8: a sender with two virtual states,
    targets spanning multiple dstates, direct rivals and super-rivals all
    at once — then check structural properties of the output."""

    def test_multi_dstate_sender(self, harness):
        node0 = harness.initial[0]
        rival = harness.branch(node0)[0]
        harness.transmit(node0, 1)   # D-old (rival) / D-new (node0)
        # Put node0 into superposition: transmit from node 2 (spans both
        # dstates) is not needed; instead branch node 1's receiver and let
        # it send back to node 0, forking node 0's... simpler: node 2
        # transmits to node 0.  Node 2 spans both dstates; node 0's states
        # (node0, rival) are each a target in one dstate.
        receivers = harness.transmit(harness.initial[2], 0)
        assert set(map(id, receivers)) == {id(node0), id(rival)}
        harness.check()

    def test_targets_forked_at_most_once(self, harness):
        node0 = harness.initial[0]
        harness.branch(node0)
        harness.transmit(node0, 1)
        before = harness.total_states()
        # Node 2 spans two dstates; sending to node 1 has two targets
        # (receiver + twin)...  Each target is forked at most once even
        # though multiple dstates are involved.
        node2 = harness.initial[2]
        rival2 = harness.branch(node2)[0]
        del rival2
        receivers = harness.transmit(node2, 1)
        created = harness.total_states() - before
        # 1 branch child of node2 + at most one twin per target.
        assert created <= 1 + len(receivers)
        harness.check()

    def test_no_duplicates_in_complex_interaction(self, harness):
        node0 = harness.initial[0]
        harness.branch(node0)
        harness.transmit(node0, 1)
        node2 = harness.initial[2]
        harness.branch(node2)
        harness.transmit(node2, 1)
        harness.transmit(harness.initial[3], 2)
        assert harness.duplicate_configs() == []
        harness.check()


class TestInvariants:
    def test_every_state_has_a_virtual(self, harness):
        node0 = harness.initial[0]
        harness.branch(node0)
        harness.transmit(node0, 1)
        for state in harness.states:
            assert harness.mapper.binding_of(state).actual is state
            assert harness.mapper.dstates_of(state)

    @pytest.mark.parametrize("within", [False, True], ids=["across", "within"])
    def test_conflict_in_a_shared_list_is_caught(self, harness, within):
        """Each pair of member lists is checked once per call, so a
        conflict planted in a list that two dstates hold still raises."""
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        bystander = harness.initial[3]
        (sibling,) = harness.branch(bystander)
        shared = harness.mapper.binding_of(bystander).members
        assert len(shared.dstates) == 2
        harness.check()
        if within:
            # a send to itself: it conflicts with its node-mate only
            sibling.record_sent(998, 3)
        else:
            bystander.record_received(999, 0)  # a packet node 0 never sent
        with pytest.raises(MappingError, match="conflicting states"):
            harness.check()

    def test_unknown_destination_raises(self, harness):
        with pytest.raises(MappingError):
            harness.mapper.map_transmission(harness.initial[0], 42)
