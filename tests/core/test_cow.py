"""COW semantics (paper Section III-B, Figures 4 and 5)."""

import pytest

from repro.core import COWMapper, MappingError
from repro.core.explode import explosion_count

from .helpers import MapperHarness


@pytest.fixture
def harness():
    return MapperHarness(COWMapper(), node_count=3)


class TestBranching:
    def test_branch_joins_same_dstate(self, harness):
        """Figure 3 revisited: instead of two dscenarios, COW keeps one
        dstate {s1+, s1-, s2, s3} — no other state is copied."""
        node1 = harness.initial[1]
        harness.branch(node1)
        assert harness.mapper.group_count() == 1
        assert harness.total_states() == 4
        assert explosion_count(harness.mapper) == 2  # two dscenarios encoded
        harness.check()

    def test_branching_is_free_of_duplicates(self, harness):
        harness.branch(harness.initial[0])
        harness.branch(harness.initial[2], ways=3)
        assert harness.duplicate_configs() == []
        assert harness.mapper.mapping_forks.value == 0

    def test_network_without_communication_stays_one_dstate(self, harness):
        """Section III-B: without communication, the complete symbolic
        execution needs just one dstate."""
        for node in range(3):
            for state in list(harness.states_of(node)):
                harness.branch(state)
        assert harness.mapper.group_count() == 1
        assert explosion_count(harness.mapper) == 8
        harness.check()


class TestTransmissionWithoutRivals:
    def test_delivers_in_place(self, harness):
        before = harness.total_states()
        receivers = harness.transmit(harness.initial[0], 1)
        assert receivers == [harness.initial[1]]
        assert harness.total_states() == before
        assert harness.mapper.group_count() == 1
        harness.check()

    def test_delivers_to_all_targets(self, harness):
        # Branch the *destination* node: both its states are targets and the
        # sender has no rivals, so both receive without forking.
        children = harness.branch(harness.initial[1])
        receivers = harness.transmit(harness.initial[0], 1)
        assert set(map(id, receivers)) == {
            id(harness.initial[1]),
            id(children[0]),
        }
        assert harness.mapper.group_count() == 1
        harness.check()


class TestFigure4:
    """After a symbolic branch on node 1, one of node 1's states transmits
    to node 2: the mapping phase forks the states on nodes 2 and 3,
    creating two separate dstates prior to delivery."""

    def test_sender_with_rival_forces_dstate_fork(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        before = harness.total_states()
        receivers = harness.transmit(node1, 2)
        # Nodes 0 and 2 were copied (2 new states).
        assert harness.total_states() == before + 2
        assert harness.mapper.group_count() == 2
        assert len(receivers) == 1
        assert receivers[0] is not harness.initial[2]
        harness.check()

    def test_sender_leaves_original_dstate(self, harness):
        node1 = harness.initial[1]
        children = harness.branch(node1)
        harness.transmit(node1, 2)
        groups = list(harness.mapper.groups())
        # The rival stays in the old dstate; the sender is in the new one.
        old = [g for g in groups if children[0] in g[1]]
        new = [g for g in groups if node1 in g[1]]
        assert len(old) == 1 and len(new) == 1 and old[0] is not new[0]
        assert node1 not in old[0][1]

    def test_bystander_copies_are_pure_duplicates(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        # Node 0 is a bystander: its copy has an identical configuration.
        duplicates = harness.duplicate_configs()
        assert len(duplicates) == 1
        assert harness.mapper.bystander_duplicates.value == 1

    def test_histories_stay_conflict_free(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        harness.check()  # includes pairwise conflict checks

    def test_rival_can_send_later_within_old_dstate(self, harness):
        node1 = harness.initial[1]
        children = harness.branch(node1)
        harness.transmit(node1, 2)
        # The rival now transmits; it has no rivals left in the old dstate,
        # so delivery happens in place there.
        before = harness.total_states()
        receivers = harness.transmit(children[0], 2)
        assert harness.total_states() == before
        assert receivers == [harness.initial[2]]
        harness.check()


class TestExplosion:
    def test_dscenarios_covered_match_cob_product(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        # Two dstates, each one state per node -> 2 dscenarios.
        assert explosion_count(harness.mapper) == 2

    def test_mixed_structure_explosion(self, harness):
        harness.branch(harness.initial[0])  # dstate now 2x1x1 -> 2
        harness.branch(harness.initial[2])  # 2x1x2 -> 4
        assert explosion_count(harness.mapper) == 4


class TestErrors:
    def test_unknown_destination_raises(self, harness):
        with pytest.raises(MappingError):
            harness.mapper.map_transmission(harness.initial[0], 99)
