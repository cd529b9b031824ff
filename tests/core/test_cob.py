"""COB semantics (paper Section III-A, Figure 3)."""

import pytest

from repro.core import COBMapper, MappingError
from repro.core.explode import explosion_count

from .helpers import MapperHarness


@pytest.fixture
def harness():
    return MapperHarness(COBMapper(), node_count=3)


class TestInitial:
    def test_one_dscenario_initially(self, harness):
        assert harness.mapper.group_count() == 1
        harness.check()

    def test_initial_must_cover_each_node_once(self):
        from repro.vm.state import ExecutionState

        mapper = COBMapper()
        mapper.bind(lambda s: None)
        two_on_same_node = [
            ExecutionState(0, 4),
            ExecutionState(0, 4),
        ]
        with pytest.raises(MappingError):
            mapper.register_initial(two_on_same_node)

    def test_double_registration_rejected(self, harness):
        with pytest.raises(MappingError):
            harness.mapper.register_initial(harness.initial)


class TestFigure3:
    """The symbolic branch of node 1 forks the whole dscenario, although
    there is no transmission whatsoever."""

    def test_branch_forks_entire_dscenario(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        assert harness.mapper.group_count() == 2
        # 3 initial + 1 branch child + 2 copies of the other nodes.
        assert harness.total_states() == 6
        harness.check()

    def test_copies_are_pure_duplicates(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        # The forked copies of nodes 0 and 2 have configs identical to the
        # originals: exactly the waste COB suffers from.
        assert len(harness.duplicate_configs()) == 2

    def test_three_way_branch(self, harness):
        node0 = harness.initial[0]
        harness.branch(node0, ways=3)
        assert harness.mapper.group_count() == 3
        assert harness.total_states() == 3 + 2 * (1 + 2)

    def test_branch_statistics(self, harness):
        harness.branch(harness.initial[0])
        mapper = harness.mapper
        assert mapper.local_forks.value == 2
        assert mapper.bystander_duplicates.value == 2


class TestTransmission:
    def test_receiver_is_dscenario_member(self, harness):
        sender = harness.initial[0]
        receivers = harness.transmit(sender, 1)
        assert receivers == [harness.initial[1]]
        harness.check()

    def test_no_forking_on_transmission(self, harness):
        before = harness.total_states()
        harness.transmit(harness.initial[0], 1)
        assert harness.total_states() == before
        assert harness.mapper.group_count() == 1

    def test_transmission_stays_within_dscenario(self, harness):
        node1 = harness.initial[1]
        children = harness.branch(node1)
        # Sending from the child must deliver to the child's dscenario copy
        # of node 2, not the original.
        receivers = harness.transmit(children[0], 2)
        assert len(receivers) == 1
        receiver = receivers[0]
        assert receiver is not harness.initial[2]
        assert receiver.node == 2
        harness.check()

    def test_transmission_from_original_hits_original(self, harness):
        node1 = harness.initial[1]
        harness.branch(node1)
        receivers = harness.transmit(node1, 2)
        assert receivers == [harness.initial[2]]
        harness.check()


class TestGrowth:
    def test_dscenario_count_is_product_of_branches(self, harness):
        # Every state of every node branches once (the engine re-executes
        # COB's duplicates, so copies branch too): 2^3 dscenarios — the
        # Section III-E worst case at depth u=1.
        for node in range(3):
            for state in list(harness.states_of(node)):
                harness.branch(state)
        assert harness.mapper.group_count() == 8
        assert explosion_count(harness.mapper) == 8
        harness.check()

    def test_states_equal_nodes_times_dscenarios(self, harness):
        harness.branch(harness.initial[0])
        harness.branch(harness.initial[1])
        count = harness.mapper.group_count()
        assert harness.total_states() == 3 * count
