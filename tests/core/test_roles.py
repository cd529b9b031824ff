"""Figure 5 — sender / targets / rivals / bystanders classification.

"An exemplary network with four nodes in a line setup during SDE using the
COW state mapping algorithm.  There are two dstates in the system and the
left execution state in dstate 1 on node 1 is about to send a packet to
node 2.  As node 2 of dstate 1 has two execution states, the sender has two
targets.  The other two states on the sender's node are its rivals.  The
four states on node 3 and 4 are bystanders."

We build exactly that configuration and check the classification, then the
SDS variant with direct vs super rivals (Figure 8's legend).  SDS reports
rivals as bindings: one binding stands for its state in every dstate that
shares its member list.
"""

from repro.core import COWMapper, SDSMapper

from .helpers import MapperHarness


class TestFigure5COW:
    def _build(self):
        """Recreate Figure 5's dstate 1: two states on nodes 1 and 2, one
        on nodes 3 and 4 (paper counts nodes from 1; we use 0..3)."""
        harness = MapperHarness(COWMapper(), node_count=4)
        sender = harness.initial[0]
        rival = harness.branch(sender)[0]         # second state on node 0
        second_target = harness.branch(harness.initial[1])[0]
        return harness, sender, rival, second_target

    def test_roles_match_figure(self):
        harness, sender, rival, second_target = self._build()
        targets, rivals, bystanders = harness.mapper.classify_roles(
            sender, dest_node=1
        )
        assert set(map(id, targets)) == {
            id(harness.initial[1]),
            id(second_target),
        }
        assert rivals == [rival]
        assert {b.node for b in bystanders} == {2, 3}
        assert len(bystanders) == 2

    def test_classification_is_read_only(self):
        harness, sender, _, _ = self._build()
        before = harness.mapper.group_count()
        harness.mapper.classify_roles(sender, dest_node=1)
        assert harness.mapper.group_count() == before

    def test_multiple_rivals(self):
        harness = MapperHarness(COWMapper(), node_count=3)
        sender = harness.initial[0]
        harness.branch(sender, ways=3)
        _, rivals, _ = harness.mapper.classify_roles(sender, 1)
        assert len(rivals) == 2

    def test_no_rivals_for_lone_sender(self):
        harness = MapperHarness(COWMapper(), node_count=3)
        targets, rivals, bystanders = harness.mapper.classify_roles(
            harness.initial[0], 1
        )
        assert rivals == []
        assert len(targets) == 1
        assert len(bystanders) == 1


class TestSDSRoles:
    def test_direct_rivals_only(self):
        harness = MapperHarness(SDSMapper(), node_count=4)
        sender = harness.initial[0]
        harness.branch(sender)
        targets, direct, super_rivals, bystanders = (
            harness.mapper.classify_roles(sender, 1)
        )
        assert len(targets) == 1
        assert len(direct) == 1
        assert super_rivals == []
        assert len(bystanders) == 2

    def test_super_rivals_detected(self):
        """After a conflicted transmission, the displaced target twin lives
        in a dstate without the sender: its sender-node virtuals are
        super-rivals for the next transmission."""
        harness = MapperHarness(SDSMapper(), node_count=4)
        sender = harness.initial[0]
        rival = harness.branch(sender)[0]
        harness.transmit(sender, 1)  # forks target; sender secedes
        # Sender transmits again: its dstate holds the receiving target;
        # the twin (with `rival`) lives elsewhere -> no super rivals from
        # the sender's perspective because the twin is NOT its target now.
        targets, direct, super_rivals, _ = harness.mapper.classify_roles(
            sender, 1
        )
        assert len(targets) == 1
        assert direct == []
        assert super_rivals == []
        # From the *rival's* perspective the roles mirror.
        targets_r, direct_r, super_r, _ = harness.mapper.classify_roles(
            rival, 1
        )
        assert len(targets_r) == 1
        assert direct_r == [] and super_r == []

    def test_figure8_mixed_configuration(self):
        """A sender in superposition with a target shared across dstates:
        both direct and super rivals appear."""
        harness = MapperHarness(SDSMapper(), node_count=4)
        node0 = harness.initial[0]
        harness.branch(node0)
        harness.transmit(node0, 1)
        # Node 3 (bystander, in superposition over both dstates) branches:
        # its sibling is a direct rival in both dstates.
        node3 = harness.initial[3]
        harness.branch(node3)
        targets, direct, super_rivals, bystanders = (
            harness.mapper.classify_roles(node3, 1)
        )
        # Targets: the receiving state (in node0's dstate) and the twin
        # (in the rival's dstate).
        assert len(targets) == 2
        # The sibling is one rival binding, shared by both dstates.
        (sibling,) = direct
        assert len(sibling.dstates) == 2
        assert super_rivals == []
        assert {b.node for b in bystanders} == {0, 2}
        harness.check()
