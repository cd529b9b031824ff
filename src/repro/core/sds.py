"""Super DStates (paper Section III-C) — the paper's contribution.

SDS removes COW's bystander duplication with one level of indirection:
*virtual states*.  Every execution state is bound into the dstates it
belongs to; the set of those dstates is its *super-dstate*.  Conceptually,
SDS is COW run on the virtual layer — but forking a bystander only forks
its virtual state (a pointer), never the execution state itself.  Only
**targets** are ever forked for real, and each at most once per mapping
(either it receives the packet or it does not).

The virtual layer
-----------------

A dstate maps each node to a :class:`MemberList` of :class:`VirtualState`
bindings, and member lists are shared between dstates.  Each list records
the dstates holding it (``MemberList.dstates``, in creation order).  Every
execution state has exactly one binding, which names the state
(``actual``) and its list: a state's node-mates are the same in every
dstate it belongs to, so its super-dstate is its list's holders, and one
*logical* virtual state of the paper is one (binding, holder) pair.  The
operations keep that shape:

- A *local fork* appends the child's binding to the parent's list in
  place: every holder of the list holds the parent, and the child joins
  every dstate of its parent.
- A *virtual fork* ``D'`` of ``D`` is ``dict(D.members)`` with only the
  sender's and the destination's lists replaced: every bystander list is
  the same object in both and gains ``D'`` as one more holder.  No binding
  is built for a bystander.
- A forked target is *rebound*, not copied: its old binding moves to the
  twin whole (``b.actual = twin``), and the target gets a fresh binding in
  a fresh list held by the delivery dstates.

The four phases of Section III-C:

1. *Finding targets* — the members of the destination's lists in the
   sender's dstates.
2. *Finding rivals* — direct rivals share the sender's list; super-rivals
   share a dstate with a target but not with the sender.
3. *Forking condition* — a target is forked iff its super-dstate contains
   any rival (direct or super).  With direct rivals every target forks;
   without, a target forks iff its list has a holder outside the sender's
   dstates.
4. *Virtual forking* — (a) with direct rivals, every dstate of the sender
   is COW-forked on the virtual layer: the sender secedes to fresh dstates
   whose destination lists bind the receiving targets, and the old ones
   keep the rivals and the non-receiving twins.  (b) Without, a
   destination list also held outside the sender's dstates splits: the
   sender's dstates take a fresh list binding the receivers, and the other
   holders keep the old bindings, rebound to the twins ("cutting the
   connection", Figure 7).

Per transmission the work is proportional to the sender's dstates, its
targets and the real forks, plus one holder entry per node list of each
virtual fork; it does not grow with the bystander states, nor with the
dstates a forked target sits in.

The non-duplication property (Section III-D) is checked as a test: SDS
never creates two states with identical configurations.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Set

from ..vm.state import ExecutionState
from .cob import _ensure_counter_above
from .history import in_direct_conflict
from .mapping import MappingError, StateMapper

__all__ = ["SDSMapper", "MemberList", "VirtualState", "VDState"]

_by_id = attrgetter("id")


class MemberList(list):
    """One node's bindings, shared by every dstate that holds this list.

    ``dstates`` is the set of those holders: an insertion-ordered dict,
    kept in creation (id) order.  It is not pickled — pickling it would
    recurse from one list through every dstate reachable from it — and
    ``SDSMapper.restore_groups`` rebuilds it from the restored dstates.
    """

    __slots__ = ("dstates",)

    def __init__(self, bindings: Iterable["VirtualState"] = ()) -> None:
        super().__init__(bindings)
        self.dstates: Dict["VDState", None] = {}

    def __reduce__(self):
        return (MemberList, (), None, iter(self))


class VirtualState:
    """The binding of execution state ``actual`` into every dstate that
    holds ``members`` (its :class:`MemberList`).

    A binding and its list, and a list and its holders, point at each
    other: the cycles of the mapping layer, kept strong because every
    direction is on the hot path.  A finished SDS run's virtual layer is
    therefore freed by a collection, not by refcount (docs/VM.md, "Memory
    management").
    """

    __slots__ = ("actual", "members")

    def __init__(self, actual: ExecutionState, members: MemberList) -> None:
        self.actual = actual
        self.members = members

    @property
    def dstates(self) -> List["VDState"]:
        """The dstates this binding sits in (its list's holders)."""
        return list(self.members.dstates)

    def __repr__(self) -> str:
        return f"V->s{self.actual.sid}@{len(self.members.dstates)}D"


class VDState:
    """A dstate over virtual states (node id -> non-empty member list)."""

    __slots__ = ("id", "members")

    _ids = itertools.count(1)

    def __init__(self, members: Dict[int, MemberList]) -> None:
        self.id = next(VDState._ids)
        self.members = members

    def virtuals(self) -> List[VirtualState]:
        return [
            virtual
            for node in sorted(self.members)
            for virtual in self.members[node]
        ]

    def __repr__(self) -> str:
        shape = ",".join(str(len(self.members[node])) for node in sorted(self.members))
        return f"VDState#{self.id}[{shape}]"


def _bind(states: Iterable[ExecutionState]) -> MemberList:
    """A fresh member list binding ``states``, with no holders yet."""
    members = MemberList()
    for state in states:
        members.append(VirtualState(state, members))
    return members


class SDSMapper(StateMapper):
    """Super-dstate mapping: COW on the virtual layer."""

    name = "sds"

    def __init__(self) -> None:
        super().__init__()
        self._dstates: List[VDState] = []
        self._bindings: Dict[int, VirtualState] = {}  # sid -> its binding

    # -- interface -----------------------------------------------------------

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        if self._dstates:
            raise MappingError("initial states registered twice")
        dstate = VDState({})
        for state in states:
            if state.node in dstate.members:
                raise MappingError("initial states must be one per node")
            members = _bind([state])
            members.dstates[dstate] = None
            dstate.members[state.node] = members
            self._bindings[state.sid] = members[0]
        self._dstates.append(dstate)

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        """A branched state joins every dstate its predecessor is in.

        COW adds the child to the parent's (single) dstate; on the virtual
        layer the child is bound into the parent's list, in place.  One
        logical virtual fork is counted per dstate of the parent.
        """
        members = self._bindings[parent.sid].members
        copies = len(members.dstates)
        for child in children:
            virtual = VirtualState(child, members)
            members.append(virtual)
            self._bindings[child.sid] = virtual
            self.virtual_forks.value += copies
            if self.trace is not None:
                for _ in range(copies):
                    self.trace.emit(
                        "mapper.copy",
                        node=parent.node,
                        t=parent.clock,
                        kind="virtual",
                        role="local",
                        sid=child.sid,
                    )

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        self.transmissions.value += 1
        own = self._bindings[sender.sid]
        rivals = own.members
        rivalled = len(rivals) > 1

        # Phase 1: find targets, grouping the sender's dstates by the
        # destination list they hold.  Lists never share a state.
        dests: Dict[int, tuple] = {}  # id(list) -> (list, sender's holders)
        targets: List[ExecutionState] = []
        for dstate in rivals.dstates:
            dest = dstate.members.get(dest_node)
            if not dest:
                raise MappingError(
                    f"dstate {dstate.id} has no virtuals for node {dest_node}"
                )
            entry = dests.get(id(dest))
            if entry is None:
                dests[id(dest)] = (dest, [dstate])
                targets.extend(virtual.actual for virtual in dest)
            else:
                entry[1].append(dstate)

        # Phases 2+3: the forking condition.  Direct rivals fork every
        # target; otherwise a list whose every holder is a dstate of the
        # sender receives whole, and the members of any other list fork.
        forking = [
            (dest, holders)
            for dest, holders in dests.values()
            if rivalled or len(holders) != len(dest.dstates)
        ]
        if not forking:
            return targets
        twins: Dict[int, ExecutionState] = {}  # target sid -> non-receiving twin
        for dest, _ in forking:
            for virtual in dest:
                target = virtual.actual
                twin = target.fork()
                twins[target.sid] = twin
                self.spawn(twin)
                self.mapping_forks.value += 1
                if self.trace is not None:
                    self.trace.emit(
                        "mapper.copy",
                        node=target.node,
                        t=sender.clock,
                        kind="real",
                        role="target",
                        sid=twin.sid,
                    )

        # Phase 4: each forking list hands its sender-side holders a fresh
        # list binding the receivers; the old list stays with its other
        # holders, and its bindings move to the twins whole.
        receivers_of = {
            id(dest): _bind(virtual.actual for virtual in dest) for dest, _ in forking
        }
        if rivalled:
            # 4a: the sender secedes from all its dstates at once; each
            # virtual fork shares every bystander list with its origin.
            node = sender.node
            rivals.remove(own)
            seceded = MemberList((own,))
            own.members = seceded
            for dstate in list(rivals.dstates):
                members = dict(dstate.members)
                members[node] = seceded
                members[dest_node] = receivers_of[id(members[dest_node])]
                forked = VDState(members)
                for shared in members.values():
                    shared.dstates[forked] = None
                self._dstates.append(forked)
                # One logical virtual fork per member of every other node.
                self.virtual_forks.value += sum(map(len, members.values())) - 1
                if self.trace is not None:
                    self._trace_virtual_fork(forked, node, dest_node, sender.clock)
        else:
            # 4b: without direct rivals only the destination lists split
            # (Figure 7); the sender's dstates keep the receivers.
            for dest, holders in forking:
                receivers = receivers_of[id(dest)]
                for dstate in holders:
                    del dest.dstates[dstate]
                    receivers.dstates[dstate] = None
                    dstate.members[dest_node] = receivers
        bindings = self._bindings
        for dest, _ in forking:
            for old, fresh in zip(dest, receivers_of[id(dest)]):
                twin = twins[fresh.actual.sid]
                old.actual = twin
                bindings[twin.sid] = old
                bindings[fresh.actual.sid] = fresh
        return targets

    def _trace_virtual_fork(
        self, forked: VDState, node: int, dest_node: int, clock: int
    ) -> None:
        """One ``mapper.copy`` per logical virtual copy of a virtual fork."""
        for other in sorted(forked.members):
            if other == node:
                continue
            role = "target" if other == dest_node else "bystander"
            for virtual in forked.members[other]:
                self.trace.emit(
                    "mapper.copy",
                    node=other,
                    t=clock,
                    kind="virtual",
                    role=role,
                    sid=virtual.actual.sid,
                )

    # -- snapshot / restore --------------------------------------------------------

    def snapshot_groups(self, group_indices):
        """The selected dstates; their lists and bindings travel with them.

        A state's dstates, in the order map_transmission visits them, are
        its list's holders in creation order, so nothing but the dstates
        is needed: the holders are left out of the pickle
        (:class:`MemberList`) and restore_groups rebuilds them, and the
        bindings index, from the dstates.  Because partitions are closed
        under state sharing, every dstate holding a list of a selected
        dstate is itself selected, so the rebuilt holders equal the
        original ones.
        """
        return [self._dstates[index] for index in group_indices]

    def restore_groups(self, payload) -> None:
        if self._dstates:
            raise MappingError("restore_groups on a non-empty mapper")
        self._dstates.extend(payload)
        max_sid = 0
        for dstate in sorted(payload, key=_by_id):
            for members in dstate.members.values():
                if not members.dstates:
                    for virtual in members:
                        self._bindings[virtual.actual.sid] = virtual
                        max_sid = max(max_sid, virtual.actual.sid)
                members.dstates[dstate] = None
        _ensure_counter_above(VDState, max((d.id for d in payload), default=0))
        from ..vm.state import ensure_state_ids_above

        ensure_state_ids_above(max_sid)

    def drop_groups(self, group_indices) -> List[int]:
        """Forget the selected dstates, their lists and their bindings.

        A closed selection holds every holder of its lists, so each list
        is emptied of holders at its first visit and skipped after.
        """
        dropped = set(group_indices)
        sids: List[int] = []
        for index in dropped:
            for members in self._dstates[index].members.values():
                if members.dstates:
                    members.dstates.clear()
                    for virtual in members:
                        del self._bindings[virtual.actual.sid]
                        sids.append(virtual.actual.sid)
        self._dstates = [
            dstate for index, dstate in enumerate(self._dstates) if index not in dropped
        ]
        return sids

    # -- introspection -------------------------------------------------------------

    def classify_roles(self, sender: ExecutionState, dest_node: int):
        """Figure 5/8 taxonomy on the virtual layer.

        Returns ``(targets, direct_rivals, super_rivals, bystanders)``:
        targets and bystanders as *execution states*, rivals as *bindings*
        (the distinction between direct and super-rivals only exists
        virtually).  A rival's one binding stands for it in every dstate
        holding its list, so each rival is listed once.  Read-only.
        """
        own = self._bindings[sender.sid]
        sender_dstates = own.members.dstates
        involved = list(sender_dstates)
        targets: List[ExecutionState] = []
        seen: Set[int] = set()
        for dstate in sender_dstates:
            for virtual in dstate.members.get(dest_node, ()):
                if virtual.actual.sid not in seen:
                    seen.add(virtual.actual.sid)
                    targets.append(virtual.actual)
        direct_rivals = [virtual for virtual in own.members if virtual is not own]
        super_rivals: List[VirtualState] = []
        seen_lists: Set[int] = set()
        for target in targets:
            for dstate in self._bindings[target.sid].members.dstates:
                if dstate in sender_dstates or dstate in involved:
                    continue
                involved.append(dstate)
                rivals = dstate.members[sender.node]
                if id(rivals) not in seen_lists:
                    seen_lists.add(id(rivals))
                    super_rivals.extend(rivals)
        bystander_sids: Set[int] = set()
        bystanders = []
        for dstate in involved:
            for node, virtuals in dstate.members.items():
                if node in (sender.node, dest_node):
                    continue
                for virtual in virtuals:
                    sid = virtual.actual.sid
                    if sid not in bystander_sids and sid not in seen:
                        bystander_sids.add(sid)
                        bystanders.append(virtual.actual)
        return targets, direct_rivals, super_rivals, bystanders

    def group_count(self) -> int:
        return len(self._dstates)

    def groups(self) -> Iterable[Dict[int, List[ExecutionState]]]:
        for dstate in self._dstates:
            yield {
                node: [virtual.actual for virtual in virtuals]
                for node, virtuals in dstate.members.items()
            }

    def dstates(self) -> List[VDState]:
        return list(self._dstates)

    def binding_of(self, state: ExecutionState) -> VirtualState:
        """The one binding of ``state``."""
        return self._bindings[state.sid]

    def dstates_of(self, state: ExecutionState) -> List[VDState]:
        """The super-dstate of ``state``, in the order map_transmission
        visits it."""
        return self._bindings[state.sid].dstates

    def virtual_count(self) -> int:
        """Logical virtual states: one per (state, dstate) membership."""
        return sum(len(virtual.members.dstates) for virtual in self._bindings.values())

    def check_invariants(self) -> None:
        known = set(self._dstates)
        node_sets = None
        # Dstates share member lists, so each list is checked once per
        # call, and each pair of lists once, at the first dstate holding
        # both.  States of one node conflict unless their histories are
        # equal, so a list that passes has one history and its first
        # state stands for it; two lists can only conflict where one's
        # history names the other's node.
        partners: Dict[int, Set[int]] = {}  # id(list) -> nodes it heard or told
        seen_pairs: Set[tuple] = set()
        for dstate in self._dstates:
            members = dstate.members
            if node_sets is None:
                node_sets = set(members)
            elif set(members) != node_sets:
                raise MappingError(f"dstate {dstate.id} covers a different node set")
            for node, virtuals in members.items():
                if not virtuals:
                    raise MappingError(f"dstate {dstate.id} empty for node {node}")
                if dstate not in virtuals.dstates:
                    raise MappingError(
                        f"dstate {dstate.id} missing from its node {node} holders"
                    )
                if id(virtuals) not in partners:
                    partners[id(virtuals)] = self._check_list(dstate, node, virtuals)
            for node, virtuals in members.items():
                for partner in partners[id(virtuals)]:
                    other = members.get(partner)
                    if other is None or other is virtuals:
                        continue
                    pair = (
                        (id(virtuals), id(other))
                        if node < partner
                        else (id(other), id(virtuals))
                    )
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    a, b = virtuals[0].actual, other[0].actual
                    if in_direct_conflict(a, b):
                        raise MappingError(
                            f"dstate {dstate.id} holds conflicting states"
                            f" {a.sid} and {b.sid}"
                        )
        for sid, virtual in self._bindings.items():
            holders = list(virtual.members.dstates)
            if virtual.actual.sid != sid or not holders:
                raise MappingError(f"state {sid} has no virtual states")
            node = virtual.actual.node
            for holder in holders:
                if holder not in known or holder.members.get(node) is not (
                    virtual.members
                ):
                    raise MappingError(
                        f"state {sid}'s list names dstate {holder.id},"
                        " which does not hold it"
                    )
            ids = [holder.id for holder in holders]
            if ids != sorted(ids):
                raise MappingError(f"state {sid}'s dstates out of creation order")

    def _check_list(self, dstate: VDState, node: int, virtuals: MemberList) -> Set[int]:
        """Check one member list's bindings and that its states agree on
        their history; return the nodes that history names."""
        first = virtuals[0].actual
        for virtual in virtuals:
            actual = virtual.actual
            sid = actual.sid
            if virtual.members is not virtuals:
                raise MappingError(f"binding of state {sid} backpointer wrong")
            if actual.node != node:
                raise MappingError(f"state {sid} filed under wrong node")
            if self._bindings.get(sid) is not virtual:
                raise MappingError(f"state {sid} bound twice or not indexed")
            if actual.history != first.history:
                raise MappingError(
                    f"dstate {dstate.id} holds conflicting states"
                    f" {first.sid} and {sid}"
                )
        return {peer for _kind, _pid, peer in first.history}
