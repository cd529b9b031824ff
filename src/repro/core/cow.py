"""Delayed Copy On Write (paper Section III-B).

COW relaxes dscenarios into *dstates*: a dstate may hold several states per
node, as long as states of the same node share their communication history
(conflict-free).  Node-local branches are free — the new state simply joins
its predecessor's dstate.  Only a transmission whose sender has *rivals*
(other same-node states in the dstate) forces a fork: the sender moves into
a fresh dstate together with copies of all targets and bystanders, and the
packet is delivered inside the new dstate (Figure 4).

The residual waste is the bystander copies: states uninvolved in the
transmission are still duplicated because each state belongs to exactly one
dstate.  SDS removes exactly that cost.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence

from ..vm.state import ExecutionState
from .cob import _ensure_counter_above
from .mapping import MappingError, StateMapper

__all__ = ["COWMapper", "DState"]


class DState:
    """A set of pairwise conflict-free states, possibly several per node."""

    __slots__ = ("id", "members")

    _ids = itertools.count(1)

    def __init__(self, members: Dict[int, List[ExecutionState]]) -> None:
        self.id = next(DState._ids)
        self.members = members  # node id -> non-empty list of states

    def states(self) -> List[ExecutionState]:
        return [state for node in sorted(self.members) for state in self.members[node]]

    def size(self) -> int:
        return sum(len(states) for states in self.members.values())

    def __repr__(self) -> str:
        shape = ",".join(str(len(self.members[node])) for node in sorted(self.members))
        return f"DState#{self.id}[{shape}]"


class COWMapper(StateMapper):
    """Delayed Copy On Write."""

    name = "cow"

    def __init__(self) -> None:
        super().__init__()
        self._dstates: List[DState] = []
        self._owner: Dict[int, DState] = {}  # sid -> its unique dstate

    # -- interface ------------------------------------------------------------

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        if self._dstates:
            raise MappingError("initial states registered twice")
        members = {state.node: [state] for state in states}
        if len(members) != len(states):
            raise MappingError("initial states must be one per node")
        dstate = DState(members)
        self._dstates.append(dstate)
        for state in states:
            self._owner[state.sid] = dstate

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        """Children join the parent's dstate — no copying at all."""
        dstate = self._owner[parent.sid]
        for child in children:
            dstate.members[parent.node].append(child)
            self._owner[child.sid] = dstate

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        self.transmissions.value += 1
        dstate = self._owner[sender.sid]
        targets = dstate.members.get(dest_node)
        if not targets:
            raise MappingError(f"dstate has no state for node {dest_node}")
        rivals = [state for state in dstate.members[sender.node] if state is not sender]
        if not rivals:
            # No conflict pending: deliver in place to every target.
            return list(targets)

        # Conflict: the sender secedes into a fresh dstate together with
        # forked copies of all targets and bystanders (Figure 4).  The old
        # dstate keeps the rivals and the original targets/bystanders.
        new_members: Dict[int, List[ExecutionState]] = {sender.node: [sender]}
        dstate.members[sender.node] = rivals
        receivers: List[ExecutionState] = []
        for node in sorted(dstate.members):
            if node == sender.node:
                continue
            copies = []
            for original in dstate.members[node]:
                copy = original.fork()
                copies.append(copy)
                self.spawn(copy)
                self.mapping_forks.value += 1
                if node != dest_node:
                    self.bystander_duplicates.value += 1
                if self.trace is not None:
                    self.trace.emit(
                        "mapper.copy",
                        node=node,
                        t=sender.clock,
                        kind="real",
                        role="target" if node == dest_node else "bystander",
                        sid=copy.sid,
                    )
            new_members[node] = copies
            if node == dest_node:
                receivers = copies
        new_dstate = DState(new_members)
        self._dstates.append(new_dstate)
        self._owner[sender.sid] = new_dstate
        for states in new_members.values():
            for state in states:
                self._owner[state.sid] = new_dstate
        return receivers

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot_groups(self, group_indices):
        """The selected dstates themselves — they pickle as-is."""
        return [self._dstates[index] for index in group_indices]

    def restore_groups(self, payload) -> None:
        if self._dstates:
            raise MappingError("restore_groups on a non-empty mapper")
        max_id = 0
        max_sid = 0
        for dstate in payload:
            self._dstates.append(dstate)
            max_id = max(max_id, dstate.id)
            for states in dstate.members.values():
                for state in states:
                    self._owner[state.sid] = dstate
                    max_sid = max(max_sid, state.sid)
        _ensure_counter_above(DState, max_id)
        from ..vm.state import ensure_state_ids_above

        ensure_state_ids_above(max_sid)

    def drop_groups(self, group_indices) -> List[int]:
        dropped = set(group_indices)
        sids = [
            state.sid
            for index in dropped
            for states in self._dstates[index].members.values()
            for state in states
        ]
        for sid in sids:
            del self._owner[sid]
        self._dstates = [
            dstate for index, dstate in enumerate(self._dstates) if index not in dropped
        ]
        return sids

    # -- introspection ----------------------------------------------------------------

    def classify_roles(self, sender: ExecutionState, dest_node: int):
        """The paper's Figure-5 taxonomy for a pending transmission.

        Returns ``(targets, rivals, bystanders)`` as the paper defines them
        for COW: all three drawn from the sender's dstate; bystanders are
        everything that is neither sender, target nor rival.  Read-only —
        no forking happens.
        """
        dstate = self._owner[sender.sid]
        targets = list(dstate.members.get(dest_node, ()))
        rivals = [state for state in dstate.members[sender.node] if state is not sender]
        bystanders = [
            state
            for node, states in dstate.members.items()
            if node not in (sender.node, dest_node)
            for state in states
        ]
        return targets, rivals, bystanders

    def group_count(self) -> int:
        return len(self._dstates)

    def groups(self) -> Iterable[Dict[int, List[ExecutionState]]]:
        for dstate in self._dstates:
            yield {node: list(states) for node, states in dstate.members.items()}

    def dstates(self) -> List[DState]:
        return list(self._dstates)

    def check_invariants(self) -> None:
        from .history import in_direct_conflict

        seen: Dict[int, int] = {}
        for dstate in self._dstates:
            for node, states in dstate.members.items():
                if not states:
                    raise MappingError(f"dstate {dstate.id} empty for node {node}")
                for state in states:
                    if state.node != node:
                        raise MappingError(f"state {state.sid} filed under wrong node")
                    if state.sid in seen:
                        raise MappingError(f"state {state.sid} appears in two dstates")
                    seen[state.sid] = dstate.id
                    if self._owner.get(state.sid) is not dstate:
                        raise MappingError(f"owner map inconsistent for {state.sid}")
            # Pairwise conflict-freedom inside the dstate.
            all_states = dstate.states()
            for i, a in enumerate(all_states):
                for b in all_states[i + 1 :]:
                    if in_direct_conflict(a, b):
                        raise MappingError(
                            f"dstate {dstate.id} holds conflicting states"
                            f" {a.sid} and {b.sid}"
                        )
