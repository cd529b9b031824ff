"""The eager SDS mapper: a test-only reference for ``repro.core.sds``.

This is SDS as first written, one :class:`VirtualState` per (execution
state, dstate) membership.  A virtual fork copies every bystander's
virtual state, and a forked target's virtuals are walked one by one to
move them to its twin.  ``SDSMapper`` shares member lists between dstates
and rebinds whole bindings instead; ``test_sds_reference.py`` drives both
through the same branch and transmit sequences and requires equal
receivers, groups and counters after every step.  Tracing, snapshots and
role classification are left out: the reference only maps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.core.mapping import MappingError, StateMapper
from repro.vm.state import ExecutionState

__all__ = ["EagerSDSMapper"]


class VirtualState:
    """A reference to an execution state, member of exactly one dstate."""

    __slots__ = ("actual", "dstate")

    def __init__(self, actual: ExecutionState, dstate: "VDState") -> None:
        self.actual = actual
        self.dstate = dstate


class VDState:
    """A dstate over virtual states (node id -> non-empty virtual list)."""

    __slots__ = ("members",)

    def __init__(self, members: Dict[int, List[VirtualState]]) -> None:
        self.members = members


class EagerSDSMapper(StateMapper):
    """Super-dstate mapping with one virtual state per (state, dstate)."""

    name = "sds"

    def __init__(self) -> None:
        super().__init__()
        self._dstates: List[VDState] = []
        self._virtuals: Dict[int, List[VirtualState]] = {}  # sid -> virtuals

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        members: Dict[int, List[VirtualState]] = {}
        dstate = VDState(members)
        for state in states:
            virtual = VirtualState(state, dstate)
            members[state.node] = [virtual]
            self._virtuals[state.sid] = [virtual]
        self._dstates.append(dstate)

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        """The child mirrors each of the parent's virtual states."""
        parent_virtuals = list(self._virtuals[parent.sid])
        for child in children:
            child_virtuals = []
            for parent_virtual in parent_virtuals:
                dstate = parent_virtual.dstate
                virtual = VirtualState(child, dstate)
                dstate.members[parent.node].append(virtual)
                child_virtuals.append(virtual)
                self.virtual_forks.value += 1
            self._virtuals[child.sid] = child_virtuals

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        self.transmissions.value += 1
        sender_virtuals = list(self._virtuals[sender.sid])
        sender_dstate_ids: Set[int] = {id(vs.dstate) for vs in sender_virtuals}

        # Phase 1: find targets.
        targets: List[ExecutionState] = []
        seen_targets: Set[int] = set()
        for vs in sender_virtuals:
            virtual_targets = vs.dstate.members.get(dest_node)
            if not virtual_targets:
                raise MappingError(f"a dstate has no virtuals for node {dest_node}")
            for vt in virtual_targets:
                if vt.actual.sid not in seen_targets:
                    seen_targets.add(vt.actual.sid)
                    targets.append(vt.actual)

        # Phases 2+3: a target needs no fork only if every one of its
        # virtuals sits in a dstate of the sender without direct rivals.
        twins: Dict[int, ExecutionState] = {}  # target sid -> non-receiving twin
        for target in targets:
            for vt in self._virtuals[target.sid]:
                dstate = vt.dstate
                if (
                    id(dstate) not in sender_dstate_ids
                    or len(dstate.members[sender.node]) > 1
                ):
                    twin = target.fork()
                    twins[target.sid] = twin
                    self.spawn(twin)
                    self.mapping_forks.value += 1
                    break

        # Phase 4a: per sender dstate, resolve direct-rival conflicts by
        # COW-forking the *virtual* layer.
        delivery_dstate_ids: Set[int] = set(sender_dstate_ids)
        for vs in sender_virtuals:
            dstate = vs.dstate
            direct_rivals = [v for v in dstate.members[sender.node] if v is not vs]
            if not direct_rivals:
                continue  # virtual packet delivered in place in this dstate
            dstate.members[sender.node] = direct_rivals
            new_members: Dict[int, List[VirtualState]] = {sender.node: [vs]}
            new_dstate = VDState(new_members)
            vs.dstate = new_dstate
            for node in sorted(dstate.members):
                if node == sender.node:
                    continue
                fresh_list: List[VirtualState] = []
                for old in dstate.members[node]:
                    if node == dest_node:
                        # Fresh virtual stays with the receiving target; the
                        # displaced one moves to the non-receiving twin.
                        receiver = old.actual
                        twin = twins[receiver.sid]
                        fresh = VirtualState(receiver, new_dstate)
                        self._virtuals[receiver.sid].remove(old)
                        old.actual = twin
                        self._virtuals.setdefault(twin.sid, []).append(old)
                        self._virtuals[receiver.sid].append(fresh)
                    else:
                        # Bystander: only its virtual state forks.
                        fresh = VirtualState(old.actual, new_dstate)
                        self._virtuals[old.actual.sid].append(fresh)
                    fresh_list.append(fresh)
                    self.virtual_forks.value += 1
                new_members[node] = fresh_list
            self._dstates.append(new_dstate)
            delivery_dstate_ids.add(id(new_dstate))

        # Phase 4b: super-rival dstates — move the target's remaining
        # virtuals outside all delivery contexts to the twin (Figure 7).
        for target in targets:
            twin = twins.get(target.sid)
            if twin is None:
                continue
            virtuals = self._virtuals[target.sid]
            keep: List[VirtualState] = []
            moved: List[VirtualState] = []
            for vt in virtuals:
                if id(vt.dstate) in delivery_dstate_ids:
                    keep.append(vt)
                else:
                    vt.actual = twin
                    moved.append(vt)
            virtuals[:] = keep
            if moved:
                self._virtuals.setdefault(twin.sid, []).extend(moved)

        return targets

    def group_count(self) -> int:
        return len(self._dstates)

    def groups(self) -> Iterable[Dict[int, List[ExecutionState]]]:
        for dstate in self._dstates:
            yield {
                node: [virtual.actual for virtual in virtuals]
                for node, virtuals in dstate.members.items()
            }

    def check_invariants(self) -> None:
        for dstate in self._dstates:
            for virtuals in dstate.members.values():
                for virtual in virtuals:
                    if virtual.dstate is not dstate:
                        raise MappingError("virtual backpointer wrong")
                    if virtual not in self._virtuals[virtual.actual.sid]:
                        raise MappingError("virtual missing from index")
