"""Super DStates (paper Section III-C) — the paper's contribution.

SDS removes COW's bystander duplication with one level of indirection:
*virtual states*.  Every execution state owns at least one virtual state;
each virtual state belongs to exactly one dstate; the set of dstates a
state's virtuals span is its *super-dstate*.  Conceptually, SDS is COW run
on the virtual layer — but forking a bystander only forks its virtual state
(a pointer), never the execution state itself.  Only **targets** are ever
forked for real, and each at most once per mapping (either it receives the
packet or it does not).

The four phases of Section III-C:

1. *Finding targets* — all execution states behind the virtual states of
   the destination node in any dstate containing a sending virtual state.
2. *Finding rivals* — direct rivals share a dstate with a sending virtual
   state; super-rivals share a dstate with a target but not with the sender.
3. *Forking condition* — a target is forked iff its super-dstate contains
   any rival (direct or super); a target with no rivals anywhere receives
   without forking.
4. *Virtual forking* — per dstate D of the sender: with direct rivals, D is
   COW-forked on the virtual layer (the sender's virtual moves to a fresh
   dstate with fresh virtuals for targets — attached to the receiving
   state — and bystanders — attached to the *same* state); the displaced
   target virtuals move to the non-receiving twin.  Super-rival dstates
   only reassign their target virtuals to the twin ("cutting the
   connection", Figure 7).

The non-duplication property (Section III-D) is checked as a test: SDS
never creates two states with identical configurations.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Set

from ..vm.state import ExecutionState
from .cob import _ensure_counter_above
from .mapping import MappingError, StateMapper

__all__ = ["SDSMapper", "VirtualState", "VDState"]


class VirtualState:
    """A reference to an execution state, member of exactly one dstate.

    ``dstate`` and ``VDState.members`` point at each other: the one cycle
    of the mapping layer, kept strong because both directions are on the
    hot path.  A finished SDS run's virtual layer is therefore freed by a
    collection, not by refcount (docs/VM.md, "Memory management").
    """

    __slots__ = ("vid", "actual", "dstate")

    _ids = itertools.count(1)

    def __init__(self, actual: ExecutionState, dstate: "VDState") -> None:
        self.vid = next(VirtualState._ids)
        self.actual = actual
        self.dstate = dstate

    def __repr__(self) -> str:
        return f"V#{self.vid}->s{self.actual.sid}@D{self.dstate.id}"


class VDState:
    """A dstate over virtual states (node id -> non-empty virtual list)."""

    __slots__ = ("id", "members")

    _ids = itertools.count(1)

    def __init__(self, members: Dict[int, List[VirtualState]]) -> None:
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


class SDSMapper(StateMapper):
    """Super-dstate mapping: COW on the virtual layer."""

    name = "sds"

    def __init__(self) -> None:
        super().__init__()
        self._dstates: List[VDState] = []
        self._virtuals: Dict[int, List[VirtualState]] = {}  # sid -> virtuals

    # -- interface -----------------------------------------------------------

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        if self._dstates:
            raise MappingError("initial states registered twice")
        members: Dict[int, List[VirtualState]] = {}
        dstate = VDState(members)
        for state in states:
            if state.node in members:
                raise MappingError("initial states must be one per node")
            virtual = VirtualState(state, dstate)
            members[state.node] = [virtual]
            self._virtuals[state.sid] = [virtual]
        self._dstates.append(dstate)

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        """A branched state joins every dstate its predecessor is in.

        COW adds the child to the parent's (single) dstate; on the virtual
        layer the child mirrors each of the parent's virtual states.
        """
        parent_virtuals = list(self._virtuals[parent.sid])
        for child in children:
            child_virtuals = []
            for parent_virtual in parent_virtuals:
                dstate = parent_virtual.dstate
                virtual = VirtualState(child, dstate)
                dstate.members[parent.node].append(virtual)
                child_virtuals.append(virtual)
                self.virtual_forks.value += 1
                if self.trace is not None:
                    self.trace.emit(
                        "mapper.copy",
                        node=parent.node,
                        t=parent.clock,
                        kind="virtual",
                        role="local",
                        vid=virtual.vid,
                    )
            self._virtuals[child.sid] = child_virtuals

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        self.transmissions.value += 1
        sender_virtuals = list(self._virtuals[sender.sid])
        sender_dstate_ids: Set[int] = {vs.dstate.id for vs in sender_virtuals}

        # Phase 1: find targets.
        targets: List[ExecutionState] = []
        seen_targets: Set[int] = set()
        for vs in sender_virtuals:
            virtual_targets = vs.dstate.members.get(dest_node)
            if not virtual_targets:
                raise MappingError(
                    f"dstate {vs.dstate.id} has no virtuals for node {dest_node}"
                )
            for vt in virtual_targets:
                if vt.actual.sid not in seen_targets:
                    seen_targets.add(vt.actual.sid)
                    targets.append(vt.actual)

        # Phases 2+3: the forking condition.  A target needs no fork only if
        # every one of its virtuals sits in a dstate of the sender in which
        # the sender has no direct rivals.
        twins: Dict[int, ExecutionState] = {}  # target sid -> non-receiving twin
        for target in targets:
            needs_fork = False
            for vt in self._virtuals[target.sid]:
                dstate = vt.dstate
                if dstate.id not in sender_dstate_ids:
                    needs_fork = True  # super-rivals live there
                    break
                if len(dstate.members[sender.node]) > 1:
                    needs_fork = True  # direct rivals
                    break
            if needs_fork:
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
                    if self.trace is not None:
                        self.trace.emit(
                            "mapper.copy",
                            node=node,
                            t=sender.clock,
                            kind="virtual",
                            role="target" if node == dest_node else "bystander",
                            vid=fresh.vid,
                        )
                new_members[node] = fresh_list
            self._dstates.append(new_dstate)
            delivery_dstate_ids.add(new_dstate.id)

        # Phase 4b: super-rival dstates — move the target's remaining
        # virtuals outside all delivery contexts to the twin (Figure 7).
        for target in targets:
            twin = twins.get(target.sid)
            if twin is None:
                continue
            # One order-preserving pass: snapshot_groups relies on the
            # per-sid virtual order.
            virtuals = self._virtuals[target.sid]
            keep: List[VirtualState] = []
            moved: List[VirtualState] = []
            for vt in virtuals:
                if vt.dstate.id in delivery_dstate_ids:
                    keep.append(vt)
                else:
                    vt.actual = twin
                    moved.append(vt)
            virtuals[:] = keep
            if moved:
                self._virtuals.setdefault(twin.sid, []).extend(moved)

        return targets

    # -- snapshot / restore --------------------------------------------------------

    def snapshot_groups(self, group_indices):
        """Selected dstates plus each member state's *ordered* virtual list.

        The order of ``self._virtuals[sid]`` drives map_transmission's
        iteration, so it must survive the round-trip verbatim — it cannot be
        rebuilt from dstate membership.  Because partitions are closed under
        state sharing, every virtual of every state appearing in the
        selected dstates lies inside the selection, so the payload is
        self-contained (pickle's memo keeps the VirtualState objects shared
        between the two halves).
        """
        dstates = [self._dstates[index] for index in group_indices]
        ordered_sids: List[int] = []
        seen: Set[int] = set()
        for dstate in dstates:
            for virtual in dstate.virtuals():
                sid = virtual.actual.sid
                if sid not in seen:
                    seen.add(sid)
                    ordered_sids.append(sid)
        virtuals = [(sid, list(self._virtuals[sid])) for sid in ordered_sids]
        return (dstates, virtuals)

    def restore_groups(self, payload) -> None:
        if self._dstates:
            raise MappingError("restore_groups on a non-empty mapper")
        dstates, virtuals = payload
        max_did = 0
        max_vid = 0
        max_sid = 0
        for dstate in dstates:
            self._dstates.append(dstate)
            max_did = max(max_did, dstate.id)
        for sid, virtual_list in virtuals:
            self._virtuals[sid] = list(virtual_list)
            max_sid = max(max_sid, sid)
            for virtual in virtual_list:
                max_vid = max(max_vid, virtual.vid)
        _ensure_counter_above(VDState, max_did)
        _ensure_counter_above(VirtualState, max_vid)
        from ..vm.state import ensure_state_ids_above

        ensure_state_ids_above(max_sid)

    # -- introspection -------------------------------------------------------------

    def classify_roles(self, sender: ExecutionState, dest_node: int):
        """Figure 5/8 taxonomy on the virtual layer.

        Returns ``(targets, direct_rivals, super_rivals, bystanders)``:
        targets and bystanders as *execution states*, rivals as *virtual
        states* (the distinction between direct and super-rivals only
        exists virtually).  Read-only.
        """
        sender_virtuals = self._virtuals[sender.sid]
        sender_dstate_ids = {vs.dstate.id for vs in sender_virtuals}
        targets = []
        seen = set()
        involved_dstates = []
        for vs in sender_virtuals:
            involved_dstates.append(vs.dstate)
            for vt in vs.dstate.members.get(dest_node, ()):
                if vt.actual.sid not in seen:
                    seen.add(vt.actual.sid)
                    targets.append(vt.actual)
        direct_rivals = [
            v
            for vs in sender_virtuals
            for v in vs.dstate.members[sender.node]
            if v.actual is not sender
        ]
        super_rivals = []
        super_dstate_ids = set()
        for target in targets:
            for vt in self._virtuals[target.sid]:
                dstate = vt.dstate
                if (
                    dstate.id not in sender_dstate_ids
                    and dstate.id not in super_dstate_ids
                ):
                    super_dstate_ids.add(dstate.id)
                    involved_dstates.append(dstate)
                    super_rivals.extend(dstate.members[sender.node])
        bystander_sids = set()
        bystanders = []
        target_sids = {t.sid for t in targets}
        for dstate in involved_dstates:
            for node, virtuals in dstate.members.items():
                if node in (sender.node, dest_node):
                    continue
                for virtual in virtuals:
                    sid = virtual.actual.sid
                    if sid not in bystander_sids and sid not in target_sids:
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

    def virtuals_of(self, state: ExecutionState) -> List[VirtualState]:
        return list(self._virtuals.get(state.sid, ()))

    def virtual_count(self) -> int:
        return sum(len(virtuals) for virtuals in self._virtuals.values())

    def check_invariants(self) -> None:
        from .history import in_direct_conflict

        node_sets = None
        for dstate in self._dstates:
            if node_sets is None:
                node_sets = set(dstate.members)
            elif set(dstate.members) != node_sets:
                raise MappingError(f"dstate {dstate.id} covers a different node set")
            for node, virtuals in dstate.members.items():
                if not virtuals:
                    raise MappingError(f"dstate {dstate.id} empty for node {node}")
                actual_sids = set()
                for virtual in virtuals:
                    if virtual.dstate is not dstate:
                        raise MappingError(f"virtual {virtual.vid} backpointer wrong")
                    if virtual.actual.node != node:
                        raise MappingError(
                            f"virtual {virtual.vid} filed under wrong node"
                        )
                    if virtual.actual.sid in actual_sids:
                        raise MappingError(
                            f"dstate {dstate.id} holds two virtuals of state"
                            f" {virtual.actual.sid}"
                        )
                    actual_sids.add(virtual.actual.sid)
                    if virtual not in self._virtuals.get(virtual.actual.sid, ()):
                        raise MappingError(f"virtual {virtual.vid} missing from index")
            # Conflict-freedom over the actuals in this dstate.
            actuals = [v.actual for v in dstate.virtuals()]
            for i, a in enumerate(actuals):
                for b in actuals[i + 1 :]:
                    if in_direct_conflict(a, b):
                        raise MappingError(
                            f"dstate {dstate.id} holds conflicting states"
                            f" {a.sid} and {b.sid}"
                        )
        for sid, virtuals in self._virtuals.items():
            if not virtuals:
                raise MappingError(f"state {sid} has no virtual states")
