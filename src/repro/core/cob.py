"""Copy On Branch (paper Section III-A).

COB maintains explicit *dscenarios*: complete network snapshots with exactly
one state per node, mimicking the symbolic execution of a monolithic network
simulation.  Every node-local branch forks the **entire** dscenario — all
other nodes' states are duplicated even though nothing about them changed
(Figure 3).  Transmission mapping is then trivial: the receiver is the
dscenario's unique state of the destination node.

COB is the correctness baseline: it is "intuitively correct as it mimics the
symbolic execution of a monolithic simulation", and any other mapping
algorithm must cover exactly the dscenarios COB generates.  The equivalence
tests in ``tests/core/test_equivalence.py`` hold COW and SDS to that
standard.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence

from ..vm.state import ExecutionState
from .mapping import MappingError, StateMapper

__all__ = ["COBMapper", "DScenario"]


def _ensure_counter_above(cls, minimum: int) -> None:
    """Advance a class-level ``_ids`` counter past ``minimum`` (restore)."""
    if next(cls._ids) <= minimum:
        cls._ids = itertools.count(minimum + 1)


class DScenario:
    """One complete distributed scenario: exactly one state per node."""

    __slots__ = ("id", "members")

    _ids = itertools.count(1)

    def __init__(self, members: Dict[int, ExecutionState]) -> None:
        self.id = next(DScenario._ids)
        self.members = members  # node id -> state

    def nodes(self):
        return self.members.keys()

    def states(self) -> List[ExecutionState]:
        return [self.members[node] for node in sorted(self.members)]

    def __repr__(self) -> str:
        return f"DScenario#{self.id}({len(self.members)} nodes)"


class COBMapper(StateMapper):
    """Brute-force Copy On Branch."""

    name = "cob"

    def __init__(self) -> None:
        super().__init__()
        self._dscenarios: List[DScenario] = []
        self._owner: Dict[int, DScenario] = {}  # sid -> its dscenario

    # -- interface ---------------------------------------------------------------

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        if self._dscenarios:
            raise MappingError("initial states registered twice")
        members = {state.node: state for state in states}
        if len(members) != len(states):
            raise MappingError("initial states must be one per node")
        scenario = DScenario(members)
        self._dscenarios.append(scenario)
        for state in states:
            self._owner[state.sid] = scenario

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        """Fork the whole dscenario once per new child (Figure 3)."""
        scenario = self._owner[parent.sid]
        for child in children:
            members: Dict[int, ExecutionState] = {}
            for node, member in scenario.members.items():
                if node == parent.node:
                    members[node] = child
                else:
                    copy = member.fork()
                    members[node] = copy
                    self.spawn(copy)
                    self.local_forks.value += 1
                    self.bystander_duplicates.value += 1
                    if self.trace is not None:
                        self.trace.emit(
                            "mapper.copy",
                            node=node,
                            t=parent.clock,
                            kind="real",
                            role="bystander",
                            sid=copy.sid,
                        )
            twin_scenario = DScenario(members)
            self._dscenarios.append(twin_scenario)
            for state in members.values():
                self._owner[state.sid] = twin_scenario

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        """Constant-time lookup: the dscenario's state of the destination."""
        self.transmissions.value += 1
        scenario = self._owner[sender.sid]
        receiver = scenario.members.get(dest_node)
        if receiver is None:
            raise MappingError(f"dscenario has no state for node {dest_node}")
        return [receiver]

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot_groups(self, group_indices):
        """The selected dscenarios themselves — they pickle as-is."""
        return [self._dscenarios[index] for index in group_indices]

    def restore_groups(self, payload) -> None:
        if self._dscenarios:
            raise MappingError("restore_groups on a non-empty mapper")
        max_id = 0
        max_sid = 0
        for scenario in payload:
            self._dscenarios.append(scenario)
            max_id = max(max_id, scenario.id)
            for state in scenario.members.values():
                self._owner[state.sid] = scenario
                max_sid = max(max_sid, state.sid)
        _ensure_counter_above(DScenario, max_id)
        from ..vm.state import ensure_state_ids_above

        ensure_state_ids_above(max_sid)

    def drop_groups(self, group_indices) -> List[int]:
        dropped = set(group_indices)
        sids = [
            state.sid
            for index in dropped
            for state in self._dscenarios[index].members.values()
        ]
        for sid in sids:
            del self._owner[sid]
        self._dscenarios = [
            scenario
            for index, scenario in enumerate(self._dscenarios)
            if index not in dropped
        ]
        return sids

    # -- introspection -----------------------------------------------------------------

    def group_count(self) -> int:
        return len(self._dscenarios)

    def groups(self) -> Iterable[Dict[int, List[ExecutionState]]]:
        for scenario in self._dscenarios:
            yield {node: [state] for node, state in scenario.members.items()}

    def dscenarios(self) -> List[DScenario]:
        return list(self._dscenarios)

    def check_invariants(self) -> None:
        from .history import find_conflicts

        seen: Dict[int, int] = {}
        for scenario in self._dscenarios:
            for node, state in scenario.members.items():
                if state.node != node:
                    raise MappingError(
                        f"state {state.sid} filed under wrong node {node}"
                    )
                if state.sid in seen:
                    raise MappingError(f"state {state.sid} appears in two dscenarios")
                seen[state.sid] = scenario.id
                if self._owner.get(state.sid) is not scenario:
                    raise MappingError(f"owner map inconsistent for state {state.sid}")
            conflicts = find_conflicts(scenario.members.values())
            if conflicts:
                a, b = conflicts[0]
                raise MappingError(
                    f"dscenario {scenario.id} conflicted: {a.sid} vs {b.sid}"
                )
