"""Symbolic failure injection.

The paper's test setup configures nodes to *symbolically drop one packet*:
when the first packet arrives, the receiving state forks — in one state the
radio receives it, in the other it is dropped.  "Further failures (packet
duplicates, node failures and reboots) are implemented and configured in a
similar fashion."  All three are implemented here.

A failure model rewrites the set of *delivery plans* for one reception
event.  Each plan is ``(state, deliveries, reboot)``: how many times the
``on_recv`` handler runs for that state (0 = dropped) and whether the state
reboots instead.  Models fork states and tag each fork with a fresh symbolic
decision variable, so every generated test case pins the failure pattern
concretely — that is exactly what makes the bug reports replayable.

Forks produced here are *local branches* in the paper's sense: the engine
reports them to the state mapper (COB reacts by forking dscenarios).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from ..expr import bv, eq, var
from ..vm.state import ExecutionState
from .packet import Packet

__all__ = [
    "DeliveryPlan",
    "FailureModel",
    "SymbolicPacketDrop",
    "SymbolicDuplication",
    "SymbolicNodeReboot",
]

# (state, handler invocations, reboot-instead)
DeliveryPlan = Tuple[ExecutionState, int, bool]


class FailureModel:
    """Base class: transforms delivery plans for a reception event."""

    #: Tag used for the symbolic decision variable (and its budget counter).
    tag = "failure"

    def __init__(
        self,
        nodes: Iterable[int],
        budget: int = 1,
        packet_filter: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        """``nodes``: node ids this model applies to.

        ``budget``: how many times per execution path the failure may occur
        (the paper uses one symbolic drop per node).

        ``packet_filter``: restricts the failure to matching packets.  The
        paper's setup injects the drop "during reception of the *first*
        packet"; scenario builders pass a filter selecting the flow's first
        data packet so later traffic cannot re-arm the failure in execution
        paths that missed the first packet (without a filter, every such
        path forks again on its own first reception and the scenario space
        grows combinatorially — that mode remains available as the
        drop-any-packet ablation).
        """
        self.nodes = frozenset(nodes)
        self.budget = budget
        self.packet_filter = packet_filter

    def applies(self, state: ExecutionState, packet: Packet) -> bool:
        if state.node not in self.nodes:
            return False
        if self.packet_filter is not None and not self.packet_filter(packet):
            return False
        return state.sym_counters.get(self.tag, 0) < self.budget

    def apply(
        self, plans: List[DeliveryPlan], packet: Packet
    ) -> Tuple[List[DeliveryPlan], List[Tuple[ExecutionState, ExecutionState]]]:
        """Rewrite plans; also return the (parent, fork) pairs created."""
        out: List[DeliveryPlan] = []
        forks: List[Tuple[ExecutionState, ExecutionState]] = []
        for state, deliveries, reboot in plans:
            if reboot or deliveries == 0 or not self.applies(state, packet):
                out.append((state, deliveries, reboot))
                continue
            twin = self._fork_with_decision(state)
            forks.append((state, twin))
            out.append((state, deliveries, reboot))
            out.append(self._failed_plan(twin, deliveries))
        return out, forks

    # -- subclass hooks -------------------------------------------------------

    def _failed_plan(self, twin: ExecutionState, deliveries: int) -> DeliveryPlan:
        raise NotImplementedError

    def _fork_with_decision(self, state: ExecutionState) -> ExecutionState:
        """Fork ``state``; the original takes decision=0 (no failure), the
        twin decision=1 (failure).  Both consume one unit of budget."""
        name = state.fresh_symbol_name(self.tag)
        decision = var(name, 1)
        twin = state.fork()
        state.add_symbolic(name, 1)
        twin.add_symbolic(name, 1)
        state.add_constraint(eq(decision, bv(0, 1)))
        twin.add_constraint(eq(decision, bv(1, 1)))
        return twin


class SymbolicPacketDrop(FailureModel):
    """The radio may drop the packet (paper's primary failure model)."""

    tag = "drop"

    def _failed_plan(self, twin, deliveries):
        return (twin, 0, False)


class SymbolicDuplication(FailureModel):
    """The packet may be duplicated: the handler runs twice."""

    tag = "dup"

    def _failed_plan(self, twin, deliveries):
        return (twin, deliveries + 1, False)


class SymbolicNodeReboot(FailureModel):
    """The node may crash-and-reboot instead of processing the packet."""

    tag = "reboot"

    def _failed_plan(self, twin, deliveries):
        return (twin, 0, True)


def standard_failure_suite(
    drop_nodes: Iterable[int],
    dup_nodes: Iterable[int] = (),
    reboot_nodes: Iterable[int] = (),
    budget: int = 1,
    packet_filter: Optional[Callable[[Packet], bool]] = None,
) -> List[FailureModel]:
    """The paper's configuration: drops on the data path and its neighbours,
    optionally duplicates/reboots elsewhere."""
    models: List[FailureModel] = [
        SymbolicPacketDrop(drop_nodes, budget, packet_filter)
    ]
    dup_nodes = list(dup_nodes)
    reboot_nodes = list(reboot_nodes)
    if dup_nodes:
        models.append(SymbolicDuplication(dup_nodes, budget, packet_filter))
    if reboot_nodes:
        models.append(SymbolicNodeReboot(reboot_nodes, budget, packet_filter))
    return models
