"""Symbolic *persistent link* failures.

The paper's failure models are transient (a packet drop) or node-scoped
(reboot).  Real sensornets also lose whole links — a wall, a moved antenna —
after which *every* packet on that link disappears.  This model forks the
receiving state on the first packet over a configured link: in one world the
link works normally forever, in the other it is dead from that moment on and
this plus all later receptions over it are silently lost.

Persistence needs per-state link memory: the decision is recorded in the
state's ``sym_counters`` under a per-link tag (states fork with their
counters, so the knowledge travels with every descendant).  A tag value of
1 means "decision taken, link alive", 2 means "decision taken, link dead".
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..expr import bv, eq, var
from ..vm.state import ExecutionState
from .failures import DeliveryPlan, FailureModel
from .packet import Packet

__all__ = ["SymbolicLinkFailure"]

_ALIVE = 1
_DEAD = 2


class SymbolicLinkFailure(FailureModel):
    """Fork once per configured link; the dead branch loses all traffic."""

    tag = "linkdown"

    def __init__(self, links: Iterable[Tuple[int, int]]) -> None:
        """``links``: directed (src, dst) pairs that may fail."""
        self.links = frozenset(links)
        super().__init__(nodes={dst for _src, dst in self.links})
        self.packet_filter = None

    def _link_tag(self, packet: Packet) -> str:
        return f"{self.tag}_{packet.src}"

    def apply(self, plans: List[DeliveryPlan], packet: Packet):
        out: List[DeliveryPlan] = []
        forks: List[Tuple[ExecutionState, ExecutionState]] = []
        link = (packet.src, packet.dest)
        for state, deliveries, reboot in plans:
            if reboot or deliveries == 0 or link not in self.links:
                out.append((state, deliveries, reboot))
                continue
            tag = self._link_tag(packet)
            verdict = state.sym_counters.get(tag, 0)
            if verdict == _DEAD:
                out.append((state, 0, False))  # link is gone: silent loss
                continue
            if verdict == _ALIVE:
                out.append((state, deliveries, reboot))
                continue
            # First packet over this link: take the decision now.
            name = f"n{state.node}.{tag}"
            decision = var(name, 1)
            twin = state.fork()
            state.sym_counters = state.sym_counters.with_item(tag, _ALIVE)
            twin.sym_counters = twin.sym_counters.with_item(tag, _DEAD)
            state.add_symbolic(name, 1)
            twin.add_symbolic(name, 1)
            state.add_constraint(eq(decision, bv(0, 1)))
            twin.add_constraint(eq(decision, bv(1, 1)))
            forks.append((state, twin))
            out.append((state, deliveries, reboot))
            out.append((twin, 0, False))
        return out, forks
