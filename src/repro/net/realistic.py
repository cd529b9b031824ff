"""Realistic network medium: lossy, jittered, bandwidth-limited routed links.

Where :class:`~repro.net.medium.IdealMedium` answers only reachability and
a constant delay, :class:`RealisticMedium` models the link physics the
CloudSim-style roadmap sketches (ROADMAP item 5):

- **per-link parameters** — propagation ``latency_ms``, uniform extra
  ``jitter_ms``, independent per-hop ``loss`` probability, and an egress
  serialization rate ``bandwidth_cells_per_ms`` (payload cells per
  millisecond; 0 = infinite);
- **bounded egress queues with backpressure** — with finite bandwidth, a
  sender's packets onto one first-hop link serialize one after another;
  ``queue_capacity`` bounds how many packets may wait behind the one in
  service, and an over-capacity send is a *tail drop*, counted in
  ``queue_drops`` and traced as ``net.drop`` with ``reason="queue"``;
- **routed multi-hop unicast** — a unicast to any reachable node follows
  the topology's BFS shortest path (:meth:`Topology.next_hop_table`, the
  grid workloads' static routes), with lowest-node-id tie-breaking so
  routes are deterministic.  Star/ring/mesh/random/fat-tree topologies
  therefore deliver beyond one hop; broadcasts stay single-hop radio
  semantics (every neighbour overhears).

**Determinism.**  Symbolic distributed execution explores many worlds from
one run, across forked states, worker processes and checkpoint resumes —
a mutable RNG stream would make verdicts depend on exploration order.
Every loss/jitter draw here is instead a *pure function* of the logical
send: ``hash(seed, tag, src, dest, clock, seq, hop)``, with ``seq`` the
sender state's communication-history length (path-deterministic, forks
with the state, independent of the process-global sid/pid counters).  The
hash is ``random.Random`` seeded with a *string* key — CPython seeds
strings through SHA-512, so draws are stable across processes and
unaffected by ``PYTHONHASHSEED`` (tuple seeding would not be).  The same
logical send gets the same verdict in any harness, and there is no RNG
state to checkpoint.

**Queue state.**  The medium object itself holds only counters; per-link
``busy_until`` bookkeeping lives on the *sender state*
(``ExecutionState.link_busy``), so each symbolic world sees its own queue
occupancy and forks copy it — shared mutable queue state on the medium
would leak one world's backlog into another.  Relay hops are stateless:
they add serialization + propagation + jitter but do not queue (an honest
simplification, documented in docs/NETWORK.md).

**Reduction.**  Per-link draws distinguish relabelled links, so the
medium reports ``node_symmetric() == False`` whenever loss, jitter or a
finite bandwidth is configured — the symmetry/POR reducer self-disables
rather than pruning under a broken equivalence (docs/NETWORK.md).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import Counter
from .medium import Medium, register_medium
from .topology import Topology

__all__ = ["DRAW_MEMO_LIMIT", "RealisticMedium"]

#: egress-link key for broadcasts: the radio serializes one frame,
#: whichever neighbours overhear it.
_BROADCAST_LINK = -1

#: Draws one medium keeps; a full memo is emptied and refills.  Sibling
#: states replan the same logical send, so about half of all draws repeat
#: an earlier key of the same medium.
DRAW_MEMO_LIMIT = 1 << 16


class RealisticMedium(Medium):
    """Routed multi-hop medium with loss, jitter, bandwidth and queues."""

    name = "realistic"

    def __init__(
        self,
        topology: Topology,
        latency_ms: int = 1,
        jitter_ms: int = 0,
        loss: float = 0.0,
        bandwidth_cells_per_ms: int = 0,
        queue_capacity: int = 0,
        seed: int = 0,
    ) -> None:
        if latency_ms < 0:
            raise ValueError("latency cannot be negative")
        if jitter_ms < 0:
            raise ValueError("jitter cannot be negative")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be a probability in [0, 1)")
        if bandwidth_cells_per_ms < 0:
            raise ValueError("bandwidth cannot be negative")
        if queue_capacity < 0:
            raise ValueError("queue capacity cannot be negative")
        super().__init__(topology)
        self.latency_ms = latency_ms
        self.jitter_ms = jitter_ms
        self.loss = loss
        self.bandwidth_cells_per_ms = bandwidth_cells_per_ms
        self.queue_capacity = queue_capacity
        self.seed = seed
        self.delivered = Counter("net.delivered")
        self.lost = Counter("net.lost")
        self.queue_drops = Counter("net.queue_drops")
        self.hops_traversed = Counter("net.hops_traversed")
        self.handles += (
            self.delivered,
            self.lost,
            self.queue_drops,
            self.hops_traversed,
        )
        self._hop_tables: Dict[int, Dict[int, int]] = {}
        self._draws: Dict[Tuple[str, int, int, int, int, int], float] = {}

    # -- routing (shared BFS, lowest-id tie-breaks) --------------------------

    def next_hop_table(self, dest: int) -> Dict[int, int]:
        """Next hop toward ``dest`` for every other node that can reach
        it: :meth:`Topology.next_hop_table` (among equal-length routes the
        lowest-id parent wins) without the ``dest`` entry, cached per
        destination; an out-of-range ``dest`` routes nowhere."""
        table = self._hop_tables.get(dest)
        if table is None:
            table = {}
            if dest in self.topology.nodes():
                table = self.topology.next_hop_table(dest)
                del table[dest]
            self._hop_tables[dest] = table
        return table

    def route(self, src: int, dest: int) -> Optional[List[int]]:
        """The routed path src -> dest, or ``None`` if unreachable."""
        if src == dest:
            return [src]
        table = self.next_hop_table(dest)
        path = [src]
        while path[-1] != dest:
            hop = table.get(path[-1])
            if hop is None:
                return None
            path.append(hop)
        return path

    # -- seeded pure-function randomness ------------------------------------

    def _draw(
        self, tag: str, src: int, dest: int, clock: int, seq: int, hop: int
    ) -> float:
        key = (tag, src, dest, clock, seq, hop)
        draw = self._draws.get(key)
        if draw is None:
            if len(self._draws) >= DRAW_MEMO_LIMIT:
                self._draws.clear()
            seed = f"net:{self.seed}:{tag}:{src}:{dest}:{clock}:{seq}:{hop}"
            draw = random.Random(seed).random()
            self._draws[key] = draw
        return draw

    def _jitter(
        self, src: int, dest: int, clock: int, seq: int, hop: int
    ) -> int:
        if not self.jitter_ms:
            return 0
        draw = self._draw("jitter", src, dest, clock, seq, hop)
        return int(draw * (self.jitter_ms + 1))

    def _lost(
        self, src: int, dest: int, clock: int, seq: int, hop: int
    ) -> bool:
        return (
            self.loss > 0.0
            and self._draw("loss", src, dest, clock, seq, hop) < self.loss
        )

    # -- egress queueing (per-sender-state bookkeeping) ---------------------

    def _service_ms(self, size: int) -> int:
        if not self.bandwidth_cells_per_ms:
            return 0
        return max(1, -(-size // self.bandwidth_cells_per_ms))

    def _egress(self, sender, link: int, size: int) -> Optional[int]:
        """Serialize onto ``sender``'s egress link; ``None`` = tail drop.

        Returns the departure time.  ``sender.link_busy[link]`` tracks
        when the link frees up in this state's world; the backlog beyond
        ``queue_capacity`` packets is dropped at the tail.
        """
        service = self._service_ms(size)
        if not service:
            return sender.clock
        busy_until = sender.link_busy.get(link, 0)
        backlog = max(0, busy_until - sender.clock)
        if self.queue_capacity and backlog > self.queue_capacity * service:
            return None
        start = max(sender.clock, busy_until)
        sender.link_busy = sender.link_busy.with_item(link, start + service)
        return start + service

    # -- planning -------------------------------------------------------------

    def _drop(self, src: int, dest: int, reason: str) -> None:
        if self.trace is not None:
            self.trace.emit("net.drop", src=src, dest=dest, reason=reason)

    def plan_unicast(
        self, sender, dest: int, size: int
    ) -> List[Tuple[int, int]]:
        src = sender.node
        clock = sender.clock
        seq = len(sender.history)
        self.unicasts_sent.value += 1
        path = self.route(src, dest)
        if path is None:
            self.undeliverable.value += 1
            if self.trace is not None:
                self.trace.emit(
                    "net.unicast", src=src, dest=dest, delivered=False
                )
            return []
        if self.trace is not None:
            self.trace.emit("net.unicast", src=src, dest=dest, delivered=True)
        departure = self._egress(sender, path[1], size)
        if departure is None:
            self.queue_drops.value += 1
            self._drop(src, dest, "queue")
            return []
        deliver_at = departure
        for hop in range(len(path) - 1):
            if self._lost(src, dest, clock, seq, hop):
                self.lost.value += 1
                self._drop(path[hop], path[hop + 1], "loss")
                return []
            deliver_at += self.latency_ms + self._jitter(
                src, dest, clock, seq, hop
            )
            self.hops_traversed.value += 1
        self.delivered.value += 1
        return [(dest, deliver_at)]

    def plan_broadcast(self, sender, size: int) -> List[Tuple[int, int]]:
        src = sender.node
        clock = sender.clock
        seq = len(sender.history)
        self.broadcasts_sent.value += 1
        targets = self.topology.neighbors(src)
        if self.trace is not None:
            self.trace.emit("net.broadcast", src=src, targets=len(targets))
        departure = self._egress(sender, _BROADCAST_LINK, size)
        if departure is None:
            self.queue_drops.value += 1
            self._drop(src, _BROADCAST_LINK, "queue")
            return []
        plans: List[Tuple[int, int]] = []
        for dest in targets:
            if self._lost(src, dest, clock, seq, 0):
                self.lost.value += 1
                self._drop(src, dest, "loss")
                continue
            deliver_at = (
                departure
                + self.latency_ms
                + self._jitter(src, dest, clock, seq, 0)
            )
            plans.append((dest, deliver_at))
            self.delivered.value += 1
            self.hops_traversed.value += 1
        return plans

    # -- reduction ---------------------------------------------------

    def node_symmetric(self) -> bool:
        # Per-link draws and queues key on concrete node ids, which a
        # relabelling permutes; with all three off the medium degenerates
        # to routed constant delays, which automorphisms preserve.
        return not (
            self.loss or self.jitter_ms or self.bandwidth_cells_per_ms
        )

    def __repr__(self) -> str:
        return (
            f"RealisticMedium({self.topology.name},"
            f" latency={self.latency_ms}ms, jitter<={self.jitter_ms}ms,"
            f" loss={self.loss}, bw={self.bandwidth_cells_per_ms}/ms,"
            f" queue={self.queue_capacity}, seed={self.seed})"
        )


register_medium("realistic", RealisticMedium)
