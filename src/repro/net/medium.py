"""The network medium contract, the ideal medium, and the medium registry.

The paper's network model is ideal ("no node and network failures" at this
layer; failures are injected *above* by :mod:`repro.net.failures`).  That
medium — reachability plus a constant latency — stays the default and the
paper-fidelity baseline.  This module defines the *contract* every medium
implements, so alternative physics (``repro.net.realistic``: lossy,
jittered, bandwidth-limited routed links) plug into the engine through a
registry, mirroring the workload and mapper registries:

- :class:`Medium` — the abstract base: reachability primitives
  (``unicast_targets`` / ``broadcast_targets``) and ``delivery_time``,
  which the engine-facing ``plan_unicast`` / ``plan_broadcast`` compose
  (a medium implements the primitives or overrides both plans), the
  ``net.*`` counter handles the engine's metrics registry adopts, the
  ``trace`` hook, and the ``node_symmetric`` predicate the symmetry/POR
  reducer consults before trusting automorphism-canonical fingerprints.
- :class:`IdealMedium` — the paper's medium, registered as ``"ideal"``:
  a unicast reaches its destination iff destination is a neighbour; a
  broadcast is a series of unicasts to every neighbour (paper,
  footnote 1); delivery latency is a deterministic constant.
- :func:`register_medium` / :func:`make_medium` / :func:`available_media`
  — the registry; :class:`~repro.core.engine.SDEEngine` constructs its
  medium through :func:`make_medium` from
  ``EngineConfig(medium=..., medium_params=...)``.

Every medium must be **deterministic**: two engines built from the same
config must plan identical deliveries regardless of process, worker
count, or exploration order — reports are pinned bit-identical across
sequential, ``--workers`` and checkpoint-resume runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..obs.metrics import Counter
from .topology import Topology

__all__ = [
    "Medium",
    "IdealMedium",
    "register_medium",
    "make_medium",
    "available_media",
]


class Medium:
    """Abstract medium: who can hear whom, when, and at what cost.

    A subclass implements either the three primitives
    (``unicast_targets``, ``broadcast_targets``, ``delivery_time``),
    which the default ``plan_*`` methods compose, or both ``plan_*``
    methods, when delivery involves more than "reachable targets at a
    constant delay" (routing, loss, queueing).  Every counter is a
    :class:`~repro.obs.metrics.Counter` attribute named ``net.<name>``,
    listed in ``handles``; the engine's metrics registry adopts them all,
    which is how they reach the run report and survive checkpoint resume.
    """

    #: registry name; subclasses set it (used in reprs and error messages).
    name = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        #: structured event trace (set by the engine); None = off
        self.trace = None
        self.unicasts_sent = Counter("net.unicasts_sent")
        self.broadcasts_sent = Counter("net.broadcasts_sent")
        self.undeliverable = Counter("net.undeliverable")
        self.handles = (self.unicasts_sent, self.broadcasts_sent, self.undeliverable)

    # -- primitives every medium implements --------------------------------

    def unicast_targets(self, src: int, dest: int) -> List[int]:
        """Node ids a unicast from ``src`` to ``dest`` reaches (0 or 1)."""
        raise NotImplementedError

    def broadcast_targets(self, src: int) -> List[int]:
        """Node ids that overhear a broadcast from ``src`` (sorted)."""
        raise NotImplementedError

    def delivery_time(self, sent_at: int, **context) -> int:
        """When a packet sent at ``sent_at`` arrives.

        ``context`` may carry ``src``/``dest``/``seq``/``size`` for media
        whose delay depends on the link or the payload; the ideal medium
        ignores it.
        """
        raise NotImplementedError

    # -- engine-facing planning ---------------------------------------------

    def plan_unicast(
        self, sender, dest: int, size: int
    ) -> List[Tuple[int, int]]:
        """Deliveries for one unicast: ``(target node, deliver_at)`` pairs.

        ``sender`` is the transmitting :class:`~repro.vm.state
        .ExecutionState`; the default plan composes the primitives.  Media
        with per-link randomness key every draw on the *logical send*
        ``(src, dest, sender.clock, len(sender.history))`` — all four are
        path-deterministic and fork with the state, so the same send gets
        the same verdict in any harness.
        """
        deliver_at = self.delivery_time(
            sender.clock,
            src=sender.node,
            dest=dest,
            seq=len(sender.history),
            size=size,
        )
        return [
            (node, deliver_at)
            for node in self.unicast_targets(sender.node, dest)
        ]

    def plan_broadcast(self, sender, size: int) -> List[Tuple[int, int]]:
        """Deliveries for one broadcast: ``(target node, deliver_at)``."""
        seq = len(sender.history)
        return [
            (
                node,
                self.delivery_time(
                    sender.clock,
                    src=sender.node,
                    dest=node,
                    seq=seq,
                    size=size,
                ),
            )
            for node in self.broadcast_targets(sender.node)
        ]

    # -- reduction contract --------------------------------------------------

    def node_symmetric(self) -> bool:
        """Is delivery behaviour invariant under node automorphisms?

        The symmetry/POR reducer (:mod:`repro.core.reduce`) canonicalizes
        states under the topology's automorphism group and treats states
        with equal fingerprints as interchangeable.  A medium whose
        per-link draws or queues distinguish relabelled links (nonzero
        loss/jitter, finite bandwidth) breaks that equivalence; returning
        ``False`` here makes the reducer self-disable instead of pruning
        unsoundly.
        """
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.topology.name})"


class IdealMedium(Medium):
    """Ideal-condition medium over a topology (the paper's model)."""

    name = "ideal"

    def __init__(self, topology: Topology, latency_ms: int = 1) -> None:
        if latency_ms < 0:
            raise ValueError("latency cannot be negative")
        super().__init__(topology)
        self.latency_ms = latency_ms

    def unicast_targets(self, src: int, dest: int) -> List[int]:
        """Destination node ids a unicast actually reaches (0 or 1)."""
        self.unicasts_sent.value += 1
        delivered = self.topology.are_neighbors(src, dest)
        if not delivered:
            self.undeliverable.value += 1
        if self.trace is not None:
            self.trace.emit(
                "net.unicast", src=src, dest=dest, delivered=delivered
            )
        return [dest] if delivered else []

    def broadcast_targets(self, src: int) -> List[int]:
        """Every neighbour overhears a broadcast (sorted: determinism)."""
        self.broadcasts_sent.value += 1
        targets = list(self.topology.neighbors(src))
        if self.trace is not None:
            self.trace.emit("net.broadcast", src=src, targets=len(targets))
        return targets

    def delivery_time(self, sent_at: int, **context) -> int:
        return sent_at + self.latency_ms

    def __repr__(self) -> str:
        return (
            f"IdealMedium({self.topology.name}, latency={self.latency_ms}ms)"
        )


# ---------------------------------------------------------------------------
# The medium registry (mirrors the workload and mapper registries)
# ---------------------------------------------------------------------------

_MEDIA: Dict[str, Callable[..., Medium]] = {}


def register_medium(name: str, factory: Callable[..., Medium]) -> None:
    """Register (or replace) a medium factory under ``name``.

    The factory is called as ``factory(topology, **medium_params)`` and
    must return a fresh :class:`Medium` per call (media hold per-run
    counters).  Registering an existing name replaces it, so tests can
    shadow a built-in and restore it afterwards.
    """
    _MEDIA[name] = factory


def _load_builtins() -> None:
    # The realistic medium lives in its own module and registers itself on
    # import; pulling it in here keeps `make_medium("realistic", ...)`
    # working even when only repro.net.medium was imported.
    from . import realistic  # noqa: F401


def available_media() -> tuple:
    """Every registered medium name, sorted."""
    _load_builtins()
    return tuple(sorted(_MEDIA))


def make_medium(name: str, topology: Topology, **params) -> Medium:
    """Instantiate a medium by registry name ('ideal'/'realistic'/...)."""
    _load_builtins()
    try:
        factory = _MEDIA[name]
    except KeyError:
        raise ValueError(
            f"unknown medium {name!r}; choose from {available_media()}"
        ) from None
    return factory(topology, **params)


register_medium("ideal", IdealMedium)
