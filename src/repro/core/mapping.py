"""The state-mapping interface (paper Section III).

A :class:`StateMapper` answers the *state mapping problem*: when a state
transmits a packet, which states of the destination node receive it — and
which states must be forked so that no represented distributed scenario
mixes contradictory communication histories.

The engine is algorithm-agnostic; COB, COW and SDS plug in behind this
interface, which is the paper's portability claim ("the presented approach
can be easily transferred to any other symbolic execution engine"):

- :meth:`register_initial` — the k boot states, one per node;
- :meth:`on_local_fork` — a state forked on a node-local symbolic branch
  (COB maps here);
- :meth:`map_transmission` — a state is about to send a packet
  (COW and SDS map here); returns the receiving states.

Mappers create states only by forking existing ones and must report every
new state through the ``spawn`` callback so the engine can schedule it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..obs.metrics import Counter
from ..vm.state import ExecutionState

__all__ = ["StateMapper", "MappingError"]

SpawnCallback = Callable[[ExecutionState], None]


class MappingError(Exception):
    """Internal invariant of a mapping algorithm was violated."""


class StateMapper:
    """Base class for the three algorithms."""

    #: short identifier used in reports ("cob" / "cow" / "sds")
    name = "base"

    def __init__(self) -> None:
        # Counters every mapper maintains (``mapping.*`` metrics).
        #: transmissions routed through map_transmission
        self.transmissions = Counter("mapping.transmissions")
        #: states created because of node-local branches (COB only)
        self.local_forks = Counter("mapping.local_forks")
        #: states created by map_transmission (targets + bystanders)
        self.mapping_forks = Counter("mapping.mapping_forks")
        #: of those, pure duplicates (bystander copies; SDS: always 0)
        self.bystander_duplicates = Counter("mapping.bystander_duplicates")
        #: virtual states created (SDS only)
        self.virtual_forks = Counter("mapping.virtual_forks")
        self.handles = (
            self.transmissions,
            self.local_forks,
            self.mapping_forks,
            self.bystander_duplicates,
            self.virtual_forks,
        )
        self._spawn: Optional[SpawnCallback] = None
        #: structured event trace; ``None`` keeps mapping allocation-free
        self.trace = None

    # -- wiring ----------------------------------------------------------------

    def bind(self, spawn: SpawnCallback, trace=None, metrics=None) -> None:
        """Install the engine callback used to register forked states;
        the engine's ``metrics`` registry adopts the mapper's counters."""
        self._spawn = spawn
        self.trace = trace
        if metrics is not None:
            metrics.adopt(self)

    def spawn(self, state: ExecutionState) -> None:
        if self._spawn is None:
            raise MappingError("mapper not bound to an engine")
        self._spawn(state)

    # -- the algorithm interface ----------------------------------------------------

    def register_initial(self, states: Sequence[ExecutionState]) -> None:
        raise NotImplementedError

    def on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        raise NotImplementedError

    def map_transmission(
        self, sender: ExecutionState, dest_node: int
    ) -> List[ExecutionState]:
        raise NotImplementedError

    # -- introspection (benchmarks, tests) --------------------------------------------

    def group_count(self) -> int:
        """Number of dscenarios (COB) / dstates (COW, SDS)."""
        raise NotImplementedError

    # -- snapshot / restore (parallel execution) --------------------------------------

    def snapshot_groups(self, group_indices: Sequence[int]):
        """A picklable payload carrying the selected groups.

        ``group_indices`` index into :meth:`groups` order and must be closed
        under state sharing (a :class:`repro.core.partition.Partition`), so
        the payload is self-contained: every state referenced by a selected
        group has all of its group memberships inside the selection.
        """
        raise NotImplementedError

    def restore_groups(self, payload) -> None:
        """Install a :meth:`snapshot_groups` payload into this fresh mapper.

        Must only be called on an empty mapper (worker-process side).
        Implementations rebuild their indexes and advance any id counters
        past the ids present in the payload so locally created groups never
        collide with restored ones.
        """
        raise NotImplementedError

    def groups(self) -> Iterable[Dict[int, List[ExecutionState]]]:
        """Each group as a node -> states mapping (states, not virtuals)."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Raise MappingError if internal structure is inconsistent.

        Called by tests after every engine step; not used in benchmarks.
        """
        raise NotImplementedError
