"""Engine configuration — one frozen object instead of ~20 keywords.

:class:`EngineConfig` collects every *value* knob of an SDE run: horizon,
failure models, resource caps, sampling cadence, checkpoint cadence, the
solver cache and node budget, and the opcode-fusion debug switch.
Collaborator objects (a pre-built :class:`~repro.solver.Solver`, a
:class:`~repro.obs.events.TraceEmitter`) stay separate constructor
arguments — they carry state and are never shipped across process
boundaries, while a config is immutable and picklable, so a worker task
or a checkpoint can carry exactly one of them.
:class:`~repro.core.engine.SDEEngine` takes one as its fourth argument;
engine options are not accepted as keywords.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..net.failures import FailureModel

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY_EVENTS",
    "EngineConfig",
    "ENGINE_CONFIG_FIELDS",
    "check_checkpoint_cadence",
    "split_config_overrides",
]

#: checkpoint cadence, in executed events, of every entry point that
#: checkpoints (``repro run --checkpoint-out``, ``repro serve``'s job
#: workers) unless told otherwise.  One checkpoint costs about as much
#: as 60-110 events of execution (docs/RESILIENCE.md, "Choosing the
#: cadence"), so a much shorter interval spends more on checkpoints than
#: a kill could lose.
DEFAULT_CHECKPOINT_EVERY_EVENTS = 500

# One value for all nodes, or an explicit per-node mapping (mirrors
# engine.PresetValue; redefined here to keep config.py import-light).
_PresetValue = Union[int, Dict[int, int]]


@dataclass(frozen=True)
class EngineConfig:
    """Immutable value-configuration of one :class:`SDEEngine`.

    ``replace`` derives a variant (workers strip checkpoint settings,
    tests flip ``fuse_ops``); everything else is a plain field.
    Sequence fields are normalized to tuples so configs can be compared
    and shipped between processes safely.
    """

    #: virtual-time horizon: the run stops at this simulated time.
    horizon_ms: int
    #: failure models applied at packet reception, in order.
    failure_models: Tuple[FailureModel, ...] = ()
    #: preset guest globals: name -> value or per-node mapping.
    preset_globals: Optional[Dict[str, _PresetValue]] = None
    #: link latency of the medium.  Kept as a top-level field for
    #: back-compat: it seeds the ``latency_ms`` medium parameter unless
    #: ``medium_params`` overrides it.
    latency_ms: int = 1
    #: network medium, by registry name (:func:`repro.net.make_medium`);
    #: ``"ideal"`` is the paper-fidelity default, ``"realistic"`` the
    #: lossy/jittered/routed medium (docs/NETWORK.md).
    medium: str = "ideal"
    #: medium construction parameters, merged over the ``latency_ms``
    #: alias.  Stored as a plain dict; treat as immutable.
    medium_params: Optional[Dict[str, object]] = None
    #: per-node boot times; ``None`` boots every node at t=0.
    boot_times: Optional[Tuple[int, ...]] = None
    # -- resource caps (None = uncapped) -----------------------------------
    max_states: Optional[int] = None
    max_accounted_bytes: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    # -- diagnostics --------------------------------------------------------
    check_invariants: bool = False
    sample_every_events: int = 64
    max_steps_per_event: int = 1_000_000
    # -- checkpointing (repro.core.resilience) ------------------------------
    checkpoint_path: Optional[str] = None
    checkpoint_every_events: Optional[int] = None
    checkpoint_every_seconds: Optional[float] = None
    # -- solver pipeline (repro.solver) -------------------------------------
    solver_cache: bool = True
    solver_max_nodes: int = 200_000
    # -- interpreter (repro.vm) ---------------------------------------------
    #: fuse hot opcode pairs into superinstructions at decode time
    #: (``repro run --no-fuse`` turns this off for debugging
    #: miscompiled superinstructions).  Trace-invisible.
    fuse_ops: bool = True
    # -- state-space reduction (repro.core.reduce) --------------------------
    #: symmetry reduction: park states whose canonical configuration
    #: fingerprint (alpha-renamed, minimized over the topology's node
    #: automorphisms) is already covered.  Preserves reported verdicts up
    #: to symmetry (docs/REDUCTION.md); changes state/trace counts.
    symmetry: bool = False
    #: partial-order reduction: sleep mapper-created non-receiving twins
    #: whose exchange with an independent delivery commutes (disjoint
    #: channels/payloads, statically certified receive handler).
    por: bool = False

    def __post_init__(self) -> None:
        check_checkpoint_cadence(
            self.checkpoint_every_events, self.checkpoint_every_seconds
        )
        # Accept lists for convenience; store tuples so the config stays
        # hashable-by-parts and safely shareable.
        if not isinstance(self.failure_models, tuple):
            object.__setattr__(self, "failure_models", tuple(self.failure_models))
        if self.boot_times is not None and not isinstance(self.boot_times, tuple):
            object.__setattr__(self, "boot_times", tuple(self.boot_times))

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (the config itself is frozen)."""
        return dataclasses.replace(self, **changes)

    def worker_variant(self) -> "EngineConfig":
        """The config a parallel worker runs under.

        Workers never checkpoint (the parent run owns the checkpoint
        file) and never re-check mapper invariants (the parent already
        did, and the checks assume a whole-system view).
        """
        return self.replace(
            check_invariants=False,
            checkpoint_path=None,
            checkpoint_every_events=None,
            checkpoint_every_seconds=None,
        )

    def make_medium(self, topology):
        """The medium these fields describe, built on ``topology``.

        ``latency_ms`` seeds the medium's ``latency_ms`` parameter unless
        ``medium_params`` names one.  The medium's constructor raises
        ``TypeError``/``ValueError`` for parameters it refuses.
        """
        from ..net.medium import make_medium

        params = dict(self.medium_params or {})
        params.setdefault("latency_ms", self.latency_ms)
        return make_medium(self.medium, topology, **params)

    def make_solver(self):
        """A fresh :class:`~repro.solver.Solver` per the solver fields."""
        from ..solver import Solver

        return Solver(use_cache=self.solver_cache, max_nodes=self.solver_max_nodes)


def check_checkpoint_cadence(
    every_events: Optional[int] = None, every_seconds: Optional[float] = None
) -> None:
    """Raise ``ValueError`` for a checkpoint cadence no run can keep.

    ``None`` means "not on this trigger".  A cadence below one event
    would checkpoint after every event, and a non-positive interval in
    seconds after every event too.
    """
    if every_events is not None and every_events < 1:
        raise ValueError(
            f"checkpoint_every_events must be at least 1, got {every_events!r}"
        )
    if every_seconds is not None and not every_seconds > 0:
        raise ValueError(
            f"checkpoint_every_seconds must be positive, got {every_seconds!r}"
        )


#: every field name of :class:`EngineConfig` — the override-splitting
#: contract used by ``build_engine``/``resume_engine``.
ENGINE_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(EngineConfig))


def split_config_overrides(overrides: Dict[str, object]) -> Tuple[
    Dict[str, object], Dict[str, object]
]:
    """Split a kwargs dict into (config fields, everything else)."""
    config_part = {
        key: value
        for key, value in overrides.items()
        if key in ENGINE_CONFIG_FIELDS
    }
    rest = {
        key: value
        for key, value in overrides.items()
        if key not in ENGINE_CONFIG_FIELDS
    }
    return config_part, rest
