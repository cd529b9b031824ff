"""Submissions: what a client asks the service to run, content-addressed.

A :class:`SubmissionSpec` is the service's unit of work — a registered
workload plus its arguments, a state-mapping algorithm, an
:class:`~repro.core.config.EngineConfig` override subset, and a seed.
Everything in it is plain JSON data, never live objects: the spec crosses
the HTTP boundary, lands in the run store, and is rebuilt into a real
:class:`~repro.core.scenario.Scenario` only inside the job worker.

**Content addressing.**  :meth:`SubmissionSpec.digest` is a SHA-256 over
the canonical JSON form (sorted keys, normalized values).  Two
submissions with the same digest describe byte-identical runs — SDE runs
are deterministic, so the run store can serve the cached report for a
repeat submission without re-executing (the same content-addressed-key
idea the PR 8 symmetry seen-set uses for canonical state forms, applied
one level up at the whole-run granularity).

The config override subset is deliberately restricted: checkpoint
placement and cadence belong to the *service* (it owns the data dir and
the drain/resume protocol), so a submission naming them is rejected at
admission rather than silently overridden.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import typing
from dataclasses import dataclass, field
from typing import Dict, Union

from ..core.config import ENGINE_CONFIG_FIELDS, EngineConfig

__all__ = [
    "CONFIG_FIELD_ALLOWLIST",
    "SpecError",
    "SubmissionSpec",
]


#: EngineConfig fields a submission may override.  Everything the service
#: must own (checkpointing) or that cannot cross the JSON boundary
#: (failure models, preset mappings with non-string keys) is excluded.
CONFIG_FIELD_ALLOWLIST = frozenset(
    {
        "horizon_ms",
        "latency_ms",
        "max_states",
        "max_accounted_bytes",
        "max_wall_seconds",
        "sample_every_events",
        "max_steps_per_event",
        "solver_cache",
        "solver_max_nodes",
        "fuse_ops",
        "symmetry",
        "por",
        "medium",
        "medium_params",
    }
)

# The allowlist must stay a subset of the real config surface, or a
# field rename would let stale submissions through unvalidated.
assert CONFIG_FIELD_ALLOWLIST <= ENGINE_CONFIG_FIELDS


class SpecError(ValueError):
    """A submission failed validation (the HTTP layer maps this to 400)."""


@dataclass(frozen=True)
class SubmissionSpec:
    """One validated run submission, ready to hash and store."""

    workload: str
    size: int
    algorithm: str = "sds"
    workload_args: Dict[str, object] = field(default_factory=dict)
    config: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: object) -> "SubmissionSpec":
        """Validate a decoded JSON body into a spec; raises SpecError."""
        if not isinstance(data, dict):
            raise SpecError("submission body must be a JSON object")
        unknown = set(data) - {
            "workload",
            "size",
            "algorithm",
            "workload_args",
            "config",
            "seed",
        }
        if unknown:
            raise SpecError(f"unknown submission field(s) {sorted(unknown)}")

        workload = data.get("workload")
        if not isinstance(workload, str) or not workload:
            raise SpecError("'workload' must be a non-empty string")
        size = data.get("size")
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise SpecError("'size' must be a positive integer")
        algorithm = data.get("algorithm", "sds")
        if not isinstance(algorithm, str) or not algorithm:
            raise SpecError("'algorithm' must be a non-empty string")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError("'seed' must be an integer")

        workload_args = data.get("workload_args", {})
        if not isinstance(workload_args, dict):
            raise SpecError("'workload_args' must be an object")
        for key, value in workload_args.items():
            if not isinstance(key, str):
                raise SpecError("'workload_args' keys must be strings")
            if not _is_plain_json(value):
                raise SpecError(
                    f"workload_args[{key!r}] must be a JSON primitive,"
                    " list of primitives, or flat object"
                )

        config = data.get("config", {})
        if not isinstance(config, dict):
            raise SpecError("'config' must be an object")
        rejected = set(config) - CONFIG_FIELD_ALLOWLIST
        if rejected:
            raise SpecError(
                f"config field(s) {sorted(rejected)} are not submittable;"
                f" allowed: {sorted(CONFIG_FIELD_ALLOWLIST)}"
            )
        for key, value in config.items():
            if not _is_plain_json(value):
                raise SpecError(f"config[{key!r}] must be a JSON primitive")
        medium_params = config.get("medium_params")
        if medium_params is not None:
            if not isinstance(medium_params, dict):
                raise SpecError("config['medium_params'] must be an object")
            for key, value in medium_params.items():
                # Medium parameters are numeric knobs (loss, jitter, seed,
                # ...); a string here is a smuggled path/identifier the
                # worker would hand to a medium constructor unchecked.
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise SpecError(
                        f"medium_params[{key!r}] must be a number"
                        " (path- or string-typed values are not accepted)"
                    )
        medium = config.get("medium")
        if medium is not None and not isinstance(medium, str):
            raise SpecError("config['medium'] must be a string")

        return cls(
            workload=workload,
            size=size,
            algorithm=algorithm,
            workload_args=dict(workload_args),
            config=dict(config),
            seed=seed,
        )

    def validated_against_registries(self) -> "SubmissionSpec":
        """Check the spec against the live registries and the engine.

        Names must be registered, each config value must have its
        :class:`EngineConfig` field's type, and the run's medium must
        accept its parameters, so a run the engine would refuse is
        refused at admission instead of failing every attempt.  The
        medium is built on a two-node line, not on the workload's
        topology: a medium's constructor only keeps its topology, and
        admission must not pay for a client's workload (``grid`` at size
        5000 is 25M nodes).  A workload that does not build is left to
        the worker, which reports its error as the job's typed failure.
        Separate from :meth:`from_dict` so the store can re-load old
        records even if a custom registry entry has gone away.
        """
        from ..core.scenario import available_algorithms
        from ..net.medium import available_media
        from ..workloads import WORKLOADS, available_workloads

        if self.workload not in available_workloads():
            raise SpecError(
                f"unknown workload {self.workload!r}; available:"
                f" {list(available_workloads())}"
            )
        if self.algorithm not in available_algorithms():
            raise SpecError(
                f"unknown algorithm {self.algorithm!r}; available:"
                f" {list(available_algorithms())}"
            )
        # The run's medium: the config's, else the workload's own choice.
        medium = self.config.get("medium", self.workload_args.get("medium"))
        if medium is None:
            medium = _default_medium(WORKLOADS[self.workload])
        if medium not in available_media():
            raise SpecError(
                f"unknown medium {medium!r}; available:"
                f" {list(available_media())}"
            )
        types = _config_types()
        for key, value in self.config.items():
            if not _fits(types[key], value):
                raise SpecError(
                    f"config[{key!r}] = {value!r} does not fit"
                    f" EngineConfig.{key} ({types[key]})"
                )
        config = {"horizon_ms": 1, **self.config, "medium": medium}
        try:
            EngineConfig(**config).make_medium(_probe_topology())
        except Exception as exc:
            raise SpecError(f"medium {medium!r} refuses this run: {exc}") from None
        return self

    # -- canonical form ------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "size": self.size,
            "algorithm": self.algorithm,
            "workload_args": dict(self.workload_args),
            "config": dict(self.config),
            "seed": self.seed,
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace drift."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """The content address: SHA-256 hex of the canonical form."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # -- execution-side helpers ---------------------------------------------

    def build_scenario(self):
        """Materialize the scenario (worker-side; needs the registry)."""
        from ..workloads import make_workload

        return make_workload(self.workload, self.size, **self.workload_args)

    def engine_overrides(self) -> Dict[str, object]:
        """The EngineConfig override kwargs this spec carries."""
        return dict(self.config)


@functools.lru_cache(maxsize=None)
def _config_types() -> Dict[str, object]:
    """Each EngineConfig field's type, to check submitted values against."""
    return typing.get_type_hints(EngineConfig)


@functools.lru_cache(maxsize=None)
def _default_medium(factory) -> str:
    """The medium a workload factory defaults to (``quorum``: realistic)."""
    parameter = inspect.signature(factory).parameters.get("medium")
    default = getattr(parameter, "default", None)
    return default if isinstance(default, str) else "ideal"


@functools.lru_cache(maxsize=None)
def _probe_topology():
    """The two-node line admission builds media on (a medium only keeps it)."""
    from ..net.topology import Topology

    return Topology.line(2)


def _fits(hint, value) -> bool:
    """Whether a JSON value has the type ``hint`` (a config field type)."""
    if typing.get_origin(hint) is Union:
        return any(_fits(option, value) for option in typing.get_args(hint))
    hint = typing.get_origin(hint) or hint
    if hint is float:
        hint = (int, float)
    # JSON true/false are Python bools, which are ints too.
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _is_plain_json(value, _depth: int = 0) -> bool:
    """Primitive, list of primitives, or one level of string-keyed dict."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if _depth >= 1:
        return False
    if isinstance(value, list):
        return all(_is_plain_json(item, _depth + 1) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _is_plain_json(item, _depth + 1)
            for key, item in value.items()
        )
    return False
