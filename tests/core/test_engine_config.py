"""EngineConfig: the one-object engine construction surface.

Covers the frozen dataclass itself, the override splitting that
``build_engine``/``resume_engine`` share, the worker variant, and the
engine's refusal of engine options passed as keywords.
"""

import dataclasses
import pickle

import pytest

from repro.api import EngineConfig, SDEEngine, build_engine
from repro.core.config import ENGINE_CONFIG_FIELDS, split_config_overrides
from repro.workloads import flood_scenario


class TestConfigObject:
    def test_frozen(self):
        config = EngineConfig(horizon_ms=1000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.horizon_ms = 2000

    def test_sequences_normalized_to_tuples(self):
        config = EngineConfig(horizon_ms=1000, boot_times=[0, 5, 10])
        assert config.boot_times == (0, 5, 10)
        assert isinstance(config.failure_models, tuple)

    def test_replace_derives_variant(self):
        config = EngineConfig(horizon_ms=1000)
        derived = config.replace(max_states=7)
        assert derived.max_states == 7 and config.max_states is None

    def test_worker_variant_strips_parent_only_duties(self):
        config = EngineConfig(
            horizon_ms=1000,
            check_invariants=True,
            checkpoint_path="x.sdeckpt",
            checkpoint_every_events=10,
            checkpoint_every_seconds=1.0,
        )
        worker = config.worker_variant()
        assert not worker.check_invariants
        assert worker.checkpoint_path is None
        assert worker.checkpoint_every_events is None
        assert worker.checkpoint_every_seconds is None
        assert worker.horizon_ms == 1000

    @pytest.mark.parametrize("every", [0, -1])
    def test_rejects_a_cadence_below_one_event(self, every):
        # Either used to checkpoint after every event.
        with pytest.raises(ValueError, match="checkpoint_every_events"):
            EngineConfig(horizon_ms=1000, checkpoint_every_events=every)

    @pytest.mark.parametrize("seconds", [0, 0.0, -0.5])
    def test_rejects_a_non_positive_interval(self, seconds):
        with pytest.raises(ValueError, match="checkpoint_every_seconds"):
            EngineConfig(horizon_ms=1000, checkpoint_every_seconds=seconds)

    def test_accepts_a_fractional_interval(self):
        config = EngineConfig(
            horizon_ms=1000,
            checkpoint_every_events=1,
            checkpoint_every_seconds=0.25,
        )
        assert config.checkpoint_every_seconds == 0.25
        with pytest.raises(ValueError):
            config.replace(checkpoint_every_events=0)

    def test_picklable(self):
        config = EngineConfig(horizon_ms=1000, boot_times=(1, 2))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_engine_rejects_keyword_options(self):
        scenario = flood_scenario(3)
        from repro.core.scenario import make_mapper

        with pytest.raises(TypeError):
            SDEEngine(
                scenario.compiled(),
                scenario.topology,
                make_mapper("sds"),
                horizon_ms=500,
                max_states=9,
            )

    def test_make_solver_honours_switches(self):
        solver = EngineConfig(
            horizon_ms=1, solver_cache=False, solver_max_nodes=99
        ).make_solver()
        assert solver._cache is None
        assert solver._max_nodes == 99


class TestOverrideSplitting:
    def test_split_config_overrides(self):
        config_part, rest = split_config_overrides(
            {"max_states": 5, "trace": object(), "solver_cache": False}
        )
        assert set(config_part) == {"max_states", "solver_cache"}
        assert set(rest) == {"trace"}

    def test_field_inventory_matches_dataclass(self):
        assert ENGINE_CONFIG_FIELDS == {
            f.name for f in dataclasses.fields(EngineConfig)
        }

    def test_build_engine_routes_overrides_into_config(self):
        engine = build_engine(
            flood_scenario(3), "sds", max_states=123, solver_cache=False
        )
        assert engine.config.max_states == 123
        counters = engine.metrics.snapshot()["counters"]
        assert not any(name.startswith("solver.cache.") for name in counters)

    def test_build_engine_rejects_unknown_override(self):
        with pytest.raises(TypeError, match="unknown"):
            build_engine(flood_scenario(3), "sds", not_a_knob=1)
