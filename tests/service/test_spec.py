"""Submission validation and content addressing (repro.service.spec)."""

import pytest

from repro.net import medium as medium_module
from repro.net.topology import Topology
from repro.service.spec import (
    CONFIG_FIELD_ALLOWLIST,
    SpecError,
    SubmissionSpec,
)
from repro.workloads import WORKLOADS

#: configs that pass the JSON-shape checks but that the engine refuses:
#: a loss probability above 1, a parameter the ideal medium does not
#: take, and a horizon that is not a number.
ENGINE_REFUSED_CONFIGS = [
    {"medium": "realistic", "medium_params": {"loss": 2.0}},
    {"medium_params": {"bogus": 1}},
    {"horizon_ms": "abc"},
]


def spec_dict(**overrides):
    base = {"workload": "flood", "size": 3}
    base.update(overrides)
    return base


class TestValidation:
    def test_minimal_spec_fills_defaults(self):
        spec = SubmissionSpec.from_dict(spec_dict())
        assert spec.algorithm == "sds"
        assert spec.seed == 0
        assert spec.workload_args == {}
        assert spec.config == {}

    def test_non_object_body_rejected(self):
        for body in (None, 7, "x", ["flood"]):
            with pytest.raises(SpecError):
                SubmissionSpec.from_dict(body)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown submission field"):
            SubmissionSpec.from_dict(spec_dict(checkpoint_path="/tmp/x"))

    def test_bad_scalar_types_rejected(self):
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(size=0))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(size=True))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(seed="7"))
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(spec_dict(workload=""))

    def test_config_allowlist_enforced(self):
        # checkpoint placement belongs to the service, not submissions
        with pytest.raises(SpecError, match="not submittable"):
            SubmissionSpec.from_dict(
                spec_dict(config={"checkpoint_path": "/tmp/evil"})
            )
        spec = SubmissionSpec.from_dict(
            spec_dict(config={"max_states": 100, "symmetry": True})
        )
        assert spec.engine_overrides() == {"max_states": 100, "symmetry": True}

    def test_allowlist_names_are_real_config_fields(self):
        from repro.core.config import ENGINE_CONFIG_FIELDS

        assert CONFIG_FIELD_ALLOWLIST <= ENGINE_CONFIG_FIELDS

    def test_deep_json_rejected(self):
        with pytest.raises(SpecError):
            SubmissionSpec.from_dict(
                spec_dict(workload_args={"a": {"b": {"c": 1}}})
            )

    def test_registry_validation(self):
        with pytest.raises(SpecError, match="unknown workload"):
            SubmissionSpec.from_dict(
                spec_dict(workload="nope")
            ).validated_against_registries()
        with pytest.raises(SpecError, match="unknown algorithm"):
            SubmissionSpec.from_dict(
                spec_dict(algorithm="nope")
            ).validated_against_registries()
        SubmissionSpec.from_dict(spec_dict()).validated_against_registries()


class TestDigest:
    def test_digest_is_deterministic_and_order_free(self):
        a = SubmissionSpec.from_dict(
            spec_dict(config={"symmetry": True, "max_states": 5})
        )
        b = SubmissionSpec.from_dict(
            spec_dict(config={"max_states": 5, "symmetry": True})
        )
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_every_field_feeds_the_digest(self):
        base = SubmissionSpec.from_dict(spec_dict()).digest()
        variants = [
            spec_dict(size=4),
            spec_dict(workload="line"),
            spec_dict(algorithm="cow"),
            spec_dict(seed=1),
            spec_dict(workload_args={"rounds": 3}),
            spec_dict(config={"max_states": 10}),
        ]
        digests = {SubmissionSpec.from_dict(v).digest() for v in variants}
        assert base not in digests
        assert len(digests) == len(variants)

    def test_round_trips_through_as_dict(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(workload_args={"rounds": 3}, config={"por": True})
        )
        again = SubmissionSpec.from_dict(spec.as_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_scenario_materializes(self):
        scenario = SubmissionSpec.from_dict(spec_dict()).build_scenario()
        assert scenario.name == "flood-3"


class TestMediumFields:
    def test_medium_and_params_accepted(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(
                config={
                    "medium": "realistic",
                    "medium_params": {"loss": 0.1, "seed": 3},
                }
            )
        )
        assert spec.validated_against_registries() is spec

    def test_unknown_medium_rejected_at_registry_check(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(config={"medium": "carrier-pigeon"})
        )
        with pytest.raises(SpecError, match="unknown medium"):
            spec.validated_against_registries()

    def test_non_string_medium_rejected(self):
        with pytest.raises(SpecError, match="must be a string"):
            SubmissionSpec.from_dict(spec_dict(config={"medium": 3}))

    def test_string_medium_params_rejected(self):
        # Strings are how a path would be smuggled to a constructor.
        with pytest.raises(SpecError, match="path- or string-typed"):
            SubmissionSpec.from_dict(
                spec_dict(
                    config={"medium_params": {"seed": "/etc/passwd"}}
                )
            )

    def test_bool_medium_params_rejected(self):
        with pytest.raises(SpecError, match="must be a number"):
            SubmissionSpec.from_dict(
                spec_dict(config={"medium_params": {"loss": True}})
            )

    def test_non_object_medium_params_rejected(self):
        with pytest.raises(SpecError, match="must be an object"):
            SubmissionSpec.from_dict(
                spec_dict(config={"medium_params": 5})
            )


class TestEngineRefusals:
    @pytest.mark.parametrize("config", ENGINE_REFUSED_CONFIGS)
    def test_refused_at_admission(self, config):
        spec = SubmissionSpec.from_dict(spec_dict(config=config))
        with pytest.raises(SpecError):
            spec.validated_against_registries()

    @pytest.mark.parametrize(
        "config",
        [
            {"max_wall_seconds": 5},
            {"max_wall_seconds": 2.5, "max_states": None},
            {"medium": "realistic", "medium_params": {"latency_ms": 2}},
            {"fuse_ops": False, "horizon_ms": 3000},
        ],
    )
    def test_well_typed_configs_admitted(self, config):
        spec = SubmissionSpec.from_dict(spec_dict(config=config))
        assert spec.validated_against_registries() is spec

    @pytest.mark.parametrize(
        "config", [{"fuse_ops": 1}, {"max_states": True}, {"latency_ms": 1.5}]
    )
    def test_config_values_take_the_config_field_types(self, config):
        spec = SubmissionSpec.from_dict(spec_dict(config=config))
        with pytest.raises(SpecError, match="does not fit EngineConfig"):
            spec.validated_against_registries()

    def test_admission_does_not_build_the_workload(self, monkeypatch):
        # A grid of side 5000 is 25M nodes; admission must not build it.
        def grid_scenario(side, **kwargs):
            raise AssertionError("admission built the workload")

        monkeypatch.setitem(WORKLOADS, "grid", grid_scenario)
        spec = SubmissionSpec.from_dict(spec_dict(workload="grid", size=5000))
        assert spec.validated_against_registries() is spec
        refused = SubmissionSpec.from_dict(
            spec_dict(
                workload="grid", size=5000, config={"medium_params": {"bogus": 1}}
            )
        )
        with pytest.raises(SpecError):
            refused.validated_against_registries()

    def test_a_workload_that_does_not_build_is_left_to_the_worker(self):
        spec = SubmissionSpec.from_dict(
            spec_dict(workload="grid", workload_args={"send_period_ms": 0})
        )
        assert spec.validated_against_registries() is spec
        with pytest.raises(ZeroDivisionError):
            spec.build_scenario()

    def test_medium_params_are_checked_against_the_workload_s_medium(self):
        # quorum runs on the realistic medium unless told otherwise, so
        # realistic-only parameters are valid there and not on flood.
        jitter = {"medium_params": {"jitter_ms": 1}}
        for body in (
            spec_dict(workload="quorum", size=5, config=jitter),
            spec_dict(
                workload="election",
                workload_args={"medium": "realistic"},
                config=jitter,
            ),
        ):
            spec = SubmissionSpec.from_dict(body)
            assert spec.validated_against_registries() is spec
            spec.build_scenario().engine_config(**spec.config).make_medium(
                Topology.line(2)
            )
        for body in (
            spec_dict(config=jitter),
            spec_dict(workload="quorum", size=5, config=dict(jitter, medium="ideal")),
        ):
            with pytest.raises(SpecError, match="'ideal' refuses"):
                SubmissionSpec.from_dict(body).validated_against_registries()

    def test_any_error_from_the_medium_is_a_refusal(self, monkeypatch):
        def fussy(topology, **params):
            raise KeyError("fussy")

        monkeypatch.setitem(medium_module._MEDIA, "fussy", fussy)
        spec = SubmissionSpec.from_dict(spec_dict(config={"medium": "fussy"}))
        with pytest.raises(SpecError, match="'fussy' refuses this run"):
            spec.validated_against_registries()
