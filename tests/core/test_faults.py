"""Fault-injection tests: every failure policy, end-to-end, any worker count."""

import dataclasses

import numpy as np
import pytest

from repro.core.model_quantizer import quantize_model, quantize_state_dict
from repro.core.parallel import LayerJob, quantize_layers
from repro.core.serialization import load_quantized_model, save_quantized_model
from repro.core.settings import ON_ERROR_POLICIES, EngineSettings
from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from repro.testing import faults as F
from repro.testing.faults import (
    InjectedFault,
    PoisonTensor,
    RaiseNth,
    RaiseOnLayer,
    compose_injectors,
)
from tests.conftest import MICRO_CONFIG

WORKER_COUNTS = (1, 2, 4)
ON_ERROR_ENV = "REPRO_ON_ERROR"


def resolve_on_error(on_error):
    return EngineSettings.resolve(on_error=on_error).on_error


@pytest.fixture(scope="module")
def state():
    rng = np.random.default_rng(7)
    return {f"layer{i}": rng.normal(0, 0.05, size=(24, 24)) for i in range(6)}


@pytest.fixture(scope="module")
def jobs(state):
    return [LayerJob(name, 3) for name in state]


class TestOnErrorResolution:
    def test_default_is_fail(self, monkeypatch):
        monkeypatch.delenv(ON_ERROR_ENV, raising=False)
        assert resolve_on_error(None) == "fail"
        assert EngineSettings().on_error == "fail"

    def test_environment_read(self, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "fp32-fallback")
        assert resolve_on_error(None) == "fp32-fallback"

    def test_bad_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "explode")
        with pytest.raises(QuantizationError, match="on_error"):
            resolve_on_error(None)

    def test_unknown_policy_rejected(self):
        with pytest.raises(QuantizationError, match="on_error"):
            resolve_on_error("panic")

    def test_policies_exported(self):
        assert ON_ERROR_POLICIES == ("fail", "skip", "fp32-fallback", "retry-higher-bits")


class TestFailureIsolation:
    def test_fail_policy_reraises(self, state, jobs):
        with pytest.raises(InjectedFault):
            quantize_layers(state, jobs, fault_injector=RaiseOnLayer("layer2"))

    def test_fail_policy_reraises_parallel(self, state, jobs):
        with pytest.raises(InjectedFault):
            quantize_layers(
                state, jobs, workers=3, fault_injector=RaiseOnLayer("layer2")
            )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_skip_drops_only_the_failing_layer(self, state, jobs, workers):
        quantized, iterations, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="skip", fault_injector=RaiseOnLayer("layer2"),
        )
        assert sorted(quantized) == sorted(set(state) - {"layer2"})
        assert "layer2" not in iterations
        [failure] = report.failures
        assert failure.name == "layer2" and failure.action == "skip"
        assert failure.error_type == "InjectedFault"
        assert failure.dropped and not failure.quantized_anyway
        assert not report.ok

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fp32_fallback_records_failure(self, state, jobs, workers):
        quantized, _, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="fp32-fallback", fault_injector=RaiseOnLayer("layer4"),
        )
        assert "layer4" not in quantized
        [failure] = report.failures
        assert failure.action == "fp32-fallback" and not failure.dropped

    @pytest.mark.parametrize("failing", [f"layer{i}" for i in range(6)])
    def test_surviving_layers_bit_identical_to_clean_run(self, state, jobs, failing):
        """Acceptance: any single failing layer, every worker count, the
        remaining layers match a clean run bit for bit."""
        clean, clean_iters, _ = quantize_layers(state, jobs, workers=1)
        for workers in WORKER_COUNTS:
            quantized, iterations, report = quantize_layers(
                state, jobs, workers=workers,
                on_error="fp32-fallback", fault_injector=RaiseOnLayer(failing),
            )
            assert report.failed_layer_names == (failing,)
            assert sorted(quantized) == sorted(set(state) - {failing})
            for name, tensor in quantized.items():
                assert tensor.packed_codes == clean[name].packed_codes
                np.testing.assert_array_equal(tensor.centroids, clean[name].centroids)
                np.testing.assert_array_equal(
                    tensor.outlier_values, clean[name].outlier_values
                )
                assert iterations[name] == clean_iters[name]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_transient_fault_fails_exactly_once(self, state, jobs, workers):
        quantized, _, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="skip", fault_injector=RaiseNth(nth=1, times=1),
        )
        assert len(report.failures) == 1
        assert len(quantized) == len(state) - 1

    def test_failure_order_follows_job_order(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, workers=4, on_error="skip",
            fault_injector=compose_injectors(
                RaiseOnLayer("layer1"), RaiseOnLayer("layer5")
            ),
        )
        assert report.failed_layer_names == ("layer1", "layer5")

    def test_render_includes_failures(self, state, jobs):
        _, _, report = quantize_layers(
            state, jobs, on_error="fp32-fallback",
            fault_injector=RaiseOnLayer("layer0"),
        )
        text = report.render()
        assert "Layer failures" in text and "fp32-fallback" in text
        assert "InjectedFault" in text


class TestRetryHigherBits:
    def test_recovers_at_wider_width(self, state):
        # bits=0 genuinely fails (bits must be >= 1); the first retry at 1
        # succeeds, so the layer ships quantized — wider than requested.
        jobs = [LayerJob("layer0", 0), LayerJob("layer1", 3)]
        quantized, _, report = quantize_layers(
            state, jobs, on_error="retry-higher-bits"
        )
        assert quantized["layer0"].bits == 1
        [failure] = report.failures
        assert failure.action == "retry-higher-bits"
        assert failure.recovered_bits == 1
        assert failure.attempts == (0, 1)
        assert failure.quantized_anyway

    def test_persistent_fault_exhausts_retries_to_fp32(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, on_error="retry-higher-bits",
            fault_injector=RaiseOnLayer("layer3"),
        )
        assert "layer3" not in quantized
        [failure] = report.failures
        assert failure.action == "fp32-fallback"
        assert failure.recovered_bits is None
        assert failure.attempts == (3, 4, 5, 6, 7, 8)


class TestPoisonedTensors:
    @pytest.mark.parametrize("mode", ["nan", "inf", "constant"])
    def test_strict_validation_fails_poisoned_layer(self, state, jobs, mode):
        quantized, _, report = quantize_layers(
            state, jobs, on_error="fp32-fallback",
            fault_injector=PoisonTensor("layer1", mode=mode),
        )
        assert "layer1" not in quantized
        [failure] = report.failures
        assert failure.error_type in ("NonFiniteWeightError", "DegenerateTensorError")

    def test_repair_validation_recovers_poisoned_layer(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, validation="repair",
            fault_injector=PoisonTensor("layer1", mode="nan"),
        )
        assert report.ok and len(quantized) == len(state)
        assert np.isfinite(quantized["layer1"].dequantize(np.float64)).all()

    def test_skip_validation_ships_layer_fp32(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, validation="skip",
            fault_injector=PoisonTensor("layer1", mode="nan"),
        )
        assert "layer1" not in quantized
        [failure] = report.failures
        assert failure.action == "validation-skip"


class TestEndToEndModel:
    """Acceptance: a degraded run still produces a loadable archive."""

    @pytest.fixture(scope="class")
    def model(self):
        return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)

    def test_fp32_fallback_model_round_trips(self, model, tmp_path):
        clean = quantize_model(model, weight_bits=3, embedding_bits=4)
        failing_layer = clean.fc_names[2]
        degraded = quantize_model(
            model, weight_bits=3, embedding_bits=4,
            on_error="fp32-fallback", fault_injector=RaiseOnLayer(failing_layer),
        )
        assert degraded.report.failed_layer_names == (failing_layer,)
        # The failed layer ships FP32 and the state dict stays complete.
        assert failing_layer in degraded.fp32
        assert set(degraded.state_dict()) == set(clean.state_dict())
        # Remaining quantized layers are bit-identical to the clean run.
        for name, tensor in degraded.quantized.items():
            assert tensor.packed_codes == clean.quantized[name].packed_codes
        # The archive round-trips and applies to a fresh model.
        path = tmp_path / "degraded.npz"
        save_quantized_model(degraded, path)
        loaded = load_quantized_model(path)
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        loaded.apply_to(probe)
        np.testing.assert_array_equal(
            probe.state_dict()[failing_layer],
            np.asarray(model.state_dict()[failing_layer], dtype=np.float32).astype(np.float64),
        )

    def test_skip_policy_drops_layer_from_state_dict(self, model):
        clean = quantize_model(model, weight_bits=3, embedding_bits=4)
        failing_layer = clean.fc_names[0]
        degraded = quantize_model(
            model, weight_bits=3, embedding_bits=4,
            on_error="skip", fault_injector=RaiseOnLayer(failing_layer),
        )
        assert failing_layer not in degraded.state_dict()
        assert failing_layer not in degraded.fp32

    def test_state_dict_interface_forwards_policies(self, model, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "fp32-fallback")
        state = model.state_dict()
        from repro.core.model_quantizer import select_parameters

        selection = select_parameters(model)
        quantized = quantize_state_dict(
            state, fc_names=selection.fc_names, embedding_names=(),
            on_error=None,  # defer to REPRO_ON_ERROR
            fault_injector=RaiseOnLayer(selection.fc_names[1]),
        )
        assert quantized.report.on_error == "fp32-fallback"
        assert len(quantized.report.failures) == 1


#: Every spec kind with the injector and init fields it must build.  The
#: grammar is a compatibility contract: these are the values the separate
#: engine and serve parsers built before they were merged.  The last five
#: entries are the REPRO_FAULTS strings the CI chaos jobs use.
SPEC_TABLE = [
    ("raise:layer0", [(F.RaiseOnLayer, {"layer": "layer0", "message": "injected fault"})]),
    ("raise:2", [(F.RaiseOnLayer, {"layer": 2, "message": "injected fault"})]),
    ("hang:emb.word", [(F.HangOnLayer, {"layer": "emb.word", "max_seconds": 30.0})]),
    ("slow:0.25", [(F.SlowLayer, {"seconds": 0.25, "layer": None})]),
    ("slow:0.1:3", [(F.SlowLayer, {"seconds": 0.1, "layer": 3})]),
    ("transient-io:layer1:2", [(F.TransientIOFault, {"layer": "layer1", "times": 2})]),
    ("transient-io:0", [(F.TransientIOFault, {"layer": 0, "times": 1})]),
    ("crash:4", [(F.CrashOnCall, {"nth": 4})]),
    ("poison:layer2:inf", [(F.PoisonTensor, {
        "layer": "layer2", "mode": "inf", "stride": 7, "value": 0.5})]),
    ("poison:3", [(F.PoisonTensor, {"layer": 3, "mode": "nan", "stride": 7, "value": 0.5})]),
    ("kill-worker:1:3", [(F.KillWorker, {"worker": 1, "nth": 3})]),
    ("mute-worker:2:5.5", [(F.MuteWorker, {"worker": 2, "max_seconds": 5.5})]),
    ("mute-worker:1", [(F.MuteWorker, {"worker": 1, "max_seconds": 30.0})]),
    ("hang-worker:3:2", [(F.HangWorker, {"worker": 3, "max_seconds": 2.0})]),
    ("hang-worker:0", [(F.HangWorker, {"worker": 0, "max_seconds": 30.0})]),
    ("hang-forward:alpha:2.5:3", [(F.HangForward, {"model": "alpha", "seconds": 2.5, "times": 3})]),
    ("hang-forward:x", [(F.HangForward, {"model": "x", "seconds": 30.0, "times": 1})]),
    ("fail-forward:beta:0", [(F.FailForward, {"model": "beta", "times": 0})]),
    ("fail-forward:m", [(F.FailForward, {"model": "m", "times": 1})]),
    ("corrupt-member-at-serve:gamma", [(F.CorruptMemberAtServe, {"model": "gamma", "times": 1})]),
    ("corrupt-member-at-serve:a:0", [(F.CorruptMemberAtServe, {"model": "a", "times": 0})]),
    ("slow-load:0.5:delta", [(F.SlowLoad, {"seconds": 0.5, "model": "delta"})]),
    ("slow-load:0.01", [(F.SlowLoad, {"seconds": 0.01, "model": None})]),
    ("crash:8", [(F.CrashOnCall, {"nth": 8})]),
    ("slow:0.15", [(F.SlowLayer, {"seconds": 0.15, "layer": None})]),
    ("kill-worker:0", [(F.KillWorker, {"worker": 0, "nth": 1})]),
    ("slow:0.3", [(F.SlowLayer, {"seconds": 0.3, "layer": None})]),
    ("slow:inf", [(F.SlowLayer, {"seconds": float("inf"), "layer": None})]),
    ("corrupt-member-at-serve:alpha,hang-forward:beta:5", [
        (F.CorruptMemberAtServe, {"model": "alpha", "times": 1}),
        (F.HangForward, {"model": "beta", "seconds": 5.0, "times": 1}),
    ]),
]


def init_fields(injector) -> dict:
    return {f.name: getattr(injector, f.name) for f in dataclasses.fields(injector) if f.init}


class TestFaultSpecs:
    """Text fault specs (REPRO_FAULTS) build the right injectors."""

    def test_empty_spec_is_none(self):
        assert F.injector_from_spec("") is None
        assert F.injector_from_spec("  ,  ") is None
        assert F.injector_from_env("REPRO_FAULTS_UNSET_FOR_TEST") is None

    @pytest.mark.parametrize("spec, expected", SPEC_TABLE, ids=[s for s, _ in SPEC_TABLE])
    def test_spec_builds(self, spec, expected):
        built = F.injector_from_spec(spec)
        parts = built.injectors if len(expected) > 1 else (built,)
        assert [(type(part), init_fields(part)) for part in parts] == expected

    def test_every_kind_in_table(self):
        kinds = {part.split(":")[0] for spec, _ in SPEC_TABLE for part in spec.split(",")}
        assert len(kinds) == 13

    def test_composed_spec(self):
        injector = F.injector_from_spec("transient-io:a:1, poison:b:constant")
        weights = np.ones((4, 4))
        with pytest.raises(F.InjectedIOError):
            injector("layer", index=0, job=LayerJob("a", 3), weights=weights)
        poisoned = injector("layer", index=1, job=LayerJob("b", 3), weights=weights)
        assert poisoned is not None and np.all(poisoned == 0.5)
        assert injector("layer", index=2, job=LayerJob("c", 3), weights=weights) is None

    def test_replacement_passes_down_the_chain(self):
        seen = []
        injector = F.compose_injectors(
            F.PoisonTensor("a", mode="constant"),
            lambda site, **ctx: seen.append(ctx["weights"]),
        )
        poisoned = injector("layer", index=0, job=LayerJob("a", 3), weights=np.ones(3))
        assert seen[0] is poisoned

    def test_mixed_spec_acts_per_site(self):
        """One injector raises at "layer" and at "forward" and does nothing
        at "load"."""
        injector = F.injector_from_spec("raise:a,fail-forward:alpha:0")
        with pytest.raises(F.InjectedFault, match="layer 'a'"):
            injector("layer", index=0, job=LayerJob("a", 3), weights=np.ones(3))
        with pytest.raises(F.InjectedFault, match="forward failure"):
            injector("forward", model="alpha")
        assert injector("load", model="alpha") is None

    def test_bad_specs_rejected(self):
        for bad in (
            "explode:1", "crash", "crash:soon", "slow", "hang", "raise:a:b",
            "crash:abc,raise:", "fail-forward:,slow-load:x", "fail-forward::3",
        ):
            with pytest.raises(ValueError, match="bad fault spec"):
                F.injector_from_spec(bad)

    @pytest.mark.parametrize("spec", [
        "crash:0", "kill-worker:1:0", "hang-forward:m:1:-1", "fail-forward:m:-1",
        "corrupt-member-at-serve:m:-2", "transient-io:a:0", "slow:-0.5",
        "slow-load:-1", "mute-worker:-1", "poison:1:bogus",
        # time.sleep(inf) raises OverflowError when the fault fires.
        "hang-forward:m:inf", "slow-load:inf", "mute-worker:0:inf",
    ])
    def test_never_firing_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="bad fault spec"):
            F.injector_from_spec(spec)

    def test_never_firing_injectors_rejected_at_construction(self):
        """The checks live in __post_init__, so direct construction fails too."""
        for build in (
            lambda: F.CrashOnCall(0),
            lambda: F.KillWorker(0, nth=0),
            lambda: F.HangForward("m", times=-1),
            lambda: F.SlowLayer(-1.0),
            lambda: F.PoisonTensor(0, mode="bogus"),
            lambda: F.PoisonTensor(0, stride=0),
        ):
            with pytest.raises(ValueError):
                build()

    def test_env_spec_errors_surface(self, monkeypatch):
        monkeypatch.setenv(F.FAULTS_ENV, "bogus:x")
        with pytest.raises(ValueError):
            F.injector_from_env()
