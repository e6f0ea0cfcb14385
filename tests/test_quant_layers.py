"""Quantized layers: forward semantics, calibration, conversion, variability."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, no_grad
from repro.quant import (
    QConfig,
    QuantConv2d,
    QuantLinear,
    QuantSpec,
    calibrate_model,
    convert_to_quantized,
    quantized_layers,
)
from repro.quant.ptq import refresh_weight_scales
from repro.variability import (
    LayerFixedVariance,
    VariabilitySpec,
    WeightProportionalVariance,
    inject_variation,
    clear_variation,
)
from repro.variability.sampler import VariabilitySampler


def calibrated_linear(rng, qconfig=None):
    layer = QuantLinear(6, 4, qconfig or QConfig(activation_bits=4, weight_bits=2))
    layer.set_activation_scale(0.05)
    return layer


class TestQConfig:
    def test_from_notation(self):
        qc = QConfig.from_notation("A4W2")
        assert qc.activation_bits == 4
        assert qc.weight_bits == 2
        assert qc.notation == "A4W2"

    def test_bad_notation(self):
        with pytest.raises(ValueError):
            QConfig.from_notation("4W2")


class TestForwardSemantics:
    def test_linear_output_matches_manual_quantization(self, rng):
        layer = calibrated_linear(rng)
        x = rng.normal(size=(3, 6)) * 0.2
        w_spec, a_spec = layer.weight_spec, layer.act_spec
        w_scale, a_scale = float(layer.weight_scale), float(layer.act_scale)
        x_q = np.clip(np.rint(x / a_scale), a_spec.qmin, a_spec.qmax) * a_scale
        w_q = (
            np.clip(np.rint(layer.weight.data / w_scale), w_spec.qmin, w_spec.qmax)
            * w_scale
        )
        expected = x_q @ w_q.T + layer.bias.data
        with no_grad():
            actual = layer(Tensor(x)).data
        assert np.allclose(actual, expected)

    def test_conv_output_is_quantized_weights_conv(self, rng):
        qc = QConfig(activation_bits=8, weight_bits=2)
        layer = QuantConv2d(2, 3, 3, qc, padding=1)
        layer.set_activation_scale(0.05)
        x = rng.normal(size=(1, 2, 5, 5)) * 0.2
        with no_grad():
            out = layer(Tensor(x))
        assert out.shape == (1, 3, 5, 5)

    def test_uncalibrated_raises(self, rng):
        layer = QuantLinear(4, 2, QConfig())
        with pytest.raises(RuntimeError, match="not calibrated"):
            layer(Tensor(rng.normal(size=(1, 4))))

    def test_activation_quantization_can_be_disabled(self, rng):
        qc = QConfig(quantize_activations=False)
        layer = QuantLinear(4, 2, qc)
        with no_grad():
            layer(Tensor(rng.normal(size=(1, 4))))  # no calibration needed

    def test_gradients_flow_through_ste(self, rng):
        layer = calibrated_linear(rng)
        x = Tensor(rng.normal(size=(2, 6)) * 0.1, requires_grad=True)
        (layer(x) ** 2).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert x.grad is not None


class TestCalibration:
    def test_calibrate_model_sets_scales(self, rng):
        model = nn.Sequential(nn.Conv2d(1, 2, 3), nn.ReLU(), nn.Flatten(), nn.Linear(2 * 6 * 6, 4))
        convert_to_quantized(model, QConfig())
        batches = [(rng.normal(size=(4, 1, 8, 8)), None) for _ in range(3)]
        calibrate_model(model, batches)
        for _, layer in quantized_layers(model):
            assert float(layer.act_scale) > 0

    def test_finish_without_data_raises(self):
        layer = QuantLinear(2, 2, QConfig())
        layer.begin_calibration()
        with pytest.raises(RuntimeError):
            layer.finish_calibration()

    def test_moving_average_tracks_peak(self):
        from repro.quant import ActivationCalibrator

        calib = ActivationCalibrator(momentum=0.5)
        calib.observe(np.array([1.0]))
        calib.observe(np.array([3.0]))
        assert calib.running_peak == pytest.approx(2.0)
        scale = calib.scale(QuantSpec(4))
        assert scale == pytest.approx(2.0 / 7)


class TestConversion:
    def test_convert_replaces_layers(self):
        model = nn.Sequential(nn.Conv2d(1, 2, 3), nn.ReLU(), nn.Flatten(), nn.Linear(8, 4))
        convert_to_quantized(model, QConfig())
        kinds = [type(m).__name__ for m in model]
        assert kinds[0] == "QuantConv2d"
        assert kinds[-1] == "QuantLinear"

    def test_convert_nested_modules(self):
        from repro.models import ResNet

        model = ResNet(blocks_per_stage=(1, 1, 1, 1), width_multiplier=0.125, num_classes=10)
        convert_to_quantized(model, QConfig())
        names = [name for name, _ in quantized_layers(model)]
        assert any("shortcut" in name for name in names)
        assert any("conv1" in name for name in names)

    def test_weights_preserved(self, rng):
        linear = nn.Linear(4, 3)
        original = linear.weight.data.copy()
        model = nn.Sequential(linear)
        convert_to_quantized(model, QConfig())
        assert np.array_equal(model[0].weight.data, original)

    def test_from_float_copies_geometry(self):
        conv = nn.Conv2d(3, 5, 3, stride=2, padding=1, bias=False)
        qconv = QuantConv2d.from_float(conv, QConfig())
        assert qconv.stride == 2
        assert qconv.padding == 1
        assert qconv.bias is None

    def test_conversion_searches_each_scale_once(self, monkeypatch):
        """from_float searches the MMSE scale on the float weight only, not
        on the random weight the constructor draws and then discards."""
        from repro.models import build_model
        from repro.nn import init
        from repro.quant import qlayers
        from repro.quant.scaling import mmse_scale

        init.seed(0)
        model = build_model("lenet5", num_classes=10, in_channels=1)
        float_weights = [
            module.weight.data.copy()
            for module in model.modules()
            if isinstance(module, (nn.Conv2d, nn.Linear))
        ]
        searched = []

        def spy(weight, spec, *args, **kwargs):
            searched.append(weight.copy())
            return mmse_scale(weight, spec, *args, **kwargs)

        monkeypatch.setattr(qlayers, "mmse_scale", spy)
        qconfig = QConfig.from_notation("A4W2")
        convert_to_quantized(model, qconfig)
        layers = [layer for _, layer in quantized_layers(model)]
        assert len(searched) == len(layers) == len(float_weights)
        for weight, float_weight, layer in zip(searched, float_weights, layers):
            assert np.array_equal(weight, float_weight)
            expected = mmse_scale(float_weight, QuantSpec(qconfig.weight_bits))
            assert float(layer.weight_scale) == expected

    def test_refresh_weight_scales(self, rng):
        layer = calibrated_linear(rng)
        before = float(layer.weight_scale)
        layer.weight.data *= 3.0
        refresh_weight_scales(nn.Sequential(layer))
        assert float(layer.weight_scale) == pytest.approx(before * 3.0, rel=0.2)


class TestVariabilityInjection:
    def _chip(self, spec):
        return VariabilitySampler(spec, seed=0).sample_chip()

    def test_injection_changes_output(self, rng):
        layer = calibrated_linear(rng)
        model = nn.Sequential(layer)
        x = rng.normal(size=(2, 6)) * 0.2
        with no_grad():
            clean = layer(Tensor(x)).data.copy()
        spec = VariabilitySpec.within_only(0.3, WeightProportionalVariance())
        inject_variation(model, self._chip(spec), spec)
        with no_grad():
            noisy = layer(Tensor(x)).data
        assert not np.allclose(noisy, clean)
        clear_variation(model)
        with no_grad():
            restored = layer(Tensor(x)).data
        assert np.allclose(restored, clean)

    def test_same_chip_is_deterministic(self, rng):
        layer = calibrated_linear(rng)
        model = nn.Sequential(layer)
        x = rng.normal(size=(2, 6)) * 0.2
        spec = VariabilitySpec.mixed(0.2, LayerFixedVariance())
        chip = self._chip(spec)
        inject_variation(model, chip, spec)
        with no_grad():
            first = layer(Tensor(x)).data.copy()
        inject_variation(model, chip, spec)
        with no_grad():
            second = layer(Tensor(x)).data
        assert np.array_equal(first, second)

    def test_between_chip_shifts_all_weights_together(self, rng):
        # With sigma_W = 0, weight-proportional variation must scale the
        # whole MVM output by exactly (1 + eps_B).
        layer = calibrated_linear(rng)
        layer.bias = None
        model = nn.Sequential(layer)
        x = rng.normal(size=(2, 6)) * 0.2
        with no_grad():
            clean = layer(Tensor(x)).data.copy()
        spec = VariabilitySpec(0.0, 0.3, WeightProportionalVariance())
        chip = self._chip(spec)
        inject_variation(model, chip, spec)
        with no_grad():
            noisy = layer(Tensor(x)).data
        assert np.allclose(noisy, (1.0 + chip.eps_between) * clean)

    def test_naive_and_reparam_forward_agree(self, rng):
        # The two injection modes differ only in gradients, never in values.
        layer = calibrated_linear(rng)
        model = nn.Sequential(layer)
        x = rng.normal(size=(2, 6)) * 0.2
        spec = VariabilitySpec.within_only(0.4, WeightProportionalVariance())
        chip = self._chip(spec)
        inject_variation(model, chip, spec, mode="reparameterized")
        with no_grad():
            reparam = layer(Tensor(x)).data.copy()
        inject_variation(model, chip, spec, mode="naive")
        with no_grad():
            naive = layer(Tensor(x)).data
        assert np.allclose(reparam, naive)

    def test_reparam_gradient_includes_one_plus_eps_factor(self, rng):
        # Eq. 4: for weight-proportional noise the weight gradient of the
        # reparameterized graph carries a (1 + eps) factor vs the naive one.
        spec = VariabilitySpec.within_only(0.4, WeightProportionalVariance())
        chip = self._chip(spec)
        grads = {}
        for mode in ("reparameterized", "naive"):
            layer = calibrated_linear(rng)
            layer.weight.data = np.full((4, 6), 0.21)
            layer.refresh_weight_scale()
            model = nn.Sequential(layer)
            inject_variation(model, chip, spec, mode=mode)
            x = Tensor(np.full((1, 6), 0.2))
            layer(x).sum().backward()
            grads[mode] = layer.weight.grad.copy()
        eps = chip.epsilon_for("0", (4, 6))
        assert np.allclose(grads["reparameterized"], grads["naive"] * (1.0 + eps))
