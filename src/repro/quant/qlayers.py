"""Quantized layers: fake-quant forward with variability and self-tuning hooks.

These layers model one analog-PIM MVM array each.  The forward pass follows
the paper's computational graph (Fig. 1):

1. quantize input activations with a static, calibrated scale;
2. quantize weights (MMSE scale) through the straight-through estimator;
3. add the reparameterized variability perturbation ``f(eps, w_D)``;
4. run the MVM;
5. optionally apply the self-tuning correction (GTM/LTM, Sec. III);
6. add the (digital, float) bias.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.conv import conv2d, im2col
from repro.nn.module import Module, Parameter
from repro.quant.calibration import ActivationCalibrator
from repro.quant.qconfig import QConfig
from repro.quant.quantizer import QuantSpec, fake_quantize
from repro.quant.scaling import mmse_scale


class _QuantLayerBase(Module):
    """Shared machinery for :class:`QuantLinear` and :class:`QuantConv2d`."""

    accepts_variation = True

    def _init_quant_state(self, qconfig: QConfig, search_scale: bool) -> None:
        self.qconfig = qconfig
        self.weight_spec = QuantSpec(qconfig.weight_bits)
        self.act_spec = QuantSpec(qconfig.activation_bits)
        self.register_buffer("weight_scale", np.array(0.0))
        self.register_buffer("act_scale", np.array(0.0))
        self._calibrating = False
        self._calibrator: ActivationCalibrator | None = None
        # Optional hook observing the quantized layer input (bias correction).
        self._input_observer = None
        # Variability state, installed by repro.variability.injection.
        self._epsilon: np.ndarray | None = None
        self._variance_model = None
        self._injection_mode = "reparameterized"
        self.current_chip = None
        # Self-tuning hook, installed by repro.selftuning.wrap.
        self.self_tuner = None
        # from_float skips this search: it replaces the random weight and
        # searches again on the real one.
        if search_scale:
            self.refresh_weight_scale()

    # ------------------------------------------------------------------
    # Scales
    # ------------------------------------------------------------------
    def refresh_weight_scale(self) -> None:
        """(Re)compute the MMSE weight scaling factor(s) from current weights.

        Per-tensor by default (the paper); a per-output-channel scale vector
        when ``qconfig.per_channel_weights`` is set.
        """
        if self.qconfig.per_channel_weights:
            from repro.quant.perchannel import per_channel_mmse_scales

            scales = per_channel_mmse_scales(self.weight.data, self.weight_spec)
        else:
            scales = np.array(mmse_scale(self.weight.data, self.weight_spec))
        self.set_buffer("weight_scale", scales)

    def set_activation_scale(self, scale: float) -> None:
        self.set_buffer("act_scale", np.array(float(scale)))

    # ------------------------------------------------------------------
    # Calibration protocol
    # ------------------------------------------------------------------
    def begin_calibration(self) -> None:
        from repro.quant.estimators import make_calibrator

        self._calibrating = True
        self._calibrator = make_calibrator(
            self.qconfig.calibrator, self.qconfig.momentum, self.qconfig.percentile
        )

    def finish_calibration(self) -> None:
        if self._calibrator is None or not self._calibrator.calibrated:
            raise RuntimeError(
                f"{self.__class__.__name__}: finish_calibration before any data was observed"
            )
        self.set_activation_scale(self._calibrator.scale(self.act_spec))
        self._calibrating = False
        self._calibrator = None

    # ------------------------------------------------------------------
    # Variability protocol (see repro.variability.injection)
    # ------------------------------------------------------------------
    def set_variation(self, epsilon, variance_model, mode: str) -> None:
        self._epsilon = epsilon
        self._variance_model = variance_model
        self._injection_mode = mode

    @property
    def has_variation(self) -> bool:
        return self._epsilon is not None

    # ------------------------------------------------------------------
    # Forward building blocks
    # ------------------------------------------------------------------
    def _quantize_input(self, x: Tensor) -> Tensor:
        if self._calibrating:
            self._calibrator.observe(x.data)
            return x
        if not self.qconfig.quantize_activations:
            if self._input_observer is not None:
                self._input_observer(self, x.data)
            return x
        scale = float(self.act_scale)
        if scale == 0.0:
            raise RuntimeError(
                f"{self.__class__.__name__}: activation scale not calibrated; "
                "run repro.quant.calibrate_model first"
            )
        x_q = fake_quantize(x, scale, self.act_spec, clip_gradient=True)
        if self._input_observer is not None:
            self._input_observer(self, x_q.data)
        return x_q

    def _quantize_weight(self) -> Tensor:
        if self._calibrating:
            return self.weight
        if self.qconfig.per_channel_weights:
            from repro.quant.perchannel import fake_quantize_per_channel

            w_dequant = fake_quantize_per_channel(
                self.weight, np.asarray(self.weight_scale), self.weight_spec
            )
        else:
            scale = float(self.weight_scale)
            w_dequant = fake_quantize(self.weight, scale, self.weight_spec, clip_gradient=False)
        if self._epsilon is None:
            return w_dequant
        eps = self._epsilon
        if self._injection_mode == "reparameterized":
            delta = self._variance_model.reparameterize(eps, w_dequant)
        else:  # "naive": the biased estimator of Eq. 1 (delta is a constant)
            delta = Tensor(self._variance_model.reparameterize_data(eps, w_dequant.data))
        return w_dequant + delta

    def _apply_self_tuning(self, y_mvm: Tensor, x_q: Tensor) -> Tensor:
        if self.self_tuner is None or self._epsilon is None or self._calibrating:
            return y_mvm
        return self.self_tuner.correct(self, y_mvm, x_q)

    # Interface used by the self-tuning LTM: per-output-position input sums.
    def input_sums(self, x_data: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def input_sqnorms(self, x_data: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def dequantized_weight(self) -> np.ndarray:
        """The ideal (variation-free) dequantized weight values."""
        if self.qconfig.per_channel_weights:
            scales = np.asarray(self.weight_scale).reshape(
                (-1,) + (1,) * (self.weight.ndim - 1)
            )
        else:
            scales = float(self.weight_scale)
        codes = np.clip(
            np.rint(self.weight.data / scales), self.weight_spec.qmin, self.weight_spec.qmax
        )
        return codes * scales

    def ideal_weight_max(self) -> float:
        """|W_max| of the dequantized ideal weights (stored digitally)."""
        return float(np.max(np.abs(self.dequantized_weight())))


class QuantLinear(_QuantLayerBase):
    """Quantized fully connected layer (one PIM array of shape in x out)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        qconfig: QConfig,
        bias: bool = True,
        _search_scale: bool = True,
    ) -> None:
        super().__init__()
        from repro.nn import init

        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._init_quant_state(qconfig, _search_scale)

    @classmethod
    def from_float(cls, layer, qconfig: QConfig) -> "QuantLinear":
        """Build from a trained float :class:`repro.nn.Linear`."""
        out = cls(
            layer.in_features,
            layer.out_features,
            qconfig,
            bias=layer.bias is not None,
            _search_scale=False,
        )
        out.weight.data = layer.weight.data.copy()
        if layer.bias is not None:
            out.bias.data = layer.bias.data.copy()
        out.refresh_weight_scale()
        return out

    def forward(self, x: Tensor) -> Tensor:
        x_q = self._quantize_input(x)
        w_tilde = self._quantize_weight()
        y = x_q @ w_tilde.T
        y = self._apply_self_tuning(y, x_q)
        if self.bias is not None:
            y = y + self.bias
        return y

    def input_sums(self, x_data: np.ndarray) -> np.ndarray:
        return x_data.sum(axis=-1)

    def input_sqnorms(self, x_data: np.ndarray) -> np.ndarray:
        return (x_data**2).sum(axis=-1)

    def patch_matrix(self, x_data: np.ndarray) -> np.ndarray:
        """Rows that drive the MVM array (identity for a linear layer)."""
        return x_data

    def mvm_input_dim(self) -> int:
        return self.in_features

    def flops_per_input(self) -> int:
        return 2 * self.in_features * self.out_features

    def __repr__(self) -> str:
        return (
            f"QuantLinear({self.in_features}, {self.out_features}, "
            f"{self.qconfig.notation})"
        )


class QuantConv2d(_QuantLayerBase):
    """Quantized 2-D convolution (im2col-lowered PIM MVM arrays)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        qconfig: QConfig,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        _search_scale: bool = True,
    ) -> None:
        super().__init__()
        from repro.nn import init

        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._init_quant_state(qconfig, _search_scale)

    @classmethod
    def from_float(cls, layer, qconfig: QConfig) -> "QuantConv2d":
        """Build from a trained float :class:`repro.nn.Conv2d`."""
        out = cls(
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            qconfig,
            stride=layer.stride,
            padding=layer.padding,
            bias=layer.bias is not None,
            _search_scale=False,
        )
        out.weight.data = layer.weight.data.copy()
        if layer.bias is not None:
            out.bias.data = layer.bias.data.copy()
        out.refresh_weight_scale()
        return out

    def forward(self, x: Tensor) -> Tensor:
        self._last_input_hw = (x.shape[-2], x.shape[-1])
        x_q = self._quantize_input(x)
        w_tilde = self._quantize_weight()
        y = conv2d(x_q, w_tilde, None, self.stride, self.padding)
        y = self._apply_self_tuning(y, x_q)
        if self.bias is not None:
            y = y + self.bias.reshape((1, -1, 1, 1))
        return y

    def input_sums(self, x_data: np.ndarray) -> np.ndarray:
        """Sum of each im2col patch: shape (N, H_out, W_out)."""
        return self.patch_matrix(x_data).sum(axis=-1)

    def input_sqnorms(self, x_data: np.ndarray) -> np.ndarray:
        """Squared L2 norm of each im2col patch: shape (N, H_out, W_out)."""
        return (self.patch_matrix(x_data) ** 2).sum(axis=-1)

    def patch_matrix(self, x_data: np.ndarray) -> np.ndarray:
        """im2col rows driving the MVM arrays: a (N, H_out, W_out, C*k*k) view."""
        kernel = (self.kernel_size, self.kernel_size)
        return im2col(x_data, kernel, self.stride, self.padding).transpose(1, 2, 3, 0)

    def mvm_input_dim(self) -> int:
        return self.in_channels * self.kernel_size * self.kernel_size

    def output_hw(self, input_hw: tuple[int, int]) -> tuple[int, int]:
        from repro.nn.conv import conv_output_size

        return (
            conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding),
            conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding),
        )

    def flops_per_input(self, input_hw: tuple[int, int] | None = None) -> int:
        if input_hw is None:
            input_hw = getattr(self, "_last_input_hw", None)
            if input_hw is None:
                raise RuntimeError("run a forward pass first or pass input_hw")
        h, w = self.output_hw(input_hw)
        return 2 * self.mvm_input_dim() * self.out_channels * h * w

    def __repr__(self) -> str:
        return (
            f"QuantConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, {self.qconfig.notation})"
        )
