"""The channel-major im2col lowering and every conv path built on it.

:func:`repro.nn.conv.im2col` returns ``(C*kh*kw, N, H_out, W_out)``.  These
tests pin that layout against an independent ``sliding_window_view``
reference, check the conv Function's forward and backward against a direct
``einsum`` convolution and finite differences, and check that fused fleet
dispatch stays bit-identical to per-chip dispatch on both backends for the
small per-chip batches where GEMM operand orientation decides the bits.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.autograd.grad_check import gradcheck
from repro.backends import CircuitBackend, FakeQuantBackend, FusedFleetForward
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import init
from repro.nn.conv import col2im, conv2d, im2col
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySampler, VariabilitySpec

GEOMETRIES = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2)))
SHAPES = [(1, 1, 7, 7), (2, 3, 8, 9), (1, 2, 6, 5), (3, 1, 7, 8)]


def _reference_patches(x, kernel, stride, padding):
    """``(N, C, H_out, W_out, kh, kw)`` patches via ``sliding_window_view``."""
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=(2, 3))
    return windows[:, :, ::stride, ::stride]


def _direct_conv(x, weight, bias, stride, padding):
    """Direct convolution as one ``einsum`` over the reference patches."""
    patches = _reference_patches(x, weight.shape[2:], stride, padding)
    out = np.einsum("nchwij,ocij->nohw", patches, weight)
    return out if bias is None else out + bias.reshape(1, -1, 1, 1)


class TestIm2colLayout:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
    def test_matches_sliding_window_reference(self, rng, shape, k, stride, padding):
        x = rng.normal(size=shape)
        cols = im2col(x, (k, k), stride, padding)
        ref = _reference_patches(x, (k, k), stride, padding)
        n, c, h_out, w_out = ref.shape[:4]
        assert cols.shape == (c * k * k, n, h_out, w_out)
        for i, ho, wo in itertools.product(range(n), range(h_out), range(w_out)):
            assert np.array_equal(cols[:, i, ho, wo], ref[i, :, ho, wo].reshape(-1))

    def test_rows_follow_the_flattened_weight_columns(self, rng):
        """Row ``(c, i, j)`` pairs with column ``(c, i, j)`` of
        ``weight.reshape(C_out, -1)``."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, (3, 3), 1, 1)
        c, i, j = 2, 1, 0
        row = cols[c * 9 + i * 3 + j]
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        assert np.array_equal(row, padded[:, c, i : i + 6, j : j + 6])

    @pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
    def test_col2im_is_the_adjoint(self, rng, k, stride, padding):
        """<im2col(x), g> == <x, col2im(g)> for every geometry."""
        x = rng.normal(size=(2, 3, 7, 8))
        cols = im2col(x, (k, k), stride, padding)
        g = rng.normal(size=cols.shape)
        back = col2im(g, x.shape, (k, k), stride, padding)
        assert back.shape == x.shape
        assert np.isclose(np.vdot(cols, g), np.vdot(x, back))


class TestConvFunction:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
    def test_forward_matches_direct_convolution(self, rng, shape, k, stride, padding):
        x = rng.normal(size=shape)
        weight = rng.normal(size=(4, shape[1], k, k))
        bias = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(weight), Tensor(bias), stride, padding)
        assert np.allclose(out.data, _direct_conv(x, weight, bias, stride, padding))

    @pytest.mark.parametrize("k,stride,padding", GEOMETRIES)
    def test_backward_matches_direct_convolution(self, rng, k, stride, padding):
        """Gradients equal the einsum adjoints of the direct convolution."""
        x = rng.normal(size=(2, 3, 7, 8))
        weight = rng.normal(size=(4, 3, k, k))
        bias = rng.normal(size=4)
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, weight, bias))
        out = conv2d(tx, tw, tb, stride, padding)
        grad = rng.normal(size=out.shape)
        (out * Tensor(grad)).sum().backward()
        patches = _reference_patches(x, (k, k), stride, padding)
        assert np.allclose(tw.grad, np.einsum("nohw,nchwij->ocij", grad, patches))
        assert np.allclose(tb.grad, grad.sum(axis=(0, 2, 3)))
        grad_patches = np.einsum("nohw,ocij->nchwij", grad, weight)
        grad_x = np.zeros((2, 3, 7 + 2 * padding, 8 + 2 * padding))
        h_out, w_out = grad.shape[2:]
        for i, j in itertools.product(range(k), range(k)):
            grad_x[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                grad_patches[..., i, j]
            )
        grad_x = grad_x[:, :, padding : padding + 7, padding : padding + 8]
        assert np.allclose(tx.grad, grad_x)

    @pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2)])
    def test_grad_check(self, rng, k, stride, padding):
        x = Tensor(rng.normal(size=(2, 2, 5, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        assert gradcheck(
            lambda a, w, b: (conv2d(a, w, b, stride, padding) ** 2).sum(), [x, weight, bias]
        )


# ----------------------------------------------------------------------
# Fused vs per-chip dispatch at small per-chip batches
# ----------------------------------------------------------------------
BACKENDS = {"fake-quant": FakeQuantBackend, "circuit": CircuitBackend}
BATCH_SIZES = (1, 2, 3, 5)


def _conv_head(out_channels, kernel, stride):
    """Two convs whose last one is the model output, so no activation
    quantizer downstream can round a last-bit GEMM difference away."""
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(), nn.Conv2d(4, out_channels, kernel, stride)
    )


MODELS = {
    "lenet5-mini": (
        lambda: build_model("lenet5-mini", num_classes=5, in_channels=1), (1, 28, 28)
    ),
    # Padding, stride 2 and 1x1 shortcut convs.
    "resnet10-mini": (
        lambda: build_model("resnet10-mini", num_classes=5, in_channels=3), (3, 16, 16)
    ),
    # 3x3 output positions per sample: column blocks that are not a
    # multiple of the GEMM kernel's width, where orientation decides bits.
    "conv-head": (lambda: _conv_head(3, 3, 2), (3, 7, 7)),
    # One output channel and a 1x1 output: numpy runs the GEMM as a GEMV.
    "conv-head-1ch": (lambda: _conv_head(1, 7, 1), (3, 7, 7)),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def golden(request):
    """A calibrated quantized model and inputs for it."""
    init.seed(0)
    build, shape = MODELS[request.param]
    dataset = make_pattern_dataset(5, 4, shape, seed=3, max_shift=1, noise=0.2)
    model = build()
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 10, shuffle=False), max_batches=2)
    model.eval()
    return model, dataset.images


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_fused_matches_per_chip_at_small_batches(golden, backend_name):
    model, images = golden
    spec = VariabilitySpec.mixed(0.2, WeightProportionalVariance())
    backend = BACKENDS[backend_name]()
    fleet = [
        backend.program(
            model, VariabilitySampler(spec, seed=i).sample_chip(), spec=spec, chip_id=f"c{i}"
        )
        for i in range(len(BATCH_SIZES))
    ]
    fused = FusedFleetForward.build(fleet)
    # Every chip sees every batch size once across the rotations.
    for shift in range(len(BATCH_SIZES)):
        sizes = BATCH_SIZES[shift:] + BATCH_SIZES[:shift]
        bounds = np.cumsum((0,) + sizes)
        assignments = [
            (chip, images[start:stop]) for chip, start, stop in zip(fleet, bounds, bounds[1:])
        ]
        for (chip, inputs), out in zip(assignments, fused.forward(assignments)):
            assert np.array_equal(out, chip.forward(inputs))
