"""2-D convolution via im2col, as a single fused autograd Function.

The analog-PIM mapping in the paper lowers convolutions to matrix-vector
products over im2col patches; this implementation mirrors that lowering,
which also makes it the natural integration point for crossbar simulation
(:mod:`repro.pim`) and the LTM patch-sum estimation (:mod:`repro.selftuning`).

The lowering is channel-major (Chellapilla et al., 2006): :func:`im2col`
returns the unrolled matrix as ``(C*kh*kw, N, H_out, W_out)``, one row per
weight column, so it fills with ``kh*kw`` strided slab copies whose inner
runs are whole output rows.  The conv GEMM is then ``w_mat @ cols`` with
``w_mat`` the ``(C_out, C*kh*kw)`` flattened weight; its
``(C_out, N, H_out, W_out)`` result is handed back as an NCHW view.  Every
conv-shaped caller — the autograd conv, average pooling, the quantized
layers, the crossbar-mapped conv and the fused fleet adapters — uses this
one lowering; crossbar drive rows are the view ``cols.reshape(K, -1).T``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Function, Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to the patch matrix ``(C*kh*kw, N, H_out, W_out)``.

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset ``(i, j)``
    for every output position, in the order ``weight.reshape(C_out, -1)``
    flattens its columns.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    if padding:
        source = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        source[:, :, padding : padding + h, padding : padding + w] = x.transpose(1, 0, 2, 3)
    else:
        source = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, h_out, w_out), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = source[
                :, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride
            ]
    return cols.reshape(c * kh * kw, n, h_out, w_out)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add ``(C*kh*kw, N, H_out, W_out)`` patch gradients back to NCHW."""
    n, c, h, w = x_shape
    kh, kw = kernel
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(c, kh, kw, n, h_out, w_out)
    out = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += cols[
                :, i, j
            ]
    return out[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


class Conv2dFunction(Function):
    """Fused conv2d: forward + backward w.r.t. input, weight, and bias."""

    def forward(self, x, weight, bias, stride: int = 1, padding: int = 0):
        out_channels = weight.shape[0]
        cols = im2col(x, weight.shape[2:], stride, padding)  # (C*kh*kw, N, Ho, Wo)
        w_mat = weight.reshape(out_channels, -1)
        patch, n, h_out, w_out = cols.shape
        # One flat GEMM over all output positions: the long N*Ho*Wo side is
        # the GEMM's column count, so the BLAS call overhead is paid once.
        out = (w_mat @ cols.reshape(patch, -1)).reshape(out_channels, n, h_out, w_out)
        if bias is not None:
            out = out + bias.reshape(-1, 1, 1, 1)
        self.save_for_backward(cols, w_mat, x.shape, weight.shape)
        self.stride = stride
        self.padding = padding
        self.has_bias = bias is not None
        return out.transpose(1, 0, 2, 3)

    def backward(self, grad):
        cols, w_mat, x_shape, w_shape = self.saved
        # grad: (N, C_out, Ho, Wo) -> (C_out, N*Ho*Wo), the forward GEMM's output.
        grad_mat = grad.transpose(1, 0, 2, 3).reshape(w_shape[0], -1)
        cols_mat = cols.reshape(cols.shape[0], -1)
        grad_weight = (grad_mat @ cols_mat.T).reshape(w_shape)
        grad_cols = w_mat.T @ grad_mat  # (C*kh*kw, N*Ho*Wo)
        grad_x = col2im(grad_cols, x_shape, w_shape[2:], self.stride, self.padding)
        grad_bias = grad_mat.sum(axis=1) if self.has_bias else None
        return grad_x, grad_weight, grad_bias


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0):
    """Functional differentiable 2-D convolution (NCHW)."""
    if bias is None:
        return Conv2dFunction.apply(x, weight, stride=stride, padding=padding, bias=None)
    return Conv2dFunction.apply(x, weight, bias, stride=stride, padding=padding)


class Conv2d(Module):
    """Standard 2-D convolution layer.

    Parameters follow the usual convention: weight ``(C_out, C_in, kh, kw)``,
    optional bias ``(C_out,)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def output_shape(self, input_hw: tuple[int, int]) -> tuple[int, int, int]:
        """(C_out, H_out, W_out) for a given input spatial size."""
        h = conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        w = conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        return self.out_channels, h, w

    def flops_per_input(self, input_hw: tuple[int, int]) -> int:
        """Multiply-accumulate count for one NCHW sample (used by overhead bench)."""
        _, h, w = self.output_shape(input_hw)
        macs_per_position = self.in_channels * self.kernel_size * self.kernel_size
        return 2 * macs_per_position * self.out_channels * h * w

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )
