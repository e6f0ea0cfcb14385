"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.autograd import Function, Tensor, is_grad_enabled
from repro.nn.conv import conv_output_size, im2col
from repro.nn.module import Module


class MaxPool2dFunction(Function):
    def forward(self, x, kernel: int, stride: int):
        n, c, h, w = x.shape
        h_out = conv_output_size(h, kernel, stride, 0)
        w_out = conv_output_size(w, kernel, stride, 0)
        if not is_grad_enabled():
            # Inference fast path: a tournament of strided views needs no
            # window materialization and no argmax bookkeeping, and the max
            # of the same floats is bit-identical either way.
            out = None
            for i in range(kernel):
                for j in range(kernel):
                    view = x[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
                    out = view.copy() if out is None else np.maximum(out, view, out=out)
            self.kernel = kernel
            self.stride = stride
            return out
        windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride, :, :]
        flat = windows.reshape(n, c, h_out, w_out, kernel * kernel)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        self.save_for_backward(argmax, x.shape)
        self.kernel = kernel
        self.stride = stride
        return out

    def backward(self, grad):
        argmax, x_shape = self.saved
        n, c, h, w = x_shape
        kernel, stride = self.kernel, self.stride
        h_out, w_out = argmax.shape[2], argmax.shape[3]
        grad_x = np.zeros(x_shape, dtype=grad.dtype)
        # Recover (row, col) offsets inside each pooling window and scatter.
        off_r = argmax // kernel
        off_c = argmax % kernel
        base_r = (np.arange(h_out) * stride)[None, None, :, None]
        base_c = (np.arange(w_out) * stride)[None, None, None, :]
        rows = (base_r + off_r).reshape(n, c, -1)
        cols = (base_c + off_c).reshape(n, c, -1)
        n_idx = np.arange(n)[:, None, None]
        c_idx = np.arange(c)[None, :, None]
        np.add.at(grad_x, (n_idx, c_idx, rows, cols), grad.reshape(n, c, -1))
        return (grad_x,)


class MaxPool2d(Module):
    """Max pooling with square window; ``stride`` defaults to the window size."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return MaxPool2dFunction.apply(x, kernel=self.kernel_size, stride=self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2dFunction(Function):
    def forward(self, x, kernel: int, stride: int):
        cols = im2col(x, (kernel, kernel), stride, 0)
        # im2col rows are (channel, window offset); average each channel's
        # window rows and hand the (C, N, Ho, Wo) means back as NCHW.
        cols = cols.reshape(x.shape[1], kernel * kernel, *cols.shape[1:])
        out = cols.mean(axis=1).transpose(1, 0, 2, 3)
        self.kernel = kernel
        self.stride = stride
        self.x_shape = x.shape
        return out

    def backward(self, grad):
        kernel, stride = self.kernel, self.stride
        n, c, h, w = self.x_shape
        h_out, w_out = grad.shape[2], grad.shape[3]
        grad_x = np.zeros(self.x_shape, dtype=grad.dtype)
        share = grad / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                grad_x[
                    :, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride
                ] += share
        return (grad_x,)


class AvgPool2d(Module):
    """Average pooling with square window; ``stride`` defaults to window size."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return AvgPool2dFunction.apply(x, kernel=self.kernel_size, stride=self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    """Mean over the spatial dimensions: NCHW -> NC."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
