"""Patch extraction (im2col) for convolution layers.

Both the training framework and the bitstream-exact SC simulator lower
convolutions to matrix products over extracted patches, so the lowering
lives in one place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im",
           "expand_grouped_weight", "collapse_grouped_grad"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input size {size}"
        )
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1,
           pad: int = 0) -> np.ndarray:
    """Extract convolution patches.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N, out_h, out_w, C * kh * kw)`` where the last axis
    is ordered ``(C, kh, kw)`` — matching ``weights.reshape(C_out, -1)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, H', W', kh, kw) -> stride and reorder.
    windows = windows[:, :, ::stride, ::stride, :, :]
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h, out_w, c * kh * kw
    )
    return np.ascontiguousarray(patches)


def expand_grouped_weight(weight: np.ndarray, groups: int) -> np.ndarray:
    """Expand a grouped conv weight to its dense block-diagonal 2-D form.

    A grouped convolution with weight ``(C_out, C_in/g, kh, kw)`` is
    numerically identical to a dense convolution whose flattened weight
    matrix ``(C_out, C_in * kh * kw)`` is block-diagonal over groups:
    output channel ``o`` (in group ``o // (C_out/g)``) keeps its own
    group's ``(C_in/g) * kh * kw`` input lanes and holds exact zeros
    everywhere else.  Every lowering in the repo (the layer's engine
    plans, the gate-level reference) consumes this expansion, so
    grouped forward passes are bit-identical to the dense block-diagonal
    reference by construction — the zero lanes cost nothing at the
    product stage because the engine skips all-zero operand lanes.

    ``groups == 1`` returns the plain ``reshape(C_out, -1)`` view.
    """
    c_out, c_in_g, kh, kw = weight.shape
    if groups == 1:
        return weight.reshape(c_out, -1)
    if c_out % groups:
        raise ValueError(
            f"groups={groups} must divide out_channels={c_out}")
    c_in = c_in_g * groups
    out_g = c_out // groups
    expanded = np.zeros((c_out, c_in * kh * kw), dtype=weight.dtype)
    # Per-lane order is (C, kh, kw), matching im2col: group g owns input
    # channels [g * c_in_g, (g+1) * c_in_g) -> a contiguous lane block.
    lanes_g = c_in_g * kh * kw
    flat = weight.reshape(c_out, lanes_g)
    for g in range(groups):
        rows = slice(g * out_g, (g + 1) * out_g)
        cols = slice(g * lanes_g, (g + 1) * lanes_g)
        expanded[rows, cols] = flat[rows]
    return expanded


def collapse_grouped_grad(grad_2d: np.ndarray, weight_shape: tuple,
                          groups: int) -> np.ndarray:
    """Gather a dense block-diagonal weight gradient back to grouped form.

    Inverse of :func:`expand_grouped_weight` for gradients: picks each
    output channel's own group block out of the ``(C_out, C_in*kh*kw)``
    gradient and discards the (structurally zero) cross-group entries.
    """
    c_out, c_in_g, kh, kw = weight_shape
    if groups == 1:
        return grad_2d.reshape(weight_shape)
    out_g = c_out // groups
    lanes_g = c_in_g * kh * kw
    grad = np.empty((c_out, lanes_g), dtype=grad_2d.dtype)
    for g in range(groups):
        rows = slice(g * out_g, (g + 1) * out_g)
        cols = slice(g * lanes_g, (g + 1) * lanes_g)
        grad[rows] = grad_2d[rows, cols]
    return grad.reshape(weight_shape)


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Scatter patch gradients back to input gradients (inverse of im2col).

    ``cols`` has shape ``(N, out_h, out_w, C * kh * kw)``.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    dx = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx
