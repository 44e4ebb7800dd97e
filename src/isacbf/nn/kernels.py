"""Conv/pool kernels for HCL-Net's per-vehicle CNN, in numpy.

Shapes follow channels-last layout: x is [B, H, W, C_in], filters are
[F, 3, 3, C_in], conv output is [B, H, W, F] with zero-padded "same"
convolution (implemented as cross-correlation, the usual NN convention).

The conv on one H x W x C_in slice is a fixed linear map, so it runs as one
matmul against an (H*W*C_in) x (H*W*F) Toeplitz matrix scattered from the
filter weights (Chellapilla et al. 2006, unrolling convolution to a matrix
product); the weight gradient is the matching X^T gY gathered back.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def get_backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "numpy"


@lru_cache(maxsize=None)
def _toeplitz_index(h: int, wd: int, cin: int, nf: int):
    """Flat positions of the Toeplitz matrix's non-zeros and, for each, the
    flat index into the [F, 3, 3, C_in] filters of the weight it holds."""
    i, j, dy, dx, c, f = np.meshgrid(np.arange(h), np.arange(wd), np.arange(3),
                                     np.arange(3), np.arange(cin),
                                     np.arange(nf), indexing="ij")
    ii, jj = i + dy - 1, j + dx - 1
    ok = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < wd)
    row = (ii * wd + jj) * cin + c
    col = (i * wd + j) * nf + f
    pos = (row * (h * wd * nf) + col)[ok]
    widx = (((f * 3 + dy) * 3 + dx) * cin + c)[ok]
    pos.flags.writeable = widx.flags.writeable = False   # shared by callers
    return pos, widx


def conv2d3x3_same_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    bsz, h, wd, cin = x.shape
    nf = w.shape[0]
    pos, widx = _toeplitz_index(h, wd, cin, nf)
    t = np.zeros((h * wd * cin, h * wd * nf), dtype=w.dtype)
    t.flat[pos] = w.ravel()[widx]
    y = x.reshape(bsz, -1) @ t
    y += np.tile(b, h * wd)     # broadcasting over a trailing F is far slower
    return y.reshape(bsz, h, wd, nf)


def conv2d3x3_same_bwd(x: np.ndarray, w: np.ndarray, gy: np.ndarray):
    """Weight and bias gradients (g_w, g_b) of the conv given dL/dy."""
    bsz, h, wd, cin = x.shape
    nf = w.shape[0]
    pos, widx = _toeplitz_index(h, wd, cin, nf)
    gy2 = gy.reshape(bsz, -1)
    gt = x.reshape(bsz, -1).T @ gy2
    gw = np.bincount(widx, weights=gt.ravel()[pos], minlength=w.size)
    return gw.reshape(w.shape), gy2.sum(axis=0).reshape(-1, nf).sum(axis=0)


def maxpool2x2_fwd(x: np.ndarray):
    bsz, h, wd, c = x.shape
    win = x.reshape(bsz, h // 2, 2, wd // 2, 2, c).transpose(0, 1, 3, 5, 2, 4)
    win = win.reshape(bsz, h // 2, wd // 2, c, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return out, idx.astype(np.int64)


def maxpool2x2_bwd(idx: np.ndarray, gy: np.ndarray, shape) -> np.ndarray:
    bsz, h, wd, c = shape
    gwin = np.zeros((bsz, h // 2, wd // 2, c, 4), dtype=gy.dtype)
    np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=-1)
    gwin = gwin.reshape(bsz, h // 2, wd // 2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    return gwin.reshape(bsz, h, wd, c)
