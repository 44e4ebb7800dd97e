"""Conv/pool kernels for HCL-Net's per-vehicle CNN, in numpy.

Shapes follow channels-last layout: x is [B, H, W, C_in], filters are
[F, 3, 3, C_in], conv output is [B, H, W, F] with zero-padded "same"
convolution (implemented as cross-correlation, the usual NN convention).

The conv on one H x W x C_in slice is a fixed linear map, so it runs as one
matmul against an (H*W*C_in) x (H*W*F) Toeplitz matrix scattered from the
filter weights (Chellapilla et al. 2006, unrolling convolution to a matrix
product); the weight gradient is the matching X^T gY gathered back.
conv_matrix builds that matrix alone, so a caller that applies fixed
weights to many small batches (HCLStream) builds it once.

Memory layout: the conv output and the pool's input gradient are
batch-innermost, i.e. [B, H, W, C] views of a C-contiguous [H, W, C, B]
buffer.  The conv computes its transposed product T^T X^T, which BLAS takes
without a copy; each 2x2 window corner is then one long contiguous run over
the batch, and the pool maxima are one reduction over a window-splitting
view of its input, in that input's layout, with no transposing copy.  The
logical shapes stay channels-last, so callers and the loop references
index them as before, and the pool kernels accept any layout.
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


def conv_matrix(w: np.ndarray, h: int, wd: int) -> np.ndarray:
    """The (H*W*C_in) x (H*W*F) Toeplitz matrix of the [F, 3, 3, C_in]
    filters w on an H x W slice.  It holds copies of the weights, so a
    caller that keeps it must rebuild it when w changes."""
    nf, cin = w.shape[0], w.shape[-1]
    pos, widx = _toeplitz_index(h, wd, cin, nf)
    t = np.zeros((h * wd * cin, h * wd * nf), dtype=w.dtype)
    t.flat[pos] = w.ravel()[widx]
    return t


def conv_by_matrix(x: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, H, W, F] conv output of x through its conv_matrix t and the bias
    b, as a batch-innermost view."""
    bsz, h, wd, _ = x.shape
    nf = len(b)
    yt = (t.T @ x.reshape(bsz, -1).T).reshape(h * wd, nf, bsz)
    yt += b[:, None]
    return yt.reshape(h, wd, nf, bsz).transpose(3, 0, 1, 2)


def conv2d3x3_same_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, H, W, F] conv output, as a batch-innermost view."""
    return conv_by_matrix(x, conv_matrix(w, x.shape[1], x.shape[2]), b)


def conv2d3x3_same_bwd(x: np.ndarray, w: np.ndarray, gy: np.ndarray):
    """Weight and bias gradients (g_w, g_b) of the conv given dL/dy."""
    bsz, h, wd, cin = x.shape
    nf = w.shape[0]
    pos, widx = _toeplitz_index(h, wd, cin, nf)
    gy2 = gy.reshape(bsz, -1)
    gt = x.reshape(bsz, -1).T @ gy2
    gw = np.bincount(widx, weights=gt.ravel()[pos], minlength=w.size)
    return gw.reshape(w.shape), gy2.sum(axis=0).reshape(-1, nf).sum(axis=0)


def _windows(x: np.ndarray) -> np.ndarray:
    """[B, H/2, 2, W/2, 2, C] view of the 2x2 windows of [B, H, W, C] x."""
    bsz, h, wd, c = x.shape
    return x.reshape(bsz, h // 2, 2, wd // 2, 2, c)


def _corners(x: np.ndarray):
    """The four corners of every 2x2 window of [B, H, W, C] x, as strided
    views in window order 2*dy + dx."""
    win = _windows(x)
    return [win[:, :, q // 2, :, q % 2] for q in range(4)]


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """[B, H/2, W/2, C] window maxima of [B, H, W, C] x, in x's layout."""
    return _windows(x).max(axis=(2, 4))


def maxpool2x2_fwd(x: np.ndarray):
    """Window maxima and the index 2*dy + dx of each window's first maximum:
    the number of leading corners that differ from the maximum."""
    p = maxpool2x2(x)
    a, b, c, _ = _corners(x)
    before = a != p
    idx = before.astype(np.int64)
    before &= b != p
    idx += before
    before &= c != p
    idx += before
    return p, idx


def maxpool2x2_bwd(idx: np.ndarray, gy: np.ndarray, shape) -> np.ndarray:
    """dL/dx of the pool: each window's gradient goes to its first maximum.
    The result is batch-innermost."""
    bsz, h, wd, c = shape
    gx = np.empty((h, wd, c, bsz), dtype=gy.dtype).transpose(3, 0, 1, 2)
    for q, corner in enumerate(_corners(gx)):
        np.multiply(gy, idx == q, out=corner)
    return gx
