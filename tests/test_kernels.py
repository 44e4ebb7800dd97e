import numpy as np
import pytest

from helpers import loop_maxpool2x2
from isacbf.nn import kernels


def _naive_conv(x, w, b):
    """Reference 3x3 same-padding convolution, plain loops."""
    nb, h, ww, cin = x.shape
    f = w.shape[0]
    out = np.zeros((nb, h, ww, f))
    for n in range(nb):
        for i in range(h):
            for j in range(ww):
                for ff in range(f):
                    acc = b[ff]
                    for di in range(3):
                        for dj in range(3):
                            ii, jj = i + di - 1, j + dj - 1
                            if 0 <= ii < h and 0 <= jj < ww:
                                acc += float(
                                    x[n, ii, jj] @ w[ff, di, dj])
                    out[n, i, j, ff] = acc
    return out


def _layouts(x):
    """x as a C-contiguous array, as a batch-innermost view (what the conv
    returns) and as a view sliced out of a larger array."""
    inner = np.ascontiguousarray(np.moveaxis(x, 0, -1))
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
    wide[..., 1::2] = x
    return {"c": np.ascontiguousarray(x), "batch_inner": np.moveaxis(inner, -1, 0),
            "sliced": wide[..., 1::2]}


def _rand_io(rng, nb=3, h=4, w=8, cin=2, f=4):
    x = rng.normal(size=(nb, h, w, cin))
    cw = rng.normal(size=(f, 3, 3, cin))
    cb = rng.normal(size=f)
    return x, cw, cb


@pytest.fixture(params=["selected"])
def backend():
    return kernels


def test_conv_fwd_matches_naive(backend, rng):
    # widths 8 and 2 (n_tx 32 and 8) in one process: each slice shape needs
    # its own Toeplitz index map
    for w in (8, 2, 8):
        x, cw, cb = _rand_io(rng, w=w)
        out = backend.conv2d3x3_same_fwd(x, cw, cb)
        assert np.allclose(out, _naive_conv(x, cw, cb), rtol=1e-12, atol=1e-12)


def test_conv_matrix_matches_conv_and_loops(rng):
    """The conv through a kept conv_matrix equals conv2d3x3_same_fwd bit for
    bit and the loop reference, for slices of width 8 and 2."""
    for w in (8, 2):
        x, cw, cb = _rand_io(rng, w=w)
        t = kernels.conv_matrix(cw, 4, w)
        assert t.shape == (4 * w * 2, 4 * w * 4)
        y = kernels.conv_by_matrix(x, t, cb)
        assert np.array_equal(y, kernels.conv2d3x3_same_fwd(x, cw, cb))
        assert np.allclose(y, _naive_conv(x, cw, cb), rtol=1e-12, atol=1e-12)


def test_conv_bwd_matches_fd(backend, rng):
    x, cw, cb = _rand_io(rng, nb=2, h=4, w=4)
    g = rng.normal(size=(2, 4, 4, 4))

    def loss(xx, ww, bb):
        return float((backend.conv2d3x3_same_fwd(xx, ww, bb) * g).sum())

    gw, gb = backend.conv2d3x3_same_bwd(x, cw, g)
    eps = 1e-6
    for arr, grad, which in ((cw, gw, "w"), (cb, gb, "b")):
        flat = arr.ravel()
        idx = np.random.default_rng(0).choice(
            flat.size, size=min(12, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss(x, cw, cb)
            flat[i] = orig - eps
            fm = loss(x, cw, cb)
            flat[i] = orig
            fd = (fp - fm) / (2 * eps)
            assert grad.ravel()[i] == pytest.approx(fd, rel=1e-5, abs=1e-8), which


def test_pool_fwd_matches_naive(backend, rng):
    x = rng.normal(size=(3, 4, 8, 4))
    p, idx = backend.maxpool2x2_fwd(x)
    ref, ref_idx = loop_maxpool2x2(x)
    assert np.array_equal(p, ref) and np.array_equal(idx, ref_idx)


def test_conv_fwd_is_batch_innermost(backend, rng):
    """The conv output is a [B, H, W, F] view whose batch axis is the
    contiguous one, so each window corner the pool reads is one run."""
    x, cw, cb = _rand_io(rng, nb=5)
    y = backend.conv2d3x3_same_fwd(x, cw, cb)
    assert y.shape == (5, 4, 8, 4)
    assert y.transpose(1, 2, 3, 0).flags.c_contiguous


def test_pool_is_layout_independent(backend, rng):
    """Values (of maxpool2x2 and maxpool2x2_fwd), int64 indices and routed
    gradients do not depend on the memory layout of the input or of the
    incoming gradient.  Small integers make ties common."""
    x = rng.integers(-2, 3, size=(5, 4, 8, 4)).astype(float)
    ref, ref_idx = loop_maxpool2x2(x)
    g = rng.normal(size=ref.shape)
    ref_gr = backend.maxpool2x2_bwd(ref_idx, g, x.shape)
    for name, xl in _layouts(x).items():
        assert np.array_equal(backend.maxpool2x2(xl), ref), name
        p, idx = backend.maxpool2x2_fwd(xl)
        assert idx.dtype == np.int64, name
        assert np.array_equal(p, ref) and np.array_equal(idx, ref_idx), name
        for gname, gl in _layouts(g).items():
            gr = backend.maxpool2x2_bwd(idx, gl, xl.shape)
            assert np.array_equal(gr, ref_gr), (name, gname)


def test_conv_bwd_is_layout_independent(backend, rng):
    x, cw, cb = _rand_io(rng, nb=6)
    g = rng.normal(size=(6, 4, 8, 4))
    ref_w, ref_b = backend.conv2d3x3_same_bwd(x, cw, g)
    for name, gl in _layouts(g).items():
        gw, gb = backend.conv2d3x3_same_bwd(x, cw, gl)
        # the bias gradient's sum may run in another order
        assert np.allclose(gw, ref_w, rtol=1e-14, atol=0), name
        assert np.allclose(gb, ref_b, rtol=1e-14, atol=1e-14), name


def test_pool_bwd_scatters_to_argmax(backend, rng):
    x = rng.normal(size=(2, 4, 8, 4))
    p, idx = backend.maxpool2x2_fwd(x)
    g = rng.normal(size=p.shape)
    gr = backend.maxpool2x2_bwd(idx, g, x.shape)
    assert gr.shape == x.shape
    # mass conservation and sparsity: one nonzero per window
    assert gr.sum() == pytest.approx(g.sum(), rel=1e-12)
    nz = (gr != 0).reshape(2, 2, 2, 4, 2, 4).sum(axis=(2, 4))
    assert np.all(nz <= 1)
    # FD check through the pooling nonlinearity
    eps = 1e-7
    flat = x.ravel()
    for i in np.random.default_rng(1).choice(flat.size, size=10, replace=False):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float((backend.maxpool2x2_fwd(x)[0] * g).sum())
        flat[i] = orig - eps
        fm = float((backend.maxpool2x2_fwd(x)[0] * g).sum())
        flat[i] = orig
        assert gr.ravel()[i] == pytest.approx((fp - fm) / (2 * eps),
                                              rel=1e-5, abs=1e-8)


def test_pool_tie_break_first_max(backend):
    """The index is the first maximum in the order 2*dy + dx, and the
    gradient goes there alone."""
    cases = [
        ([[0, 0], [0, 0]], 0),      # all four tie
        ([[0, 2], [2, 0]], 1),      # tie across rows: the top row wins
        ([[0, 0], [2, 2]], 2),      # tie within the bottom row: the left wins
        ([[2, 2], [0, 0]], 0),      # tie within the top row
        ([[-1, 0], [0, -1]], 1),
        ([[-3, -2], [-1, -1]], 2),
        ([[1, 0], [0, 3]], 3),
    ]
    for window, first in cases:
        x = np.array(window, dtype=float)[None, :, :, None]
        p, idx = backend.maxpool2x2_fwd(x)
        assert idx.item() == first and p.item() == x.max(), window
        gr = backend.maxpool2x2_bwd(idx, np.ones_like(p), x.shape)
        assert gr[0, first // 2, first % 2, 0] == 1.0 and gr.sum() == 1.0
