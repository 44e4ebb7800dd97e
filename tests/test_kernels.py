import numpy as np
import pytest

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


def _naive_pool(x):
    nb, h, w, c = x.shape
    out = np.empty((nb, h // 2, w // 2, c))
    for n in range(nb):
        for i in range(h // 2):
            for j in range(w // 2):
                for ch in range(c):
                    out[n, i, j, ch] = x[n, 2 * i:2 * i + 2,
                                         2 * j:2 * j + 2, ch].max()
    return out


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
    assert np.allclose(p, _naive_pool(x))


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
    x = np.zeros((1, 2, 2, 1))     # all entries tie; np.argmax picks the first
    p, idx = backend.maxpool2x2_fwd(x)
    g = np.ones_like(p)
    gr = backend.maxpool2x2_bwd(idx, g, x.shape)
    assert gr[0, 0, 0, 0] == 1.0 and gr.sum() == 1.0
