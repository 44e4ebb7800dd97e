import numpy as np
import pytest

from helpers import fd_grad, loop_maxpool2x2
from isacbf.config import SimConfig
from isacbf.harness import project_power
from isacbf.nn import kernels
from isacbf.nn.model import (CONV_FILTERS, LSTM_HIDDEN, HCLNet, NaiveNet,
                             load_model, output_to_matrix)


def _lstm_step(net, x, h_prev, c_prev):
    """One LSTM update of one feature vector: the per-slot reference for the
    batched recurrence in HCLNet.forward."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hh = net.hidden
    gates = net.view("wx") @ x + net.view("wh") @ h_prev + net.view("lstm_b")
    c = sigmoid(gates[hh:2 * hh]) * c_prev \
        + sigmoid(gates[:hh]) * np.tanh(gates[2 * hh:3 * hh])
    return sigmoid(gates[3 * hh:]) * np.tanh(c), c


def _window(cfg, rng):
    """A random [tau, K, M] complex history of estimated channels."""
    shape = (cfg.history_len, cfg.n_vehicles, cfg.n_tx)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_history_window_roundtrip(cfg, rng, monkeypatch):
    """The real rows predict feeds the CNN from a [tau, K, M] complex
    history, one [K, M, 2] slot at a time, stack to [tau, K, M, 2] and
    unpack back to that history exactly."""
    net = HCLNet(cfg)
    net.init_params(rng)
    hist = _window(cfg, rng)
    seen = []
    features = net.features
    monkeypatch.setattr(net, "features", lambda x, *args: seen.append(
        x.copy()) or features(x, *args))
    net.predict(hist)
    x = np.stack(seen)
    assert x.shape == (cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2)
    assert np.array_equal(x[..., 0] + 1j * x[..., 1], hist)


def test_history_window_validation(cfg, rng):
    """An empty or short window, or one whose vehicle or antenna count is
    off, or one laid out as per-slot N_t x K matrices, is refused."""
    net = HCLNet(cfg)
    net.init_params(rng)
    hist = _window(cfg, rng)
    for bad in (hist[:0], hist[:1], hist[:, :-1], hist[:, :, :-1],
                hist.swapaxes(1, 2)):
        with pytest.raises(ValueError):
            net.predict(bad)


def test_map_input(cfg, rng):
    """predict feeds forward the history as [1, tau, K, M, 2], channel 0 the
    real and channel 1 the imaginary part, kappa applied once."""
    net = HCLNet(cfg, kappa=2.5)
    net.init_params(rng)
    hist = _window(cfg, rng)
    x = np.empty((1, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    for t in range(cfg.history_len):
        for k in range(cfg.n_vehicles):
            x[0, t, k, :, 0] = hist[t, k].real
            x[0, t, k, :, 1] = hist[t, k].imag
    assert np.array_equal(net.predict(hist), output_to_matrix(net.forward(x)[0]))
    # a short window, or one whose vehicle or antenna count is off, is refused
    for bad in (hist[:-1], hist[:, :-1], hist[:, :, :-1]):
        with pytest.raises(ValueError):
            net.predict(bad)


def test_output_to_matrix():
    o = np.arange(3 * 4 * 2, dtype=float).reshape(3, 4, 2)
    w = output_to_matrix(o)
    assert w.shape == (3, 4)
    assert w[2, 1] == o[2, 1, 0] + 1j * o[2, 1, 1]
    # a contiguous output is viewed, not copied; any other is read as well
    assert np.shares_memory(w, o)
    strided = np.arange(5 * 4 * 3, dtype=float).reshape(5, 4, 3)[::2, :, 1:]
    assert np.array_equal(output_to_matrix(strided),
                          strided[..., 0] + 1j * strided[..., 1])


def test_hclnet_parameter_layout(cfg):
    net = HCLNet(cfg)
    assert net.n_params == 53772
    assert net.hidden == LSTM_HIDDEN == 64
    # views alias the flat vector
    net.view("fc_b")[0] = 7.0
    assert 7.0 in net.params
    total = sum(net.view(n).size for n, _ in net._shapes)
    assert total == net.params.size


def test_hclnet_rejects_bad_width():
    with pytest.raises(ValueError):
        HCLNet(SimConfig(n_tx=12))


def test_init_deterministic(cfg):
    a, b = HCLNet(cfg), HCLNet(cfg)
    a.init_params(np.random.default_rng(0))
    b.init_params(np.random.default_rng(0))
    assert np.array_equal(a.params, b.params)
    # forget-gate bias block is +1, other biases zero
    h = a.hidden
    assert np.all(a.view("lstm_b")[h:2 * h] == 1.0)
    assert np.all(a.view("lstm_b")[:h] == 0.0)


def test_forward_shapes_and_kappa(cfg, rng):
    net = HCLNet(cfg, kappa=3.0)
    net.init_params(rng)
    x = rng.normal(size=(2, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    o = net.forward(x)
    assert o.shape == (2, cfg.n_vehicles, cfg.n_tx, 2)
    # kappa folds into the input: scaling x by 1/kappa with a kappa=1 net matches
    net1 = HCLNet(cfg, kappa=1.0)
    net1.params[:] = net.params
    assert np.allclose(net1.forward(3.0 * x), o)
    with pytest.raises(ValueError):
        net.forward(x[:, :-1])


def test_forward_composes_single_slice_blocks(cfg, rng):
    """The batched forward equals features() per slice (kappa applied
    there) + an LSTM step + FC."""
    net = HCLNet(cfg, kappa=1.7)
    net.init_params(rng)
    x = rng.normal(size=(1, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    o = net.forward(x)
    h = np.zeros(net.hidden)
    c = np.zeros(net.hidden)
    for t in range(cfg.history_len):
        feats = np.concatenate([
            net.features(x[0, t, k])
            for k in range(cfg.n_vehicles)])
        assert feats.shape == (net.feat,)
        h, c = _lstm_step(net, feats, h, c)
    out = (h @ net.view("fc_w") + net.view("fc_b")).reshape(
        cfg.n_vehicles, cfg.n_tx, 2)
    assert np.allclose(out, o[0], rtol=1e-10, atol=1e-12)


def test_pool_then_relu_matches_relu_then_pool(cfg, rng, monkeypatch):
    """HCLNet.forward pools the raw conv output and rectifies the maxima.
    A reference that rectifies first, pools with plain
    loops and routes the gradient through ReLU'(z) after the pool gives the
    same output bit for bit and the same gradient to 1e-14, on a batch with
    all-negative windows, windows of exact zeros and ties.  So does the
    inference forward, whose pool takes the window maxima alone."""
    net = HCLNet(cfg)
    net.init_params(rng)
    # filter 0 is negative everywhere; on the zeroed vehicle, filter 1 is
    # exactly 0 and filter 2 is one positive constant (four-way ties)
    net.view("conv_b")[:] = [-50.0, 0.0, 0.3, 0.1]
    x = rng.normal(size=(3, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    x[:, :, 0] = 0.0
    g = rng.normal(size=(3, cfg.n_vehicles, cfg.n_tx, 2))
    o, cache = net.forward(x, want_cache=True)
    grad = net.backward(g, cache)
    assert net.forward(x).tobytes() == o.tobytes()

    seen = {}

    def relu_then_pool(z):
        seen["z"] = z
        return loop_maxpool2x2(z * (z > 0))

    def loop_pool_bwd(idx, gy, shape):
        gr = np.zeros(shape)
        for n, i, j, ch in np.ndindex(gy.shape):
            q = idx[n, i, j, ch]
            gr[n, 2 * i + q // 2, 2 * j + q % 2, ch] = gy[n, i, j, ch]
        return gr * (seen["z"] > 0)

    monkeypatch.setattr(kernels, "maxpool2x2_fwd", relu_then_pool)
    monkeypatch.setattr(kernels, "maxpool2x2_bwd", loop_pool_bwd)
    o_ref, cache_ref = net.forward(x, want_cache=True)
    grad_ref = net.backward(g, cache_ref)
    z = seen["z"]
    assert np.all(z[..., 0] < 0) and np.any(z[..., 1] == 0)
    # the two orders pick different entries of non-positive windows
    assert np.any(cache["idx"] != cache_ref["idx"])
    assert o.tobytes() == o_ref.tobytes()
    off = 0
    for name, shape in net._shapes:
        size = int(np.prod(shape))
        a, b = grad[off:off + size], grad_ref[off:off + size]
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name
        off += size


def test_single_slice_validation(cfg, rng):
    net = HCLNet(cfg)
    net.init_params(rng)
    with pytest.raises(ValueError):
        net.features(np.zeros((cfg.n_tx, 3)))


def test_hclnet_backward_matches_fd(small_cfg, rng):
    net = HCLNet(small_cfg)
    net.init_params(rng)
    x = rng.normal(size=(3, small_cfg.history_len, small_cfg.n_vehicles,
                         small_cfg.n_tx, 2))
    g = rng.normal(size=(3, small_cfg.n_vehicles, small_cfg.n_tx, 2))
    o, cache = net.forward(x, want_cache=True)
    grad = net.backward(g, cache)
    assert grad.shape == net.params.shape

    def loss(p):
        net.params[:] = p
        return float((net.forward(x) * g).sum())

    idx = rng.choice(net.n_params, size=60, replace=False)
    fd = fd_grad(loss, net.params.copy(), idx, eps=1e-6)
    err = np.abs(grad[idx] - fd) / np.maximum(np.abs(fd), 1e-8)
    assert err.max() < 1e-4


def test_predict_and_projection(cfg, rng):
    """predict gives [K, N_t] beams, which the harness projects onto the
    power budget."""
    net = HCLNet(cfg)
    net.init_params(rng)
    net.view("fc_b")[:] = 1.0     # beams far above the budget
    w = net.predict(_window(cfg, rng))
    assert w.shape == (cfg.n_vehicles, cfg.n_tx)
    assert np.sum(np.abs(w) ** 2) > cfg.power_budget
    wp = project_power(w, cfg.power_budget)
    assert np.sum(np.abs(wp) ** 2) <= cfg.power_budget * (1 + 1e-12)


def _forward_beams(net, window):
    """The beams of the batched forward on one [tau, K, M] complex window."""
    x = np.stack((window.real, window.imag), axis=-1)[None]
    return output_to_matrix(net.forward(x)[0])


def test_stream_matches_forward_on_every_window(cfg, rng):
    """push() returns None until tau rows are in, then at each slot exactly
    the beams of forward() on the window of the last tau rows.  The rows
    open with zero pre-history rows, whose CNN features are not zero under
    a positive conv bias, and hold a carried row (a vehicle's row repeated
    from the slot before)."""
    net = HCLNet(cfg, kappa=1.3)
    net.init_params(rng)
    net.view("conv_b")[:] = [0.2, -0.1, 0.05, 0.3]
    tau, k, m = cfg.history_len, cfg.n_vehicles, cfg.n_tx
    assert np.any(net.features(np.zeros((k, m, 2))) != 0)
    rows = rng.normal(size=(12, k, m)) + 1j * rng.normal(size=(12, k, m))
    rows[:tau - 2] = 0.0
    rows[7, 1] = rows[6, 1]
    stream = net.stream()
    for n, row in enumerate(rows):
        w = stream.push(row)
        if n < tau - 1:
            assert w is None
            continue
        want = _forward_beams(net, rows[n - tau + 1:n + 1])
        assert np.array_equal(w, want), n
    with pytest.raises(ValueError):
        net.stream().push(rows[0, :, :-1])


@pytest.mark.parametrize("tau", [1, 2, 5])
def test_stream_windows_in_flight(cfg, rng, tau):
    """With tau windows in flight, push() returns None for the first
    tau - 1 slots and then, at every slot, exactly the beams of the batch-1
    forward() on that slot's window, a carried row (a vehicle's row
    repeated from the slot before) included; predict() on the window gives
    them too."""
    cfg = cfg.replace(history_len=tau)
    net = HCLNet(cfg, kappa=1.3)
    net.init_params(rng)
    k, m = cfg.n_vehicles, cfg.n_tx
    n = 3 * tau + 2
    rows = rng.normal(size=(n, k, m)) + 1j * rng.normal(size=(n, k, m))
    rows[tau, 1] = rows[tau - 1, 1]
    stream = net.stream()
    for s, row in enumerate(rows):
        w = stream.push(row)
        if s < tau - 1:
            assert w is None
            continue
        window = rows[s - tau + 1:s + 1]
        want = _forward_beams(net, window)
        assert np.array_equal(w, want), s
        assert np.array_equal(net.predict(window), want), s


@pytest.mark.parametrize("n_real", [1, 3, 64])
def test_lockstep_stream_matches_forward(cfg, rng, n_real):
    """A stream of R episodes in lockstep, pushed [R, K, M] rows, returns
    at every slot from the tau-th on exactly the [R, K, N_t] beams of the
    batched forward() on the R episodes' windows, bit for bit.  The rows
    open with zero pre-history rows and hold carried rows, in one episode
    only; rows of another shape are refused."""
    net = HCLNet(cfg, kappa=1.3)
    net.init_params(rng)
    net.view("conv_b")[:] = [0.2, -0.1, 0.05, 0.3]
    tau, k, m = cfg.history_len, cfg.n_vehicles, cfg.n_tx
    n = tau + 6
    rows = rng.normal(size=(n, n_real, k, m)) \
        + 1j * rng.normal(size=(n, n_real, k, m))
    rows[:tau - 2] = 0.0
    rows[tau + 1:, n_real // 2, 1] = rows[tau, n_real // 2, 1]
    stream = net.stream((n_real,))
    with np.errstate(over="ignore"):
        for s, row in enumerate(rows):
            w = stream.push(row)
            if s < tau - 1:
                assert w is None
                continue
            window = rows[s - tau + 1:s + 1].swapaxes(0, 1)
            x = np.stack((window.real, window.imag), axis=-1)
            assert np.array_equal(w, output_to_matrix(net.forward(x))), s
    for bad in (rows[0, 0], rows[0, :, :-1], rows[:2, 0]):
        with pytest.raises(ValueError):
            net.stream((n_real,)).push(bad)


@pytest.mark.parametrize("tau", [1, 2])
def test_lockstep_stream_short_windows(cfg, rng, tau):
    """At R = 2 and tau = 1 or 2 the age-ordered ring holds fewer than tau
    live windows only at the first push (tau = 2), or never carries a
    window (tau = 1).  From the tau-th slot on, push() returns exactly the
    [2, K, N_t] beams of the batched forward() on the two episodes'
    windows, a carried row in one episode included."""
    cfg = cfg.replace(history_len=tau)
    net = HCLNet(cfg, kappa=1.3)
    net.init_params(rng)
    net.view("conv_b")[:] = [0.2, -0.1, 0.05, 0.3]
    k, m, n = cfg.n_vehicles, cfg.n_tx, 3 * tau + 3
    rows = rng.normal(size=(n, 2, k, m)) + 1j * rng.normal(size=(n, 2, k, m))
    rows[tau, 1, 0] = rows[tau - 1, 1, 0]
    stream = net.stream((2,))
    with np.errstate(over="ignore"):
        for s, row in enumerate(rows):
            w = stream.push(row)
            if s < tau - 1:
                assert w is None
                continue
            window = rows[s - tau + 1:s + 1].swapaxes(0, 1)
            x = np.stack((window.real, window.imag), axis=-1)
            assert np.array_equal(w, output_to_matrix(net.forward(x))), s


def test_stream_beams_are_not_aliased(cfg, rng):
    """The beams one push() returns are the caller's: later pushes leave
    them as they were, and writing into them changes no later beams."""
    net = HCLNet(cfg, kappa=1.3)
    net.init_params(rng)
    tau, k, m = cfg.history_len, cfg.n_vehicles, cfg.n_tx
    n = tau + 4
    rows = rng.normal(size=(n, 2, k, m)) + 1j * rng.normal(size=(n, 2, k, m))
    kept, overwritten = [], []
    untouched, written = net.stream((2,)), net.stream((2,))
    with np.errstate(over="ignore"):
        for row in rows:
            w = untouched.push(row)
            if w is not None:
                kept.append((w, w.copy()))
            w = written.push(row)
            if w is not None:
                overwritten.append(w.copy())
                w[...] = np.nan
    assert len(kept) == n - tau + 1
    for (w, copy), other in zip(kept, overwritten):
        assert np.array_equal(w, copy)
        assert np.array_equal(other, copy)


def test_predict_sees_weights_changed_in_place(cfg, rng):
    """Each predict builds its conv matrix from the current filters, so an
    in-place weight update, as training makes, reaches the next call."""
    net = HCLNet(cfg)
    net.init_params(rng)
    hist = _window(cfg, rng)
    before = net.predict(hist)
    net.view("conv_w")[:] *= 1.5
    after = net.predict(hist)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, _forward_beams(net, hist))


def test_hclnet_save_load_roundtrip(cfg, rng, tmp_path):
    net = HCLNet(cfg, kappa=42.0)
    net.init_params(rng)
    path = str(tmp_path / "model.bin")
    net.save(path)
    back = load_model(path, cfg)
    assert isinstance(back, HCLNet) and back.kappa == 42.0
    assert np.array_equal(back.params, net.params)
    x = rng.normal(size=(1, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    assert np.allclose(back.forward(x), net.forward(x))


def test_naivenet_forward_backward(cfg, rng):
    net = NaiveNet(cfg)
    net.init_params(rng)
    th = rng.uniform(0.3, 1.2, size=(4, cfg.n_vehicles))
    d = rng.uniform(10, 60, size=(4, cfg.n_vehicles))
    x = net.features(th, d)
    assert x.shape == (4, 2 * cfg.n_vehicles)
    assert np.allclose(x[:, cfg.n_vehicles:], d / 100.0)
    o, cache = net.forward(x, want_cache=True)
    assert o.shape == (4, cfg.n_vehicles, cfg.n_tx, 2)
    g = rng.normal(size=o.shape)
    grad = net.backward(g, cache)

    def loss(p):
        net.params[:] = p
        return float((net.forward(x) * g).sum())

    idx = rng.choice(net.n_params, size=50, replace=False)
    fd = fd_grad(loss, net.params.copy(), idx, eps=1e-6)
    err = np.abs(grad[idx] - fd) / np.maximum(np.abs(fd), 1e-8)
    assert err.max() < 1e-4


def test_load_model_dispatch(cfg, rng, tmp_path):
    hcl = HCLNet(cfg)
    hcl.init_params(rng)
    naive = NaiveNet(cfg)
    naive.init_params(rng)
    ph, pn = str(tmp_path / "h.bin"), str(tmp_path / "n.bin")
    hcl.save(ph)
    naive.save(pn)
    assert isinstance(load_model(ph, cfg), HCLNet)
    assert isinstance(load_model(pn, cfg), NaiveNet)
    # a shape-critical field of the run differs from the saved config
    for field, value in (("n_tx", 16), ("n_vehicles", 2), ("history_len", 3)):
        for path in (ph, pn):
            with pytest.raises(ValueError, match=field):
                load_model(path, cfg.replace(**{field: value}))


def test_load_model_refuses_non_finite(small_cfg, rng, tmp_path):
    """A model file whose parameters or kappa are not finite is a
    ValueError naming the file."""
    for name, net, bad in (("p.bin", NaiveNet(small_cfg), "param"),
                           ("k.bin", HCLNet(small_cfg), "kappa")):
        net.init_params(rng)
        if bad == "param":
            net.params[7] = np.nan
        else:
            net.kappa = np.inf
        path = str(tmp_path / name)
        net.save(path)
        with pytest.raises(ValueError, match="non-finite") as err:
            load_model(path, small_cfg)
        assert path in str(err.value)


def test_conv_filter_count():
    assert CONV_FILTERS == 4
