import numpy as np
import pytest

from isacbf.nn.loss import build_geometry
from isacbf.nn.model import HCLNet
from isacbf.nn.train import TrainHyper, TrainingDiverged, train


def _problem(small_cfg, rng, ne=8):
    k, m, tau = small_cfg.n_vehicles, small_cfg.n_tx, small_cfg.history_len
    th = rng.uniform(0.4, 1.2, size=(ne, k))
    d = rng.uniform(15, 60, size=(ne, k))
    geom = build_geometry(th, d, small_cfg)
    x = rng.normal(size=(ne, tau, k, m, 2))
    return x, geom


def _net(small_cfg, seed=0):
    net = HCLNet(small_cfg)
    net.init_params(np.random.default_rng(seed))
    return net


def test_train_reduces_loss(small_cfg, rng):
    x, geom = _problem(small_cfg, rng)
    net = _net(small_cfg)
    res = train(net, x, geom, small_cfg,
                TrainHyper(lr=1e-3, batch_size=100, max_iters=60))
    assert len(res.loss_trace) == 60
    assert res.loss_trace[-1] < res.loss_trace[0]


def test_train_deterministic(small_cfg, rng):
    x, geom = _problem(small_cfg, rng)
    hyper = TrainHyper(lr=1e-3, batch_size=4, max_iters=25, seed=3)
    n1, n2 = _net(small_cfg), _net(small_cfg)
    r1 = train(n1, x, geom, small_cfg, hyper)
    r2 = train(n2, x, geom, small_cfg, hyper)
    assert r1.loss_trace == r2.loss_trace
    assert np.array_equal(n1.params, n2.params)


def test_minibatches_cover_permutations(small_cfg, rng):
    """batch_size < n exercises the shuffled-minibatch path."""
    x, geom = _problem(small_cfg, rng, ne=10)
    net = _net(small_cfg)
    res = train(net, x, geom, small_cfg,
                TrainHyper(lr=1e-4, batch_size=3, max_iters=12))
    assert len(res.loss_trace) == 12


def test_grad_clipping_bounds_first_step(small_cfg, rng):
    x, geom = _problem(small_cfg, rng)
    net = _net(small_cfg)
    before = net.params.copy()
    hyper = TrainHyper(lr=1e-2, batch_size=100, max_iters=1,
                       max_grad_norm=1e-3, momentum=0.0)
    res = train(net, x, geom, small_cfg, hyper)
    step = np.linalg.norm(net.params - before)
    assert step <= hyper.lr * hyper.max_grad_norm * (1 + 1e-9)
    assert res.clipped == [True] and res.grad_norms[0] > hyper.max_grad_norm


def test_telemetry_per_iteration(small_cfg, rng):
    """Each iteration records its loss parts, its gradient norm before
    clipping and whether it clipped; a ceiling no norm reaches never clips."""
    x, geom = _problem(small_cfg, rng)
    net = _net(small_cfg)
    res = train(net, x, geom, small_cfg,
                TrainHyper(lr=1e-5, batch_size=4, max_iters=6,
                           max_grad_norm=1e300))
    assert res.clipped == [False] * 6
    assert len(res.grad_norms) == len(res.parts) == 6
    assert all(np.isfinite(g) and g > 0 for g in res.grad_norms)
    for j, parts in zip(res.loss_trace, res.parts):
        assert j == pytest.approx(-parts["rate"] + parts["pen_theta"]
                                  + parts["pen_d"] + parts["pen_power"],
                                  rel=1e-12)


class _RecordingNet(HCLNet):
    """An HCLNet that keeps a copy of every gradient it hands to train()."""

    def backward(self, g_out, cache):
        grad = super().backward(g_out, cache)
        self.grads.append(grad.copy())
        return grad


def test_update_is_the_textbook_momentum_step(small_cfg, rng):
    """train()'s in-place update gives the bits of v = m v - lr g; p += v
    with the clipped gradient, over several iterations."""
    x, geom = _problem(small_cfg, rng)
    net = _RecordingNet(small_cfg)
    net.init_params(np.random.default_rng(0))
    net.grads = []
    params = net.params.copy()
    hyper = TrainHyper(lr=1e-2, batch_size=4, max_iters=6)
    res = train(net, x, geom, small_cfg, hyper)
    assert any(res.clipped) and not all(res.clipped)
    velocity = np.zeros_like(params)
    for grad in net.grads:
        norm = np.linalg.norm(grad)
        if norm > hyper.max_grad_norm:
            grad = grad * (hyper.max_grad_norm / norm)
        velocity = hyper.momentum * velocity - hyper.lr * grad
        params += velocity
    assert np.array_equal(net.params, params)


def test_divergence_raises_with_trace(small_cfg, rng):
    x, geom = _problem(small_cfg, rng)
    net = _net(small_cfg)
    net.params[:] = np.nan
    with pytest.raises(TrainingDiverged) as exc:
        train(net, x, geom, small_cfg, TrainHyper(max_iters=5))
    assert exc.value.trace == []
    assert np.isnan(exc.value.parts["rate"])
