import numpy as np
import pytest

from isacbf.baselines import (genie_beamformer, genie_rate,
                              naive_dl_beamformer, random_beamformer)
from isacbf.channel import effective_channel, path_loss_amp, steering, sum_rate
from isacbf.kinematics import make_state, step_motion
from isacbf.nn.model import NaiveNet, output_to_matrix


def _states(cfg, seed=0):
    """The K vehicles of slot 0 of an episode."""
    return step_motion(cfg, [np.random.default_rng(seed)], 1).records()[0] \
        .records()[0]


def test_genie_beams_are_aligned(cfg):
    states = _states(cfg)
    w = genie_beamformer(steering(states.theta, cfg.n_tx), cfg)
    assert w.shape == (cfg.n_vehicles, cfg.n_tx)
    assert np.sum(np.abs(w) ** 2) == pytest.approx(cfg.power_budget, rel=1e-12)
    p = cfg.power_budget / cfg.n_vehicles
    for i, s in enumerate(states.records()):
        assert np.allclose(w[i], np.sqrt(p) * steering(s.theta, cfg.n_tx))


def test_genie_rate_closed_form_and_upper_bound(cfg):
    states = _states(cfg)
    p = cfg.power_budget / cfg.n_vehicles
    expect = sum(
        np.log2(1 + p * cfg.n_tx * path_loss_amp(s.dist, cfg) ** 2
                / cfg.noise_vehicle) for s in states.records())
    assert genie_rate(states, cfg) == pytest.approx(expect, rel=1e-12)
    # the interference-free bound dominates the realized rate of its own beams
    h = np.stack([effective_channel(s.dist, cfg, steering(s.theta, cfg.n_tx))
                  for s in states.records()])
    realized = sum_rate(h, genie_beamformer(steering(states.theta, cfg.n_tx),
                                            cfg), cfg.noise_vehicle)
    assert genie_rate(states, cfg) >= realized


def test_genie_rate_over_a_stack_of_slots(cfg):
    """[n, K] vehicle arrays of n slots give the n per-slot genie rates."""
    x = np.random.default_rng(0).uniform(-50.0, 50.0, size=(3, cfg.n_vehicles))
    stack = make_state(x, np.full_like(x, 20.0), np.full_like(x, 8.0))
    rates = genie_rate(stack, cfg)
    assert rates.shape == (3,)
    np.testing.assert_allclose(
        rates, [genie_rate(v, cfg) for v in stack.records()], rtol=1e-14)


def test_naive_dl_beamformer(cfg):
    net = NaiveNet(cfg)
    net.init_params(np.random.default_rng(0))
    th = np.array([0.9, 0.7, 0.5])
    dd = np.array([25.0, 35.0, 45.0])
    w = naive_dl_beamformer(th, dd, net, cfg)
    assert w.shape == (cfg.n_vehicles, cfg.n_tx)
    # matches a direct forward pass on the same features
    o = net.forward(net.features(th[None], dd[None]))
    assert np.allclose(w, output_to_matrix(o[0]))
    with pytest.raises(ValueError):
        naive_dl_beamformer(th, dd, None, cfg)


def test_random_beamformer(cfg):
    w1 = random_beamformer(cfg, np.random.default_rng(7), 1)[0]
    w2 = random_beamformer(cfg, np.random.default_rng(7), 1)[0]
    w3 = random_beamformer(cfg, np.random.default_rng(8), 1)[0]
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    assert np.sum(np.abs(w1) ** 2) == pytest.approx(cfg.power_budget, rel=1e-12)
    # each row is a scaled steering vector: constant modulus entries
    p = cfg.power_budget / cfg.n_vehicles
    assert np.allclose(np.abs(w1), np.sqrt(p / cfg.n_tx))
    # a block of slots is the per-slot draws in slot order
    block = random_beamformer(cfg, np.random.default_rng(7), 4)
    rng = np.random.default_rng(7)
    assert block.shape == (4, cfg.n_vehicles, cfg.n_tx)
    assert np.array_equal(block, [random_beamformer(cfg, rng, 1)[0]
                                  for _ in range(4)])
