"""Every beam producer gives C-contiguous [..., K, N_t] rows, row k vehicle
k's beam.  The layout is part of the result: an F-order or strided copy of
the same values reaches the vecdot and matmul kernels in another summation
order and gives other low bits of the rates and CRLBs."""
import numpy as np
import pytest

from isacbf import harness
from isacbf.baselines import (genie_beamformer, naive_dl_beamformer,
                              random_beamformer)
from isacbf.channel import steering
from isacbf.kinematics import init_vehicles, step_motion
from isacbf.nn.model import HCLNet, NaiveNet, output_to_matrix


def _rows(w, shape):
    """w itself, after asserting it is a C-contiguous array of that shape."""
    assert w.shape == shape
    assert w.flags.c_contiguous
    return w


def _output_rows(o):
    """Vehicle k's beam from a real [K, M, 2] network output, one row at a
    time."""
    return np.stack([o[k, :, 0] + 1j * o[k, :, 1] for k in range(len(o))])


def test_genie_beams_are_vehicle_rows(cfg):
    k, m = cfg.n_vehicles, cfg.n_tx
    p = cfg.power_budget / k
    rng = np.random.default_rng(0)
    slot = init_vehicles(cfg, rng)
    w = _rows(genie_beamformer(slot, cfg), (k, m))
    for i, theta in enumerate(slot.theta):
        assert np.array_equal(w[i], np.sqrt(p) * steering(theta, m))
    block = step_motion(slot, cfg, rng, 4)
    wb = _rows(genie_beamformer(block, cfg), (5, k, m))
    for n, v in enumerate(block.records()):
        assert np.array_equal(wb[n], genie_beamformer(v, cfg))


def test_random_beams_are_vehicle_rows(cfg):
    k, m = cfg.n_vehicles, cfg.n_tx
    p = cfg.power_budget / k
    w = _rows(random_beamformer(cfg, np.random.default_rng(7)), (k, m))
    thetas = np.random.default_rng(7).uniform(0.0, np.pi, size=k)
    for i, theta in enumerate(thetas):
        assert np.array_equal(w[i], np.sqrt(p) * steering(theta, m))
    block = _rows(random_beamformer(cfg, np.random.default_rng(7), 4),
                  (4, k, m))
    assert np.array_equal(block[0], w)


def test_output_to_matrix_gives_vehicle_rows(cfg, rng):
    k, m = cfg.n_vehicles, cfg.n_tx
    o = rng.normal(size=(5, k, m, 2))
    assert np.array_equal(_rows(output_to_matrix(o[2]), (k, m)),
                          _output_rows(o[2]))
    block = _rows(output_to_matrix(o), (5, k, m))
    assert np.array_equal(block, [_output_rows(b) for b in o])


def test_network_beams_are_vehicle_rows(cfg, rng):
    k, m = cfg.n_vehicles, cfg.n_tx
    naive = NaiveNet(cfg)
    naive.init_params(rng)
    th, dd = np.array([0.9, 0.7, 0.5]), np.array([25.0, 35.0, 45.0])
    o = naive.forward(naive.features(th[None], dd[None]))[0]
    assert np.array_equal(_rows(naive_dl_beamformer(th, dd, naive, cfg), (k, m)),
                          _output_rows(o))
    # an output layer scaled 10x overshoots the budget, so the harness's
    # projection scales it
    hcl = HCLNet(cfg)
    hcl.init_params(rng)
    hcl.view("fc_w")[:] *= 10.0
    shape = (cfg.history_len, k, m)
    hist = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    o = hcl.forward(np.stack((hist.real, hist.imag), axis=-1)[None])[0]
    w = _rows(hcl.predict(hist), (k, m))
    assert np.array_equal(w, _output_rows(o))
    wp = _rows(harness.project_power(w, cfg.power_budget), (k, m))
    assert np.sum(np.abs(w) ** 2) > cfg.power_budget
    np.testing.assert_allclose(wp, w * np.sqrt(
        cfg.power_budget / np.sum(np.abs(w) ** 2)), rtol=1e-15, atol=0)


@pytest.mark.parametrize("method", harness.METHODS)
def test_applied_beams_are_rows_in_memory(small_cfg, method):
    """The trace's [n_slots, N_t, K] w_applied is a view whose swapped axes
    are the C-contiguous beam rows the episode measured."""
    models = {"hcl": HCLNet(small_cfg), "naive_dl": NaiveNet(small_cfg)}
    for net in models.values():
        net.init_params(np.random.default_rng(0))
    trace = harness.run_episode(small_cfg, method, np.random.default_rng(1),
                                model=models.get(method))
    n, k, m = small_cfg.n_slots, small_cfg.n_vehicles, small_cfg.n_tx
    _rows(trace.w_applied.swapaxes(1, 2), (n, k, m))
