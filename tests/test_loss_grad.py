import numpy as np
import pytest

from helpers import echo_dtheta, fd_fim, sinr
from isacbf.channel import effective_channel, steering, steering_dtheta
from isacbf.kinematics import make_state
from isacbf.nn import loss
from isacbf.nn.loss import (CAP_FACTOR, build_geometry, gradient, penalty_loss,
                            penalty_loss_and_grad)
from isacbf.nn.model import HCLNet, output_to_matrix
from isacbf.sensing import EchoConstants, crlbs


def _geometry(cfg, rng, ne=4):
    """Random true (theta, d) of ne examples, their channels built one
    vehicle at a time, and their build_geometry."""
    k = cfg.n_vehicles
    th = rng.uniform(0.4, 1.2, size=(ne, k))
    d = rng.uniform(15, 60, size=(ne, k))
    h = np.stack([[effective_channel(d[i, j], cfg,
                                     steering(th[i, j], cfg.n_tx))
                   for j in range(k)] for i in range(ne)])
    return h, th, d, build_geometry(th, d, cfg)


def _tight(cfg):
    """cfg with inflated noise, tight thresholds and a low budget, so every
    penalty fires with magnitude comparable to the rate term."""
    return cfg.replace(gamma_theta=1e-6, gamma_d=1e-3, power_budget=0.05,
                       sigma_r2=1e4, rho_nu=0.1,
                       lambda_theta=1e3, lambda_d=1e-3, lambda_power=1.0)


def _state(theta, dist):
    return make_state(dist * np.cos(theta), dist * np.sin(theta), 8.0)


def test_build_geometry_constants(cfg, rng):
    """The loss's per-example constants give the CRLBs of the explicit echo
    derivative (angle) and of the delay measurement model (distance)."""
    _, th, d, geom = _geometry(cfg, rng, ne=2)
    i, j = 1, 2
    w = rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)
    echo = EchoConstants(*(c[i, j] for c in geom.echo))
    ap = steering_dtheta(th[i, j], cfg.n_tx, steering(th[i, j], cfg.n_tx))
    ct, cd = crlbs(np.vdot(geom.a[i, j], w), np.vdot(ap, w), echo,
                   cfg.echo_noise_var)
    dr = echo_dtheta(th[i, j], d[i, j], w, cfg)
    assert ct == pytest.approx(cfg.echo_noise_var / np.vdot(dr, dr).real,
                               rel=1e-12)
    assert cd == pytest.approx(1.0 / fd_fim(_state(th[i, j], d[i, j]), w,
                                            cfg)[1, 1], rel=1e-12)
    beta2 = abs(cfg.rcs_coeff) ** 2 / (2 * d[i, j]) ** 2
    assert echo.c1sq == pytest.approx(
        cfg.n_tx * cfg.n_rx * beta2 * cfg.mf_gain ** 2, rel=1e-12)


def test_loss_rate_term_matches_sum_rate(cfg, rng):
    h, th, d, geom = _geometry(cfg, rng)
    o = rng.normal(size=(4, cfg.n_vehicles, cfg.n_tx, 2)) * 0.1
    j, parts = penalty_loss_and_grad(o, geom, cfg, want_grad=False)
    expect = np.mean([
        sum(np.log2(1.0 + sinr(h[i, k], output_to_matrix(o[i]), k,
                               cfg.noise_vehicle))
            for k in range(cfg.n_vehicles))
        for i in range(4)])
    assert parts["rate"] == pytest.approx(expect, rel=1e-10)


def test_loss_crlbs_match_fisher_information(cfg, rng):
    """The loss's mean CRLBs against the independent numeric FIM oracle."""
    h, th, d, geom = _geometry(cfg, rng, ne=3)
    o = rng.normal(size=(3, cfg.n_vehicles, cfg.n_tx, 2)) * 0.3
    _, parts = penalty_loss_and_grad(o, geom, cfg, want_grad=False)
    ct, cd = [], []
    for i in range(3):
        w = output_to_matrix(o[i])
        for k in range(cfg.n_vehicles):
            f = fd_fim(_state(th[i, k], d[i, k]), w[k], cfg)
            ct.append(1.0 / f[0, 0])
            cd.append(1.0 / f[1, 1])
    # the angle oracle is a central difference (error ~1e-8, criterion 2)
    assert parts["crlb_theta_mean"] == pytest.approx(np.mean(ct), rel=1e-7)
    assert parts["crlb_d_mean"] == pytest.approx(np.mean(cd), rel=1e-12)


def test_loss_gradient_wrt_output_fd(cfg, rng):
    """dJ/dO against finite differences with every penalty term active."""
    tight = _tight(cfg)
    h, th, d, geom = _geometry(tight, rng)
    o = rng.normal(size=(4, tight.n_vehicles, tight.n_tx, 2)) * 0.2
    o_before = o.copy()
    j, parts, g = penalty_loss_and_grad(o, geom, tight)
    assert parts["pen_theta"] > 0 and parts["pen_d"] > 0 and parts["pen_power"] > 0
    # the loss reads o through a view and returns dJ/dO in memory of its own
    assert np.array_equal(o, o_before) and not np.shares_memory(g, o)
    flat = o.ravel()
    eps = 1e-6
    idx = rng.choice(flat.size, size=60, replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        jp, _ = penalty_loss_and_grad(o, geom, tight, want_grad=False)
        flat[i] = orig - eps
        jm, _ = penalty_loss_and_grad(o, geom, tight, want_grad=False)
        flat[i] = orig
        fd = (jp - jm) / (2 * eps)
        assert g.ravel()[i] == pytest.approx(fd, rel=2e-4, abs=1e-9)


def test_zero_beams_hit_cap_finite_loss(cfg):
    th = np.full((2, cfg.n_vehicles), 0.9)
    d = np.full((2, cfg.n_vehicles), 25.0)
    geom = build_geometry(th, d, cfg)
    o = np.zeros((2, cfg.n_vehicles, cfg.n_tx, 2))
    j, parts, g = penalty_loss_and_grad(o, geom, cfg)
    assert np.isfinite(j)
    assert parts["crlb_theta_mean"] == pytest.approx(CAP_FACTOR * cfg.gamma_theta)
    assert parts["crlb_d_mean"] == pytest.approx(CAP_FACTOR * cfg.gamma_d)
    # clamped CRLB terms contribute no gradient; all other terms vanish at 0
    assert np.all(g == 0.0)


def test_power_penalty_only_above_budget(cfg, rng):
    h, th, d, geom = _geometry(cfg, rng, ne=1)
    o = np.zeros((1, cfg.n_vehicles, cfg.n_tx, 2))
    o[0, 0, 0, 0] = np.sqrt(cfg.power_budget * 0.5)
    _, parts = penalty_loss_and_grad(o, geom, cfg, want_grad=False)
    assert parts["pen_power"] == 0.0
    o[0, 0, 0, 0] = np.sqrt(cfg.power_budget * 4.0)
    _, parts = penalty_loss_and_grad(o, geom, cfg, want_grad=False)
    expect = cfg.lambda_power * (3.0 * cfg.power_budget) ** 2
    assert parts["pen_power"] == pytest.approx(expect, rel=1e-10)


def test_model_gradient_wrapper(small_cfg, rng):
    net = HCLNet(small_cfg)
    net.init_params(rng)
    k, m, tau = small_cfg.n_vehicles, small_cfg.n_tx, small_cfg.history_len
    th = rng.uniform(0.4, 1.2, size=(3, k))
    d = rng.uniform(15, 60, size=(3, k))
    geom = build_geometry(th, d, small_cfg)
    x = rng.normal(size=(3, tau, k, m, 2))
    j0, parts = penalty_loss(net, x, geom, small_cfg)
    j1, _, grad = gradient(net, x, geom, small_cfg)
    assert j1 == pytest.approx(j0)
    assert grad.shape == net.params.shape and np.all(np.isfinite(grad))
    # non-finite parameters surface as an error, not silent NaN gradients
    net.params[:] = np.nan
    with pytest.raises(FloatingPointError):
        gradient(net, x, geom, small_cfg)


def test_geometry_subset(cfg, rng):
    h, th, d, geom = _geometry(cfg, rng, ne=5)
    sub = geom.subset(np.array([0, 3]))
    assert len(sub) == 2
    for name in ("theta", "dist", "a"):
        assert np.array_equal(getattr(sub, name)[1], getattr(geom, name)[3])
    assert np.array_equal(sub.echo.c_dist[1], geom.echo.c_dist[3])


def test_loss_forms_channels_elementwise(cfg, rng, monkeypatch):
    """penalty_loss_and_grad on build_geometry(theta, d), and on a subset
    of it, gives byte for byte the loss, parts and gradient it gives when
    the channels h and the steering derivatives a' are built example by
    example by effective_channel and steering_dtheta, each from its own
    steering: h and a' formed from a geometry, or from any subset of it,
    carry the bits of per-example channels.  Every penalty fires."""
    tight = _tight(cfg)
    _, th, d, geom = _geometry(tight, rng, ne=6)
    a = [steering(th[i], tight.n_tx) for i in range(6)]
    h = np.stack([effective_channel(d[i], tight, a[i])
                  for i in range(6)])
    ap = np.stack([steering_dtheta(th[i], tight.n_tx, a[i])
                   for i in range(6)])
    o = rng.normal(size=(6, tight.n_vehicles, tight.n_tx, 2)) * 0.2
    idx = np.array([4, 1, 1, 5])
    cases = ((geom, np.arange(6)), (geom.subset(idx), idx))
    want = [penalty_loss_and_grad(o[i], g, tight) for g, i in cases]
    assert want[0][1]["pen_theta"] > 0 and want[0][1]["pen_d"] > 0
    for (g, i), (j, parts, g_o) in zip(cases, want):
        monkeypatch.setattr(loss, "effective_channel", lambda *_: h[i])
        monkeypatch.setattr(loss, "steering_dtheta", lambda *_: ap[i])
        j_ref, parts_ref, g_ref = penalty_loss_and_grad(o[i], g, tight)
        assert j.hex() == j_ref.hex()
        assert {k: v.hex() for k, v in parts.items()} == \
            {k: v.hex() for k, v in parts_ref.items()}
        assert g_o.tobytes() == g_ref.tobytes()
