import math

import numpy as np
import pytest

from helpers import echo_dtheta, fd_fim
from isacbf.config import SimConfig
from isacbf.channel import steering
from isacbf.kinematics import make_state, step_motion
from isacbf.sensing import (angle_estimates, build_geometry, echo_mean,
                            fisher_information, generate_observation,
                            observation_noise, observe, reflection_coeff)

# frozen oracle values at the 25 m geometry (state at x=15, y=20) with an
# aligned unit-norm beam and default constants
SIGMA_NU2_25 = 4.8828125e-26


def _state_25(v=8.0):
    return make_state(15.0, 20.0, v)


def _vehicles_25(k=3, v=8.0):
    """K vehicles at the 25 m geometry, as [K] arrays."""
    return make_state(np.full(k, 15.0), np.full(k, 20.0), np.full(k, v))


def _geom(vehicles, config):
    """The vehicles' true geometry under config."""
    return build_geometry(vehicles.theta, vehicles.dist, config)


def _noise(vehicles, seed):
    """The standard-normal observation block of the vehicles, from seed."""
    return observation_noise(np.random.default_rng(seed),
                             np.shape(vehicles.theta))


def _delay_var(vehicles, W, config):
    """The delay variance sigma_nu^2 of beams W toward the vehicles, read
    from CRLB_d = (c/2)^2 sigma_nu^2."""
    crlb_d = fisher_information(vehicles, W, config).crlb_d
    return crlb_d / (config.wave_speed / 2.0) ** 2


def _beam_gain(state, w):
    """|a^H w|^2 toward the 25 m vehicle: sigma_nu^2 = SIGMA_NU2_25 /
    |a^H w|^2."""
    return SIGMA_NU2_25 / _delay_var(state, w, SimConfig())


def test_reflection_coeff(cfg):
    assert reflection_coeff(25.0, cfg) == pytest.approx(0.2 + 0.2j)
    with pytest.raises(ValueError):
        reflection_coeff(0.0, cfg)


def test_beam_gain_aligned_and_orthogonal(cfg):
    s = _state_25()
    a = steering(s.theta, cfg.n_tx)
    assert _beam_gain(s, a) == pytest.approx(1.0, rel=1e-12)
    assert _beam_gain(s, 3.0 * a) == pytest.approx(9.0, rel=1e-12)
    # a beam aimed elsewhere leaves almost no gain toward the vehicle
    assert _beam_gain(s, steering(s.theta + 0.5, cfg.n_tx)) < 0.01


def test_delay_variance_frozen(cfg):
    s = _state_25()
    w = steering(s.theta, cfg.n_tx)
    info = fisher_information(s, w, cfg)
    assert math.isfinite(info.crlb_theta)
    assert cfg.echo_noise_var == pytest.approx(1e-10)
    assert _delay_var(s, w, cfg) == pytest.approx(SIGMA_NU2_25, rel=1e-12)


def test_delay_variance_scaling(cfg):
    s = _state_25()
    w = 2.0 * steering(s.theta, cfg.n_tx)     # 4x gain -> variances / 4
    assert _delay_var(s, w, cfg) == pytest.approx(SIGMA_NU2_25 / 4.0,
                                                  rel=1e-12)
    # K vehicles with the rows of one beam matrix: one entry each
    v = _vehicles_25()
    W = np.stack([steering(s.theta, cfg.n_tx) * g for g in (1.0, 2.0, 4.0)])
    assert _delay_var(v, W, cfg) == pytest.approx(
        SIGMA_NU2_25 / np.array([1.0, 4.0, 16.0]), rel=1e-12)


def test_zero_beam_is_unobservable(cfg):
    s = _state_25()
    w = np.zeros(cfg.n_tx, dtype=complex)
    ob = generate_observation(_geom(s, cfg), w, cfg, _noise(s, 0))
    assert not ob.usable
    assert math.isinf(ob.d_hat)               # infinite CRLB_d
    info = fisher_information(s, w, cfg)
    assert math.isinf(info.crlb_theta) and math.isinf(info.crlb_d)
    assert np.array_equal(info.f, np.zeros((2, 2)))   # no information
    # one zeroed row among aimed ones: only that vehicle is unusable
    v = _vehicles_25()
    W = np.repeat(steering(s.theta, cfg.n_tx)[None], 3, axis=0)
    W[1] = 0.0
    ob = generate_observation(_geom(v, cfg), W, cfg, _noise(v, 0))
    assert ob.usable.tolist() == [True, False, True]
    info = fisher_information(v, W, cfg)
    assert np.isinf(info.crlb_theta).tolist() == [False, True, False]
    assert np.isinf(info.crlb_d).tolist() == [False, True, False]


def test_observation_noiseless_recovery():
    cfg = SimConfig(rho_nu=0.0, obs_rel_mse=0.0)
    v = step_motion(cfg, [np.random.default_rng(1)], 1).records()[0] \
        .records()[0]
    W = steering(v.theta, cfg.n_tx)
    ob = generate_observation(_geom(v, cfg), W, cfg, _noise(v, 0))
    assert ob.usable.all()
    assert ob.d_hat == pytest.approx(v.dist, rel=1e-12)
    assert ob.theta_hat == pytest.approx(v.theta, rel=1e-12)


def test_observation_modes(cfg):
    v = _vehicles_25()
    W = np.repeat(steering(v.theta[0], cfg.n_tx)[None], 3, axis=0)
    rng = np.random.default_rng(0)
    geom = _geom(v, cfg)
    ob_rel = generate_observation(geom, W, cfg.replace(theta_mode="relative"),
                                  observation_noise(rng, (3,)))
    ob_crlb = generate_observation(geom, W, cfg.replace(theta_mode="crlb"),
                                   observation_noise(rng, (3,)))
    assert ob_rel.usable.all() and ob_crlb.usable.all()
    # crlb-mode angle noise is tiny at these SNRs; relative mode is ~10% rms
    assert np.all(np.abs(ob_crlb.theta_hat - v.theta) < 1e-4)


def test_crlb_mode_angle_noise_is_the_fisher_crlb(cfg):
    """d_hat = d + sqrt(CRLB_d) * z[..., 0] in both theta modes, and in crlb
    mode theta_hat = theta + sqrt(CRLB_theta) * z[..., 1], with the CRLBs
    those of fisher_information and z the slot's noise block, for one slot's
    [K] vehicles and a stack of slots alike."""
    rng = np.random.default_rng(2)
    v = step_motion(cfg, [rng], 1).records()[0].records()[0]
    W = steering(v.theta + rng.normal(0.0, 0.05, 3), cfg.n_tx)
    # two slots: the same vehicles, then with the beams of the first two
    # vehicles swapped
    vs = make_state(*(np.stack((f, f)) for f in (v.x, v.y, v.v)))
    Ws = np.stack((W, W[[1, 0, 2]]))
    for mode in ("relative", "crlb"):
        config = cfg.replace(theta_mode=mode)
        for vehicles, beams in ((v, W), (vs, Ws)):
            z = _noise(vehicles, 9)
            ob = generate_observation(_geom(vehicles, config), beams, config,
                                      z)
            info = fisher_information(vehicles, beams, config)
            np.testing.assert_allclose(
                ob.d_hat, vehicles.dist + np.sqrt(info.crlb_d) * z[..., 0],
                rtol=1e-15, atol=0)
            if mode == "crlb":
                np.testing.assert_allclose(
                    ob.theta_hat,
                    vehicles.theta + np.sqrt(info.crlb_theta) * z[..., 1],
                    rtol=1e-15, atol=0)


def test_observation_statistics(cfg):
    """Distance estimates of 20000 vehicles in one call: unbiased, with the
    delay variance of the noise model mapped through d = c*nu/2."""
    n = 20000
    v = _vehicles_25(k=n)
    W = np.repeat(steering(v.theta[0], cfg.n_tx)[None], n, axis=0)
    ob = generate_observation(_geom(v, cfg), W, cfg, _noise(v, 42))
    sigma2 = SIGMA_NU2_25 * cfg.wave_speed ** 2 / 4.0
    assert ob.d_hat.mean() == pytest.approx(25.0, abs=4 * math.sqrt(sigma2 / n))
    assert ob.d_hat.var(ddof=1) / sigma2 == pytest.approx(1.0, abs=0.05)


def test_echo_mean_formula(cfg, rng):
    s = _state_25()
    w = rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)
    r = echo_mean(s.theta, s.dist, w, cfg)
    a = steering(s.theta, cfg.n_tx)
    b = steering(s.theta, cfg.n_rx)
    expect = (math.sqrt(cfg.n_tx * cfg.n_rx) * (0.2 + 0.2j) * cfg.mf_gain
              * b * (a.conj() @ w))
    assert np.allclose(r, expect, rtol=1e-12)


def test_echo_dtheta_matches_fd(cfg, rng):
    s = _state_25()
    w = rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)
    eps = 1e-7
    fd = (echo_mean(s.theta + eps, s.dist, w, cfg)
          - echo_mean(s.theta - eps, s.dist, w, cfg)) / (2 * eps)
    an = echo_dtheta(s.theta, s.dist, w, cfg)
    assert np.allclose(an, fd, rtol=1e-6, atol=1e-9 * np.abs(an).max())


def test_fisher_information_vs_fd_oracle(cfg, rng):
    for _ in range(20):
        x = rng.uniform(5, 80)
        y = rng.uniform(5, 40)
        s = make_state(x, y, rng.uniform(8, 8.25))
        w = rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)
        info = fisher_information(s, w, cfg)
        f_ref = fd_fim(s, w, cfg)
        assert np.allclose(info.f, f_ref, rtol=1e-5)
        assert info.crlb_theta == pytest.approx(1.0 / f_ref[0, 0], rel=1e-5)
        # distance CRLB equals the delay variance mapped through d = c*nu/2:
        # a unit distance draw moves the distance estimate by sqrt(CRLB_d)
        ob = generate_observation(_geom(s, cfg), w, cfg,
                                  np.array([1.0, 0.0]))
        assert ob.d_hat - s.dist == pytest.approx(math.sqrt(info.crlb_d),
                                                  rel=1e-6)
        # FIM structure: diagonal with non-negative entries
        off = info.f - np.diag(np.diag(info.f))
        assert np.all(off == 0.0) and np.all(np.diag(info.f) >= 0.0)


def test_fisher_information_takes_callers_steering(cfg):
    """fisher_information of the vehicles' geometry (build_geometry of the
    vehicles, which holds their steering vectors) gives the bits of
    fisher_information of the vehicles' states, which builds that geometry
    itself, for [n, K] vehicles, and so does a geometry's subset for the
    vehicles it covers."""
    rng = np.random.default_rng(4)
    v = make_state(rng.uniform(5, 80, (4, 3)), rng.uniform(5, 40, (4, 3)),
                   np.full((4, 3), 8.0))
    W = steering(v.theta + rng.normal(0.0, 0.05, (4, 3)), cfg.n_tx)
    W[1, 2] = 0.0
    own = fisher_information(v, W, cfg)
    geom = build_geometry(v.theta, v.dist, cfg)
    given = fisher_information(geom, W, cfg)
    assert np.isinf(own.crlb_theta[1, 2])
    sub = fisher_information(geom.subset(np.s_[1:3]), W[1:3], cfg)
    for field in ("crlb_theta", "crlb_d"):
        assert getattr(own, field).tobytes() == \
            getattr(given, field).tobytes()
        assert getattr(own, field)[1:3].tobytes() == \
            getattr(sub, field).tobytes()


def test_crlb_d_frozen_value(cfg):
    # rho_nu chosen so sigma_nu2 = 4e-17 at the 25 m aligned-unit-beam
    # geometry, giving crlb_d = sigma_nu2 * c^2 / 4 = 0.9 exactly
    cfg2 = cfg.replace(rho_nu=math.sqrt(3.2768e-3))
    s = _state_25()
    w = steering(s.theta, cfg.n_tx)
    info = fisher_information(s, w, cfg2)
    assert info.crlb_d == pytest.approx(0.9, rel=1e-10)


def test_sigma_r2_override_feeds_crlb_theta(cfg):
    s = _state_25()
    w = steering(s.theta, cfg.n_tx)
    base = fisher_information(s, w, cfg)
    scaled = fisher_information(s, w, cfg.replace(sigma_r2=4e-10))
    assert scaled.crlb_theta == pytest.approx(4.0 * base.crlb_theta, rel=1e-12)


def test_noise_block_is_the_per_slot_stream(cfg):
    """One (n, K) noise draw equals n successive (K,) draws from the same
    generator, and an observation of [n, K] vehicles with the block equals
    n one-slot observations with its rows, in both modes."""
    n, k = 6, cfg.n_vehicles
    block = observation_noise(np.random.default_rng(7), (n, k))
    rng = np.random.default_rng(7)
    assert np.array_equal(block, [observation_noise(rng, (k,))
                                  for _ in range(n)])
    rng = np.random.default_rng(3)
    v = make_state(*(rng.uniform(lo, hi, (n, k))
                     for lo, hi in ((5, 80), (5, 40), (8, 8.25))))
    W = steering(v.theta + rng.normal(0.0, 0.05, (n, k)), cfg.n_tx)
    W[2, 1] = 0.0
    for mode in ("relative", "crlb"):
        config = cfg.replace(theta_mode=mode)
        ob = generate_observation(_geom(v, config), W, config, block)
        assert not ob.usable[2, 1]
        for s in range(n):
            one = generate_observation(
                _geom(make_state(v.x[s], v.y[s], v.v[s]), config), W[s],
                config, block[s])
            for field in ob._fields:
                assert np.array_equal(getattr(ob, field)[s],
                                      getattr(one, field)), (mode, s, field)


def test_slot_observations_over_episode_terms_match_block(cfg):
    """An episode's angle_estimates, taken once as an [n, K] block, with one
    observe() per slot of the slot's geometry (a subset of the episode's),
    beams, noise and angle estimates, give the observations of one block
    generate_observation bit for bit: in both modes, with a zero beam (an
    unobservable vehicle) and, at rho_nu = 2, negative distance
    estimates."""
    n, k = 8, cfg.n_vehicles
    rng = np.random.default_rng(4)
    v = make_state(*(rng.uniform(lo, hi, (n, k))
                     for lo, hi in ((5, 80), (5, 40), (8, 8.25))))
    W = steering(v.theta + rng.normal(0.0, 0.05, (n, k)), cfg.n_tx)
    W[3, 1] = 0.0
    z = observation_noise(rng, (n, k))
    for noisy in (cfg, cfg.replace(rho_nu=2.0)):
        for mode in ("relative", "crlb"):
            config = noisy.replace(theta_mode=mode)
            geom = _geom(v, config)
            block = generate_observation(geom, W, config, z)
            assert not block.usable[3, 1]
            theta_hat = angle_estimates(geom.theta, z, config)
            assert (theta_hat is None) == (mode == "crlb")
            for s in range(n):
                one = observe(geom.subset(s), W[s], z[s],
                              None if theta_hat is None else theta_hat[s],
                              config)
                for field in block._fields:
                    assert np.array_equal(getattr(block, field)[s],
                                          getattr(one, field)), (mode, s)
        negative = (block.d_hat <= 0).any()
        assert negative == (noisy.rho_nu == 2.0)


def test_observation_takes_callers_steering_and_checks_noise(cfg):
    """generate_observation() of the caller's geometry is observe() of the
    geometry with its angle_estimates(); a noise block whose shape is not
    the vehicles' plus 2, such as the old block with a third (Doppler)
    column, is refused by both, in both modes."""
    v = _vehicles_25()
    W = steering(v.theta + np.array([0.0, 0.02, -0.03]), cfg.n_tx)
    z = _noise(v, 5)
    geom = _geom(v, cfg)
    old = np.random.default_rng(5).standard_normal(np.shape(v.theta) + (3,))
    for mode in ("relative", "crlb"):
        config = cfg.replace(theta_mode=mode)
        ob = generate_observation(geom, W, config, z)
        with_estimates = observe(geom, W, z,
                                 angle_estimates(geom.theta, z, config),
                                 config)
        assert all(np.array_equal(x, y) for x, y in zip(ob, with_estimates))
        for bad in (z[:, :1], z[:2], z[None], old):
            with pytest.raises(ValueError, match="noise block"):
                generate_observation(geom, W, config, bad)
            with pytest.raises(ValueError, match="noise block"):
                angle_estimates(geom.theta, bad, config)
