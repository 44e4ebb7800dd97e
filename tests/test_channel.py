import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import exact_steering, sinr
from isacbf.channel import (batch_sinr, effective_channel, path_loss_amp,
                            steering, steering_direct, steering_dtheta,
                            sum_rate)

# frozen oracle values (high-precision arithmetic, defaults alpha0=1e-7,
# zeta=2.55, d0=1): one-way amplitude at d=25 m and the matching channel norm
ALPHA_25 = 5.2194710000789454e-6
HNORM_25 = 2.95257867068988e-5


@given(theta=st.floats(0.01, np.pi - 0.01), n=st.integers(1, 64))
def test_steering_unit_norm(theta, n):
    a = steering(theta, n)
    assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
    assert a[0] == pytest.approx(1.0 / np.sqrt(n))
    assert np.allclose(np.abs(a), 1.0 / np.sqrt(n), rtol=1e-13)


@pytest.mark.parametrize("fn, bound", [(steering, 3), (steering_direct, 4)])
@pytest.mark.parametrize("n", [1, 2, 7, 32, 256])
def test_steering_matches_extended_precision(fn, bound, n):
    """Every entry is within bound*N*eps of the long-double steering vector,
    scaled by sqrt(N), at the endfire and broadside angles and at uniform
    draws; the result is a C-contiguous [..., N] array, and N = 1 gives
    exactly 1."""
    rng = np.random.default_rng(n)
    thetas = np.concatenate(([0.0, np.pi / 2, np.pi],
                             rng.uniform(0.0, np.pi, 500)))
    a = fn(thetas, n)
    assert a.shape == (len(thetas), n) and a.flags.c_contiguous
    re, im = exact_steering(thetas, n)
    err = np.hypot(a.real - re, a.imag - im).max() * np.sqrt(n)
    assert err <= bound * n * np.finfo(float).eps
    if n == 1:
        assert np.array_equal(a, np.ones((len(thetas), 1)))
        assert np.array_equal(fn(0.5, 1), [1.0])


def test_steering_direct_broadcasts_bit_identically():
    """As for steering: an array of angles gives the bits of one-angle
    calls, so one slot's estimated channels equal a block's."""
    thetas = np.random.default_rng(0).uniform(0.0, np.pi, size=(3, 4))
    a = steering_direct(thetas, 32)
    for idx in np.ndindex(thetas.shape):
        assert np.array_equal(a[idx], steering_direct(float(thetas[idx]), 32))
    with pytest.raises(ValueError):
        steering_direct(0.5, 0)


def test_steering_phase_progression():
    theta, n = 0.7, 16
    a = steering(theta, n)
    ratios = a[1:] / a[:-1]
    assert np.allclose(ratios, np.exp(-1j * np.pi * np.cos(theta)))


def test_steering_broadcasts_bit_identically():
    """An array of angles gives, row by row, the bits of one-angle calls, so
    beams built either way feed the same observation noise."""
    thetas = np.random.default_rng(0).uniform(0.0, np.pi, size=(3, 4))
    a = steering(thetas, 32)
    ap = steering_dtheta(thetas, 32)
    assert a.shape == ap.shape == (3, 4, 32)
    for idx in np.ndindex(thetas.shape):
        assert np.array_equal(a[idx], steering(float(thetas[idx]), 32))
        assert np.array_equal(ap[idx], steering_dtheta(float(thetas[idx]), 32))


def test_steering_rejects_empty():
    with pytest.raises(ValueError):
        steering(0.5, 0)


def test_steering_dtheta_matches_fd():
    theta, n, eps = 0.9, 32, 1e-7
    fd = (steering(theta + eps, n) - steering(theta - eps, n)) / (2 * eps)
    assert np.allclose(steering_dtheta(theta, n), fd, rtol=1e-6, atol=1e-9)


def test_path_loss_frozen_value(cfg):
    assert path_loss_amp(25.0, cfg) == pytest.approx(ALPHA_25, rel=1e-12)
    assert path_loss_amp(cfg.ref_dist, cfg) == pytest.approx(
        np.sqrt(cfg.pathloss_ref))
    with pytest.raises(ValueError):
        path_loss_amp(0.0, cfg)
    with pytest.raises(ValueError):
        path_loss_amp(np.array([25.0, -1.0]), cfg)


def test_path_loss_monotone_decreasing(cfg):
    ds = np.linspace(5, 200, 40)
    vals = [path_loss_amp(d, cfg) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_effective_channel(cfg):
    h = effective_channel(0.9272952180016122, 25.0, cfg)
    assert h.shape == (cfg.n_tx,)
    assert np.linalg.norm(h) == pytest.approx(HNORM_25, rel=1e-12)
    # h is a scaled steering vector
    a = steering(0.9272952180016122, cfg.n_tx)
    assert np.allclose(h, np.sqrt(cfg.n_tx) * ALPHA_25 * a, rtol=1e-10)
    # an array of geometries gives one channel per row
    th, d = np.array([0.9, 1.3]), np.array([25.0, 40.0])
    rows = effective_channel(th, d, cfg)
    assert rows.shape == (2, cfg.n_tx)
    for k in range(2):
        assert np.allclose(rows[k], effective_channel(th[k], d[k], cfg),
                           rtol=1e-15, atol=0.0)
    # the caller's steering vectors give the same bits
    assert np.array_equal(effective_channel(th, d, cfg, steering(th, cfg.n_tx)),
                          rows)


def test_sinr_no_interference():
    n, sigma2 = 8, 0.5
    h = np.ones((2, n), dtype=complex)
    w = np.zeros((2, n), dtype=complex)
    w[0] = 0.25
    phi, s, denom = batch_sinr(h, w, sigma2)
    assert phi[0] == pytest.approx(abs(h[0].conj() @ w[0]) ** 2 / sigma2)
    assert phi[1] == 0.0
    assert denom[0] == sigma2


def test_sinr_with_interference():
    n, sigma2 = 4, 1e-3
    rng = np.random.default_rng(0)
    h = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    w = rng.normal(size=(2, 3, n)) + 1j * rng.normal(size=(2, 3, n))
    phi, s, denom = batch_sinr(h, w, sigma2)
    assert phi.shape == denom.shape == (2, 3) and s.shape == (2, 3, 3)
    for i in range(2):
        gains = np.abs(w[i] @ h[i, 1].conj()) ** 2
        expect = gains[1] / (gains[0] + gains[2] + sigma2)
        assert phi[i, 1] == pytest.approx(expect, rel=1e-12)
        assert s[i, 1, 2] == pytest.approx(h[i, 1].conj() @ w[i, 2], rel=1e-12)
        for k in range(3):
            assert phi[i, k] == pytest.approx(sinr(h[i, k], w[i], k, sigma2),
                                              rel=1e-12)


@pytest.mark.parametrize("shape", [(3, 8), (4, 3, 8)])
def test_cross_gains_match_vdot_loop(shape):
    """s[..., k, j] = h_k^H w_j, pair by pair, for one slot and a stack."""
    rng = np.random.default_rng(2)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _, s, _ = batch_sinr(h, w, 1e-3)
    hs, ws = h.reshape((-1,) + shape[-2:]), w.reshape((-1,) + shape[-2:])
    expect = [[[np.vdot(hi[k], wi[j]) for j in range(shape[-2])]
               for k in range(shape[-2])] for hi, wi in zip(hs, ws)]
    assert s.shape == shape[:-1] + shape[-2:-1]
    assert np.allclose(s.reshape(-1, shape[-2], shape[-2]), expect,
                       rtol=1e-13, atol=0.0)


def test_sum_rate_matches_per_user_sum():
    rng = np.random.default_rng(1)
    n, k, sigma2 = 8, 3, 1e-2
    h = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    w = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    total = sum(np.log2(1 + sinr(h[i], w, i, sigma2)) for i in range(k))
    assert sum_rate(h, w, sigma2) == pytest.approx(total, rel=1e-12)


def test_sum_rate_over_a_stack_of_slots():
    """[n, K, N_t] stacks give the n per-slot sum-rates; slot 1 has a zero
    beam toward user 2."""
    rng = np.random.default_rng(2)
    n, k, sigma2 = 8, 3, 1e-2
    h = rng.normal(size=(3, k, n)) + 1j * rng.normal(size=(3, k, n))
    w = rng.normal(size=(3, k, n)) + 1j * rng.normal(size=(3, k, n))
    w[1, 2] = 0.0
    rates = sum_rate(h, w, sigma2)
    assert rates.shape == (3,)
    np.testing.assert_allclose(
        rates, [sum_rate(h[s], w[s], sigma2) for s in range(3)], rtol=1e-14)


def test_sum_rate_shape_mismatch():
    """A user count or an antenna count that differs between H and W is
    refused before any product is formed."""
    for w_shape in ((3, 4), (2, 5)):
        with pytest.raises(ValueError, match="one shape"):
            sum_rate(np.zeros((2, 4), complex), np.zeros(w_shape, complex),
                     1.0)
