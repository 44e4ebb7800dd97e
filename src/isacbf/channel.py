"""Steering vectors, path loss, effective downlink channels, SINR, sum-rate.

Angles and distances broadcast; the antenna axis is appended last."""
from __future__ import annotations

import math

import numpy as np

from .config import SimConfig


def _per_antenna(x):
    """x with a trailing antenna axis if it is an array; a scalar as is
    (indexing a numpy scalar costs more than a whole steering vector)."""
    return x[..., None] if np.ndim(x) else x


def steering(theta, n_ant: int) -> np.ndarray:
    """Unit-norm ULA steering vector; entry m is exp(-j*pi*m*cos(theta))/sqrt(N).

    The entries are a geometric progression, so each angle takes one
    complex exponential z = exp(-j*pi*cos(theta)) and one cumulative product
    along the antenna axis: entry 0 is 1/sqrt(N) and entry m is entry m-1
    times z.  The error grows with m like that of the phase m*pi*cos(theta)
    itself: max |a - a_exact| * sqrt(N) stays below 3*N*eps (about 2.2*N*eps
    measured for N up to 1024).  The result is C-contiguous [..., N]; an
    array of angles gives, row by row, the bits of one-angle calls, so beams
    built either way feed the same observation noise."""
    if n_ant < 1:
        raise ValueError("n_ant must be >= 1")
    z = np.exp(-1j * np.pi * np.cos(theta))
    a = np.empty(np.shape(z) + (n_ant,), dtype=complex)
    a[..., 0] = 1.0 / np.sqrt(n_ant)
    a[..., 1:] = _per_antenna(z)
    return np.cumprod(a, axis=-1, out=a)


def steering_direct(theta, n_ant: int) -> np.ndarray:
    """steering() entry by entry from its definition, N complex exponentials
    per angle: the phase (-j*pi*m)*cos(theta) in this order, then exp and
    the 1/sqrt(N) scale.  Its bits are those of the defining formula, which
    steering() matches only to within 3*N*eps; the channels of estimates
    take it (see harness._write_estimates).  An array of angles gives, row
    by row, the bits of one-angle calls."""
    if n_ant < 1:
        raise ValueError("n_ant must be >= 1")
    phase = (-1j * np.pi * np.arange(n_ant)) * _per_antenna(np.cos(theta))
    return np.exp(phase) / np.sqrt(n_ant)


def steering_dtheta(theta, n_ant: int, a=None) -> np.ndarray:
    """Entry-wise derivative of steering() with respect to theta; pass the
    caller's steering(theta, n_ant) as a to skip recomputing it."""
    if a is None:
        a = steering(theta, n_ant)
    ramp = (1j * np.pi * np.arange(n_ant)) * _per_antenna(np.sin(theta))
    return ramp * a


def check_distance(dist) -> None:
    """Raise ValueError unless every distance is > 0 (a NaN is not)."""
    positive = (dist > 0).all() if isinstance(dist, np.ndarray) else dist > 0
    if not positive:
        raise ValueError("distance must be > 0")


def path_loss_amp(dist, config: SimConfig, check: bool = True):
    """One-way amplitude path loss sqrt(alpha_0 * (d/d_0)^-zeta); with
    check, a ValueError unless every distance is > 0."""
    if check:
        check_distance(dist)
    return np.sqrt(config.pathloss_ref
                   * (dist / config.ref_dist) ** (-config.pathloss_exp))


def effective_channel(theta, dist, config: SimConfig, a=None,
                      check: bool = True) -> np.ndarray:
    """Downlink channel h = sqrt(N_t) * alpha(d) * a(theta), length N_t;
    a is steering(theta, N_t) if the caller has it.  check as in
    path_loss_amp; a caller that discards the channels of distances that
    are not > 0 skips it."""
    if a is None:
        a = steering(theta, config.n_tx)
    gain = math.sqrt(config.n_tx) * path_loss_amp(dist, config, check)
    return _per_antenna(gain) * a


def batch_sinr(h: np.ndarray, w: np.ndarray, sigma2: float):
    """SINR of every user for a batch of channels and beams.

    h and w are [..., K, M]: row k holds user k's channel h_k and beam w_k.
    Returns (phi, s, denom): phi[..., k] is user k's SINR, s[..., k, j] =
    h_k^H w_j, and denom[..., k] is user k's interference plus noise.
    """
    s = np.vecdot(h[..., :, None, :], w[..., None, :, :])
    g2 = np.abs(s) ** 2
    sig = np.einsum("...kk->...k", g2)
    denom = g2.sum(axis=-1) - sig + sigma2
    return sig / denom, s, denom


def sum_rate(H: np.ndarray, W: np.ndarray, sigma2: float):
    """Sum of log2(1 + SINR_k) over the K users; H and W are [K, N_t] (row k
    user k's channel and beam), or stacks of them such as the [n, K, N_t] of
    n slots, which give [n] sum-rates."""
    if H.shape != W.shape:
        raise ValueError(f"H {H.shape} and W {W.shape} must have one shape")
    phi, _, _ = batch_sinr(H, W, sigma2)
    return np.log2(1.0 + phi).sum(axis=-1)
