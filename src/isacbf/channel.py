"""Steering vectors, path loss, effective downlink channels, SINR, sum-rate.

Angles and distances broadcast; the antenna axis is appended last."""
from __future__ import annotations

import numpy as np

from .config import SimConfig


def _per_antenna(x):
    """x with a trailing antenna axis if it is an array; a scalar as is
    (indexing a numpy scalar costs more than a whole steering vector)."""
    return x[..., None] if np.ndim(x) else x


def steering(theta, n_ant: int) -> np.ndarray:
    """Unit-norm ULA steering vector; entry m is exp(-j*pi*m*cos(theta))/sqrt(N)."""
    if n_ant < 1:
        raise ValueError("n_ant must be >= 1")
    # (-j pi m) * cos(theta) in this order: an array of angles then gives
    # the bits of one-angle calls, so random beams keep their values
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


def path_loss_amp(dist, config: SimConfig):
    """One-way amplitude path loss sqrt(alpha_0 * (d/d_0)^-zeta)."""
    check_distance(dist)
    return np.sqrt(config.pathloss_ref
                   * (dist / config.ref_dist) ** (-config.pathloss_exp))


def effective_channel(theta, dist, config: SimConfig) -> np.ndarray:
    """Downlink channel h = sqrt(N_t) * alpha(d) * a(theta), length N_t."""
    gain = np.sqrt(config.n_tx) * path_loss_amp(dist, config)
    return _per_antenna(gain) * steering(theta, config.n_tx)


def batch_sinr(h: np.ndarray, w: np.ndarray, sigma2: float):
    """SINR of every user for a batch of channels and beams.

    h and w are [..., K, M]: row k holds user k's channel h_k and beam w_k.
    Returns (phi, s, denom): phi[..., k] is user k's SINR, s[..., k, j] =
    h_k^H w_j, and denom[..., k] is user k's interference plus noise.
    """
    s = np.einsum("...km,...jm->...kj", h.conj(), w)
    g2 = np.abs(s) ** 2
    sig = np.einsum("...kk->...k", g2)
    denom = g2.sum(axis=-1) - sig + sigma2
    return sig / denom, s, denom


def sum_rate(H: np.ndarray, W: np.ndarray, sigma2: float):
    """Sum of log2(1 + SINR_k) over the K users; H and W are N_t x K, or
    [N_t, K, n] stacks of n slots that give [n] sum-rates."""
    if H.shape[1] != W.shape[1]:
        raise ValueError("H and W must have the same number of columns")
    phi, _, _ = batch_sinr(H.T, W.T, sigma2)
    return np.log2(1.0 + phi).sum(axis=-1)
