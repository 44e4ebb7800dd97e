"""Benchmark beamformers: genie-aided bound, naive DL, random beams."""
from __future__ import annotations

import numpy as np

from .channel import path_loss_amp, steering
from .config import SimConfig
from .kinematics import VehicleState
from .nn.model import NaiveNet, output_to_matrix


def _aimed_beams(a: np.ndarray, config: SimConfig) -> np.ndarray:
    """Equal-power-split beams sqrt(P/K) * a(theta_k), one row per steering
    vector: [K, N_t] for K angles, [n, K, N_t] for [n, K] angles of n slots."""
    p = config.power_budget / config.n_vehicles
    return np.sqrt(p) * a


def genie_beamformer(vehicles: VehicleState, config: SimConfig,
                     a=None) -> np.ndarray:
    """Perfectly aligned equal-power-split beams sqrt(P/K) * a(theta_k):
    [K, N_t] for [K] vehicles, [n, K, N_t] for [n, K] vehicles of n slots;
    a is steering(vehicles.theta, N_t) if the caller has it."""
    if a is None:
        a = steering(vehicles.theta, config.n_tx)
    return _aimed_beams(a, config)


def genie_rate(vehicles: VehicleState, config: SimConfig):
    """Interference-free perfect-CSI sum-rate, the upper bound on the problem,
    over the last (vehicle) axis: [n, K] states of n slots give [n] rates."""
    p = config.power_budget / config.n_vehicles
    alpha2 = path_loss_amp(vehicles.dist, config) ** 2
    return np.log2(1.0 + p * config.n_tx * alpha2
                   / config.noise_vehicle).sum(axis=-1)


def naive_dl_beamformer(theta_hat: np.ndarray, d_hat: np.ndarray,
                        net: NaiveNet, config: SimConfig) -> np.ndarray:
    """[K, N_t] beams from the last slot's [K] estimated angles/distances via
    the FC net, or [R, K, N_t] beams of R episodes from [R, K] estimates in
    one forward pass."""
    if net is None:
        raise ValueError("naive DL baseline requires a trained network")
    k = config.n_vehicles
    o = net.forward(net.features(theta_hat.reshape(-1, k),
                                 d_hat.reshape(-1, k)))
    return output_to_matrix(o).reshape(theta_hat.shape + (config.n_tx,))


def random_angles(config: SimConfig, rng: np.random.Generator,
                  n_slots: int | None = None) -> np.ndarray:
    """The i.i.d. U(0, pi) angles that random beams aim at: [K] from K
    draws, or with n_slots [n_slots, K] from one draw, the per-slot draws
    in slot order."""
    k = config.n_vehicles
    size = k if n_slots is None else (n_slots, k)
    return rng.uniform(0.0, np.pi, size=size)


def aimed_beams(angles: np.ndarray, config: SimConfig) -> np.ndarray:
    """Equal-power-split beams sqrt(P/K) * a(angle) at angles of any shape,
    that shape plus [N_t]; row by row the bits of one-row calls."""
    return _aimed_beams(steering(angles, config.n_tx), config)


def random_beamformer(config: SimConfig, rng: np.random.Generator,
                      n_slots: int | None = None) -> np.ndarray:
    """Beams aimed at random_angles; ||W||_F^2 = P exactly.

    [K, N_t] from K draws, or with n_slots the [n_slots, K, N_t] stack of
    n_slots matrices from one [n_slots, K] draw, the per-slot draws in slot
    order.
    """
    return aimed_beams(random_angles(config, rng, n_slots), config)
