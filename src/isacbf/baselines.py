"""Benchmark beamformers: genie-aided bound, naive DL, random beams."""
from __future__ import annotations

import numpy as np

from .channel import path_loss_amp, steering
from .config import SimConfig
from .kinematics import VehicleState
from .nn.model import NaiveNet, output_to_matrix


def genie_beamformer(a: np.ndarray, config: SimConfig) -> np.ndarray:
    """Equal-power-split beams sqrt(P/K) * a(theta_k), one row per steering
    row of a: the perfectly aligned genie beams from the true steering
    vectors, [..., K, N_t] from [..., K, N_t]."""
    p = config.power_budget / config.n_vehicles
    return np.sqrt(p) * a


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
                  n_slots: int) -> np.ndarray:
    """The i.i.d. U(0, pi) angles that random beams aim at: [n_slots, K]
    from one draw, the per-slot draws in slot order."""
    return rng.uniform(0.0, np.pi, size=(n_slots, config.n_vehicles))


def aimed_beams(angles: np.ndarray, config: SimConfig) -> np.ndarray:
    """Equal-power-split beams sqrt(P/K) * a(angle) at angles of any shape,
    that shape plus [N_t]; row by row the bits of one-row calls."""
    return genie_beamformer(steering(angles, config.n_tx), config)


def random_beamformer(config: SimConfig, rng: np.random.Generator,
                      n_slots: int) -> np.ndarray:
    """The [n_slots, K, N_t] beams aimed at random_angles, one matrix per
    slot with ||W||_F^2 = P exactly."""
    return aimed_beams(random_angles(config, rng, n_slots), config)
