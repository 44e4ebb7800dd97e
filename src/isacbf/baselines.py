"""Benchmark beamformers: genie-aided bound, naive DL, random beams."""
from __future__ import annotations

import numpy as np

from .channel import path_loss_amp, steering
from .config import SimConfig
from .kinematics import VehicleState
from .nn.model import NaiveNet, output_to_matrix
from .sensing import ObservationRecord


def genie_beamformer(states: list[VehicleState], config: SimConfig) -> np.ndarray:
    """Perfectly aligned equal-power-split beams sqrt(P/K) * a(theta_k)."""
    k = config.n_vehicles
    w = np.empty((config.n_tx, k), dtype=complex)
    p = config.power_budget / k
    for i, st in enumerate(states):
        w[:, i] = np.sqrt(p) * steering(st.theta, config.n_tx)
    return w


def genie_rate(states: list[VehicleState], config: SimConfig) -> float:
    """Interference-free perfect-CSI sum-rate: the upper bound on the problem."""
    p = config.power_budget / config.n_vehicles
    total = 0.0
    for st in states:
        alpha2 = path_loss_amp(st.dist, config) ** 2
        snr = p * config.n_tx * alpha2 / config.noise_vehicle
        total += np.log2(1.0 + snr)
    return float(total)


def naive_dl_beamformer(last_obs: list[ObservationRecord], net: NaiveNet,
                        config: SimConfig) -> np.ndarray:
    """Beams from the last slot's estimated angles/distances via the FC net."""
    if net is None:
        raise ValueError("naive DL baseline requires a trained network")
    thetas = np.array([[o.theta_hat for o in last_obs]])
    dists = np.array([[o.d_hat for o in last_obs]])
    o = net.forward(net.features(thetas, dists))
    return output_to_matrix(o[0])


def random_beamformer(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Beams aimed at i.i.d. U(0, pi) angles; ||W||_F^2 = P exactly."""
    k = config.n_vehicles
    w = np.empty((config.n_tx, k), dtype=complex)
    p = config.power_budget / k
    for i in range(k):
        w[:, i] = np.sqrt(p) * steering(rng.uniform(0.0, np.pi), config.n_tx)
    return w
