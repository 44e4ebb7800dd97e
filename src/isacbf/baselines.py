"""Benchmark beamformers: genie-aided bound, naive DL, random beams."""
from __future__ import annotations

import numpy as np

from .channel import path_loss_amp, steering
from .config import SimConfig
from .kinematics import VehicleState
from .nn.model import NaiveNet, output_to_matrix


def _aimed_beams(thetas: np.ndarray, config: SimConfig) -> np.ndarray:
    """N_t x K equal-power-split beams sqrt(P/K) * a(theta_k)."""
    p = config.power_budget / config.n_vehicles
    return np.ascontiguousarray((np.sqrt(p) * steering(thetas, config.n_tx)).T)


def genie_beamformer(vehicles: VehicleState, config: SimConfig) -> np.ndarray:
    """Perfectly aligned equal-power-split beams sqrt(P/K) * a(theta_k)."""
    return _aimed_beams(vehicles.theta, config)


def genie_rate(vehicles: VehicleState, config: SimConfig) -> float:
    """Interference-free perfect-CSI sum-rate: the upper bound on the problem."""
    p = config.power_budget / config.n_vehicles
    alpha2 = path_loss_amp(vehicles.dist, config) ** 2
    return float(np.log2(1.0 + p * config.n_tx * alpha2
                         / config.noise_vehicle).sum())


def naive_dl_beamformer(theta_hat: np.ndarray, d_hat: np.ndarray,
                        net: NaiveNet, config: SimConfig) -> np.ndarray:
    """Beams from the last slot's [K] estimated angles/distances via the FC net."""
    if net is None:
        raise ValueError("naive DL baseline requires a trained network")
    o = net.forward(net.features(theta_hat[None], d_hat[None]))
    return output_to_matrix(o[0])


def random_beamformer(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Beams aimed at i.i.d. U(0, pi) angles; ||W||_F^2 = P exactly."""
    return _aimed_beams(rng.uniform(0.0, np.pi, size=config.n_vehicles), config)
