"""Echo statistics, noisy observations, Fisher information, and CRLBs.

The echo seen from one vehicle after matched filtering is
r = G*beta*xi*b(theta)*(a(theta)^H w) + noise, with G = sqrt(N_t*N_r).
Delay/Doppler estimates carry Gaussian errors whose variances scale inversely
with the beam gain |a^H w|^2.  The angle and distance CRLBs have one closed
form over arrays (crlbs), shared by the loss, the simulator and the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import check_distance, steering, steering_dtheta
from .config import SimConfig
from .kinematics import VehicleState

# beams with |a^H w|^2 below this (relative to ||w||^2) are unobservable
_GAIN_FLOOR = 1e-30


@dataclass(frozen=True)
class ObservationRecord:
    nu_hat: float      # delay estimate, s
    mu_hat: float      # Doppler estimate, Hz
    theta_hat: float   # angle estimate, rad
    d_hat: float       # distance estimate, m (= c*nu_hat/2)
    vdot_hat: float    # radial speed estimate, m/s (= c*mu_hat/(2 f_c))


@dataclass(frozen=True)
class SensingNoiseModel:
    sigma_r2: float    # echo noise variance, W
    sigma_nu2: float   # delay variance, s^2
    sigma_mu2: float   # Doppler variance, Hz^2
    beam_gain: float   # |a(theta)^H w|^2
    observable: bool


@dataclass(frozen=True)
class FisherInfo:
    f: np.ndarray          # 3x3 information matrix over (theta, d, v_dot)
    crlb_theta: float      # rad^2
    crlb_d: float          # m^2


class EchoConstants(NamedTuple):
    """Per-geometry constants of the closed-form CRLBs (scalars or arrays)."""
    s_bp: np.ndarray     # ||b'(theta)||^2
    q_bp: np.ndarray     # complex b'(theta)^H b(theta)
    c1sq: np.ndarray     # |G beta xi|^2
    c_dist: np.ndarray   # CRLB_d numerator: CRLB_d = c_dist / |a^H w|^2


def reflection_coeff(dist, config: SimConfig):
    """Two-way reflection coefficient rho_rcs / (2 d)."""
    check_distance(dist)
    return config.rcs_coeff / (2.0 * dist)


def _psi2(dist, config: SimConfig):
    """|psi|^2 = N_t*N_r*|beta|^2, the echo power gain of a unit beam gain."""
    return config.n_tx * config.n_rx * abs(reflection_coeff(dist, config)) ** 2


def _delay_doppler_vars(dist, gain, config: SimConfig):
    """Delay and Doppler error variances rho^2 * sigma^2 / (xi |psi|^2 gain)."""
    denom = config.mf_gain * _psi2(dist, config) * gain
    return (config.rho_nu ** 2 * config.noise_rsu / denom,
            config.rho_mu ** 2 * config.noise_rsu / denom)


def beam_gain(theta: float, w_k: np.ndarray) -> float:
    a = steering(theta, len(w_k))
    return float(np.abs(a.conj() @ w_k) ** 2)


def obs_noise_vars(theta: float, dist: float, w_k: np.ndarray,
                   config: SimConfig) -> SensingNoiseModel:
    """Delay/Doppler error variances for a given geometry and transmit beam.

    Both variances scale as 1/(xi * |psi|^2 * |a^H w|^2) with
    |psi|^2 = N_t*N_r*|beta|^2 (the Doppler phase has unit modulus).
    """
    return _noise_model(beam_gain(theta, w_k), dist, w_k, config)


def _noise_model(gain: float, dist: float, w_k: np.ndarray,
                 config: SimConfig) -> SensingNoiseModel:
    """obs_noise_vars for a beam gain |a^H w|^2 already computed."""
    wnorm2 = float(np.vdot(w_k, w_k).real)
    observable = not gain <= _GAIN_FLOOR * max(1.0, wnorm2)
    sigma_nu2, sigma_mu2 = (_delay_doppler_vars(dist, gain, config)
                            if observable else (math.inf, math.inf))
    return SensingNoiseModel(sigma_r2=config.echo_noise_var,
                             sigma_nu2=sigma_nu2, sigma_mu2=sigma_mu2,
                             beam_gain=gain, observable=observable)


def generate_observation(state: VehicleState, w_k: np.ndarray,
                         config: SimConfig, rng: np.random.Generator,
                         mode: str = "relative") -> ObservationRecord | None:
    """Noisy (delay, Doppler, angle) observation of one vehicle.

    mode "relative": theta_hat = theta*(1+e), e ~ N(0, obs_rel_mse);
    mode "crlb":     theta_hat = theta + N(0, CRLB(theta, w)).
    Returns None when the beam carries no energy toward the vehicle.
    """
    noise = obs_noise_vars(state.theta, state.dist, w_k, config)
    if not noise.observable:
        return None
    c = config.wave_speed
    nu = 2.0 * state.dist / c + rng.normal(0.0, math.sqrt(noise.sigma_nu2))
    mu = 2.0 * state.radial_v * config.carrier_hz / c \
        + rng.normal(0.0, math.sqrt(noise.sigma_mu2))
    if mode == "relative":
        theta_hat = state.theta * (1.0 + rng.normal(0.0, math.sqrt(config.obs_rel_mse)))
    elif mode == "crlb":
        info = fisher_information(state, w_k, config)
        theta_hat = state.theta + rng.normal(0.0, math.sqrt(info.crlb_theta))
    else:
        raise ValueError(f"unknown observation mode: {mode!r}")
    return ObservationRecord(nu_hat=nu, mu_hat=mu, theta_hat=theta_hat,
                             d_hat=c * nu / 2.0,
                             vdot_hat=c * mu / (2.0 * config.carrier_hz))


def echo_mean(theta: float, dist: float, w_k: np.ndarray,
              config: SimConfig) -> np.ndarray:
    """Noiseless matched-filtered echo G*beta*xi*b(theta)*(a(theta)^H w)."""
    g = math.sqrt(config.n_tx * config.n_rx)
    beta = reflection_coeff(dist, config)
    a = steering(theta, config.n_tx)
    b = steering(theta, config.n_rx)
    return g * beta * config.mf_gain * b * (a.conj() @ w_k)


def echo_constants(theta, dist, config: SimConfig) -> EchoConstants:
    """The CRLB constants of each geometry; theta and dist broadcast."""
    nr = config.n_rx
    sin_t = np.sin(theta)
    # ||b'||^2 = (pi sin)^2 * sum_m m^2 / Nr ; b'^H b = -j pi sin (Nr-1)/2
    s_bp = (np.pi * sin_t) ** 2 * ((nr - 1) * nr * (2 * nr - 1) / 6) / nr
    q_bp = -1j * np.pi * sin_t * (nr - 1) / 2.0
    c1sq = _psi2(dist, config) * config.mf_gain ** 2
    # d = c*nu/2, so CRLB_d = (c/2)^2 sigma_nu^2, and sigma_nu^2 ~ 1/|a^H w|^2
    c_dist = (config.wave_speed / 2.0) ** 2 \
        * _delay_doppler_vars(dist, 1.0, config)[0]
    return EchoConstants(s_bp=s_bp, q_bp=q_bp, c1sq=c1sq, c_dist=c_dist)


def crlbs(u, v, echo: EchoConstants, sigma_r2: float):
    """(CRLB_theta, CRLB_d) of beams with u = a^H w and v = a'^H w.

    CRLB_theta = sigma_r^2 / ||dr/dtheta||^2 with dr/dtheta = G beta xi
    (b' u + b v), and CRLB_d = c_dist / |u|^2.  A beam that carries no energy
    toward its vehicle gets infinite CRLBs (NaN for CRLB_d when rho_nu = 0).
    """
    u2 = np.abs(u) ** 2
    dr2 = echo.c1sq * (echo.s_bp * u2 + np.abs(v) ** 2
                       + 2.0 * (echo.q_bp * np.conj(u) * v).real)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sigma_r2 / dr2, echo.c_dist / u2


def fisher_information(state: VehicleState, w_k: np.ndarray,
                       config: SimConfig) -> FisherInfo:
    """Diagonal FIM over (theta, d, v_dot) and the angle/distance CRLBs.

    f11 = 1/CRLB_theta = ||d(echo)/d(theta)||^2 / sigma_r^2,
    f22 = 1/CRLB_d = (2/c)^2 / sigma_nu^2, f33 = (2 f_c/c)^2 / sigma_mu^2.
    Zero beam gain yields infinite CRLBs.
    """
    u = steering(state.theta, config.n_tx).conj() @ w_k
    noise = _noise_model(float(np.abs(u) ** 2), state.dist, w_k, config)
    if not noise.observable:
        return FisherInfo(f=np.zeros((3, 3)), crlb_theta=math.inf,
                          crlb_d=math.inf)
    v = steering_dtheta(state.theta, config.n_tx).conj() @ w_k
    crlb_theta, crlb_d = crlbs(
        u, v, echo_constants(state.theta, state.dist, config), noise.sigma_r2)
    f_doppler = (2.0 * config.carrier_hz / config.wave_speed) ** 2 \
        / noise.sigma_mu2
    return FisherInfo(f=np.diag([1.0 / crlb_theta, 1.0 / crlb_d, f_doppler]),
                      crlb_theta=float(crlb_theta), crlb_d=float(crlb_d))
