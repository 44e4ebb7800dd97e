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


class Observations(NamedTuple):
    """One slot's estimates of the K vehicles; an entry is meaningful only
    where usable is True."""
    theta_hat: np.ndarray  # [K] angle estimates, rad
    d_hat: np.ndarray      # [K] distance estimates, m (= c*nu_hat/2)
    vdot_hat: np.ndarray   # [K] radial speed estimates, m/s (= c*mu_hat/(2 f_c))
    usable: np.ndarray     # [K] bool: observable and d_hat > 0


class ObsNoise(NamedTuple):
    """Delay/Doppler error model of beams toward their vehicles; each field
    has the shape of the angles (one entry per vehicle)."""
    u: np.ndarray           # a(theta)^H w, complex; |u|^2 is the beam gain
    observable: np.ndarray  # bool: the beam carries energy toward the vehicle
    sigma_nu2: np.ndarray   # delay variance, s^2 (inf where unobservable)
    sigma_mu2: np.ndarray   # Doppler variance, Hz^2 (inf where unobservable)


@dataclass(frozen=True)
class FisherInfo:
    crlb_theta: np.ndarray  # rad^2
    crlb_d: np.ndarray      # m^2
    f_doppler: np.ndarray   # (2 f_c / c)^2 / sigma_mu^2

    @property
    def f(self) -> np.ndarray:
        """Diagonal information matrices [..., 3, 3] over (theta, d, v_dot)."""
        diag = np.stack(np.broadcast_arrays(
            1.0 / self.crlb_theta, 1.0 / self.crlb_d, self.f_doppler), axis=-1)
        return diag[..., None] * np.eye(3)


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


def _beam_dot(a: np.ndarray, W: np.ndarray):
    """a_k^H w_k for each vehicle: a is [..., M] and W is N_t x K (or one
    beam).  A stack of row-times-column products sums in the order of one
    vehicle's a^H w."""
    return (a.conj()[..., None, :] @ W.T[..., :, None])[..., 0, 0]


def obs_noise_vars(theta, dist, W: np.ndarray, config: SimConfig,
                   a=None) -> ObsNoise:
    """Delay/Doppler error variances for given geometries and transmit beams.

    Column k of W is the beam toward the vehicle at (theta[k], dist[k]); a is
    steering(theta, N_t) if the caller has it.  Both variances scale as
    1/(xi * |psi|^2 * |a^H w|^2) with |psi|^2 = N_t*N_r*|beta|^2 (the
    Doppler phase has unit modulus).
    """
    if a is None:
        a = steering(theta, config.n_tx)
    u = _beam_dot(a, W)
    gain = np.abs(u) ** 2
    wnorm2 = _beam_dot(W.T, W).real
    observable = ~(gain <= _GAIN_FLOOR * np.maximum(1.0, wnorm2))
    with np.errstate(divide="ignore", invalid="ignore"):
        nu2, mu2 = _delay_doppler_vars(dist, gain, config)
    return ObsNoise(u=u, observable=observable,
                    sigma_nu2=np.where(observable, nu2, np.inf)[()],
                    sigma_mu2=np.where(observable, mu2, np.inf)[()])


def generate_observation(vehicles: VehicleState, W: np.ndarray,
                         config: SimConfig, rng: np.random.Generator,
                         mode: str = "relative") -> Observations:
    """Noisy (delay, Doppler, angle) observations of the K vehicles.

    mode "relative": theta_hat = theta*(1+e), e ~ N(0, obs_rel_mse);
    mode "crlb":     theta_hat = theta + N(0, CRLB(theta, w)).
    One (K, 3) standard-normal block is drawn for every slot, whether or not
    a vehicle is observable, so the stream stays aligned; a vehicle whose
    beam carries no energy toward it, or whose distance estimate is not
    positive, is marked unusable.
    """
    if mode not in ("relative", "crlb"):
        raise ValueError(f"unknown observation mode: {mode!r}")
    z = rng.standard_normal(np.shape(vehicles.theta) + (3,))
    noise = obs_noise_vars(vehicles.theta, vehicles.dist, W, config)
    c = config.wave_speed
    nu = 2.0 * vehicles.dist / c + np.sqrt(noise.sigma_nu2) * z[..., 0]
    mu = 2.0 * vehicles.radial_v * config.carrier_hz / c \
        + np.sqrt(noise.sigma_mu2) * z[..., 1]
    if mode == "relative":
        theta_hat = vehicles.theta * (1.0 + math.sqrt(config.obs_rel_mse)
                                      * z[..., 2])
    else:
        crlb_theta = fisher_information(vehicles, W, config).crlb_theta
        theta_hat = vehicles.theta + np.sqrt(crlb_theta) * z[..., 2]
    d_hat = c * nu / 2.0
    return Observations(theta_hat=theta_hat, d_hat=d_hat,
                        vdot_hat=c * mu / (2.0 * config.carrier_hz),
                        usable=noise.observable & (d_hat > 0))


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


def fisher_information(vehicles: VehicleState, W: np.ndarray,
                       config: SimConfig) -> FisherInfo:
    """Diagonal FIMs over (theta, d, v_dot) and the angle/distance CRLBs of
    the vehicles, column k of W being the beam toward vehicle k.  The
    vehicles are [K] arrays with an N_t x K W, or [n, K] arrays of n slots
    with an [N_t, K, n] W (whose .T stacks the slots' beam rows); the CRLBs
    take the vehicles' shape.

    f11 = 1/CRLB_theta = ||d(echo)/d(theta)||^2 / sigma_r^2,
    f22 = 1/CRLB_d = (2/c)^2 / sigma_nu^2, f33 = (2 f_c/c)^2 / sigma_mu^2.
    An unobservable vehicle gets infinite CRLBs.
    """
    theta, dist = vehicles.theta, vehicles.dist
    a = steering(theta, config.n_tx)
    noise = obs_noise_vars(theta, dist, W, config, a)
    v = _beam_dot(steering_dtheta(theta, config.n_tx, a), W)
    crlb_theta, crlb_d = crlbs(noise.u, v, echo_constants(theta, dist, config),
                               config.echo_noise_var)
    return FisherInfo(
        crlb_theta=np.where(noise.observable, crlb_theta, np.inf)[()],
        crlb_d=np.where(noise.observable, crlb_d, np.inf)[()],
        f_doppler=(2.0 * config.carrier_hz / config.wave_speed) ** 2
        / noise.sigma_mu2)
