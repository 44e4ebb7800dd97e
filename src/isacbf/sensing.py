"""Echo statistics, noisy observations, Fisher information, and CRLBs.

The echo seen from one vehicle after matched filtering is
r = G*beta*xi*b(theta)*(a(theta)^H w) + noise, with G = sqrt(N_t*N_r).
Delay and Doppler estimates carry Gaussian errors whose variances scale
inversely with the beam gain |a^H w|^2.  A decision reads only the angle and
distance estimates, so an observation holds those two; the Doppler term
enters only the Fisher information.  The angle and distance CRLBs have one
closed form over arrays (crlbs), shared by the loss, the simulator and the
CLI.
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
    usable: np.ndarray     # [K] bool: observable and d_hat > 0


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


def echo_gain(dist, config: SimConfig):
    """xi |psi|^2, the matched-filtered echo power of a unit beam gain."""
    return config.mf_gain * _psi2(dist, config)


def _error_var(rho, denom, config: SimConfig):
    """rho^2 sigma^2 / denom: the delay (rho_nu) or Doppler (rho_mu) error
    variance of echo power denom = xi |psi|^2 |a^H w|^2."""
    return rho ** 2 * config.noise_rsu / denom


def _masked_var(rho, echo, gain, observable, config: SimConfig):
    """The _error_var of beam gains gain = |a^H w|^2 toward vehicles of echo
    gain echo = xi |psi|^2, infinite where a vehicle is unobservable."""
    with np.errstate(divide="ignore", invalid="ignore"):
        var = _error_var(rho, echo * gain, config)
    return np.where(observable, var, np.inf)[()]


def _observable(gain, W: np.ndarray):
    """Where the beam rows W, of beam gains gain = |a^H w|^2, carry energy
    toward their vehicles."""
    return ~(gain <= _GAIN_FLOOR * np.maximum(1.0, np.vecdot(W, W).real))


class ObsTerms(NamedTuple):
    """What observations of vehicles need that no beam changes, as arrays of
    the vehicles' shape: an episode takes them once, as [n_slots, K]
    blocks, and each slot reads its rows (at)."""
    theta: np.ndarray      # true angles, rad
    dist: np.ndarray       # true distances, m
    delay: np.ndarray      # noiseless delay 2 d / c, s
    echo: np.ndarray       # echo_gain: xi |psi|^2
    z: np.ndarray          # standard normals, trailing (delay, Doppler, angle)
    theta_hat: np.ndarray | None  # relative mode: the angle estimates

    def at(self, n) -> "ObsTerms":
        """The terms of slot n."""
        return ObsTerms._make(None if f is None else f[n] for f in self)


def observation_terms(vehicles: VehicleState, config: SimConfig,
                      z: np.ndarray) -> ObsTerms:
    """The beam-independent terms of noisy observations of the vehicles.

    z is the standard-normal block of the vehicles' shape plus a trailing 3
    (delay, Doppler, angle); the Doppler column is drawn but not read.  In
    config.theta_mode "relative" the angle estimate theta*(1+e),
    e ~ N(0, obs_rel_mse), needs no beam; in "crlb" it is
    theta + N(0, CRLB(theta, w)), which observe() draws from the beam.
    """
    theta, dist = vehicles.theta, vehicles.dist
    if z.shape != np.shape(theta) + (3,):
        raise ValueError(f"noise block {z.shape} does not match vehicles "
                         f"{np.shape(theta)} plus a trailing 3")
    theta_hat = None
    if config.theta_mode == "relative":
        theta_hat = theta * (1.0 + math.sqrt(config.obs_rel_mse) * z[..., 2])
    return ObsTerms(
        theta=theta, dist=dist, delay=2.0 * dist / config.wave_speed,
        echo=echo_gain(dist, config), z=z, theta_hat=theta_hat)


def observe(terms: ObsTerms, W: np.ndarray, a: np.ndarray,
            config: SimConfig) -> Observations:
    """The observations of the vehicles of terms under the beams W, row k
    toward vehicle k, whose true steering vectors are a: the part of an
    observation that depends on the beam.  A vehicle whose beam carries no
    energy toward it, or whose distance estimate is not positive, is marked
    unusable."""
    u = np.vecdot(a, W)
    gain = np.abs(u) ** 2
    observable = _observable(gain, W)
    sigma_nu2 = _masked_var(config.rho_nu, terms.echo, gain, observable,
                            config)
    d_hat = config.wave_speed \
        * (terms.delay + np.sqrt(sigma_nu2) * terms.z[..., 0]) / 2.0
    theta_hat = terms.theta_hat
    if theta_hat is None:
        crlb_theta, _ = _crlbs(terms.theta, terms.dist, W, config, a, u,
                               observable)
        theta_hat = terms.theta + np.sqrt(crlb_theta) * terms.z[..., 2]
    return Observations(theta_hat=theta_hat, d_hat=d_hat,
                        usable=observable & (d_hat > 0))


def generate_observation(vehicles: VehicleState, W: np.ndarray,
                         config: SimConfig, z: np.ndarray,
                         a=None) -> Observations:
    """Noisy (angle, distance) observations of the K vehicles: observe()
    over their observation_terms().

    The vehicles are [K] arrays with a [K, N_t] W, or arrays of any leading
    shape with W of that shape plus [N_t], such as the [n, K] arrays of n
    slots or the [n_ep, n, K] arrays of n_ep episodes; the estimates take
    the vehicles' shape.  z is the standard-normal block of the vehicles'
    shape plus a trailing 3 (delay, Doppler, angle).  a is
    steering(vehicles.theta, N_t) if the caller has it.  By
    config.theta_mode:
    "relative": theta_hat = theta*(1+e), e ~ N(0, obs_rel_mse);
    "crlb":     theta_hat = theta + N(0, CRLB(theta, w)).
    A caller draws one (K, 3) block for every slot, in slot order, whether
    or not a vehicle is observable, so the stream stays aligned: one
    (n, K, 3) draw equals n successive (K, 3) draws.
    """
    if a is None:
        a = steering(vehicles.theta, config.n_tx)
    return observe(observation_terms(vehicles, config, z), W, a, config)


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
        * _error_var(config.rho_nu, echo_gain(dist, config), config)
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
                       config: SimConfig, a=None) -> FisherInfo:
    """Diagonal FIMs over (theta, d, v_dot) and the angle/distance CRLBs of
    the vehicles, row k of W being the beam toward vehicle k.  The vehicles
    are [K] arrays with a [K, N_t] W, or [n, K] arrays of n slots with an
    [n, K, N_t] W; the CRLBs take the vehicles' shape.

    f11 = 1/CRLB_theta = ||d(echo)/d(theta)||^2 / sigma_r^2,
    f22 = 1/CRLB_d = (2/c)^2 / sigma_nu^2, f33 = (2 f_c/c)^2 / sigma_mu^2.
    An unobservable vehicle gets infinite CRLBs.  a is
    steering(vehicles.theta, N_t) if the caller has it.
    """
    theta, dist = vehicles.theta, vehicles.dist
    if a is None:
        a = steering(theta, config.n_tx)
    u = np.vecdot(a, W)
    gain = np.abs(u) ** 2
    observable = _observable(gain, W)
    crlb_theta, crlb_d = _crlbs(theta, dist, W, config, a, u, observable)
    sigma_mu2 = _masked_var(config.rho_mu, echo_gain(dist, config), gain,
                            observable, config)
    return FisherInfo(
        crlb_theta=crlb_theta, crlb_d=crlb_d,
        f_doppler=(2.0 * config.carrier_hz / config.wave_speed) ** 2
        / sigma_mu2)


def _crlbs(theta, dist, W: np.ndarray, config: SimConfig, a: np.ndarray,
           u: np.ndarray, observable: np.ndarray):
    """(CRLB_theta, CRLB_d) of the beams W toward vehicles at (theta, dist),
    given their steering vectors a, u = a^H w and where they are
    observable; infinite where a vehicle is unobservable."""
    v = np.vecdot(steering_dtheta(theta, config.n_tx, a), W)
    crlb_theta, crlb_d = crlbs(u, v, echo_constants(theta, dist, config),
                               config.echo_noise_var)
    return (np.where(observable, crlb_theta, np.inf)[()],
            np.where(observable, crlb_d, np.inf)[()])
