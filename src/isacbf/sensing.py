"""Echo statistics, noisy observations, Fisher information, and CRLBs.

The echo seen from one vehicle after matched filtering is
r = G*beta*xi*b(theta)*(a(theta)^H w) + noise, with G = sqrt(N_t*N_r).
The measurement model is over (theta, d): a decision reads only the angle
and distance estimates, and the sensing constraints bound only their CRLBs.
The delay error variance scales inversely with the beam gain |a^H w|^2, so
CRLB_d = c_dist / |a^H w|^2.  The angle and distance CRLBs have one closed
form over arrays (crlbs), shared by the loss, the simulator and the CLI, and
a distance estimate is the truth plus sqrt(CRLB_d) noise.
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
    """Estimates of vehicles, in their shape: [K] for one slot, [R, K] for
    one slot of R episodes; an entry is meaningful only where usable is
    True."""
    theta_hat: np.ndarray  # angle estimates, rad
    d_hat: np.ndarray      # distance estimates, m
    usable: np.ndarray     # bool: observable and d_hat > 0


@dataclass(frozen=True)
class FisherInfo:
    crlb_theta: np.ndarray  # rad^2
    crlb_d: np.ndarray      # m^2

    @property
    def f(self) -> np.ndarray:
        """Diagonal information matrices [..., 2, 2] over (theta, d)."""
        diag = np.stack((1.0 / self.crlb_theta, 1.0 / self.crlb_d), axis=-1)
        return diag[..., None] * np.eye(2)


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


def _c_dist(dist, config: SimConfig):
    """c_dist of vehicles at dist, the numerator of CRLB_d = c_dist /
    |a^H w|^2: d = c*nu/2, so CRLB_d = (c/2)^2 sigma_nu^2, and the delay
    error variance sigma_nu^2 = rho_nu^2 sigma^2 / (xi |psi|^2 |a^H w|^2),
    xi |psi|^2 being the matched-filtered echo power of a unit beam gain."""
    echo = config.mf_gain * _psi2(dist, config)
    return (config.wave_speed / 2.0) ** 2 \
        * (config.rho_nu ** 2 * config.noise_rsu / echo)


def observation_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """The standard-normal observation noise of vehicles of the given shape:
    the shape plus a trailing 2, columns (distance, angle).  One (n, K)
    draw equals n successive (K,) draws, in slot order."""
    return rng.standard_normal(tuple(shape) + (2,))


def _observable(gain, W: np.ndarray):
    """Where the beam rows W, of beam gains gain = |a^H w|^2, carry energy
    toward their vehicles."""
    return ~(gain <= _GAIN_FLOOR * np.maximum(1.0, np.vecdot(W, W).real))


class ObsTerms(NamedTuple):
    """What observations of vehicles need that no beam changes, as arrays of
    the vehicles' shape: an episode takes them once, as [n_slots, K]
    blocks, and observes each slot under views of its rows."""
    theta: np.ndarray      # true angles, rad
    dist: np.ndarray       # true distances, m
    z: np.ndarray          # observation_noise: trailing (distance, angle)
    # relative mode only (None in crlb mode, where observe takes both CRLBs
    # from the beam): c_dist, and the angle estimates
    c_dist: np.ndarray | None
    theta_hat: np.ndarray | None


def observation_terms(vehicles: VehicleState, config: SimConfig,
                      z: np.ndarray) -> ObsTerms:
    """The beam-independent terms of noisy observations of the vehicles.

    z is their observation_noise block: the vehicles' shape plus a trailing 2,
    columns (distance, angle).  In config.theta_mode "relative" the angle
    estimate theta*(1+e), e ~ N(0, obs_rel_mse), needs no beam, and neither
    does c_dist; in "crlb" observe() takes both CRLBs from the beam.
    """
    theta, dist = vehicles.theta, vehicles.dist
    if z.shape != np.shape(theta) + (2,):
        raise ValueError(f"noise block {z.shape} does not match vehicles "
                         f"{np.shape(theta)} plus a trailing 2")
    c_dist = theta_hat = None
    if config.theta_mode == "relative":
        c_dist = _c_dist(dist, config)
        theta_hat = theta * (1.0 + math.sqrt(config.obs_rel_mse) * z[..., 1])
    return ObsTerms(theta=theta, dist=dist, z=z, c_dist=c_dist,
                    theta_hat=theta_hat)


def observe(terms: ObsTerms, W: np.ndarray, a: np.ndarray,
            config: SimConfig) -> Observations:
    """The observations of the vehicles of terms under the beams W, row k
    toward vehicle k, whose true steering vectors are a: the part of an
    observation that depends on the beam.  d_hat = d + sqrt(CRLB_d) z_d,
    and in crlb mode theta_hat = theta + sqrt(CRLB_theta) z_theta.  A
    vehicle whose beam carries no energy toward it (infinite CRLBs), or
    whose distance estimate is not positive, is marked unusable."""
    u = np.vecdot(a, W)
    gain = np.abs(u) ** 2
    observable = _observable(gain, W)
    theta_hat = terms.theta_hat
    if theta_hat is None:
        crlb_theta, crlb_d = _crlbs(terms.theta, terms.dist, W, config, a, u,
                                    observable)
        theta_hat = terms.theta + np.sqrt(crlb_theta) * terms.z[..., 1]
    else:
        # inf / gain is inf for any finite gain >= 0, zero included, and
        # raises no floating-point exception, so no errstate is needed
        crlb_d = (np.where(observable, terms.c_dist, np.inf) / gain)[()]
    d_hat = terms.dist + np.sqrt(crlb_d) * terms.z[..., 0]
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
    the vehicles' shape.  z is the vehicles' observation_noise block.  a is
    steering(vehicles.theta, N_t) if the caller has it.  Always
    d_hat = d + N(0, CRLB(d, w)), and by config.theta_mode:
    "relative": theta_hat = theta*(1+e), e ~ N(0, obs_rel_mse);
    "crlb":     theta_hat = theta + N(0, CRLB(theta, w)).
    A caller draws noise for every slot, in slot order, whether or not a
    vehicle is observable, so the stream stays aligned.
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
    return EchoConstants(s_bp=s_bp, q_bp=q_bp, c1sq=c1sq,
                         c_dist=_c_dist(dist, config))


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
                       config: SimConfig, a=None, ap=None,
                       echo=None) -> FisherInfo:
    """Diagonal FIMs over (theta, d) and the angle/distance CRLBs of the
    vehicles, row k of W being the beam toward vehicle k.  The vehicles
    are [K] arrays with a [K, N_t] W, or arrays of any leading shape, such
    as the [n, K] of n slots or the [R, n, K] of R episodes, with W of that
    shape plus [N_t]; the CRLBs take the vehicles' shape.

    f11 = 1/CRLB_theta = ||d(echo)/d(theta)||^2 / sigma_r^2,
    f22 = 1/CRLB_d = (2/c)^2 / sigma_nu^2.
    An unobservable vehicle gets infinite CRLBs.  a is
    steering(vehicles.theta, N_t), ap its steering_dtheta and echo the
    vehicles' echo_constants, each if the caller has it.
    """
    theta, dist = vehicles.theta, vehicles.dist
    if a is None:
        a = steering(theta, config.n_tx)
    u = np.vecdot(a, W)
    crlb_theta, crlb_d = _crlbs(theta, dist, W, config, a, u,
                                _observable(np.abs(u) ** 2, W), ap, echo)
    return FisherInfo(crlb_theta=crlb_theta, crlb_d=crlb_d)


def _crlbs(theta, dist, W: np.ndarray, config: SimConfig, a: np.ndarray,
           u: np.ndarray, observable: np.ndarray, ap=None, echo=None):
    """(CRLB_theta, CRLB_d) of the beams W toward vehicles at (theta, dist),
    given their steering vectors a, u = a^H w and where they are
    observable; infinite where a vehicle is unobservable.  ap and echo are
    as in fisher_information."""
    if ap is None:
        ap = steering_dtheta(theta, config.n_tx, a)
    if echo is None:
        echo = echo_constants(theta, dist, config)
    crlb_theta, crlb_d = crlbs(u, np.vecdot(ap, W), echo,
                               config.echo_noise_var)
    return (np.where(observable, crlb_theta, np.inf)[()],
            np.where(observable, crlb_d, np.inf)[()])
