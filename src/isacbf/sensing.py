"""Echo statistics, noisy observations, Fisher information, and CRLBs.

The echo seen from one vehicle after matched filtering is
r = G*beta*xi*b(theta)*(a(theta)^H w) + noise, with G = sqrt(N_t*N_r).
The measurement model is over (theta, d): a decision reads only the angle
and distance estimates, and the sensing constraints bound only their CRLBs.
The delay error variance scales inversely with the beam gain |a^H w|^2, so
CRLB_d = c_dist / |a^H w|^2.  The angle and distance CRLBs have one closed
form over arrays (crlbs), shared by the loss, the simulator and the CLI; its
per-geometry constants (echo_constants) derive from one evaluation of the
echo power gain |psi|^2.  A distance estimate is the truth plus
sqrt(CRLB_d) noise.  All of them read the vehicles' true geometry from one
record (BatchGeometry, build_geometry): observe() takes a geometry, the
beams, the noise and the angle estimates that need no beam
(angle_estimates), and fisher_information takes a geometry, or builds one
from a record of angles and distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import check_distance, steering, steering_dtheta
from .config import SimConfig

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


def observation_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """The standard-normal observation noise of vehicles of the given shape:
    the shape plus a trailing 2, columns (distance, angle).  One (n, K)
    draw equals n successive (K,) draws, in slot order."""
    return rng.standard_normal(tuple(shape) + (2,))


def _observable(gain, W: np.ndarray):
    """Where the beam rows W, of beam gains gain = |a^H w|^2, carry energy
    toward their vehicles."""
    return ~(gain <= _GAIN_FLOOR * np.maximum(1.0, np.vecdot(W, W).real))


@dataclass
class BatchGeometry:
    """The true geometry of vehicles, in their shape plus the antenna axis
    for a: what the loss, the observations and the CRLBs read of the
    vehicles that no beam changes.  The channels h and the steering
    derivatives a' are formed where they are read, from theta, dist and a
    (effective_channel, steering_dtheta); both are elementwise, so a subset
    has the bits of the whole."""
    theta: np.ndarray     # [..., K] true angles, rad
    dist: np.ndarray      # [..., K] true distances, m
    a: np.ndarray         # [..., K, N_t] steering(theta, N_t)
    echo: EchoConstants   # [..., K] each: the CRLB constants

    def __len__(self):
        return len(self.theta)

    def subset(self, idx) -> BatchGeometry:
        """The geometry of theta[idx]: idx indexes the leading axes, such
        as examples of a dataset or the slots np.s_[:, :-1] of a block."""
        return BatchGeometry(self.theta[idx], self.dist[idx], self.a[idx],
                             EchoConstants(*(c[idx] for c in self.echo)))


def build_geometry(theta, dist, config: SimConfig) -> BatchGeometry:
    """The BatchGeometry of vehicles at the angles theta and distances dist,
    arrays of one shape: one steering evaluation and their echo_constants."""
    return BatchGeometry(theta, dist, steering(theta, config.n_tx),
                         echo_constants(theta, dist, config))


def angle_estimates(theta, z: np.ndarray, config: SimConfig):
    """The angle estimates that need no beam, of vehicles at the true angles
    theta whose observation_noise block is z (theta's shape plus a trailing
    2, columns (distance, angle); another shape is a ValueError): in
    config.theta_mode "relative" theta*(1+e), e ~ N(0, obs_rel_mse); None
    in "crlb", where observe() takes CRLB_theta from the beam."""
    if z.shape != np.shape(theta) + (2,):
        raise ValueError(f"noise block {z.shape} does not match vehicles "
                         f"{np.shape(theta)} plus a trailing 2")
    if config.theta_mode == "relative":
        return theta * (1.0 + math.sqrt(config.obs_rel_mse) * z[..., 1])
    return None


def observe(geom: BatchGeometry, W: np.ndarray, z: np.ndarray, theta_hat,
            config: SimConfig) -> Observations:
    """The observations of the vehicles of the geometry geom under the beams
    W, row k toward vehicle k, with their observation_noise z and their
    angle_estimates theta_hat: the part of an observation that depends on
    the beam.  d_hat = d + sqrt(CRLB_d) z_d, and in crlb mode (theta_hat
    None) theta_hat = theta + sqrt(CRLB_theta) z_theta.  A vehicle whose
    beam carries no energy toward it (infinite CRLBs), or whose distance
    estimate is not positive, is marked unusable."""
    u = np.vecdot(geom.a, W)
    gain = np.abs(u) ** 2
    observable = _observable(gain, W)
    if theta_hat is None:
        crlb_theta, crlb_d = _crlbs(geom, W, config, u, observable)
        theta_hat = geom.theta + np.sqrt(crlb_theta) * z[..., 1]
    else:
        # inf / gain is inf for any finite gain >= 0, zero included, and
        # raises no floating-point exception, so no errstate is needed
        crlb_d = (np.where(observable, geom.echo.c_dist, np.inf) / gain)[()]
    d_hat = geom.dist + np.sqrt(crlb_d) * z[..., 0]
    return Observations(theta_hat=theta_hat, d_hat=d_hat,
                        usable=observable & (d_hat > 0))


def generate_observation(geom: BatchGeometry, W: np.ndarray,
                         config: SimConfig, z: np.ndarray) -> Observations:
    """Noisy (angle, distance) observations of the vehicles of the geometry
    geom under the beams W, row k toward vehicle k: observe() with their
    angle_estimates().

    geom's arrays have any leading shape, such as the [n, K] of n slots or
    the [n_ep, n, K] of n_ep episodes, and W is that shape plus [N_t]; the
    estimates take the vehicles' shape.  z is the vehicles'
    observation_noise block.  Always d_hat = d + N(0, CRLB(d, w)), and by
    config.theta_mode:
    "relative": theta_hat = theta*(1+e), e ~ N(0, obs_rel_mse);
    "crlb":     theta_hat = theta + N(0, CRLB(theta, w)).
    A caller draws noise for every slot, in slot order, whether or not a
    vehicle is observable, so the stream stays aligned.
    """
    return observe(geom, W, z, angle_estimates(geom.theta, z, config), config)


def echo_mean(theta: float, dist: float, w_k: np.ndarray,
              config: SimConfig) -> np.ndarray:
    """Noiseless matched-filtered echo G*beta*xi*b(theta)*(a(theta)^H w)."""
    g = math.sqrt(config.n_tx * config.n_rx)
    beta = reflection_coeff(dist, config)
    a = steering(theta, config.n_tx)
    b = steering(theta, config.n_rx)
    return g * beta * config.mf_gain * b * (a.conj() @ w_k)


def echo_constants(theta, dist, config: SimConfig) -> EchoConstants:
    """The CRLB constants of each geometry; theta and dist broadcast.

    Both echo-power constants derive from |psi|^2 = N_t*N_r*|beta|^2, the
    echo power gain of a unit beam gain.  c_dist is the numerator of
    CRLB_d = c_dist / |a^H w|^2: d = c*nu/2, so CRLB_d = (c/2)^2
    sigma_nu^2, and the delay error variance sigma_nu^2 = rho_nu^2 sigma^2
    / (xi |psi|^2 |a^H w|^2), xi |psi|^2 being the matched-filtered echo
    power of a unit beam gain."""
    nr = config.n_rx
    sin_t = np.sin(theta)
    # ||b'||^2 = (pi sin)^2 * sum_m m^2 / Nr ; b'^H b = -j pi sin (Nr-1)/2
    s_bp = (np.pi * sin_t) ** 2 * ((nr - 1) * nr * (2 * nr - 1) / 6) / nr
    q_bp = -1j * np.pi * sin_t * (nr - 1) / 2.0
    psi2 = config.n_tx * config.n_rx * abs(reflection_coeff(dist, config)) ** 2
    c_dist = (config.wave_speed / 2.0) ** 2 \
        * (config.rho_nu ** 2 * config.noise_rsu / (config.mf_gain * psi2))
    return EchoConstants(s_bp=s_bp, q_bp=q_bp, c1sq=psi2 * config.mf_gain ** 2,
                         c_dist=c_dist)


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


def fisher_information(vehicles, W: np.ndarray,
                       config: SimConfig) -> FisherInfo:
    """Diagonal FIMs over (theta, d) and the angle/distance CRLBs of the
    vehicles, row k of W being the beam toward vehicle k.  vehicles is
    their BatchGeometry, or any record of their theta and dist (such as a
    VehicleState), whose geometry is built here.  The vehicles are [K]
    arrays with a [K, N_t] W, or arrays of any leading shape, such as the
    [n, K] of n slots or the [R, n, K] of R episodes, with W of that shape
    plus [N_t]; the CRLBs take the vehicles' shape.

    f11 = 1/CRLB_theta = ||d(echo)/d(theta)||^2 / sigma_r^2,
    f22 = 1/CRLB_d = (2/c)^2 / sigma_nu^2.
    An unobservable vehicle gets infinite CRLBs.
    """
    geom = vehicles if isinstance(vehicles, BatchGeometry) \
        else build_geometry(vehicles.theta, vehicles.dist, config)
    u = np.vecdot(geom.a, W)
    crlb_theta, crlb_d = _crlbs(geom, W, config, u,
                                _observable(np.abs(u) ** 2, W))
    return FisherInfo(crlb_theta=crlb_theta, crlb_d=crlb_d)


def _crlbs(geom: BatchGeometry, W: np.ndarray, config: SimConfig,
           u: np.ndarray, observable: np.ndarray):
    """(CRLB_theta, CRLB_d) of the beams W toward the vehicles of the
    geometry geom, given u = a^H w and where they are observable; infinite
    where a vehicle is unobservable."""
    crlb_theta, crlb_d = crlbs(u, np.vecdot(steering_dtheta(
        geom.theta, config.n_tx, geom.a), W), geom.echo, config.echo_noise_var)
    return (np.where(observable, crlb_theta, np.inf)[()],
            np.where(observable, crlb_d, np.inf)[()])
