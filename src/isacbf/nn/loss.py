"""Penalty-based training loss and its gradient w.r.t. the network output.

The scalar cost is

  J = -(1/Nb) sum_i sum_k log2(1 + SINR_ik)
      + lambda_theta * relu(mean_ik CRLB_theta - gamma_theta)^2
      + lambda_d     * relu(mean_ik CRLB_d     - gamma_d)^2
      + lambda_power * (1/Nb) sum_i relu(||W_i||_F^2 - P)^2

with the CRLBs evaluated at each example's true geometry using the network's
per-user beams.  The SINR and the CRLBs come from ``channel.batch_sinr`` and
``sensing.crlbs``, the formulas the simulator evaluates; this module adds
only the caps, the penalties and the gradient.  Everything here is expressed
in terms of the real network output O [Nb, K, M, 2]; dJ/dO comes from
Wirtinger calculus on the complex beam rows w_k = O[...,0] + j O[...,1]
and is verified against finite differences in the tests.

CRLB terms are clamped at CAP_FACTOR * gamma so the loss stays finite at
pathological (zero-beam) parameter points; clamped terms contribute zero
gradient.
"""
from __future__ import annotations

import numpy as np

from ..channel import batch_sinr, effective_channel, steering_dtheta
from ..config import SimConfig
# build_geometry is not called here: callers of the loss import it from here
from ..sensing import BatchGeometry, build_geometry, crlbs  # noqa: F401
from .model import output_to_matrix

CAP_FACTOR = 1e6
_LN2 = float(np.log(2.0))


def _relu(x):
    return x if x > 0.0 else 0.0


def penalty_loss_and_grad(o: np.ndarray, geom: BatchGeometry,
                          config: SimConfig, want_grad: bool = True):
    """Loss J and dJ/dO for a batch of network outputs.

    o: [Nb, K, M, 2] real; geom must cover the same examples.
    Returns (J, parts) or (J, parts, gO).
    """
    nb, k, _, _ = o.shape
    w = output_to_matrix(o)                              # [Nb, K, M]
    cap_t = CAP_FACTOR * config.gamma_theta
    cap_d = CAP_FACTOR * config.gamma_d

    # the true channels and steering derivatives of the batch's geometry
    h = effective_channel(geom.dist, config, geom.a)
    ap = steering_dtheta(geom.theta, config.n_tx, geom.a)
    phi, s, denom = batch_sinr(h, w, config.noise_vehicle)
    rate = np.log2(1.0 + phi).sum() / nb

    # CRLB terms at the true geometry; an infinite or undefined one is capped
    u = np.vecdot(geom.a, w)
    v = np.vecdot(ap, w)
    crlb_t, crlb_d = crlbs(u, v, geom.echo, config.echo_noise_var)
    crlb_t = np.where(crlb_t < cap_t, crlb_t, cap_t)
    crlb_d = np.where(crlb_d < cap_d, crlb_d, cap_d)
    mean_t = float(crlb_t.mean())
    mean_d = float(crlb_d.mean())
    viol_t = _relu(mean_t - config.gamma_theta)
    viol_d = _relu(mean_d - config.gamma_d)

    # power term: ||W_i||_F^2 is the squared norm of example i's real outputs
    flat = o.reshape(nb, -1)
    pw = np.vecdot(flat, flat)
    viol_p = np.maximum(pw - config.power_budget, 0.0)

    pen_theta = config.lambda_theta * viol_t ** 2
    pen_d = config.lambda_d * viol_d ** 2
    pen_power = config.lambda_power * float((viol_p ** 2).mean())
    j = -rate + pen_theta + pen_d + pen_power
    parts = {"rate": rate, "crlb_theta_mean": mean_t, "crlb_d_mean": mean_d,
             "power_mean": float(pw.mean()), "pen_theta": pen_theta,
             "pen_d": pen_d, "pen_power": pen_power}
    if not want_grad:
        return j, parts

    # dJ/dO = 2 (Re, Im) of dJ/d(conj w), so every term below is doubled and
    # accumulated in gw, whose float64 view is dJ/dO in the output's layout.
    # Rate term: beam j gets sum_k t_kj h_k
    coef = (-2.0 / (nb * _LN2)) / ((1.0 + phi) * denom)  # [Nb, K]
    t_kj = -(coef * phi)[:, :, None] * s                 # k != j part
    kk = np.arange(k)
    t_kj[:, kk, kk] = coef * s[:, kk, kk]
    gw = np.matmul(t_kj.swapaxes(1, 2), h)
    g_o = gw.view(np.float64).reshape(o.shape)

    # CRLB penalties (clamped terms are flat); CRLB_theta = sigma_r^2 / D with
    # D = ||dr/dtheta||^2 quadratic in (u, v), and CRLB_d = c_dist / |u|^2
    echo = geom.echo
    if viol_t > 0.0:
        dj_dcrlb = 4.0 * config.lambda_theta * viol_t / crlb_t.size
        # dCRLB/dD = -sigma_r^2 / D^2 = -CRLB^2 / sigma_r^2
        coef_t = np.where(crlb_t < cap_t,
                          -dj_dcrlb * crlb_t ** 2 / config.echo_noise_var, 0.0)
        du = echo.c1sq * (echo.s_bp * u + echo.q_bp * v)
        dv = echo.c1sq * (v + np.conj(echo.q_bp) * u)
        gw += (coef_t * du)[..., None] * geom.a + (coef_t * dv)[..., None] * ap

    if viol_d > 0.0:
        dj_dcrlb = 4.0 * config.lambda_d * viol_d / crlb_d.size
        # dCRLB/d|u|^2 = -c_dist / |u|^4 = -CRLB^2 / c_dist
        coef_d = np.where(crlb_d < cap_d, -dj_dcrlb * crlb_d ** 2 / echo.c_dist,
                          0.0)
        gw += (coef_d * u)[..., None] * geom.a

    # power penalty, real as its coefficient
    g_o += ((4.0 * config.lambda_power / nb) * viol_p)[:, None, None, None] * o
    return j, parts, g_o


def penalty_loss(model, x: np.ndarray, geom: BatchGeometry,
                 config: SimConfig) -> tuple[float, dict]:
    """Loss of a model on a batch (x: [Nb, tau, K, M, 2] raw inputs)."""
    o = model.forward(x)
    return penalty_loss_and_grad(o, geom, config, want_grad=False)


def gradient(model, x: np.ndarray, geom: BatchGeometry,
             config: SimConfig) -> tuple[float, dict, np.ndarray]:
    """Loss and exact reverse-mode gradient w.r.t. the flat parameter vector."""
    o, cache = model.forward(x, want_cache=True)
    j, parts, g_o = penalty_loss_and_grad(o, geom, config)
    if not np.isfinite(j):
        raise FloatingPointError(f"non-finite loss: {j}")
    return j, parts, model.backward(g_o, cache)
