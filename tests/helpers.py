"""Shared test oracles: an extended-precision steering vector,
finite-difference gradients, an independent FIM, a loop max-pool, the
explicit one-user and one-vector forms behind the package's closed forms,
and one-slot-at-a-time episode, decision and dataset loops."""
from __future__ import annotations

import math

import numpy as np

from isacbf.baselines import (genie_beamformer, genie_rate,
                              naive_dl_beamformer, random_beamformer)
from isacbf.channel import (effective_channel, steering, steering_direct,
                            steering_dtheta, sum_rate)
from isacbf.kinematics import init_vehicles, step_motion
from isacbf.sensing import (echo_mean, fisher_information,
                            generate_observation, observation_noise,
                            reflection_coeff)


def exact_steering(theta, n_ant: int):
    """The steering vector exp(-j*pi*m*cos(theta))/sqrt(N) as (real, imag)
    long-double arrays: the phase -pi*m*cos(theta) of each entry taken
    directly in np.longdouble, then its cos and sin."""
    pi = np.arccos(np.longdouble(-1))
    m = np.arange(n_ant, dtype=np.longdouble)
    phase = -pi * m * np.cos(np.asarray(theta, dtype=np.longdouble))[..., None]
    scale = np.sqrt(np.longdouble(n_ant))
    return np.cos(phase) / scale, np.sin(phase) / scale


def fd_fim(state, w_k, config, eps: float = 1e-7) -> np.ndarray:
    """Fisher information matrix over (theta, d) built independently.

    The angle block uses a central-difference Jacobian of the noiseless echo
    (distance, and hence the reflection amplitude, held fixed); the distance
    block comes straight from the scalar delay measurement model
    nu = 2d/c + noise, whose variance is
    rho_nu^2 * sigma_rsu^2 / (xi * N_t*N_r*|beta|^2 * |a^H w|^2).
    """
    f = np.zeros((2, 2))
    gain = abs(np.vdot(steering(state.theta, config.n_tx), w_k)) ** 2
    if gain <= 1e-30 * max(1.0, float(np.vdot(w_k, w_k).real)):
        return f
    rp = echo_mean(state.theta + eps, state.dist, w_k, config)
    rm = echo_mean(state.theta - eps, state.dist, w_k, config)
    dr = (rp - rm) / (2.0 * eps)
    beta2 = abs(config.rcs_coeff / (2.0 * state.dist)) ** 2
    echo_snr = config.mf_gain * config.n_tx * config.n_rx * beta2 * gain \
        / config.noise_rsu
    sigma_nu2 = config.rho_nu ** 2 / echo_snr
    f[0, 0] = float(np.vdot(dr, dr).real) / config.echo_noise_var
    f[1, 1] = (2.0 / config.wave_speed) ** 2 / sigma_nu2
    return f


def echo_dtheta(theta: float, dist: float, w_k: np.ndarray,
                config) -> np.ndarray:
    """d(echo_mean)/d(theta) as a vector, G*beta*xi*(b' (a^H w) + b (a'^H w)):
    the explicit form of the norm that sensing.crlbs has in closed form."""
    g = math.sqrt(config.n_tx * config.n_rx)
    beta = reflection_coeff(dist, config)
    a = steering(theta, config.n_tx)
    ap = steering_dtheta(theta, config.n_tx, a)
    b = steering(theta, config.n_rx)
    bp = steering_dtheta(theta, config.n_rx, b)
    return g * beta * config.mf_gain * (bp * (a.conj() @ w_k)
                                        + b * (ap.conj() @ w_k))


def sinr(h_k: np.ndarray, W: np.ndarray, k: int, sigma2: float) -> float:
    """SINR of user k for the [K, N_t] beams W (row j is user j's beam), one
    user at a time: the reference for channel.batch_sinr."""
    gains = np.abs(W @ h_k.conj()) ** 2
    signal = gains[k]
    interference = gains.sum() - signal
    return float(signal / (interference + sigma2))


def fd_grad(fun, x: np.ndarray, idx, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function at selected flat indices."""
    x = np.asarray(x, dtype=float)
    out = np.empty(len(idx))
    flat = x.ravel()
    for j, i in enumerate(idx):
        orig = flat[i]
        step = eps * max(1.0, abs(orig))
        flat[i] = orig + step
        fp = fun(x)
        flat[i] = orig - step
        fm = fun(x)
        flat[i] = orig
        out[j] = (fp - fm) / (2.0 * step)
    return out


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.abs(a), np.abs(b))
    denom[denom == 0.0] = 1.0
    return float(np.max(np.abs(a - b) / denom))


def loop_maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max-pool of [B, H, W, C] x and the window index 2*dy + dx of each
    window's first maximum, one window at a time."""
    nb, h, w, c = x.shape
    out = np.empty((nb, h // 2, w // 2, c))
    idx = np.empty(out.shape, dtype=np.int64)
    for n, i, j, ch in np.ndindex(out.shape):
        win = x[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, ch].ravel()
        best = 0
        for q in (1, 2, 3):
            if win[q] > win[best]:
                best = q
        out[n, i, j, ch], idx[n, i, j, ch] = win[best], best
    return out, idx


def slot_loop_episode(config, method: str, rng):
    """A genie or random episode one slot at a time: one motion step, one
    beam draw and one measurement per slot.  Returns the per-slot vehicles,
    beams, rates, CRLB_theta and CRLB_d."""
    rng_motion, _, rng_beam = rng.spawn(3)
    vehicles = init_vehicles(config, rng_motion)
    out = []
    for n in range(config.n_slots):
        if n:
            vehicles = step_motion(vehicles, config, rng_motion)
        if method == "genie":
            w = genie_beamformer(vehicles, config)
            rate = genie_rate(vehicles, config)
        else:
            w = random_beamformer(config, rng_beam)
            h = effective_channel(vehicles.theta, vehicles.dist, config)
            rate = sum_rate(h, w, config.noise_vehicle)
        info = fisher_information(vehicles, w, config)
        out.append((vehicles, w, rate, info.crlb_theta, info.crlb_d))
    return tuple(zip(*out))


def shift_history(history, obs, config):
    """The [tau, K, M] history after one slot's observation: the usable
    vehicles' new rows are the channels from their estimates, from one call
    over those vehicles' arrays with the direct steering vectors, and an
    unusable vehicle repeats its previous row."""
    latest = history[-1].copy()
    usable = obs.usable
    theta_hat = obs.theta_hat[usable]
    latest[usable] = effective_channel(
        theta_hat, obs.d_hat[usable], config,
        steering_direct(theta_hat, config.n_tx))
    return np.concatenate((history[1:], latest[None]))


def slot_loop_decide(config, method: str, model, rng, project: bool = False):
    """The applied beams [n_slots, K, N_t] of an hcl or naive_dl episode and
    its observations, one slot at a time: per slot one motion step, one
    random-beam draw, one noise draw of the K vehicles and one observation;
    hcl shifts a [tau, K, M] history by one row and predicts from the whole
    window, naive_dl maps a complete observation through the FC net.  With
    project, a decided W with ||W||_F^2 above the budget P is scaled by
    sqrt(P / ||W||_F^2)."""
    rng_motion, rng_obs, rng_beam = rng.spawn(3)
    k, tau = config.n_vehicles, config.history_len
    vehicles = init_vehicles(config, rng_motion)
    history = np.zeros((tau, k, config.n_tx), dtype=complex)
    w = [random_beamformer(config, rng_beam)]
    observations = []
    for n in range(config.n_slots - 1):
        if n:
            vehicles = step_motion(vehicles, config, rng_motion)
        obs = generate_observation(vehicles, w[n], config,
                                   observation_noise(rng_obs, (k,)))
        observations.append(obs)
        w.append(random_beamformer(config, rng_beam))
        beams = None
        if method == "hcl":
            history = shift_history(history, obs, config)
            if n >= tau - 1:
                beams = model.predict(history)
        elif obs.usable.all():
            beams = naive_dl_beamformer(obs.theta_hat, obs.d_hat, model,
                                        config)
        if beams is None:
            continue
        power = np.sum(np.abs(beams) ** 2)
        if project and power > config.power_budget:
            beams = beams * np.sqrt(config.power_budget / power)
        w[n + 1] = beams
    return np.stack(w), observations


def slot_loop_dataset(config, n_examples: int, rng) -> dict:
    """generate_dataset one slot at a time: per-slot draws, a [tau, K, M]
    history shifted by one row each slot in which an unusable vehicle
    repeats its previous entry, and an example at each slot n >= tau whose
    previous slot observed every vehicle."""
    tau = config.history_len
    rows = []
    while len(rows) < n_examples:
        rng_motion, rng_obs, rng_beam = rng.spawn(1)[0].spawn(3)
        vehicles = init_vehicles(config, rng_motion)
        history = np.zeros((tau, config.n_vehicles, config.n_tx),
                           dtype=complex)
        for n in range(config.n_slots):
            if n:
                vehicles = step_motion(vehicles, config, rng_motion)
            if n >= tau and obs.usable.all():
                rows.append((
                    np.stack((history.real, history.imag), axis=-1),
                    effective_channel(vehicles.theta, vehicles.dist, config),
                    vehicles.theta, vehicles.dist, obs.theta_hat, obs.d_hat))
            w = random_beamformer(config, rng_beam)
            obs = generate_observation(
                vehicles, w, config,
                observation_noise(rng_obs, (config.n_vehicles,)))
            history = shift_history(history, obs, config)
    names = ("x", "h", "thetas", "dists", "est_thetas", "est_dists")
    return {name: np.stack(col) for name, col in
            zip(names, zip(*rows[:n_examples]))}
