"""Episode simulation, dataset generation, Monte-Carlo evaluation, sweeps.

Protocol per slot: the RSU applies the beamforming matrix decided during the
previous slot, receives noisy observations, refreshes the estimated-channel
history, and decides the next slot's beams.  The first history_len slots warm
up with random beams so predictive methods always see a full window.  Motion,
random beams and the standard-normal observation noise never depend on an
observation, so each episode draws them as [n_slots, K] blocks; only the
causal methods step through the slots.  One pass after the last slot
measures every slot's sum-rate and CRLBs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .baselines import (genie_beamformer, genie_rate, naive_dl_beamformer,
                        random_beamformer)
from .channel import effective_channel, steering, steering_direct, sum_rate
from .config import SimConfig
from .io_container import load_container, save_container
from .kinematics import VehicleState, init_vehicles, step_motion
from .nn.loss import BatchGeometry, build_geometry
from .nn.model import HCLNet, NaiveNet
from .nn.train import TrainHyper, TrainResult, train
from .sensing import (fisher_information, generate_observation,
                      observation_noise, observation_terms, observe)

METHODS = ("genie", "naive_dl", "random", "hcl")


@dataclass
class EpisodeTrace:
    vehicles: VehicleState   # [n_slots, K] arrays
    # [n_slots, N_t, K] complex, column k vehicle k's beam (the benchmark's
    # episode check reads w[:, k]): a view of the [n_slots, K, N_t] beam rows
    w_applied: np.ndarray
    decided_at: np.ndarray   # [n_slots] slot index that chose W
    rates: np.ndarray        # [n_slots]
    crlb_theta: np.ndarray   # [n_slots, K]
    crlb_d: np.ndarray       # [n_slots, K]

    def __len__(self):
        return len(self.rates)

    @cached_property
    def states(self) -> list:
        """Per slot: the K vehicles as scalar VehicleState records."""
        return [v.records() for v in self.vehicles.records()]


def verify_causality(trace: EpisodeTrace) -> bool:
    """True when every applied W was decided strictly before its slot."""
    return bool((trace.decided_at < np.arange(len(trace))).all())


def _check_method(method: str, model) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in ("hcl", "naive_dl") and model is None:
        raise ValueError(f"method {method!r} requires a trained model")


def check_eval_args(methods, n_realizations: int, models: dict) -> None:
    """Raise ValueError for an unknown method, a predictive method without
    a model, or fewer than one realization."""
    for method in methods:
        _check_method(method, models.get(method))
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")


def _exogenous(config: SimConfig, rng: np.random.Generator):
    """The draws of one episode that no decision depends on: the [n_slots, K]
    trajectory, and the observation and random-beam streams."""
    rng_motion, rng_obs, rng_beam = rng.spawn(3)
    vehicles = step_motion(init_vehicles(config, rng_motion), config,
                           rng_motion, config.n_slots - 1)
    return vehicles, rng_obs, rng_beam


def _write_estimates(est: np.ndarray, obs, config: SimConfig,
                     a_hat=None) -> None:
    """Write the estimated channels of the slots of obs into est[..., 1:, :,
    :], one [K, M] row per slot, est[..., 0, :, :] holding the row before
    the first.  est is [n + 1, K, M] for obs of one slot's [K] arrays
    (n = 1) or of n slots' [n, K] arrays, and [n_ep, n + 1, K, M] for the
    [n_ep, n, K] arrays of n_ep episodes; a_hat is
    steering_direct(obs.theta_hat, N_t) if the caller has it.  A vehicle
    without a usable estimate carries its previous row forward.

    An estimated channel takes steering_direct, the bits of the defining
    formula, not steering's recurrence: a distance estimate near 0 makes its
    row far larger than any true channel, and isacbench's check_dataset
    compares the rows with its own direct exponential to 1e-12 of the
    largest true channel, which the recurrence's 3*N*eps relative error
    misses on such a row (about 1 dataset of 600 examples in 300)."""
    k = est.shape[-2]
    usable = obs.usable.reshape(est.shape[:-3] + (-1, k))
    rows = est[..., 1:, :, :]
    if usable.all():
        if a_hat is None:
            a_hat = steering_direct(obs.theta_hat, config.n_tx)
        rows[:] = effective_channel(obs.theta_hat, obs.d_hat, config, a_hat)
        return
    theta_hat, d_hat = (f.reshape(usable.shape)[usable]
                        for f in (obs.theta_hat, obs.d_hat))
    a_hat = steering_direct(theta_hat, config.n_tx) if a_hat is None \
        else a_hat.reshape(usable.shape + (-1,))[usable]
    rows[usable] = effective_channel(theta_hat, d_hat, config, a_hat)
    # each row's latest usable row of the vehicle, 0 for the row before
    latest = np.maximum.accumulate(
        usable * np.arange(1, usable.shape[-2] + 1)[:, None], axis=-2)
    # plain fancy indexing: np.take_along_axis costs 3x more on one slot
    episodes = (np.arange(len(est))[:, None, None],) if est.ndim == 4 else ()
    rows[:] = est[(*episodes, latest, np.arange(k))]


def project_power(w: np.ndarray, budget: float) -> np.ndarray:
    """w scaled onto the budget when ||w||_F^2 exceeds it, else w itself."""
    pw = float(np.sum(np.abs(w) ** 2))
    return w * np.sqrt(budget / pw) if pw > budget else w


def _decide(config: SimConfig, method: str, model, vehicles: VehicleState,
            w: np.ndarray, a: np.ndarray, rng_obs: np.random.Generator,
            project: bool) -> None:
    """The causal slot loop of hcl and naive_dl: observe slot n under w[n],
    then decide w[n + 1] in place, projected onto the power budget when
    project is set.  w holds random beams on entry, which a slot keeps while
    the method's input is incomplete.  a is the episode's [n_slots, K, N_t]
    steering.  What the observations need that no beam changes (the noise
    block, the stream of the per-slot draws, and observation_terms) is
    computed before the loop, and so in config.theta_mode "relative" is the
    steering of the angle estimates; a slot computes only what depends on
    its beam."""
    n_slots, k = config.n_slots, config.n_vehicles
    observed = VehicleState(*(f[:-1] for f in vars(vehicles).values()))
    terms = observation_terms(
        observed, config, observation_noise(rng_obs, (n_slots - 1, k)))
    if method == "hcl":
        stream = model.stream()
        # row n + 1 holds slot n's estimated channels, zeros before slot 0
        est = np.zeros((n_slots, k, config.n_tx), dtype=complex)
        a_hat = None if terms.theta_hat is None \
            else steering_direct(terms.theta_hat, config.n_tx)
    for n in range(n_slots - 1):
        obs = observe(terms.at(n), w[n], a[n], config)
        beams = None
        if method == "hcl":
            _write_estimates(est[n:n + 2], obs, config,
                             None if a_hat is None else a_hat[n])
            beams = stream.push(est[n + 1])
        elif obs.usable.all():
            beams = naive_dl_beamformer(obs.theta_hat, obs.d_hat, model,
                                        config)
        if beams is not None:
            w[n + 1] = project_power(beams, config.power_budget) if project \
                else beams


def run_episode(config: SimConfig, method: str, rng: np.random.Generator,
                model=None, project: bool = False) -> EpisodeTrace:
    """Simulate one episode of config.n_slots slots under one beamforming method.

    Motion, observation noise, and random-beam draws use three independent
    child streams so trajectories are comparable across methods at a fixed
    seed; each is drawn as one [n_slots, K] block.  The genie aims at the
    current truth each slot and is exempt from the causality invariant.
    Only hcl and naive_dl observe the vehicles, in a causal slot loop.  One
    pass at the end measures every slot's sum-rate and CRLBs against the
    true state.  The steering vectors of the true angles are evaluated once
    and shared by the beams, observations and measurements.  A non-finite
    beam of hcl or naive_dl is a ValueError naming the method and the first
    slot that applies one, so no NaN reaches a rate or a CRLB.
    """
    _check_method(method, model)
    n = config.n_slots
    vehicles, rng_obs, rng_beam = _exogenous(config, rng)
    a = steering(vehicles.theta, config.n_tx)
    if method == "genie":
        w, decided_at = genie_beamformer(vehicles, config, a), np.arange(n)
    else:
        w = random_beamformer(config, rng_beam, n)
        decided_at = np.arange(-1, n - 1)
        if method != "random":
            _decide(config, method, model, vehicles, w, a, rng_obs, project)
            finite = np.isfinite(w).all(axis=(1, 2))
            if not finite.all():
                raise ValueError(f"{method}: the beams applied in slot "
                                 f"{finite.argmin()} are not finite")
    if method == "genie":
        rates = genie_rate(vehicles, config)
    else:
        h = effective_channel(vehicles.theta, vehicles.dist, config, a)
        rates = sum_rate(h, w, config.noise_vehicle)
    info = fisher_information(vehicles, w, config, a)
    return EpisodeTrace(vehicles=vehicles, w_applied=w.swapaxes(1, 2),
                        decided_at=decided_at, rates=rates,
                        crlb_theta=info.crlb_theta, crlb_d=info.crlb_d)


# ---- datasets --------------------------------------------------------------

@dataclass
class Dataset:
    """Training examples: history windows plus the next slot's ground truth."""
    x: np.ndarray           # [Ne, tau, K, M, 2] estimated-channel windows
    h: np.ndarray           # [Ne, K, M] complex true next-slot channels (rows h_k)
    thetas: np.ndarray      # [Ne, K] true angles
    dists: np.ndarray       # [Ne, K] true distances
    est_thetas: np.ndarray  # [Ne, K] last-slot estimated angles (naive DL input)
    est_dists: np.ndarray   # [Ne, K] last-slot estimated distances

    def __len__(self):
        return self.x.shape[0]

    def kappa(self) -> float:
        """Input normalization 1 / median norm of the estimated-channel rows
        h_k (each slot's and vehicle's length-M vector)."""
        norms = np.sqrt((self.x ** 2).sum(axis=(3, 4)))
        med = float(np.median(norms))
        return 1.0 / med if med > 0 else 1.0

    def check(self, config: SimConfig) -> None:
        """Raise ValueError naming the field when the windows were made
        under another history_len, n_vehicles or n_tx than config's."""
        for field, made in zip(("history_len", "n_vehicles", "n_tx"),
                               self.x.shape[1:4]):
            if made != getattr(config, field):
                raise ValueError(
                    f"dataset made with {field}={made}, the run has "
                    f"{field}={getattr(config, field)}")

    def geometry(self, config: SimConfig) -> BatchGeometry:
        """The examples' loss geometry under config, which check() must
        accept."""
        self.check(config)
        return build_geometry(self.h, self.thetas, self.dists, config)

    def save(self, path: str, config: SimConfig) -> None:
        meta = {"kind": "dataset", "config": config.as_dict()}
        save_container(path, meta, vars(self))

    @classmethod
    def load(cls, path: str) -> "Dataset":
        meta, arrays = load_container(path)
        if (meta.get("kind") != "dataset"
                or list(arrays) != [f.name for f in fields(cls)]):
            raise ValueError(f"{path}: not a dataset file")
        return cls(**arrays)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for arr in vars(self).values():
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


# episodes per dataset block: enough to take each call over many episodes,
# few enough that a block's arrays stay within about 25 MB at the default
# sizes, whatever n_examples is
_BLOCK_EPISODES = 64


def generate_dataset(config: SimConfig, n_examples: int,
                     rng: np.random.Generator) -> Dataset:
    """Collect examples from fresh random-beam episodes.

    Each slot n >= history_len of an episode whose previous slot observed
    every vehicle yields one example: the window of estimated channels from
    slots [n-tau, n-1] and slot n's true channels/angles/distances.

    Episodes run in blocks of at most _BLOCK_EPISODES, and of no more than
    the examples still wanted could need (an episode yields at most
    n_slots - tau), so rng spawns one child per episode exactly as one
    episode at a time would.  Each episode draws its trajectory, random
    beams and noise block from its own child; the block then takes one
    steering evaluation of the true angles, one observation call and one
    estimate array over its [n_ep, n_slots, K] arrays, and no rates or
    CRLBs, which no example holds.  No example's window holds the last
    slot, so no beam or noise is drawn for it and it is not observed.
    """
    if n_examples < 1:
        raise ValueError("n_examples must be >= 1")
    n, tau, k, m = (config.n_slots, config.history_len, config.n_vehicles,
                    config.n_tx)
    if n <= tau:
        raise ValueError("n_slots must exceed history_len for an episode "
                         "to yield an example")
    x = np.empty((n_examples, tau, k, m, 2))
    h = np.empty((n_examples, k, m), dtype=complex)
    thetas, dists, est_thetas, est_dists = np.empty((4, n_examples, k))
    i = 0
    while i < n_examples:
        n_ep = min(_BLOCK_EPISODES, -(-(n_examples - i) // (n - tau)))
        trajectories, w, z = [], [], []
        for child in rng.spawn(n_ep):
            vehicles, rng_obs, rng_beam = _exogenous(config, child)
            trajectories.append(vehicles)
            w.append(random_beamformer(config, rng_beam, n - 1))
            z.append(observation_noise(rng_obs, (n - 1, k)))
        vehicles = VehicleState.stack(trajectories)
        a = steering(vehicles.theta, m)
        obs = generate_observation(
            VehicleState(*(f[:, :-1] for f in vars(vehicles).values())),
            np.stack(w), config, np.stack(z), a=a[:, :-1])
        # row tau + s of an episode holds slot s's estimated channels, zeros
        # before slot 0, so rows s .. s + tau - 1 are slot s's window
        est = np.zeros((n_ep, n - 1 + tau, k, m), dtype=complex)
        _write_estimates(est[:, tau - 1:], obs, config)
        complete = obs.usable.all(axis=-1)
        complete[:, :tau - 1] = False
        ep, prev = (idx[:n_examples - i] for idx in np.nonzero(complete))
        slot = prev + 1
        j = i + len(slot)
        rows = (ep * (n - 1 + tau) + slot)[:, None] + np.arange(tau)
        # every index is in range; mode "clip" writes out in place, where
        # "raise" would write a buffer and copy it
        np.take(est.view(float).reshape(-1, k, m, 2), rows, axis=0,
                out=x[i:j], mode="clip")
        thetas[i:j] = vehicles.theta[ep, slot]
        dists[i:j] = vehicles.dist[ep, slot]
        h[i:j] = effective_channel(thetas[i:j], dists[i:j], config,
                                   a[ep, slot])
        est_thetas[i:j] = obs.theta_hat[ep, prev]
        est_dists[i:j] = obs.d_hat[ep, prev]
        i = j
    return Dataset(x=x, h=h, thetas=thetas, dists=dists,
                   est_thetas=est_thetas, est_dists=est_dists)


# ---- training entry points -------------------------------------------------

def train_hcl(dataset: Dataset, config: SimConfig,
              hyper: TrainHyper) -> tuple[HCLNet, TrainResult]:
    net = HCLNet(config, kappa=dataset.kappa())
    net.init_params(np.random.default_rng(hyper.seed))
    result = train(net, dataset.x, dataset.geometry(config), config, hyper)
    return net, result


def train_naive(dataset: Dataset, config: SimConfig,
                hyper: TrainHyper) -> tuple[NaiveNet, TrainResult]:
    net = NaiveNet(config)
    net.init_params(np.random.default_rng(hyper.seed))
    inputs = net.features(dataset.est_thetas, dataset.est_dists)
    result = train(net, inputs, dataset.geometry(config), config, hyper)
    return net, result


# ---- evaluation ------------------------------------------------------------

@dataclass
class MethodStats:
    method: str
    power: float
    rate_mean: float
    rate_ci: float
    crlb_theta_mean: float
    crlb_d_mean: float
    n_realizations: int
    w_power_mean: float

    @property
    def crlb_theta_sqrt(self) -> float:
        return float(np.sqrt(self.crlb_theta_mean))

    @property
    def crlb_d_sqrt(self) -> float:
        return float(np.sqrt(self.crlb_d_mean))

    def as_dict(self) -> dict:
        return {"method": self.method, "P": self.power,
                "rate_mean": self.rate_mean, "rate_ci": self.rate_ci,
                "crlb_theta_mean": self.crlb_theta_mean,
                "crlb_d_mean": self.crlb_d_mean,
                "crlb_theta_sqrt": self.crlb_theta_sqrt,
                "crlb_d_sqrt": self.crlb_d_sqrt,
                "n": self.n_realizations,
                "w_power_mean": self.w_power_mean}


@dataclass
class EvalReport:
    stats: list          # list[MethodStats]
    config: SimConfig


def _episode_summary(trace: EpisodeTrace, tau: int):
    ct, cd = trace.crlb_theta[tau:], trace.crlb_d[tau:]
    ct, cd = ct[np.isfinite(ct)], cd[np.isfinite(cd)]
    return (float(trace.rates[tau:].mean()),
            float(ct.mean()) if ct.size else np.inf,
            float(cd.mean()) if cd.size else np.inf,
            float((np.abs(trace.w_applied[tau:]) ** 2).sum(axis=(1, 2)).mean()))


def monte_carlo_eval(config: SimConfig, methods: list[str],
                     n_realizations: int, models: dict | None = None,
                     seed: int = 0, project: bool = False) -> EvalReport:
    """Independent episodes per realization; per-method means and 95% CIs.

    The same realization seeds drive every method, so motion trajectories are
    common random numbers across methods.  Each method gets fresh children:
    ``run_episode`` spawns from its generator, which advances the sequence.
    The arguments are checked before any episode runs.
    """
    models = models or {}
    check_eval_args(methods, n_realizations, models)
    stats = []
    tau = config.history_len
    for method in methods:
        children = np.random.SeedSequence(seed).spawn(n_realizations)
        per = np.array([
            _episode_summary(
                run_episode(config, method, np.random.default_rng(children[r]),
                            model=models.get(method), project=project),
                tau)
            for r in range(n_realizations)])
        rates = per[:, 0]
        ci = 0.0
        if n_realizations > 1:
            ci = 1.96 * float(rates.std(ddof=1)) / np.sqrt(n_realizations)
        stats.append(MethodStats(
            method=method, power=config.power_budget,
            rate_mean=float(rates.mean()), rate_ci=ci,
            crlb_theta_mean=float(per[:, 1].mean()),
            crlb_d_mean=float(per[:, 2].mean()),
            n_realizations=n_realizations,
            w_power_mean=float(per[:, 3].mean())))
    return EvalReport(stats=stats, config=config)


DEFAULT_POWER_GRID = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


def power_sweep(config: SimConfig, p_values, methods: list[str],
                n_realizations: int, models: dict | None = None,
                seed: int = 0, project: bool = False,
                train_fn=None) -> list[MethodStats]:
    """EvalReport rows over a transmit-power grid.

    By default, trained models are reused across power points; pass
    ``train_fn(config) -> models`` to retrain per point instead.
    """
    rows = []
    for p in p_values:
        cfg = config.replace(power_budget=float(p))
        models_p = train_fn(cfg) if train_fn is not None else models
        report = monte_carlo_eval(cfg, methods, n_realizations,
                                  models=models_p, seed=seed, project=project)
        rows.extend(report.stats)
    return rows


# ---- export ----------------------------------------------------------------

CSV_HEADER = "method,P,rate_mean,rate_ci,crlb_theta_sqrt,crlb_d_sqrt,n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def export(rows: list[MethodStats], config: SimConfig, path: str,
           fmt: str = "csv") -> None:
    """Write sweep/eval rows as CSV (config echoed in '#' comments) or JSON."""
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in sorted(config.as_dict().items())]
        lines.append(CSV_HEADER)
        for r in rows:
            lines.append(",".join(_fmt(v) for v in (
                r.method, r.power, r.rate_mean, r.rate_ci,
                r.crlb_theta_sqrt, r.crlb_d_sqrt, r.n_realizations)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        import json
        with open(path, "w") as fh:
            json.dump({"config": config.as_dict(),
                       "rows": [r.as_dict() for r in rows]}, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
