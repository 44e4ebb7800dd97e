"""Episode simulation, dataset generation, Monte-Carlo evaluation, sweeps.

Protocol per slot: the RSU applies the beamforming matrix decided during the
previous slot, measures the realized sum-rate and CRLBs against the true
state, receives noisy observations, refreshes the estimated-channel history,
and decides the next slot's beams.  The first history_len slots warm up with
random beams so predictive methods always see a full window.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .baselines import (genie_beamformer, genie_rate, naive_dl_beamformer,
                        random_beamformer)
from .channel import effective_channel, sum_rate
from .config import SimConfig
from .io_container import load_container, save_container
from .kinematics import init_vehicles, step_motion
from .nn.loss import BatchGeometry, build_geometry
from .nn.model import HCLNet, NaiveNet
from .nn.train import TrainHyper, TrainResult, train
from .sensing import fisher_information, generate_observation

METHODS = ("genie", "naive_dl", "random", "hcl")


@dataclass
class EpisodeTrace:
    vehicles: list = field(default_factory=list)      # per slot: VehicleState of [K] arrays
    w_applied: list = field(default_factory=list)     # per slot: (N_t, K) complex
    decided_at: list = field(default_factory=list)    # slot index that chose W
    rates: list = field(default_factory=list)
    crlb_theta: list = field(default_factory=list)    # per slot: (K,) array
    crlb_d: list = field(default_factory=list)

    def __len__(self):
        return len(self.rates)

    @cached_property
    def states(self) -> list:
        """Per slot: the K vehicles as scalar VehicleState records."""
        return [v.records() for v in self.vehicles]


def verify_causality(trace: EpisodeTrace) -> bool:
    """True when every applied W was decided strictly before its slot."""
    return all(dec < n for n, dec in enumerate(trace.decided_at))


def _slots(config: SimConfig, method: str, rng: np.random.Generator,
           model, theta_mode: str, project: bool):
    """The slot loop of run_episode and generate_dataset over the K vehicles
    as arrays: motion, beams, observations and the estimate history.  Yields
    (vehicles, w, decided_at, observations, history) of each slot before
    deciding the next slot's beams; history is the [tau, K, M] window of
    estimated channels ending at this slot, zeros before the first."""
    rng_motion, rng_obs, rng_beam = rng.spawn(3)
    tau = config.history_len
    vehicles = init_vehicles(config, rng_motion)
    history = np.zeros((tau, config.n_vehicles, config.n_tx), dtype=complex)
    w_next = random_beamformer(config, rng_beam)
    decided_at = -1
    for n in range(config.n_slots):
        if n > 0:
            vehicles = step_motion(vehicles, config, rng_motion)
        if method == "genie":
            w, dec = genie_beamformer(vehicles, config), n
        else:
            w, dec = w_next, decided_at
        obs = generate_observation(vehicles, w, config, rng_obs, theta_mode)
        # a vehicle without a usable estimate carries its previous row forward
        history = np.concatenate((history[1:], history[-1:]))
        history[-1, obs.usable] = effective_channel(
            obs.theta_hat[obs.usable], obs.d_hat[obs.usable], config)
        yield vehicles, w, dec, obs, history
        # decide the next slot's beams; the predictors fall back to random
        # beams while their input is incomplete
        if method == "hcl" and n >= tau - 1:
            w_next = model.predict(history, project=project)
        elif method == "naive_dl" and obs.usable.all():
            w_next = naive_dl_beamformer(obs.theta_hat, obs.d_hat, model,
                                         config)
        elif method != "genie":
            w_next = random_beamformer(config, rng_beam)
        decided_at = n


def run_episode(config: SimConfig, method: str, rng: np.random.Generator,
                model=None, theta_mode: str = "relative",
                project: bool = False) -> EpisodeTrace:
    """Simulate one episode of config.n_slots slots under one beamforming method.

    Motion, observation noise, and random-beam draws use three independent
    child streams so trajectories are comparable across methods at a fixed
    seed.  The genie recomputes its aligned beams from the current truth each
    slot and is exempt from the causality invariant.  Every slot's sum-rate
    and CRLBs are measured against the true state.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in ("hcl", "naive_dl") and model is None:
        raise ValueError(f"method {method!r} requires a trained model")
    trace = EpisodeTrace()
    for vehicles, w, dec, _, _ in _slots(config, method, rng, model,
                                         theta_mode, project):
        if method == "genie":
            rate = genie_rate(vehicles, config)
        else:
            h = effective_channel(vehicles.theta, vehicles.dist, config)
            rate = sum_rate(h.T, w, config.noise_vehicle)
        info = fisher_information(vehicles, w, config)
        trace.vehicles.append(vehicles)
        trace.w_applied.append(w)
        trace.decided_at.append(dec)
        trace.rates.append(rate)
        trace.crlb_theta.append(info.crlb_theta)
        trace.crlb_d.append(info.crlb_d)
    return trace


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
        """Input normalization 1 / median estimated-channel column norm."""
        norms = np.sqrt((self.x ** 2).sum(axis=(3, 4)))
        med = float(np.median(norms))
        return 1.0 / med if med > 0 else 1.0

    def geometry(self, config: SimConfig) -> BatchGeometry:
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


def generate_dataset(config: SimConfig, n_examples: int,
                     rng: np.random.Generator,
                     theta_mode: str = "relative") -> Dataset:
    """Collect examples from fresh random-beam episodes.

    Each valid position n >= history_len of an episode yields one example:
    the window of estimated channels from slots [n-tau, n-1] and slot n's
    true channels/angles/distances.  The episodes run the slot loop of
    run_episode without its rates and CRLBs, which no example holds.
    """
    if n_examples < 1:
        raise ValueError("n_examples must be >= 1")
    tau, k, m = config.history_len, config.n_vehicles, config.n_tx
    x = np.empty((n_examples, tau, k, m, 2))
    h = np.empty((n_examples, k, m), dtype=complex)
    thetas, dists, est_thetas, est_dists = np.empty((4, n_examples, k))
    i = 0
    while i < n_examples:
        slots = _slots(config, "random", rng.spawn(1)[0], None, theta_mode,
                       False)
        for n, (vehicles, _, _, obs, history) in enumerate(slots):
            if i >= n_examples:
                break
            if n >= tau and obs_prev.usable.all():
                x[i, ..., 0], x[i, ..., 1] = window.real, window.imag
                h[i] = effective_channel(vehicles.theta, vehicles.dist, config)
                thetas[i], dists[i] = vehicles.theta, vehicles.dist
                est_thetas[i], est_dists[i] = obs_prev.theta_hat, obs_prev.d_hat
                i += 1
            obs_prev, window = obs, history
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
    sl = slice(tau, None)
    rates = np.asarray(trace.rates[sl])
    ct = np.concatenate([c for c in trace.crlb_theta[sl]])
    cd = np.concatenate([c for c in trace.crlb_d[sl]])
    pw = [float(np.sum(np.abs(w) ** 2)) for w in trace.w_applied[sl]]
    return (float(rates.mean()),
            float(ct[np.isfinite(ct)].mean()) if np.isfinite(ct).any() else np.inf,
            float(cd[np.isfinite(cd)].mean()) if np.isfinite(cd).any() else np.inf,
            float(np.mean(pw)))


def monte_carlo_eval(config: SimConfig, methods: list[str],
                     n_realizations: int, models: dict | None = None,
                     seed: int = 0, theta_mode: str = "relative",
                     project: bool = False) -> EvalReport:
    """Independent episodes per realization; per-method means and 95% CIs.

    The same realization seeds drive every method, so motion trajectories are
    common random numbers across methods.  Each method gets fresh children:
    ``run_episode`` spawns from its generator, which advances the sequence.
    """
    models = models or {}
    stats = []
    tau = config.history_len
    for method in methods:
        children = np.random.SeedSequence(seed).spawn(n_realizations)
        per = np.array([
            _episode_summary(
                run_episode(config, method, np.random.default_rng(children[r]),
                            model=models.get(method), theta_mode=theta_mode,
                            project=project),
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
                seed: int = 0, theta_mode: str = "relative",
                project: bool = False, train_fn=None) -> list[MethodStats]:
    """EvalReport rows over a transmit-power grid.

    By default, trained models are reused across power points; pass
    ``train_fn(config) -> models`` to retrain per point instead.
    """
    rows = []
    for p in p_values:
        cfg = config.replace(power_budget=float(p))
        models_p = train_fn(cfg) if train_fn is not None else models
        report = monte_carlo_eval(cfg, methods, n_realizations,
                                  models=models_p, seed=seed,
                                  theta_mode=theta_mode, project=project)
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
    try:
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
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
