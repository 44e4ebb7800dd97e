"""Episode simulation, dataset generation, Monte-Carlo evaluation, sweeps.

Protocol per slot: the RSU applies the beamforming matrix decided during the
previous slot, measures the realized sum-rate and CRLBs against the true
state, receives noisy observations, refreshes the estimated-channel history,
and decides the next slot's beams.  The first history_len slots warm up with
random beams so predictive methods always see a full window.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .baselines import (genie_beamformer, genie_rate, naive_dl_beamformer,
                        random_beamformer)
from .channel import effective_channel, sum_rate
from .config import SimConfig
from .io_container import load_container, save_container
from .kinematics import VehicleState, init_vehicles, step_motion
from .nn.loss import BatchGeometry, build_geometry
from .nn.model import HCLNet, HistoryWindow, NaiveNet
from .nn.train import TrainHyper, TrainResult, train
from .sensing import fisher_information, generate_observation

METHODS = ("genie", "naive_dl", "random", "hcl")


@dataclass
class EpisodeTrace:
    states: list = field(default_factory=list)        # per slot: list[VehicleState]
    w_applied: list = field(default_factory=list)     # per slot: (N_t, K) complex
    decided_at: list = field(default_factory=list)    # slot index that chose W
    rates: list = field(default_factory=list)
    crlb_theta: list = field(default_factory=list)    # per slot: (K,) array
    crlb_d: list = field(default_factory=list)
    observations: list = field(default_factory=list)  # per slot: list[Obs|None]
    est_channels: list = field(default_factory=list)  # per slot: (M, K) complex

    def __len__(self):
        return len(self.rates)


def verify_causality(trace: EpisodeTrace) -> bool:
    """True when every applied W was decided strictly before its slot."""
    return all(dec < n for n, dec in enumerate(trace.decided_at))


def _usable(ob) -> bool:
    """An observation can stand in for its vehicle's channel: it exists and
    its distance estimate is positive (delay noise can push it below zero)."""
    return ob is not None and ob.d_hat > 0


def _estimated_channel_matrix(obs, prev, config: SimConfig) -> np.ndarray:
    h = np.zeros((config.n_tx, config.n_vehicles), dtype=complex)
    for k, ob in enumerate(obs):
        if _usable(ob):
            h[:, k] = effective_channel(ob.theta_hat, ob.d_hat, config)
        elif prev is not None:
            h[:, k] = prev[:, k]
    return h


def _true_channels(states, config: SimConfig) -> np.ndarray:
    """[K, M] true channels of one slot, row k for vehicle k."""
    return effective_channel(np.array([s.theta for s in states]),
                             np.array([s.dist for s in states]), config)


def _slots(config: SimConfig, method: str, rng: np.random.Generator,
           model, theta_mode: str, project: bool):
    """The slot loop of run_episode and generate_dataset: motion, beams,
    observations and the estimate history.  Yields (states, w, decided_at,
    observations, estimated channels) of each slot before deciding the next
    slot's beams."""
    rng_motion, rng_obs, rng_beam = rng.spawn(3)
    tau = config.history_len
    states = init_vehicles(config, rng_motion)
    history: list[np.ndarray] = []
    w_next = random_beamformer(config, rng_beam)
    decided_at = -1
    for n in range(config.n_slots):
        if n > 0:
            states = [step_motion(s, config, rng_motion) for s in states]
        if method == "genie":
            w, dec = genie_beamformer(states, config), n
        else:
            w, dec = w_next, decided_at
        obs = [generate_observation(s, w[:, k], config, rng_obs, theta_mode)
               for k, s in enumerate(states)]
        est = _estimated_channel_matrix(obs, history[-1] if history else None,
                                        config)
        history = (history + [est])[-tau:]
        yield states, w, dec, obs, est
        # decide the next slot's beams; the predictors fall back to random
        # beams while their input is incomplete
        if method == "hcl" and len(history) == tau:
            w_next = model.predict(HistoryWindow(history), project=project)
        elif method == "naive_dl" and all(_usable(ob) for ob in obs):
            w_next = naive_dl_beamformer(obs, model, config)
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
    for states, w, dec, obs, est in _slots(config, method, rng, model,
                                            theta_mode, project):
        if method == "genie":
            rate = genie_rate(states, config)
        else:
            rate = sum_rate(_true_channels(states, config).T, w,
                            config.noise_vehicle)
        infos = [fisher_information(s, w[:, k], config)
                 for k, s in enumerate(states)]
        trace.states.append(states)
        trace.w_applied.append(w)
        trace.decided_at.append(dec)
        trace.rates.append(rate)
        trace.crlb_theta.append(np.array([i.crlb_theta for i in infos]))
        trace.crlb_d.append(np.array([i.crlb_d for i in infos]))
        trace.observations.append(obs)
        trace.est_channels.append(est)
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
        save_container(path, meta, {
            "x": self.x, "h": self.h, "thetas": self.thetas,
            "dists": self.dists, "est_thetas": self.est_thetas,
            "est_dists": self.est_dists})

    @classmethod
    def load(cls, path: str) -> "Dataset":
        meta, arrays = load_container(path)
        if meta.get("kind") != "dataset":
            raise ValueError(f"{path}: not a dataset file")
        return cls(**arrays)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.x, self.h, self.thetas, self.dists,
                    self.est_thetas, self.est_dists):
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
    tau = config.history_len
    xs, hs, ths, ds, eth, edi = [], [], [], [], [], []
    while len(xs) < n_examples:
        window, obs_prev = [], None    # estimates of the last tau slots
        for states, _, _, obs, est in _slots(config, "random", rng.spawn(1)[0],
                                             None, theta_mode, False):
            if len(xs) >= n_examples:
                break
            if len(window) == tau and all(_usable(ob) for ob in obs_prev):
                xs.append(HistoryWindow(window).as_tensor())
                hs.append(_true_channels(states, config))
                ths.append([s.theta for s in states])
                ds.append([s.dist for s in states])
                eth.append([ob.theta_hat for ob in obs_prev])
                edi.append([ob.d_hat for ob in obs_prev])
            window = (window + [est])[-tau:]
            obs_prev = obs
    return Dataset(x=np.stack(xs), h=np.stack(hs),
                   thetas=np.asarray(ths), dists=np.asarray(ds),
                   est_thetas=np.asarray(eth), est_dists=np.asarray(edi))


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
